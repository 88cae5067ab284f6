"""Row blocks on processes: the row pool and every fork of the package.

A sphere row is one cell; a torus row is N^2 cells (N for a one-column
stack).  ``row_slices`` cuts rows into blocks, and a ``RowPool`` maps a
function over them on the calling process and worker processes, forked on
Linux once per pool, so the blocks do not contend for one interpreter lock:
a call can be submitted to the workers and joined later, the caller then
taking the blocks the workers have not claimed (``_claim``).  The workers
inherit the row functions and the trajectory through ``fork``; what is made
after it lives in the pool's shared arrays.  Each row's result is bitwise
what it gives alone, so no result depends on the block size, the worker
count or the process that evaluates it.  ``may_fork``, ``_fork`` and
``_reap`` are the one fork mechanism, which ``forked``, the one-shot child
of a convergence study (``harness``), uses too; a process they forked forks
none.  ``measured`` is the one usage meter, of pool calls and run stages
alike, and ``peak_rss_mb`` the one peak resident set reader.

The run buffers' policy lives here too (see ``CHUNK_CELLS``):
``density_chunks`` cuts a run's rows into the near-equal chunks its heat
solve steps, and importing this module raises glibc's heap thresholds once
for this process and every process it forks.
"""

from __future__ import annotations

import functools
import logging
import mmap
import os
import pickle
import signal
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np

try:
    import resource
except ImportError:  # not on every platform; no faults or ru_maxrss then
    resource = None

__all__ = [
    "WORKERS",
    "ROW_CELLS",
    "CHUNK_CELLS",
    "RowPool",
    "row_pool",
    "row_slices",
    "density_chunks",
    "may_fork",
    "forked",
    "measured",
    "peak_rss_mb",
]

# Processes that run row blocks: the CPUs this process may run on.
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)

# Cap on the cells (rows x cells per row) in flight across all processes,
# so peak memory does not grow with the core count: the row blocks of
# ``row_slices`` hold at most ROW_CELLS // WORKERS cells each, whether a
# ``RowPool`` maps them (lambda0 and the row kernel) or the heat solve
# steps and checks them in turn.  Measured at 2^14 ... 2^17 on a thread
# pool (2-core Xeon, two workers; CHANGES.md): 2^16 is within 5 % of the
# fastest at N = 32, 64 and 128 (rows_s 1.00 s against 1.36 s at 2^15),
# and 2^17 adds 16 MiB of peak memory at N = 128 for nothing.
ROW_CELLS = 2**16

# Cap on the cells of the density chunks a run holds (4 MiB of float64):
# a run's heat solve hands its rows to the row evaluation in chunks, so a
# run holds densities for a chunk, not their whole history (20 MiB on the
# N = 128 ladder level).  ``density_chunks`` cuts the rows into near-equal
# chunks: ``harness.evaluate_tables`` steps them in turn into two row-pool
# arrays of at most CHUNK_CELLS // 4 cells (at least one row), one read by
# the kernel while the heat solve steps the other, so a run holds half of
# CHUNK_CELLS; a solve stepped without ``out`` holds up to CHUNK_CELLS.
# The heap policy: glibc sizes its dynamic mmap and trim thresholds from
# the largest block freed so far, and with its defaults a row-kernel block
# or a CSV writer block whose working set (its fields at their peak) is
# above the trim threshold is returned to the system after each block and
# faulted back on every block.  Importing this module frees one buffer of
# CHUNK_CELLS cells, the one place that raises them (to 4 and 8 MiB), once
# per process: the processes it forks, the row pool's workers and a
# study's child, inherit them.  A warm homogeneous_long pass takes 0 minor
# faults with it and 1,305 without, its CSV writers' blocks among them;
# the first N = 128 ladder level of a fresh process took 32k minor faults
# in the caller and 28k in its worker without it, against 4.2k and 1.5k.
# At 2^19 the threshold covers the kernel's 12-field block of 2^15 cells
# (ROW_CELLS // WORKERS at two workers): 12 minor faults per warm ladder
# pass on a thread pool, and 3.5 MiB less peak memory than 2^20 (2-core
# Xeon); a 23-field block cost about 2k faults per pass at 2^19, and
# 52k-86k at 2^18.  A warm ladder pass, which forks, takes about 3.3k
# minor faults in the caller and 4.2k in the study's child and the pool's
# worker together.
CHUNK_CELLS = 2**19
np.empty(CHUNK_CELLS)


class RowPool:
    """Row blocks mapped on this process and forked worker processes.

    ``submit(fn, rows, cells, *args)`` starts a call of ``fn(*args, block)``
    on each slice of ``row_slices(0, rows, cells)`` and returns at once;
    ``join(call)`` evaluates what is left of it (and of every call
    submitted before it) in the calling process and waits for the workers'
    share.  The blocks of a call are cut into one contiguous part per
    worker (at most one per block), and each part is shared by two
    processes: its worker takes blocks from the top and the caller, once
    it joins, from the bottom, each announcing its next block
    before it takes it (``_claim``), so no share is fixed in advance and a
    worker still busy with an earlier call leaves the caller the whole
    part.  A block may run in both processes (only after one of them read
    the other's counter before its last write had reached it), to the same
    bits; none is skipped.  Each row runs the same code on the same inputs
    in any process, so its result is bitwise what it is in the caller.

    The workers are forked (``_fork``) once, at the first ``submit``.  They
    inherit through ``fork`` what existed then: the functions ``add``
    registered and the objects those read (a trajectory's stack, say).
    Everything the blocks share that is written after the fork, their
    outputs and inputs such as the density chunks the heat solve steps and
    the parts' claim counters, lives in the pool's ``array``s, anonymous
    shared memory made before it; a call sends each worker the function's
    index, its part's slices and ``args``, a few integers, over its task
    pipe, and reads its reply from its reply pipe.  A worker checks before
    each block it claims that this process is still its parent, and leaves
    if not.  The pool forks only where ``may_fork`` allows it: a pool of
    one process, one on another platform than Linux or one in a process
    ``_fork`` started runs every call in the caller, at ``submit``, and its
    arrays are private, and a call made while another thread is alive in
    this process runs in the caller too.

    A worker stops at the first block it took that raises, flags its part
    and sends the exception back pickled.  The first failing block in call
    and block order propagates: ``join`` reads the parts' replies in that
    order, a block of the caller's that raises propagates once the parts
    before it have ended, and the caller claims no block past a flagged
    part.  A join that fails (or is interrupted) kills and reaps
    the workers before its exception leaves it, so no block starts after
    that, and the pool runs its calls in the caller from then on, as it
    does after ``close`` (the ``with`` block's exit), which closes the pipes
    and reaps every worker, killing them first when the block exits by an
    exception; a worker leaves on pipe EOF or on its own KeyboardInterrupt.
    ``processes_used`` is the most processes one call ran blocks on (1 when
    none forked), ``workers_peak_rss_mb`` the largest peak resident set a
    worker reported (None when none ran), and a reaped worker's CPU time
    and page faults are this process's ``RUSAGE_CHILDREN``.  Each call
    records the wall time, CPU time and minor faults its blocks took in
    every process (``_Call.usage``) and the rows its workers took.
    """

    def __init__(self, processes: int | None = None):
        self._processes = WORKERS if processes is None else processes
        self.shared = may_fork(self._processes, now=False)
        self._fns = []
        self._workers = None  # [(pid, task fd, reply fd)] once forked
        self._ends = None  # the parts' claim counters, once forked
        self._calls = []  # the calls submitted to the workers, not joined
        self._submitted = 0
        self._peaks = {}
        self.processes_used = 1

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close(kill=exc_type is not None)

    @property
    def workers_peak_rss_mb(self) -> float | None:
        return max(self._peaks.values(), default=None)

    def add(self, fn):
        """Register ``fn`` for ``submit``, before the pool forks; returns
        it."""
        if self._workers is not None:
            raise RuntimeError("row function added after the pool forked")
        self._fns.append(fn)
        return fn

    def array(self, shape, dtype=float) -> np.ndarray:
        """A new array the workers share, made before the pool forks:
        anonymous shared memory (zeroed) when the pool can fork, else a
        private ``np.empty``."""
        if self._workers is not None:
            raise RuntimeError("row-pool array made after the pool forked")
        if not self.shared:
            return np.empty(shape, dtype)
        dtype, count = np.dtype(dtype), int(np.prod(shape))
        buffer = mmap.mmap(-1, max(1, count * dtype.itemsize))
        return np.frombuffer(buffer, dtype, count).reshape(shape)

    def submit(self, fn, rows: int, cells: int, *args) -> _Call:
        """Start ``fn(*args, block)`` on each row block: sent to the
        workers, forked here if need be, else run here at once; ``join``
        ends it."""
        index = next((i for i, f in enumerate(self._fns) if f is fn), None)
        if index is None:
            raise ValueError("row function not added to the pool")
        blocks, call = row_slices(0, rows, cells), _Call(fn, args)
        workers = self._start()
        if not workers:
            with measured(call.usage):
                for block in blocks:
                    fn(*args, block)
            return call
        if len(self._calls) == len(self._ends):
            self.join(self._calls[0])  # its counters serve the new call
        slot = self._submitted % len(self._ends)
        self._submitted += 1
        n = min(len(workers), len(blocks))
        bounds = [len(blocks) * i // n for i in range(n + 1)]
        for worker, ends, lo, hi in zip(workers, self._ends[slot], bounds,
                                        bounds[1:]):
            ends[:] = 0, hi - lo, 0
            _send(worker[1], pickle.dumps((index, slot, blocks[lo:hi], args)))
            call.parts.append((worker, ends, blocks[lo:hi]))
        self.processes_used = max(self.processes_used, n + 1)
        self._calls.append(call)
        return call

    def join(self, call: _Call | None = None) -> None:
        """End ``call`` and every call submitted before it (every call when
        None): the caller takes what is left of each part, bottom up, then
        reads the parts' replies and runs the blocks that both processes
        withdrew from (see the class)."""
        upto = len(self._calls) if call is None else next(
            (i + 1 for i, c in enumerate(self._calls) if c is call), 0)
        calls, self._calls = self._calls[:upto], self._calls[upto:]
        parts = [(c, part) for c in calls for part in c.parts]
        try:
            for k, (c, (_, ends, blocks)) in enumerate(parts):
                earlier = [e for _, (_, e, _) in parts[:k]]
                try:
                    # No block after a part whose worker failed.
                    while (not any(e[2] for e in earlier) and (
                            block := _claim(ends, 0)) is not None):
                        with measured(c.usage):
                            c.fn(*c.args, blocks[block])
                except Exception:
                    for before in parts[:k]:  # their failures come first
                        self._finish(*before)
                    raise
            for c, part in parts:
                self._finish(c, part)
        except BaseException:
            self.close(kill=True)  # no block starts after this
            raise

    def _finish(self, call: _Call, part) -> None:
        """Read the part's reply, run the blocks neither process took, then
        raise the worker's failure, if any; records the worker's peak
        resident set, usage and rows."""
        worker, ends, blocks = part
        (peak, used), failure = _reply(worker)
        self._peaks[worker[0]] = peak
        _add(call.usage, used)
        caller, top = int(ends[0]), int(ends[1])
        for block in blocks[caller:top]:
            with measured(call.usage):
                call.fn(*call.args, block)
        call.worker_rows += sum(b.stop - b.start for b in blocks[top:])
        if failure is not None:
            raise failure

    def _start(self) -> list:
        """The workers, forked at the first call that can use them: none
        where ``may_fork`` refuses."""
        if self._workers is None:
            if not may_fork(self._processes):
                return []
            # Two calls' counters: the ground states' and the first chunk's
            # (``harness.evaluate_tables``) are in flight together.
            self._ends = self.array((2, self._processes - 1, 3), np.int64)
            self._workers, parent = [], os.getpid()
            for w in range(self._processes - 1):
                self._workers.append(_fork(
                    functools.partial(_serve, fns=self._fns,
                                      ends=self._ends[:, w], parent=parent),
                    [fd for _, *fds in self._workers for fd in fds]))
        return self._workers

    def close(self, kill: bool = False) -> None:
        """Close the pipes and reap every worker, killed first if ``kill``;
        the calls not joined are dropped."""
        workers, self._workers, self._calls = self._workers or [], [], []
        _reap(workers, kill)


class _Call:
    """A ``RowPool`` call: its function and arguments, the parts its
    workers share with the caller (worker, ``_claim`` counters, blocks),
    the wall time, CPU time and minor faults (None without ``resource``)
    its blocks took in every process, and the rows its workers took."""

    def __init__(self, fn, args: tuple):
        self.fn, self.args, self.parts = fn, args, []
        self.usage, self.worker_rows = [0.0, 0.0, 0], 0


def _claim(ends, side: int) -> int | None:
    """Claim the next block of a part the caller (``side`` 0) and a worker
    (1) share, or None once the part holds none for this side.

    ``ends`` is the part's counters in shared memory: the caller's blocks
    are ``range(ends[0])``, taken bottom up, and the worker's
    ``range(ends[1], len(part))``, taken top down (``ends[2]``, which the
    worker sets when a block of its fails, is not read here).  The side
    first announces its next block, by moving its own end over it, then
    reads the other end: the block is its own if the other side has not
    announced it too; else it moves its end back and takes nothing more.
    So a block runs twice only when one side read the other's end before
    that side's last write reached it, and no block is taken by neither
    side but where both announced it and each read the other's
    announcement: once both sides have stopped, such a block lies in
    ``range(ends[0], ends[1])``, which the caller then runs
    (``RowPool._finish``)."""
    if side == 0:
        block = int(ends[0])
        ends[0] = block + 1
        if block < ends[1]:
            return block
        ends[0] = block
    else:
        block = int(ends[1]) - 1
        ends[1] = block
        if block >= ends[0]:
            return block
        ends[1] = block + 1
    return None


def row_pool(rows: int, cells: int) -> RowPool:
    """A pool for calls of at most ``rows`` rows of at most ``cells`` cells
    each: of one process, private arrays and no fork, when none of them
    has 2 blocks."""
    return RowPool(min(WORKERS, len(row_slices(0, rows, cells))))


# True in every process ``_fork`` started: it runs its work itself.
_FORKED = False


def may_fork(processes: int, now: bool = True) -> bool:
    """Whether work may go to ``processes - 1`` forked processes: more than
    one process, on Linux only (elsewhere a fork that does not exec is
    unsafe beside system libraries, BLAS among them), not from a process
    ``_fork`` started, so a forked study level maps its row blocks in its
    own process, and, ``now`` (at the fork itself), with no other thread
    alive in this process (a fork copies only the calling thread)."""
    return (processes > 1 and sys.platform.startswith("linux") and not _FORKED
            and (not now or threading.active_count() == 1))


def _fork(child, inherited=()) -> tuple:
    """Fork a process that runs ``child(tasks, replies)``, on the read end
    of a new task pipe and the write end of a new reply pipe: its pid and
    this process's ends of the two pipes, (pid, task fd, reply fd).  The
    child first closes this process's ends and the ``inherited``
    descriptors; once ``child`` returns or raises, it flushes standard
    output and error and leaves by ``os._exit``, so no exit handler runs.
    Both streams are flushed before the fork too, so the child writes
    nothing this process had buffered."""
    global _FORKED
    (task_in, task), (reply, reply_out) = os.pipe(), os.pipe()
    _flush()
    try:
        pid = os.fork()
    except OSError:
        for fd in (task_in, task, reply, reply_out):
            os.close(fd)
        raise
    if pid == 0:
        try:
            _FORKED = True
            for fd in (task, reply, *inherited):
                os.close(fd)
            child(task_in, reply_out)
        finally:
            try:
                _flush()
            finally:
                os._exit(0)
    os.close(task_in)
    os.close(reply_out)
    return pid, task, reply


def _flush() -> None:
    """Flush standard output and error; a stream that cannot be flushed
    (closed, or a closed pipe) is left as it is."""
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError, ValueError):
            pass


def _reap(children, kill: bool = False) -> None:
    """Close this process's pipe ends of the ``_fork`` children and wait
    for each to exit, killed first if ``kill``."""
    for pid, task, reply in children:
        if kill:
            os.kill(pid, signal.SIGKILL)
        os.close(task)
        os.close(reply)
    for pid, _, _ in children:
        os.waitpid(pid, 0)


def _serve(tasks: int, replies: int, fns, ends, parent: int) -> None:
    """A worker's loop, until EOF, an interrupt or the loss of its
    ``parent``: for each call, take blocks of its part from the top
    (``_claim`` on the part's counters, ``ends[slot]``) until the caller
    has the rest, checking before each claim that ``parent`` is still this
    process's parent, and reply with this process's peak resident set, the
    blocks' ``_usage`` and None or the first failing block's exception
    (``_dumps``)."""
    try:
        while True:
            try:
                index, slot, blocks, args = _recv(tasks)
            except EOFError:
                return
            used, failure = [0.0, 0.0, 0], None
            with measured(used):
                while True:
                    if os.getppid() != parent:
                        return  # orphaned: no caller joins this call
                    block = _claim(ends[slot], 1)
                    if block is None:
                        break
                    try:
                        fns[index](*args, blocks[block])
                    except Exception as exc:
                        failure, ends[slot, 2] = exc, 1
                        break
            _send(replies, _dumps((peak_rss_mb(), used), failure))
    except KeyboardInterrupt:
        return


class forked:
    """``with forked(calls) as child:`` runs ``calls``, functions of no
    argument, in order in one child process (``_fork``) while the block
    runs; ``child.result()`` waits for the child and returns their values,
    or raises the first failing call's exception.

    The child stops at its first failing call, checks before each call
    that this process is still its parent and leaves if not, and sends
    the values and the failure, if any, as one ``_dumps`` message (an
    exception pickle cannot carry arrives as a RuntimeError naming it); it
    flushes the logging handlers before it leaves.  The block's exit reaps
    the child, killed first unless ``result`` has read its message, so an
    exception in the block, an interrupt included, leaves no child."""

    def __init__(self, calls):
        parent = os.getpid()

        def child(tasks, replies):
            values, failure = [], None
            try:
                for call in calls:
                    if os.getppid() != parent:
                        return  # the parent is gone: no reply
                    values.append(call())
            except Exception as exc:
                failure = exc
            finally:
                logging.shutdown()
            _send(replies, _dumps(values, failure))

        self._child = _fork(child)
        self._kill = True  # until the child's message is read

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        _reap([self._child], self._kill)

    def result(self) -> list:
        values, failure = _reply(self._child)
        self._kill = False
        if failure is not None:
            raise failure
        return values


def _reply(child) -> tuple:
    """The message a ``_fork`` child (pid, task fd, reply fd) sent on its
    reply pipe, (head, failure) of ``_dumps``; a RuntimeError naming the
    child when it exited without one."""
    try:
        return _recv(child[2])
    except EOFError:
        raise RuntimeError(f"forked process {child[0]} exited") from None


def _dumps(head, failure) -> bytes:
    """``pickle.dumps((head, failure))``, ``failure`` None or an exception;
    one that pickle cannot carry goes as a RuntimeError naming its type and
    message."""
    try:
        return pickle.dumps((head, failure))
    except (pickle.PicklingError, TypeError, AttributeError):
        return pickle.dumps(
            (head, RuntimeError(f"{type(failure).__name__}: {failure}")))


def _send(fd: int, message: bytes) -> None:
    """Write a pickled ``message`` to the pipe ``fd``, after its 8-byte
    length.  (``multiprocessing.connection`` frames messages alike, but
    importing it adds 0.6 MiB to a forking run's resident set.)"""
    view = memoryview(len(message).to_bytes(8, "little") + message)
    while view:
        view = view[os.write(fd, view):]


def _recv(fd: int):
    """The next message ``_send`` wrote to the pipe ``fd``, unpickled;
    EOFError when the pipe is closed."""

    def read(size):
        parts = []
        while size:
            part = os.read(fd, size)
            if not part:
                raise EOFError
            parts.append(part)
            size -= len(part)
        return b"".join(parts)

    return pickle.loads(read(int.from_bytes(read(8), "little")))


def peak_rss_mb() -> float | None:
    """This process's peak resident set so far in MiB: ``VmHWM`` of
    /proc/self/status where that file exists, which exec resets, so a run
    started as a child process does not report its parent's peak; else
    ``getrusage``'s ``ru_maxrss`` (KiB on Linux, bytes on macOS), None
    without ``resource``."""
    try:
        with open("/proc/self/status", "rb") as status:
            for line in status:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if resource is None:
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (
        2.0**20 if sys.platform == "darwin" else 1024.0)


def _usage() -> tuple:
    """This process's wall clock, CPU time of all its threads and minor page
    faults so far, the last two with those of its reaped children
    (``RUSAGE_CHILDREN``): a block counts the children reaped within it, as
    a run stage does the row pool's workers, and a ``RowPool`` call, within
    which no child is reaped, its own usage alone; about 3 us a reading.
    Without ``resource`` the CPU time is this process's alone and the
    faults None."""
    wall, cpu = time.perf_counter(), time.process_time()
    if resource is None:
        return wall, cpu, None
    own, children = map(resource.getrusage,
                        (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return (wall, cpu + children.ru_utime + children.ru_stime,
            own.ru_minflt + children.ru_minflt)


@contextmanager
def measured(usage: list):
    """Add the block's ``_usage`` to ``usage``."""
    since = _usage()
    try:
        yield
    finally:
        _add(usage, [None if b is None else b - a
                     for a, b in zip(since, _usage())])


def _add(usage: list, used) -> None:
    """Add ``used`` to ``usage`` entry by entry; an entry None in either
    (faults without ``resource``) stays None."""
    usage[:] = [None if a is None or b is None else a + b
                for a, b in zip(usage, used)]


def row_slices(start: int, stop: int, cells: int) -> list:
    """The consecutive slices of ``range(start, stop)``, lowest first, each
    of at most ``ROW_CELLS // WORKERS`` cells (at least one row)."""
    size = max(1, ROW_CELLS // (WORKERS * cells))
    return [slice(lo, min(lo + size, stop)) for lo in range(start, stop, size)]


def density_chunks(rows: int, cells: int, cap: int) -> list:
    """The chunks a run's heat solve steps its ``rows`` densities of
    ``cells`` cells each in: count = ceil(rows / s) consecutive slices of
    ``range(rows)``, highest first, with s = max(1, cap // cells) the rows
    that ``cap`` cells hold (at least one).  Chunk i from the bottom starts
    at row rows * i // count, as part i of a ``RowPool`` call starts at
    block len(blocks) * i // n, so their lengths differ by at most one, and
    the first, the top chunk, is the longest."""
    count = -(-rows // max(1, cap // cells))
    return [slice(rows * (i - 1) // count, rows * i // count)
            for i in range(count, 0, -1)]
