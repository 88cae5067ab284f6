"""The process layer: where the package forks, and the one-shot child.

The row pool's own tests stay with the operators in test_geometry.py and
with the runs in test_harness.py; these check ``riccilab.parallel`` as a
module and its ``forked`` child.
"""

import ast
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import riccilab as rl
from riccilab import geometry, parallel

from cross_checks import children_left

PACKAGE = Path(rl.__file__).parent

# The names that left geometry for parallel, under their old names.
MOVED = ("WORKERS", "ROW_CELLS", "CHUNK_CELLS", "RowPool", "_Call", "_claim",
         "row_pool", "row_slices", "_FORKED", "_may_fork", "_fork", "_flush",
         "_reap", "_serve", "_dumps", "_send", "_recv", "_peak_rss_mb",
         "_usage", "_measured", "_add")


def process_names(tree) -> set:
    """The process machinery a module names: ``os.fork``, ``os.pipe``, and
    the ``mmap`` and ``pickle`` modules, imported or read."""
    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "os" and node.attr in ("fork", "pipe")):
            found.add(f"os.{node.attr}")
        elif isinstance(node, ast.Import):
            found |= {a.name for a in node.names} & {"mmap", "pickle"}
        elif isinstance(node, ast.ImportFrom):
            if node.module in ("mmap", "pickle"):
                found.add(node.module)
            if node.module == "os":
                found |= {f"os.{a.name}" for a in node.names
                          if a.name in ("fork", "pipe")}
        elif isinstance(node, ast.Name) and node.id in ("mmap", "pickle"):
            found.add(node.id)
    return found


def private_parallel_names(tree) -> set:
    """The ``_``-prefixed names a module reads of ``parallel``, as an
    attribute or through ``from .parallel import``."""
    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "parallel" and node.attr.startswith("_")):
            found.add(node.attr)
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[-1] == "parallel"):
            found |= {a.name for a in node.names if a.name.startswith("_")}
    return found


def test_process_code_lives_in_parallel_only():
    # Among the package's modules only parallel forks, makes pipes, maps
    # shared memory or pickles; no other names a private name of it, and
    # geometry keeps no alias of what moved, nor the imports it served.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert "parallel.py" in trees
    using = {name for name, tree in trees.items() if process_names(tree)}
    assert using == {"parallel.py"}
    assert process_names(trees["parallel.py"]) == {
        "os.fork", "os.pipe", "mmap", "pickle"}
    assert {name: private_parallel_names(tree) for name, tree in trees.items()
            if name != "parallel.py" and private_parallel_names(tree)} == {}
    assert [name for name in MOVED if hasattr(geometry, name)] == []
    imported = {a.name.split(".")[0] for node in ast.walk(trees["geometry.py"])
                if isinstance(node, ast.Import) for a in node.names}
    assert not imported & {"mmap", "pickle", "signal", "threading", "time",
                           "resource"}


def test_forked_child_returns_its_values_or_its_first_failure():
    # The child's values in call order; its first failing call's exception,
    # the calls after it not run; one pickle cannot carry as a RuntimeError
    # naming it.  No child is left either way.
    with parallel.forked([lambda: os.getpid(), lambda: 2]) as child:
        values = child.result()
    assert values[0] != os.getpid() and values[1] == 2

    def fails():
        raise ValueError("second call")

    def unpicklable():
        raise type("LocalChildError", (Exception,), {})("first call")

    with pytest.raises(ValueError, match="second call"):
        with parallel.forked([lambda: 1, fails, lambda: os._exit(3)]) as child:
            child.result()
    with pytest.raises(RuntimeError, match="LocalChildError: first call"):
        with parallel.forked([unpicklable]) as child:
            child.result()
    assert not children_left()


# A process that forks a child whose first call logs "pid 0" to the file
# argv[1] and sleeps 0.5 s, and whose second logs "pid 1"; it then sleeps.
FORKED_SCRIPT = """
import os, sys, time
from riccilab import parallel
log = os.open(sys.argv[1], os.O_WRONLY | os.O_APPEND)

def call(k):
    def logged():
        os.write(log, f"{os.getpid()} {k}\\n".encode())
        time.sleep(0.5)
    return logged

with parallel.forked([call(0), call(1)]):
    time.sleep(60.0)
"""


@pytest.mark.skipif(not Path("/proc/self/stat").is_file(),
                    reason="reads a process's state in /proc")
def test_orphaned_forked_child_starts_no_call(tmp_path):
    # SIGKILL the parent while its child is in its first call: the child
    # finds itself orphaned before its second call and exits without it.
    import signal

    log = tmp_path / "calls.log"
    log.touch()
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    parent = subprocess.Popen(
        [sys.executable, "-c", FORKED_SCRIPT, str(log)], env=env)
    try:
        deadline = time.monotonic() + 60.0
        while not log.read_text():
            assert parent.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
    finally:
        parent.kill()
        parent.wait()
    started = log.read_text().splitlines()
    child = int(started[0].split()[0])

    def alive():  # a zombie has exited; whoever adopted it reaps it
        try:
            stat = Path(f"/proc/{child}/stat").read_text()
        except OSError:
            return False
        return stat.rsplit(")", 1)[1].split()[0] != "Z"

    deadline = time.monotonic() + 10.0
    while alive():
        if time.monotonic() > deadline:
            os.kill(child, signal.SIGKILL)
            pytest.fail("the orphaned child is still running")
        time.sleep(0.05)
    assert log.read_text().splitlines() == started == [f"{child} 0"]


# A fresh process that runs the round-sphere run of the homogeneous
# benchmark twice and prints the second run's manifest minor_faults total.
HEAP_SCRIPT = """
import json, sys
from pathlib import Path
from riccilab import harness
raw = {"backend.kind": "round_sphere", "backend.n": "2", "flow.T": "0.4",
       "flow.dt": "4e-5", "entropy.a": "0, 1"}
for k in range(2):
    out = Path(sys.argv[1]) / str(k)
    harness.run(harness.validate_config(harness.make_config(raw)), out)
print(sum(json.loads((out / "manifest.json").read_text())[
    "minor_faults"].values()))
"""


@pytest.mark.skipif(parallel.resource is None
                    or not sys.platform.startswith("linux"),
                    reason="counts glibc's minor faults by getrusage")
def test_importing_parallel_keeps_a_warm_run_in_the_heap(tmp_path):
    # Importing parallel frees one CHUNK_CELLS buffer, which raises glibc's
    # mmap and trim thresholds for the process: a second 5001-row sphere run
    # finds its row tables, writer blocks and summary arrays in the heap the
    # first run left, under 100 minor faults in all (about 3k without).
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", HEAP_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 100


@pytest.mark.parametrize("cells", [1, 3, 256])
def test_density_chunks_are_near_equal_top_down(cells):
    # ceil(rows / s) chunks for s rows a chunk at most, s = cap // cells (at
    # least 1), highest first and covering every row once, their lengths at
    # most one apart, the first the longest: 161 rows of at most 8 make 21
    # chunks of 7 or 8 rows, not 20 of 8 and one of 1.
    grid = [(rows, s) for rows in range(1, 40) for s in range(1, 45)]
    for rows, s in grid + [(161, 8), (501, 128), (11252, 131072)]:
        chunks = parallel.density_chunks(rows, cells, s * cells + cells - 1)
        lengths = [c.stop - c.start for c in chunks]
        assert len(chunks) == -(-rows // s), (rows, s)
        assert [c.stop for c in chunks] == [rows] + [c.start
                                                     for c in chunks[:-1]]
        assert chunks[-1].start == 0 and all(c.step is None for c in chunks)
        assert max(lengths) <= s and max(lengths) - min(lengths) <= 1
        assert lengths[0] == max(lengths), (rows, s)
    lengths = [c.stop - c.start for c in parallel.density_chunks(161, 1, 8)]
    assert sorted(lengths) == [7] * 7 + [8] * 14
    assert parallel.density_chunks(5, cells, cells - 1) == [
        slice(k, k + 1) for k in range(4, -1, -1)]


def test_stream_and_run_cut_density_chunks_by_one_rule(tmp_path, monkeypatch):
    # The heat stream and the run's chunk arrays both take their chunks from
    # parallel.density_chunks: a 161-row sphere stream in an 8-row array
    # hands over 21 chunks of 7 or 8 rows, and a run's two chunk arrays hold
    # the longest of the cut the stream then hands over.
    from riccilab import harness, heat

    m0 = rl.MetricState(rl.RoundSphere(2), 0.0, np.array([1.0]))
    traj = rl.integrate_forward(m0, 0.32, 1e-3)
    v_T = rl.terminal_datum("constant", traj.final_state())
    lengths = [len(chunk.times) for chunk in heat.stream_backward(
        traj, v_T, out=[np.empty(8)])]
    assert len(lengths) == 21 and set(lengths) == {7, 8}

    cut, callers = parallel.density_chunks, []

    def spied(rows, cells, cap):
        callers.append((sys._getframe(1).f_code.co_name, rows, cells, cap))
        return cut(rows, cells, cap)

    made, array = [], parallel.RowPool.array

    def recorded(pool, shape, dtype=float):
        made.append(array(pool, shape, dtype))
        return made[-1]

    monkeypatch.setattr(parallel, "density_chunks", spied)
    monkeypatch.setattr(parallel.RowPool, "array", recorded)
    monkeypatch.setattr(parallel, "CHUNK_CELLS", 4 * 8 * 8**2)
    result = harness.run(harness.validate_config(harness.make_config({
        "backend.kind": "conformal_torus", "backend.N": "8",
        "backend.phi_amplitude": "0.1", "flow.T": "0.04", "flow.dt": "2e-3",
        "entropy.a": "0.1, 1"})), tmp_path)
    assert result.exit_code == 0
    # 21 rows of at most 8: three chunks of 7 rows in two 7-row arrays.
    assert callers == [("evaluate_tables", 21, 64, 8 * 8**2),
                       ("stream_backward", 21, 64, 7 * 8**2)]
    assert [a.shape for a in made if a.shape[1:] == (8, 8)] == [(7, 8, 8)] * 2
