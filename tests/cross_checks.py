"""Cross-check forms used only by the tests.

Each helper is an independent way of writing a quantity that the package
computes another way: the potential-variable forms of the energy and the
variation tensor, the pointwise g-trace and gradient inner product of the
typed fields, the flow velocity on a raw parameter array, the flow
integrated on numpy arrays, the round and Berger spheres' flows stepped
one float step at a time, the row kernel with every functional built
on its own, the row-failure rule as a loop over rows, and the backward
heat solve's checks row by row.  ``chunks_through_out`` hands a solved
history to ``harness.evaluate_tables`` as the heat stream does, through
the row pool's chunk arrays in turn.  ``ProcessLog`` carries what a spy
records in a row pool's forked workers back to the test,
``children_left`` tells whether any child process remains, and
``TwoSidedMemory`` runs the row pool's two-sided block claims one memory
operation at a time.
"""

import ast
import math
import os
import threading

import numpy as np
from hypothesis import strategies as st

import riccilab as rl
from riccilab.flow import PARAM_FLOOR
from riccilab.functionals import log_entropy_value
from riccilab.geometry import _berger_rates, rk4_step
from riccilab.heat import POSITIVITY_FLOOR
from riccilab.variation import RowValues


def gradient_inner(m, w, z):
    """Pointwise gradient inner product <grad w, grad z>_g; with z = w the
    squared gradient |grad w|^2_g."""
    g = m.stack
    dw = g.differences(w.values)
    dz = dw if z is w else g.differences(z.values)
    return rl.scalar_field(m, g.gradient_inner(dw, dz))


def tensor_trace(m, T):
    """Pointwise g-trace g^{ij} T_ij: e^{-2 phi} (T11 + T22) on the torus, the
    sum of the principal values on homogeneous backends."""
    if isinstance(m.backend, rl.ConformalTorus2D):
        return rl.scalar_field(m, m.stack.lap_factor * (T[0] + T[2]))
    return rl.scalar_field(m, T.sum(axis=-1))


def velocity(b, p):
    """The backend's ``rates`` on one state's raw parameter array p."""
    if isinstance(b, rl.ConformalTorus2D):
        return b.rates([p])[0]
    return np.array(b.rates(list(p)))


def ricci_flow_rhs(m):
    """Velocity of dg/dt = -2 Ric in the state's backend parameters."""
    return velocity(m.backend, m.params)


def integrate_forward_arrays(m0, T, dt):
    """``rl.integrate_forward`` stepped on numpy parameter arrays: RK4 in the
    array form p + (dt / 6)(k1 + 2 k2 + 2 k3 + k4) of the raw-array
    ``velocity``, with the same state checks, errors and messages.  Returns
    the parameters of every state and the largest dt / stability_dt."""
    b = m0.backend
    torus = isinstance(b, rl.ConformalTorus2D)
    K = int(round(T / dt))
    times = m0.t + dt * np.arange(K + 1)
    out = np.empty((K + 1,) + m0.params.shape)
    p, ratio = m0.params.copy(), 0.0
    for k in range(K + 1):
        if not np.isfinite(p).all():
            raise rl.BlowUp("metric parameters became non-finite")
        scale = np.exp(2.0 * p.min()) if torus else p.min()
        if scale < PARAM_FLOOR:
            what = "conformal factor" if torus else "metric scale parameter"
            raise rl.BlowUp(f"{what} fell below floor")
        out[k] = p
        if k == K:
            return out, ratio
        bound = b.stability_dt(scale)
        if dt > bound * (1 + 1e-12):
            raise rl.StepTooLarge(
                f"dt={dt:g} exceeds the stability bound at t={times[k]:g}")
        ratio = max(ratio, dt / bound)
        k1 = velocity(b, p)
        k2 = velocity(b, p + 0.5 * dt * k1)
        k3 = velocity(b, p + 0.5 * dt * k2)
        k4 = velocity(b, p + dt * k3)
        p = p + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def round_sphere_per_step(c0, n, dt, K):
    """The round n-sphere's flow states c_0 ... c_K, one RK4 step at a time
    on Python floats: the rate -2(n - 1) does not depend on c, so the four
    stages are the same float r, and c_{k+1} = c_k + (dt / 6)(r + 2 r + 2 r
    + r)."""
    (r,) = rl.RoundSphere(n).rates([c0])
    states = [c0]
    for _ in range(K):
        states.append(states[-1] + (dt / 6.0) * (r + 2.0 * r + 2.0 * r + r))
    return states


def berger_sphere_step(p, dt):
    """One ``rk4_step`` of [A, B, C] written out on the three floats, each
    stage's rates in ``_berger_rates``'s operations, all three axes stepped.
    A square that overflows (Python raises where C's pow gives inf) redoes
    the step through ``_berger_rates``, whose ``_pow`` squares are inf; a
    division by zero raises ``ZeroDivisionError``."""
    A, B, C = p
    half = 0.5 * dt
    try:
        s1, s2, s3 = (B - C) ** 2, (C - A) ** 2, (A - B) ** 2
        xyz = A * B * C
        a1 = -2.0 * A * (2.0 * (A * A - s1) / xyz)
        b1 = -2.0 * B * (2.0 * (B * B - s2) / xyz)
        c1 = -2.0 * C * (2.0 * (C * C - s3) / xyz)
        X, Y, Z = A + half * a1, B + half * b1, C + half * c1
        s1, s2, s3 = (Y - Z) ** 2, (Z - X) ** 2, (X - Y) ** 2
        xyz = X * Y * Z
        a2 = -2.0 * X * (2.0 * (X * X - s1) / xyz)
        b2 = -2.0 * Y * (2.0 * (Y * Y - s2) / xyz)
        c2 = -2.0 * Z * (2.0 * (Z * Z - s3) / xyz)
        X, Y, Z = A + half * a2, B + half * b2, C + half * c2
        s1, s2, s3 = (Y - Z) ** 2, (Z - X) ** 2, (X - Y) ** 2
        xyz = X * Y * Z
        a3 = -2.0 * X * (2.0 * (X * X - s1) / xyz)
        b3 = -2.0 * Y * (2.0 * (Y * Y - s2) / xyz)
        c3 = -2.0 * Z * (2.0 * (Z * Z - s3) / xyz)
        X, Y, Z = A + dt * a3, B + dt * b3, C + dt * c3
        s1, s2, s3 = (Y - Z) ** 2, (Z - X) ** 2, (X - Y) ** 2
        xyz = X * Y * Z
        a4 = -2.0 * X * (2.0 * (X * X - s1) / xyz)
        b4 = -2.0 * Y * (2.0 * (Y * Y - s2) / xyz)
        c4 = -2.0 * Z * (2.0 * (Z * Z - s3) / xyz)
    except OverflowError:
        a1, b1, c1 = _berger_rates(A, B, C)
        a2, b2, c2 = _berger_rates(A + half * a1, B + half * b1, C + half * c1)
        a3, b3, c3 = _berger_rates(A + half * a2, B + half * b2, C + half * c2)
        a4, b4, c4 = _berger_rates(A + dt * a3, B + dt * b3, C + dt * c3)
    sixth = dt / 6.0
    return [A + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
            B + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4),
            C + sixth * (c1 + 2.0 * c2 + 2.0 * c3 + c4)]


def berger_sphere_per_step(p0, dt, K):
    """The Berger sphere's flow states from p0 = [A, B, C], one
    ``berger_sphere_step`` at a time, up to K steps: the states before the
    first step that divides by zero."""
    states = [list(p0)]
    try:
        for _ in range(K):
            states.append(berger_sphere_step(states[-1], dt))
    except ZeroDivisionError:
        pass
    return states


def f_functional_f_form(m, f, v):
    """The energy in the potential variable: integral((R + |grad f|^2) e^{-f}),
    with e^{-f} supplied as the density v.  Agrees with ``rl.f_functional``
    up to O(h^2) chain-rule error."""
    g = m.stack
    df = g.differences(f.values)
    return float(g.integrate((g.R + g.gradient_inner(df, df)) * v.values))


def matrix_quantity_f_form(m, f):
    """The variation tensor written as Ric + Hess(f) with f = -2 ln u.

    Discretely this differs from ``rl.matrix_quantity`` by O(h^2) chain-rule
    error; it cross-checks the identity
    -2 Hess(u)/u + 2 grad u (x) grad u / u^2 = Hess(f).
    """
    g = m.stack
    return g.ricci + g.hessian(f.values)


def row_values_reference(g, v, times, a_values):
    """``variation.row_values`` written term by term: each functional builds
    its own u**2, one-sided differences and deviation tensor T - c g, where
    the kernel shares them, with the same operations in the same order, and
    Y is taken entry by entry where omega is positive (nan elsewhere), so
    every field is bitwise what the kernel returns."""
    u, f = np.sqrt(v), -np.log(v)
    du = g.differences(u)
    F = 4.0 * g.integrate(g.gradient_inner(du, du) + 0.25 * g.R * u**2)
    w = u**2
    S = g.integrate(w * np.log(w))
    ue = np.expand_dims(u, g.comp_axis)
    T = (g.ricci - 2.0 * g.hessian(u) / ue
         + 2.0 * g.grad_outer(g.differences(u)) / ue**2)
    dF_rhs = 2.0 * g.integrate(g.tensor_norm_sq(T, g.cross_sq(T)) * u**2)
    df = g.differences(f)
    sub_lhs = g.integrate(g.laplace_beltrami(f) * v)
    sub_rhs = g.integrate(g.gradient_inner(df, df) * v)
    a = np.asarray(a_values, dtype=float)
    om = a + F[:, None] / 4.0

    def deviation_rate(w, c):
        c = np.reshape(c, np.shape(c) + (1,) * (T.ndim - np.ndim(c)))
        D = T - c * g.metric
        val = g.integrate(g.tensor_norm_sq(D, g.cross_sq(D)) * u**2)
        return g.n / (4.0 * w) * val

    Y = np.full(om.shape, np.nan)
    split, combined = np.empty(om.shape), np.empty(om.shape)
    for j, aj in enumerate(a_values):
        for k in np.flatnonzero(om[:, j] > 0.0):
            Y[k, j] = log_entropy_value(S[k], om[k, j], g.n, aj, times[k])
        w = om[:, j]
        split[:, j] = (deviation_rate(w, (4.0 * w - 4.0 * aj) / g.n)
                       + 4.0 * aj * aj / w)
        combined[:, j] = deviation_rate(w, 4.0 * w / g.n)
    return RowValues(F, S, dF_rhs, sub_lhs, sub_rhs, om, Y, split, combined)


def row_failure_reference(ground, F, a_series, times, a_values):
    """``variation.row_failure`` as a loop: row by row, the row's lambda0
    (``ground.value``), then ``omega`` at each a in turn, then each a's Y,
    omega, rhs_thm and rhs_ye in turn for a non-finite value.  Returns the
    first failing row and its error, or (rows, None)."""
    for k in range(len(F)):
        try:
            ground.value(k)
            for a in a_values:
                rl.omega(float(F[k]), a)
        except rl.NumericalError as exc:
            return k, exc
        for j, a in enumerate(a_values):
            for name, x in zip(("Y", "omega", "rhs_thm", "rhs_ye"),
                               a_series[:, k, j]):
                if not math.isfinite(x):
                    tag = format(a, "g")
                    return k, rl.BlowUp(f"{name}[{tag}] = {x:g} is not finite "
                                        f"at t={times[k]:g} (a={tag})")
    return len(F), None


def check_density(v, mass, mass_tol, t):
    """One row's density check as the backward solve ran it row by row: v
    finite and above ``heat.POSITIVITY_FLOOR``, then its mass within
    ``mass_tol`` of 1."""
    if not (np.all(np.isfinite(v)) and np.min(v) > POSITIVITY_FLOOR):
        raise rl.PositivityLoss(f"density positivity lost at t={t:g}")
    if abs(mass - 1.0) > mass_tol:
        raise rl.MassDrift(f"mass drift {mass - 1.0:+.3e} at t={t:g} "
                           f"exceeds {mass_tol:g}")


def chunk_lengths(rows, chunk_rows):
    """The lengths of the density chunks of ``rows`` rows, top-down: as few
    chunks as hold ``chunk_rows`` rows each, count of them, chunk i from
    the bottom ending at row rows * i // count, so no two lengths are more
    than one apart."""
    count = -(-rows // chunk_rows)
    return [rows * i // count - rows * (i - 1) // count
            for i in range(count, 0, -1)]


def stream_backward_per_row(traj, v_T, mass_tol, chunk_rows):
    """``heat.stream_backward`` row by row: each row's ``rk4_step`` on a
    stack of the three snapshots it reads, its mass, then ``check_density``
    before it is stored, and a chunk handed over once its lowest row is
    stored, in chunks of at most ``chunk_rows`` rows (``chunk_lengths``).
    Yields (first, v, masses) of each chunk, as copies."""
    backend, step = traj.backend, 2.0 * traj.dt
    times = traj.times[::2]
    M = len(times) - 1
    lengths = chunk_lengths(M + 1, chunk_rows)
    v_out = np.empty((lengths[0],) + v_T.values.shape)
    m_out = np.empty(lengths[0])
    (v,) = backend.rows(v_T.values[None])
    mass = rl.integrate(traj.final_state(), v_T)
    top, base = M, M + 1 - lengths[0]
    for r in range(M, -1, -1):
        if r < M:
            g = backend.stack(traj.params[2 * r:2 * r + 3])
            R, lap_factor = backend.rows(g.R), backend.rows(g.lap_factor)

            def rhs(s, w):
                out = backend.flat_laplacian(w)
                out *= lap_factor[2 - s]
                out -= R[2 - s] * w
                return out

            with np.errstate(all="ignore"):
                v = rk4_step(rhs, v, step)
                mass = g.quadrature(v * backend.rows(g.weight)[0])
        check_density(v, mass, mass_tol, times[r])
        v_out[r - base], m_out[r - base] = v, mass
        if r == base:
            n = top + 1 - base
            yield base, v_out[:n].copy(), m_out[:n].copy()
            lengths.pop(0)
            top, base = base - 1, base - (lengths[0] if lengths else 0)


def chunks_through_out(*histories):
    """``harness.evaluate_tables``'s ``chunks`` for densities solved
    beforehand: ``chunks(out)`` copies each history's rows into the arrays
    of ``out`` in turn, in chunks of ``len(out[0])`` rows, lowest first,
    and hands each over as a ``DensityHistory`` whose ``v`` is
    ``out[k % len(out)][:n]`` for the k-th chunk, before a later chunk
    overwrites it."""

    def chunks(out):
        size, k = len(out[0]), 0
        for hist in histories:
            for lo in range(0, len(hist.times), size):
                rows = slice(lo, lo + size)
                n, buffer = len(hist.times[rows]), out[k % len(out)]
                buffer[:n] = hist.v[rows]
                k += 1
                yield rl.DensityHistory(hist.backend, hist.times[rows],
                                        buffer[:n], hist.masses[rows],
                                        hist.first + lo)

    return chunks


class ProcessLog:
    """Records made by this process and by the processes forked from it (a
    row pool's workers), read back here.  Each record is the recording
    process's pid and the values given (Python numbers, strings or tuples
    of them), written to one pipe by one ``os.write`` of at most PIPE_BUF
    bytes, which POSIX keeps whole, so concurrent writers never interleave.
    The pipe holds 64 KiB on Linux until ``records`` reads it."""

    def __init__(self):
        self._read, self._write = os.pipe()

    def record(self, *values):
        os.write(self._write, repr((os.getpid(), *values)).encode() + b"\n")

    def records(self) -> list:
        """Every record in the order written; closes the log.  Call it once
        the forked writers have exited."""
        os.close(self._write)
        with os.fdopen(self._read, "rb") as pipe:
            return [ast.literal_eval(line.decode()) for line in pipe]


def children_left() -> bool:
    """Whether this process has a child, running or unreaped (one that has
    exited is reaped by the asking)."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


class TwoSidedMemory:
    """The claim counters of one row-pool part of ``blocks`` blocks, which a
    caller thread (side 0) and a worker thread (side 1) claim through
    ``claim(ends, side)`` until it returns None, run one memory operation
    at a time.  ``run(claim)`` lets the side Hypothesis draws (``data``)
    make its next operation while the other waits before its own; a read
    of the other side's end returns, as Hypothesis draws, its current value
    or an older one no older than that side's last read of it (a store not
    yet seen), and ``stale`` records whether one was older.  ``values``
    holds every value each end has held, oldest first; ``run`` returns the
    blocks each side took, in the order taken."""

    def __init__(self, blocks, data):
        self.values = [[0], [blocks]]
        self.stale, self._data = False, data
        self._seen = [0, 0]  # the other end's oldest value each side may read
        self._cond = threading.Condition()
        self._pending = [None, None]  # the operation each side waits to make
        self._results = [None, None]
        self._done, self._stopped = [False, False], False

    def run(self, claim, max_operations=1000):
        taken = [[], []]

        def side(s):
            ends = _Ends(self, s)
            try:
                while (block := claim(ends, s)) is not None:
                    taken[s].append(block)
            except _Stopped:
                pass
            finally:
                with self._cond:
                    self._done[s] = True
                    self._cond.notify_all()

        threads = [threading.Thread(target=side, args=(s,)) for s in (0, 1)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(max_operations):
                with self._cond:
                    assert self._cond.wait_for(lambda: all(
                        self._done[s] or self._pending[s] is not None
                        for s in (0, 1)), timeout=10.0)
                    ready = [s for s in (0, 1) if self._pending[s] is not None]
                    if not ready:
                        return taken
                    s = self._data.draw(st.sampled_from(ready))
                    operation, self._pending[s] = self._pending[s], None
                    self._results[s] = (self._make(s, *operation),)
                    self._cond.notify_all()
            raise AssertionError(f"no end after {max_operations} operations")
        finally:  # no thread outlives the run, even when a draw raised
            with self._cond:
                self._stopped = True
                self._cond.notify_all()
            for thread in threads:
                thread.join(10.0)

    def operate(self, s, *operation):
        """Make side s's next operation, ("read", end) or ("write", end,
        value), once ``run`` lets it; the value read, else None."""
        with self._cond:
            self._pending[s] = operation
            self._cond.notify_all()
            self._cond.wait_for(
                lambda: self._results[s] is not None or self._stopped)
            if self._results[s] is None:
                raise _Stopped
            (result,), self._results[s] = self._results[s], None
            return result

    def _make(self, s, kind, end, value=None):
        history = self.values[end]
        if kind == "write":
            history.append(value)
            return None
        if end == s:  # a process reads its own last write
            return history[-1]
        k = self._data.draw(st.integers(self._seen[s], len(history) - 1))
        self.stale |= k < len(history) - 1
        self._seen[s] = k
        return history[k]


class _Stopped(Exception):
    """A ``TwoSidedMemory`` run ended before this side's operation."""


class _Ends:
    """One side's view of a ``TwoSidedMemory``: ``ends[i]`` and
    ``ends[i] = value`` are its operations."""

    def __init__(self, memory, side):
        self._memory, self._side = memory, side

    def __getitem__(self, end):
        return self._memory.operate(self._side, "read", end)

    def __setitem__(self, end, value):
        self._memory.operate(self._side, "write", end, value)
