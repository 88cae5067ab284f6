"""Backward density solve: Fourier-mode and volume oracles, mass
conservation, positivity/mass guards, terminal data, change of variables."""

import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import riccilab as rl
from cross_checks import chunk_lengths, stream_backward_per_row

TWO_PI = 2.0 * math.pi


def flat_trajectory(N=64, T=0.3, dt=5e-4):
    backend = rl.ConformalTorus2D(N, TWO_PI)
    m0 = rl.MetricState(backend, 0.0, np.zeros((N, N)))
    return rl.integrate_forward(m0, T, dt)


def frozen_trajectory(phi, T, dt, N=32):
    """Constant-metric trajectory built directly (not a flow solution)."""
    backend = rl.ConformalTorus2D(N, TWO_PI)
    K = int(round(T / dt))
    times = dt * np.arange(K + 1)
    params = np.broadcast_to(phi, (K + 1, N, N)).copy()
    return rl.Trajectory(backend, times, params, dt)


def low_mode(backend, amplitude, rng):
    """Random trigonometric polynomial in modes 0..2 with max |.| = amplitude."""
    x, y = rl.grid_coords(backend)
    w = np.zeros((backend.N, backend.N))
    for kx in range(3):
        for ky in range(3):
            c, theta = rng.uniform(-1.0, 1.0), rng.uniform(0.0, TWO_PI)
            w += c * np.cos(TWO_PI * (kx * x + ky * y) / backend.L + theta)
    return w * (amplitude / np.max(np.abs(w)))


# -------------------------------------------------------------------------
# Backward solve oracles
# -------------------------------------------------------------------------

def test_constant_density_on_flat_torus_is_steady():
    traj = flat_trajectory(N=32, T=0.02, dt=5e-4)
    v_T = rl.terminal_datum("constant", traj.final_state())
    hist = rl.solve_backward(traj, v_T, step=1e-3)
    assert np.max(np.abs(hist.v - 1.0 / (4 * math.pi**2))) < 1e-15
    assert np.max(np.abs(hist.masses - 1.0)) < 1e-14


def test_single_fourier_mode_flat_torus():
    # v(t) = (1 + 0.5 e^{-(T-t)} cos x)/(4 pi^2) solves dv/dtau = Lap v
    # exactly; the discrete solution differs by O(dt^4 + h^2).
    N, T, dt = 64, 0.3, 5e-4
    traj = flat_trajectory(N=N, T=T, dt=dt)
    backend = traj.backend
    x, y = rl.grid_coords(backend)
    v_T = rl.ScalarField(backend, (1.0 + 0.5 * np.cos(x) + 0.0 * y) / (4 * math.pi**2))
    hist = rl.solve_backward(traj, v_T, step=2 * dt)
    errs = []
    for k, t in enumerate(hist.times):
        exact = (1.0 + 0.5 * math.exp(-(T - t)) * np.cos(x) + 0.0 * y) / (4 * math.pi**2)
        errs.append(np.max(np.abs(hist.v[k] - exact)))
    # mode-1 discrete decay rate differs from 1 by h^2/12; amplitude error
    # ~ T * h^2/12 * 0.5 / (4 pi^2) ~ 3e-6 at N=64
    assert max(errs) < 1e-5


def test_single_mode_convergence_order_in_h():
    errs = []
    for N in (32, 64):
        T, dt = 0.1, 2.5e-4
        traj = flat_trajectory(N=N, T=T, dt=dt)
        x, y = rl.grid_coords(traj.backend)
        v_T = rl.ScalarField(traj.backend,
                             (1.0 + 0.5 * np.cos(x) + 0.0 * y) / (4 * math.pi**2))
        hist = rl.solve_backward(traj, v_T, step=2 * dt)
        exact = (1.0 + 0.5 * math.exp(-T) * np.cos(x) + 0.0 * y) / (4 * math.pi**2)
        errs.append(np.max(np.abs(hist.v[0] - exact)))
    assert math.log2(errs[0] / errs[1]) > 1.9


def test_homogeneous_constant_density_tracks_volume():
    # On the sphere, v(t) = 1/Vol(t): the volume ODE is the oracle.
    m0 = rl.MetricState(rl.RoundSphere(2), 0.0, np.array([1.0]))
    traj = rl.integrate_forward(m0, 0.2, 5e-4)
    v_T = rl.terminal_datum("constant", traj.final_state())
    hist = rl.solve_backward(traj, v_T, step=1e-3)
    for k, t in enumerate(hist.times):
        vol = 4 * math.pi * (1.0 - 2.0 * t)
        assert abs(float(hist.v[k]) - 1.0 / vol) < 1e-10


def lap0(w, h):
    """Periodic 5-point flat Laplacian."""
    return (np.roll(w, 1, 0) + np.roll(w, -1, 0) + np.roll(w, 1, 1)
            + np.roll(w, -1, 1) - 4.0 * w) / (h * h)


def reference_backward(traj, v_T, rhs, stride=2):
    """RK4 in tau = T - t at step stride * traj.dt, stage metrics read from
    the stored snapshots; rhs(params, v) is dv/dtau at fixed params."""
    step = stride * traj.dt
    M = traj.num_steps // stride
    out = np.empty((M + 1,) + v_T.values.shape)
    out[M] = v = v_T.values
    for j in range(M, 0, -1):
        p1 = traj.params[j * stride]
        pm = traj.params[j * stride - stride // 2]
        p0 = traj.params[(j - 1) * stride]
        k1 = rhs(p1, v)
        k2 = rhs(pm, v + 0.5 * step * k1)
        k3 = rhs(pm, v + 0.5 * step * k2)
        k4 = rhs(p0, v + step * k3)
        out[j - 1] = v = v + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return out


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    N=st.sampled_from([8, 10, 12, 14, 16]),
    L=st.floats(1.0, 4.0 * math.pi),
    amplitude=st.floats(0.0, 0.3),
    seed=st.integers(0, 2**32 - 1),
)
def test_torus_backward_solve_matches_array_reference(N, L, amplitude, seed):
    # Lap_g v - R v written out on arrays, R = -2 e^{-2 phi} Lap0 phi.
    backend = rl.ConformalTorus2D(N, L)
    m0 = rl.MetricState(backend, 0.0,
                        low_mode(backend, amplitude, np.random.default_rng(seed)))
    dt = 0.25 * rl.stability_dt(m0)
    traj = rl.integrate_forward(m0, 8 * dt, dt)
    v_T = rl.terminal_datum("random_smooth", traj.final_state(), amplitude=0.2,
                            seed=seed)
    h = backend.h

    def rhs(p, v):
        e2p = np.exp(2.0 * p)
        R = -2.0 / e2p * lap0(p, h)
        return lap0(v, h) / e2p - R * v

    ref = reference_backward(traj, v_T, rhs)
    hist = rl.solve_backward(traj, v_T)
    assert np.max(np.abs(hist.v - ref)) <= 1e-13 * np.max(np.abs(ref))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    N=st.sampled_from([8, 10, 12, 14, 16]),
    L=st.floats(1.0, 4.0 * math.pi),
    amplitude=st.floats(0.0, 0.3),
    column=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_torus_backward_solve_is_bitwise_the_stack_reference(N, L, amplitude,
                                                              column, seed):
    # The array-form RK4 of lf * lap0(w) - R * w from each snapshot's own
    # stack (lap_factor, R) and the 5-point stencil: the solver's in-place
    # stages keep every entry's operations, so the bytes are the same, on a
    # full-grid phi and on a y-invariant one held as its (N, 1) column.
    from riccilab.geometry import _lap5

    backend = rl.ConformalTorus2D(N, L)
    rng = np.random.default_rng(seed)
    phi = low_mode(backend, amplitude, rng)
    if column:
        phi = np.repeat(phi[:, :1], N, axis=1)
    m0 = rl.MetricState(backend, 0.0, phi)
    dt = 0.25 * rl.stability_dt(m0)
    traj = rl.integrate_forward(m0, 8 * dt, dt)
    assert (traj.params.strides[-1] == 0) == column
    v_T = rl.terminal_datum("random_smooth", traj.final_state(), amplitude=0.2,
                            seed=seed)

    def rhs(p, v):
        g = backend.stack(p)
        assert g.params.shape == (N, 1 if column else N)
        return g.lap_factor * _lap5(v, backend.h) - g.R * v

    ref = reference_backward(traj, v_T, rhs)
    hist = rl.solve_backward(traj, v_T)
    assert hist.v.tobytes() == ref.tobytes()


@pytest.mark.parametrize("m0", [
    rl.MetricState(rl.RoundSphere(3), 0.0, np.array([1.0])),
    rl.MetricState(rl.RoundSphere(2), 0.0, np.array([1.0])),
    rl.MetricState(rl.BergerSphere(), 0.0, np.array([1.0, 0.8, 0.6])),
    rl.MetricState(rl.BergerSphere(), 0.0, np.array([2.0, 0.7, 1.3])),
], ids=["round", "round2", "berger", "berger-aniso"])
def test_homogeneous_backward_solve_bitwise_reference(m0):
    traj = rl.integrate_forward(m0, 0.02, 5e-4)
    v_T = rl.terminal_datum("constant", traj.final_state())

    def rhs(p, v):
        m = rl.MetricState(m0.backend, 0.0, p)
        return -float(rl.scalar_curvature(m).values) * v

    ref = reference_backward(traj, v_T, rhs)
    assert np.array_equal(rl.solve_backward(traj, v_T).v, ref)


# Curvatures and densities of any sign and size: products and sums that
# overflow to inf, and inf - inf stages that give nan.
HEAT_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, 1e300, -1e300, math.inf, -math.inf, math.nan]),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(v=HEAT_FLOATS, R=st.lists(HEAT_FLOATS, min_size=1, max_size=15),
       step=st.floats(1e-6, 1e3) | st.sampled_from([1e-300, 1e300]))
def test_sphere_heat_steps_are_rk4_step_bitwise(v, R, step):
    # The spheres' straight-line steps against geometry.rk4_step with the
    # closure the heat solve ran on floats (the flat Laplacian 0.0, times
    # the factor 0.0, minus R w), row by row top-down: every row and the
    # returned float bitwise alike, nan where the reference is nan.  The
    # sign of a nan that CPython's float arithmetic makes depends on whether
    # the generic or the specialised instruction ran the operation, which
    # changes as a function warms up, so nans compare as nan.
    from riccilab.geometry import rk4_step
    from riccilab.heat import _float_steps

    R = R[:len(R) - 1 + len(R) % 2]  # 2 n + 1 snapshots for n rows
    rows = len(R) // 2
    want, w = np.empty(rows), v
    for k in range(rows - 1, -1, -1):
        def rhs(s, x, i1=2 * k + 2):
            out = 0.0
            out *= 0.0
            out -= R[i1 - s] * x
            return out

        w = rk4_step(rhs, w, step)
        want[k] = w
    out = np.empty(rows)
    got = _float_steps(v, R, out, step)
    assert type(got) is float
    assert nan_canonical(out) == nan_canonical(want)
    assert nan_canonical([got]) == nan_canonical([w])


def nan_canonical(x):
    """The bytes of x with every nan replaced by numpy's own nan."""
    x = np.asarray(x, float)
    return np.where(np.isnan(x), np.nan, x).tobytes()


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    N=st.integers(4, 16).map(lambda k: 2 * k),
    L=st.floats(1.0, 4.0 * math.pi),
    phi_amp=st.floats(0.0, 0.3),
    u_amp=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_step_keeps_mass_property(N, L, phi_amp, u_amp, seed):
    # The semi-discrete mass is conserved exactly, so one solver step drifts
    # only by the RK4 local error, O(step^5): about 1e-8 at a quarter of the
    # stability bound, below round-off at the 1/100 used here.
    backend = rl.ConformalTorus2D(N, L)
    rng = np.random.default_rng(seed)
    m0 = rl.MetricState(backend, 0.0, low_mode(backend, phi_amp, rng))
    dt = 0.01 * rl.stability_dt(m0)
    traj = rl.integrate_forward(m0, 2 * dt, dt)
    m_T = traj.final_state()
    v = np.exp(2.0 * low_mode(backend, u_amp, rng))
    v_T = rl.scalar_field(m_T, v / rl.integrate(m_T, rl.scalar_field(m_T, v)))
    hist = rl.solve_backward(traj, v_T, step=2 * dt)
    assert len(hist.masses) == 2
    assert abs(hist.masses[0] - hist.masses[1]) <= 1e-14


def test_mass_conservation_on_curved_run():
    backend = rl.ConformalTorus2D(32, TWO_PI)
    x, y = rl.grid_coords(backend)
    m0 = rl.MetricState(backend, 0.0, 0.1 * np.sin(x) + 0.0 * y)
    traj = rl.integrate_forward(m0, 0.02, 1e-3)
    v_T = rl.terminal_datum("random_smooth", traj.final_state(), amplitude=0.05,
                            seed=3)
    hist = rl.solve_backward(traj, v_T, step=2e-3)
    assert np.max(np.abs(hist.masses - 1.0)) < 1e-10


# -------------------------------------------------------------------------
# Streamed solve
# -------------------------------------------------------------------------

@pytest.mark.parametrize("rows", [1, 2, 3, 4, 11, 12])
@pytest.mark.parametrize("case", ["torus", "sphere"])
def test_stream_chunks_are_the_collected_history(rows, case, monkeypatch):
    # As few chunks as hold `rows` rows each (CHUNK_CELLS // cells),
    # top-down, their lengths at most one apart (`chunk_lengths`), each the
    # bitwise slice of the collected history that its `first` names; every
    # chunk is a view of one buffer, so the next chunk overwrites it.
    from riccilab import heat, parallel

    if case == "torus":
        backend = rl.ConformalTorus2D(16, TWO_PI)
        x, y = rl.grid_coords(backend)
        m0 = rl.MetricState(backend, 0.0, 0.1 * np.sin(x) + 0.0 * y)
        traj = rl.integrate_forward(m0, 0.02, 1e-3)
        v_T = rl.terminal_datum("random_smooth", traj.final_state(),
                                amplitude=0.05, seed=3)
    else:
        m0 = rl.MetricState(rl.BergerSphere(), 0.0, np.array([1.0, 0.8, 0.6]))
        traj = rl.integrate_forward(m0, 0.02, 1e-3)
        v_T = rl.terminal_datum("constant", traj.final_state())
    hist = rl.solve_backward(traj, v_T)
    K = len(hist.times)
    assert K == 11 and hist.first == 0
    monkeypatch.setattr(parallel, "CHUNK_CELLS", rows * traj.backend.cells)
    firsts, buffers, lengths = [], set(), chunk_lengths(K, rows)
    for chunk in heat.stream_backward(traj, v_T):
        lo, n = chunk.first, len(chunk.times)
        assert (lo, n) == (K - sum(lengths[:len(firsts) + 1]),
                           lengths[len(firsts)])
        for name in ("times", "v", "masses"):
            want = getattr(hist, name)[lo:lo + n]
            assert getattr(chunk, name).tobytes() == want.tobytes(), name
        firsts.append(lo)
        buffers.add(chunk.v.__array_interface__["data"][0])
    assert firsts == sorted(firsts, reverse=True) and firsts[-1] == 0
    assert len(firsts) == len(lengths) and len(buffers) == 1


def test_stream_hands_over_the_chunks_above_a_failing_row(monkeypatch):
    # On a frozen curved metric the mass drifts by 1.3e-5 at row 4 of 11 and
    # by 9.1e-6 at row 5: a 1e-5 tolerance fails the solve at row 4.  With
    # 2-row chunks, rows 10 ... 5 have been handed over by then, and the
    # error is the collected solve's.
    from riccilab import heat, parallel

    backend = rl.ConformalTorus2D(16, TWO_PI)
    x, y = rl.grid_coords(backend)
    traj = frozen_trajectory(0.3 * np.sin(x) + 0.0 * y, T=0.02, dt=1e-3, N=16)
    v_T = rl.terminal_datum("constant", traj.final_state())
    with pytest.raises(rl.MassDrift, match="at t=0.008 ") as want:
        rl.solve_backward(traj, v_T, mass_tol=1e-5)
    monkeypatch.setattr(parallel, "CHUNK_CELLS", 2 * backend.cells)
    handed = []
    with pytest.raises(rl.MassDrift) as got:
        for chunk in heat.stream_backward(traj, v_T, mass_tol=1e-5):
            handed += [chunk.first + k for k in range(len(chunk.times))]
    assert str(got.value) == str(want.value)
    assert handed == [9, 10, 7, 8, 5, 6]


def curved_torus(N, phi_amp):
    backend = rl.ConformalTorus2D(N, TWO_PI)
    x, y = rl.grid_coords(backend)
    return rl.MetricState(backend, 0.0, phi_amp * np.sin(x) + 0.0 * y)


STREAM_DATA = st.one_of(
    st.tuples(st.builds(curved_torus, N=st.sampled_from([8, 12, 16]),
                        phi_amp=st.floats(0.0, 0.3)),
              st.sampled_from(["constant", "bump", "random_smooth"]),
              st.fixed_dictionaries({"amplitude": st.floats(-0.9, 1.0),
                                     "seed": st.integers(0, 15)})),
    st.tuples(st.builds(lambda n, c0: rl.MetricState(
        rl.RoundSphere(n), 0.0, np.array([c0])),
        n=st.integers(2, 4), c0=st.floats(0.5, 2.0)),
        st.just("constant"), st.just({})),
    st.tuples(st.builds(lambda abc: rl.MetricState(
        rl.BergerSphere(), 0.0, np.array(abc)),
        abc=st.tuples(*[st.floats(0.6, 1.5)] * 3)),
        st.just("constant"), st.just({})),
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=STREAM_DATA, steps=st.integers(4, 10))
def test_stream_hands_over_only_rows_above_the_floor(data, steps):
    # The row evaluation takes the densities as the stream hands them over,
    # unchecked: every row of every one-row chunk is finite and above the
    # positivity floor.  With a mass tolerance that fails a row mid-stream,
    # the rows above it have been handed over and the failing row has not.
    from riccilab import heat, parallel

    m0, kind, kwargs = data
    traj = rl.integrate_forward(m0, steps * 1e-3, 5e-4)
    v_T = rl.terminal_datum(kind, traj.final_state(), **kwargs)
    drift = np.abs(rl.solve_backward(traj, v_T).masses - 1.0)
    assert np.max(drift) <= 1e-6

    def stream(mass_tol, rows):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(parallel, "CHUNK_CELLS", traj.backend.cells)
            for chunk in heat.stream_backward(traj, v_T, mass_tol=mass_tol):
                assert len(chunk.times) == 1
                assert np.all(np.isfinite(chunk.v))
                assert np.min(chunk.v) > heat.POSITIVITY_FLOOR
                rows.append(chunk.first)

    rows = []
    stream(1e-6, rows)
    assert rows == list(range(steps, -1, -1))
    # The highest row whose drift exceeds every drift above it fails a
    # tolerance equal to the largest of those.
    lower = [k for k in range(steps) if drift[k] > np.max(drift[k + 1:])]
    if lower:
        fail, rows = lower[-1], []
        with pytest.raises(rl.MassDrift):
            stream(float(np.max(drift[fail + 1:])), rows)
        assert rows == list(range(steps, fail, -1))


def frozen_case(kind, N, column, scale, seed, M, factor):
    """A metric held fixed over 2 M flow steps of factor times its flow
    bound, and a positive terminal datum: exp of 5 % noise on a torus (the
    metric held as its column or as the grid), the constant one on a
    sphere."""
    rng = np.random.default_rng(seed)
    if kind == "torus":
        backend = rl.ConformalTorus2D(N, TWO_PI)
        x, y = rl.grid_coords(backend)
        phi = scale * np.sin(x) + 0.0 * y
    else:
        backend = rl.RoundSphere(N // 4) if kind == "round" else rl.BergerSphere()
        phi = (1.0 + scale * rng.uniform(-1.0, 1.0, backend.param_shape))
    m0 = rl.MetricState(backend, 0.0, phi)
    dt = factor * rl.stability_dt(m0)
    params = np.broadcast_to(phi, (2 * M + 1,) + phi.shape)
    if kind != "torus" or not column:
        params = params.copy()
    traj = rl.Trajectory(backend, dt * np.arange(2 * M + 1), params, dt)
    m_T = traj.final_state()
    if kind != "torus":
        return traj, rl.terminal_datum("constant", m_T)
    raw = np.exp(0.05 * rng.standard_normal((N, N)))
    return traj, rl.scalar_field(m_T, raw / rl.integrate(m_T, rl.scalar_field(m_T, raw)))


def chunk_outcome(chunks):
    """The (first, v bytes, masses bytes) of each chunk handed over, and the
    class and message of the error that ended the stream (None if none)."""
    handed = []
    try:
        for first, v, masses in chunks:
            handed.append((first, v.tobytes(), masses.tobytes()))
    except rl.NumericalError as exc:
        return handed, (type(exc), str(exc))
    return handed, None


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["torus", "round", "berger"]),
       N=st.sampled_from([8, 12, 16]), column=st.booleans(),
       scale=st.floats(0.0, 0.3), seed=st.integers(0, 15),
       M=st.integers(1, 30), over=st.sampled_from([0, 1, 2]),
       f=st.floats(0.0, 1.0),
       cut=st.one_of(st.none(), st.integers(1, 30)),
       rows=st.integers(1, 31), sub=st.integers(1, 31))
# Each failure mid-way, and an overflow past the failing row in one chunk.
@example("round", 8, False, 0.2, 1, 30, 1, 0.5, None, 7, 3)
@example("torus", 16, True, 0.2, 3, 20, 1, 0.2, None, 4, 3)
@example("torus", 12, False, 0.3, 2, 12, 0, 0.9, 6, 5, 2)
@example("berger", 8, False, 0.3, 5, 16, 0, 0.5, 9, 3, 1)
@example("torus", 8, True, 0.1, 0, 12, 2, 0.1, None, 13, 13)
def test_chunk_checks_match_the_per_row_reference(kind, N, column, scale, seed,
                                                  M, over, f, cut, rows, sub):
    # Chunks of 1 row to every row, checked in sub-blocks of 1 row to every
    # row, hand over the rows and raise the error of the per-row check.
    # Positivity is lost on a step over the bound (`over` 1 and 2): the
    # torus's density oscillates negative, mid-way just over the bound, at
    # once far over it, and overflows; a sphere's overflows to inf, mid-way
    # or at once.
    # The mass fails a tolerance cut at the largest drift of the rows from
    # `cut` up, on a frozen metric, which conserves no mass.  Stepping the
    # rest of a chunk past a failing row prints no numpy warning; collected,
    # the solve raises the same error.
    from riccilab import heat, parallel

    lo, hi = [(-1.3, -0.3), (0.18, 0.5) if kind == "torus" else (3.0, 4.0),
              (1.0, 80.0) if kind == "torus" else (78.0, 80.0)][over]
    traj, v_T = frozen_case(kind, N, column, scale, seed, M,
                            10.0 ** (lo + (hi - lo) * f))
    cells = traj.backend.cells
    mass_tol = math.inf
    if cut is not None:
        handed, _ = chunk_outcome(stream_backward_per_row(traj, v_T, math.inf,
                                                          1))
        mass_tol = max((abs(np.frombuffer(m)[0] - 1.0) for first, _, m in handed
                        if first >= min(cut, M)), default=math.inf)

    def stream(chunk_rows):
        out = [np.empty((chunk_rows,) + v_T.values.shape)]
        for chunk in heat.stream_backward(traj, v_T, mass_tol=mass_tol,
                                          out=out):
            yield chunk.first, chunk.v, chunk.masses

    rows = min(rows, M + 1)
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")
        mp.setattr(parallel, "ROW_CELLS", sub * parallel.WORKERS * cells)
        got = chunk_outcome(stream(rows))
        whole = chunk_outcome(stream(M + 1))
    assert got == chunk_outcome(stream_backward_per_row(traj, v_T, mass_tol,
                                                        rows))
    assert whole == chunk_outcome(stream_backward_per_row(traj, v_T, mass_tol,
                                                          M + 1))


def flowing_case(name):
    """A flowing trajectory, T = 0.04 at dt = 1e-3 (21 rows), and its
    terminal datum: the N = 16 torus held as its column or on the full grid,
    the Berger sphere and the round 3-sphere."""
    if name in ("column", "grid"):
        backend = rl.ConformalTorus2D(16, TWO_PI)
        x, y = rl.grid_coords(backend)
        phi = (0.1 * np.sin(x) + 0.0 * y if name == "column"
               else 0.2 * np.sin(x) * np.cos(y))
        m0 = rl.MetricState(backend, 0.0, phi)
    elif name == "berger":
        m0 = rl.MetricState(rl.BergerSphere(), 0.0, np.array([1.0, 0.8, 0.6]))
    else:
        m0 = rl.MetricState(rl.RoundSphere(3), 0.0, np.array([1.0]))
    traj = rl.integrate_forward(m0, 0.04, 1e-3)
    if name in ("column", "grid"):
        return traj, rl.terminal_datum("random_smooth", traj.final_state(),
                                       amplitude=0.05, seed=3)
    return traj, rl.terminal_datum("constant", traj.final_state())


@pytest.mark.parametrize("name", ["column", "grid", "berger", "round"])
def test_flowing_solve_bytes_do_not_depend_on_block_or_chunk_size(name):
    # On a flowing metric every snapshot differs, so a block that reads the
    # wrong snapshot, steps from the wrong row or checks a row under the
    # wrong metric shows in the bytes.  Blocks of 1, 2, 3, 7 and every row,
    # in chunks of 1, 4 and every row (and collected), give the default
    # solve's v and masses; a mass tolerance cut at a lower-half row's
    # drift raises the same error at every size, with the chunks above it handed
    # over.
    from riccilab import heat, parallel

    traj, v_T = flowing_case(name)
    want = rl.solve_backward(traj, v_T)
    K, cells = len(want.times), traj.backend.cells
    assert K == 21
    drift = np.abs(want.masses - 1.0)
    # The highest row of the lower half whose drift exceeds every drift
    # above it fails a tolerance equal to the largest of those.
    fail = max(k for k in range(K // 2 + 1) if drift[k] > np.max(drift[k + 1:]))
    tol = float(np.max(drift[fail + 1:]))
    message = (f"mass drift {want.masses[fail] - 1.0:+.3e} at "
               f"t={want.times[fail]:g} exceeds {tol:g}")

    def chunks(mass_tol, chunk_rows):
        """The stream in chunks of at most ``chunk_rows`` rows, or the
        collected solve (None)."""
        if chunk_rows is None:
            yield rl.solve_backward(traj, v_T, mass_tol=mass_tol)
        else:
            yield from heat.stream_backward(
                traj, v_T, mass_tol=mass_tol,
                out=[np.empty((chunk_rows,) + v_T.values.shape)])

    def solve(mass_tol, chunk_rows):
        """The rows handed over, reassembled by ``first``, and the error."""
        v, masses, handed = np.empty_like(want.v), np.empty(K), []
        try:
            for chunk in chunks(mass_tol, chunk_rows):
                rows = slice(chunk.first, chunk.first + len(chunk.times))
                v[rows], masses[rows] = chunk.v, chunk.masses
                handed += range(rows.start, rows.stop)
        except rl.MassDrift as exc:
            return v, masses, sorted(handed), str(exc)
        return v, masses, sorted(handed), None

    for block in (1, 2, 3, 7, K):
        for chunk_rows in (1, 4, K, None):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(parallel, "ROW_CELLS",
                           block * parallel.WORKERS * cells)
                v, masses, handed, error = solve(1e-6, chunk_rows)
                assert handed == list(range(K)) and error is None
                assert v.tobytes() == want.v.tobytes(), (block, chunk_rows)
                assert masses.tobytes() == want.masses.tobytes()
                v, masses, handed, error = solve(tol, chunk_rows)
            assert error == message, (block, chunk_rows)
            assert handed == list(range(K - len(handed), K))
            # Every chunk above the failing row's chunk, and no other.
            ends = np.cumsum(chunk_lengths(K, chunk_rows or K))
            assert len(handed) == max(
                (end for end in ends if end <= K - 1 - fail), default=0)
            assert v[handed].tobytes() == want.v[handed].tobytes()


# -------------------------------------------------------------------------
# Guards
# -------------------------------------------------------------------------

def test_positivity_loss_on_unstable_step():
    # The flat metric is a fixed point, so the trajectory itself is fine at
    # any spacing; a density step far beyond the parabolic bound loses
    # positivity on a rough datum.
    N = 32
    bound = (TWO_PI / N) ** 2 / 8
    dt = 2.0 * bound  # trajectory spacing; density step = 4x bound
    traj = frozen_trajectory(np.zeros((N, N)), T=40 * dt, dt=dt, N=N)
    rng = np.random.default_rng(5)
    raw = np.exp(0.5 * rng.standard_normal((N, N)))
    m_T = traj.final_state()
    raw /= rl.integrate(m_T, rl.scalar_field(m_T, raw))
    with pytest.raises(rl.PositivityLoss):
        rl.solve_backward(traj, rl.ScalarField(traj.backend, raw), step=2 * dt)


def test_mass_drift_on_non_flow_trajectory():
    # On a frozen curved metric the density equation has no conservation
    # law; the drift guard must fire rather than return a bad history.
    backend = rl.ConformalTorus2D(32, TWO_PI)
    x, y = rl.grid_coords(backend)
    traj = frozen_trajectory(0.3 * np.sin(x) + 0.0 * y, T=0.05, dt=5e-4)
    v_T = rl.terminal_datum("constant", traj.final_state())
    with pytest.raises(rl.MassDrift):
        rl.solve_backward(traj, v_T, step=1e-3, mass_tol=1e-6)


@pytest.mark.parametrize("m0", [
    rl.MetricState(rl.RoundSphere(3), 0.0, np.array([1.0])),
    rl.MetricState(rl.BergerSphere(), 0.0, np.array([1.0, 0.8, 0.6])),
], ids=["round", "berger"])
def test_mass_drift_on_the_float_path_matches_reference(m0):
    # A frozen sphere (not a flow solution) has dv/dtau = -R v at a fixed
    # volume, so the mass decays.  The guard fires at the first step whose
    # reference mass leaves the tolerance, with that mass in its message.
    K, dt, tol = 40, 1e-3, 0.05
    params = np.broadcast_to(m0.params, (K + 1,) + m0.params.shape).copy()
    traj = rl.Trajectory(m0.backend, dt * np.arange(K + 1), params, dt)
    v_T = rl.terminal_datum("constant", traj.final_state())
    R = float(rl.scalar_curvature(m0).values)
    drift = reference_backward(traj, v_T, lambda p, v: -R * v) * rl.volume(m0) - 1.0
    j = max(np.flatnonzero(np.abs(drift) > tol))
    assert 0 < j < K // 2 - 1
    message = (f"mass drift {drift[j]:+.3e} at t={traj.times[2 * j]:g} "
               f"exceeds {tol:g}")
    with pytest.raises(rl.MassDrift, match=f"^{re.escape(message)}$"):
        rl.solve_backward(traj, v_T, mass_tol=tol)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, 1e-11])
def test_check_density_rejects_alike_floats_0d_arrays_and_grids(bad):
    # The row check on a one-row block stored from a float, a 0-d array or
    # a grid, under a one-snapshot stack: a density not finite or not above
    # the floor loses positivity, before its mass (far from 1 here) is
    # looked at.  At 1e-9 on a metric of volume 1e9 the row passes both
    # checks.
    from riccilab.heat import _check_rows

    sphere, torus = rl.RoundSphere(2), rl.ConformalTorus2D(8, math.sqrt(1e9))
    scale = {sphere: 1e9 / (4.0 * math.pi), torus: 0.0}

    def check(backend, v):
        row = np.empty((1,) + backend.field_shape)
        row[0] = v
        g = backend.stack(np.full((1,) + backend.param_shape, scale[backend]))
        _check_rows(g, np.array([0.5]), row, np.empty(1), 1e-6)

    grid = np.ones((8, 8))
    grid[3, 5] = bad
    for backend, v in ((sphere, bad), (sphere, np.array(bad)), (torus, grid),
                       (torus, np.full((8, 8), bad))):
        with pytest.raises(rl.PositivityLoss,
                           match=r"^density positivity lost at t=0\.5$"):
            check(backend, v)
    for backend, v in ((sphere, 1e-9), (sphere, np.array(1e-9)),
                       (torus, np.full((8, 8), 1e-9))):
        check(backend, v)


def test_solver_step_must_be_even_multiple():
    # The solver steps at exactly twice the spacing: 1x, 3x and 4x are refused.
    traj = flat_trajectory(N=16, T=0.01, dt=5e-4)
    for step in (5e-4, 1.5e-3, 2e-3):
        with pytest.raises(ValueError, match=r"must be 0\.001, twice the "
                                             r"trajectory spacing 0\.0005$"):
            rl.solve_backward(traj, rl.terminal_datum("constant",
                                                      traj.final_state()),
                              step=step)


def test_solver_needs_an_even_step_count():
    # 19 flow steps cannot be cut into solver steps of two flow steps each.
    traj = flat_trajectory(N=8, T=9.5e-3, dt=5e-4)
    with pytest.raises(ValueError, match="not divisible by the solver step"):
        rl.solve_backward(traj, rl.terminal_datum("constant", traj.final_state()))


def test_solver_accepts_the_layer_benchmark_step():
    # The layer benchmark's heat solve: a curved N = 32 torus stepped at half
    # its stability bound for 16 steps, solved with step = 2 * dt, which must
    # be the default step bit for bit.
    backend = rl.ConformalTorus2D(32, TWO_PI)
    x, y = rl.grid_coords(backend)
    m0 = rl.MetricState(backend, 0.0, 0.1 * np.sin(x) + 0.0 * y)
    dt = 0.5 * rl.stability_dt(m0)
    traj = rl.integrate_forward(m0, 16 * dt, dt)
    v_T = rl.terminal_datum("random_smooth", traj.final_state(),
                            amplitude=0.02, seed=1, mode_cutoff=2)
    hist = rl.solve_backward(traj, v_T, step=2.0 * dt)
    assert len(hist.times) == 9
    assert np.array_equal(hist.v, rl.solve_backward(traj, v_T).v)


# -------------------------------------------------------------------------
# Terminal data
# -------------------------------------------------------------------------

def test_constant_datum_values():
    traj = flat_trajectory(N=16, T=0.01, dt=5e-4)
    v = rl.terminal_datum("constant", traj.final_state())
    assert np.max(np.abs(v.values - 1.0 / (4 * math.pi**2))) < 1e-16
    ms = rl.MetricState(rl.RoundSphere(2), 0.0, np.array([1.0]))
    vs = rl.terminal_datum("constant", ms)
    assert float(vs.values) == pytest.approx(1.0 / (4 * math.pi), rel=1e-14)


def test_datum_positive_and_normalized():
    backend = rl.ConformalTorus2D(32, TWO_PI)
    x, y = rl.grid_coords(backend)
    m = rl.MetricState(backend, 0.0, 0.1 * np.sin(x) + 0.0 * y)
    for kind, kwargs in (
        ("bump", dict(amplitude=0.8)),
        ("bump", dict(amplitude=-0.7, center=(1.0, 2.0), width=0.7)),
        ("random_smooth", dict(amplitude=0.3, seed=11)),
    ):
        v = rl.terminal_datum(kind, m, **kwargs)
        assert np.min(v.values) > 0
        assert rl.integrate(m, v) == pytest.approx(1.0, abs=1e-14)


def test_random_smooth_deterministic():
    traj = flat_trajectory(N=16, T=0.01, dt=5e-4)
    m_T = traj.final_state()
    v1 = rl.terminal_datum("random_smooth", m_T, amplitude=0.2, seed=42)
    v2 = rl.terminal_datum("random_smooth", m_T, amplitude=0.2, seed=42)
    v3 = rl.terminal_datum("random_smooth", m_T, amplitude=0.2, seed=43)
    assert np.array_equal(v1.values, v2.values)
    assert not np.array_equal(v1.values, v3.values)


def test_random_smooth_is_resolution_consistent():
    # Same seed describes one continuum field: values at shared nodes of the
    # N and 2N grids agree up to the quadrature difference in normalization.
    vals = {}
    for N in (32, 64):
        backend = rl.ConformalTorus2D(N, TWO_PI)
        m = rl.MetricState(backend, 0.0, np.zeros((N, N)))
        vals[N] = rl.terminal_datum("random_smooth", m, amplitude=0.2, seed=4).values
    assert np.max(np.abs(vals[32] - vals[64][::2, ::2])) < 1e-8


def test_random_modes_draw_in_the_fixed_order():
    # One draw of all coefficients gives the values of the per-mode draws.
    from riccilab.heat import _fourier_modes

    for seed, cutoff in ((0, 1), (1, 2), (7, 4)):
        rng = np.random.default_rng(seed)
        want = [(kx, ky, *rng.standard_normal(2).tolist(),
                 1.0 / (1.0 + kx * kx + ky * ky))
                for kx in range(cutoff + 1)
                for ky in range(1 if kx == 0 else -cutoff, cutoff + 1)]
        assert _fourier_modes(seed, cutoff) == want


@pytest.mark.parametrize("amplitude", [0.02, 50.0, 100.0, 400.0, 500.0,
                                       1000.0, -1000.0, 1e300])
@pytest.mark.parametrize("N", [8, 16])
def test_check_datum_raises_what_terminal_datum_raises(amplitude, N):
    # The coefficient bound lets small amplitudes pass unbuilt; past it the
    # datum is built, and an overflow is NonPositive from both, with no
    # numpy warning (a warning fails this suite).  A finite datum whose
    # minimum is not above the positivity floor is NonPositive from
    # check_datum alone: the backward solve would fail its first row.
    from riccilab.heat import POSITIVITY_FLOOR, check_datum

    backend = rl.ConformalTorus2D(N, TWO_PI)
    x, y = rl.grid_coords(backend)
    m = rl.MetricState(backend, 0.0, 0.1 * np.sin(x) + 0.0 * y)
    try:
        low = float(np.min(rl.terminal_datum("random_smooth", m,
                                             amplitude=amplitude).values))
        want = None if low > POSITIVITY_FLOOR else (
            f"random_smooth amplitude {amplitude:g} puts the normalized "
            f"datum's minimum {low:g} below the positivity floor 1e-10")
    except rl.NonPositive as exc:
        want = str(exc)
    try:
        check_datum("random_smooth", m, amplitude=amplitude)
        got = None
    except rl.NonPositive as exc:
        got = str(exc)
    assert got == want
    assert (want is None) == (abs(amplitude) <= 0.02)
    if abs(amplitude) > 400.0:
        assert want.startswith(f"random_smooth amplitude {amplitude:g} makes the "
                               "normalized datum non-finite")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["bump", "random_smooth"]),
       N=st.sampled_from([8, 16]), phi_amp=st.floats(0.0, 0.3),
       amplitude=st.one_of(st.floats(-12.0, 12.0),
                           st.floats(-1.0, -0.999999),
                           st.just(-0.999999999999)),
       seed=st.integers(0, 15))
def test_check_datum_passes_the_data_above_the_floor(kind, N, phi_amp,
                                                     amplitude, seed):
    # Whether the coefficient bound decides or the datum is built, check_datum
    # passes exactly the data terminal_datum builds with a minimum above the
    # positivity floor.
    from riccilab.heat import POSITIVITY_FLOOR, check_datum

    m = curved_torus(N, phi_amp)
    try:
        v = rl.terminal_datum(kind, m, amplitude=amplitude, seed=seed)
        above = bool(np.min(v.values) > POSITIVITY_FLOOR)
    except rl.NonPositive:
        above = False
    try:
        check_datum(kind, m, amplitude=amplitude, seed=seed)
        passed = True
    except rl.NonPositive:
        passed = False
    assert passed == above


@pytest.mark.parametrize("kind", ["constant", "bump", "random_smooth"])
def test_check_datum_checks_the_constant_datum_against_the_floor(kind):
    # The constant datum, and every kind on a sphere, is 1/volume: below the
    # floor on a large sphere or torus, where the run's rows would fail.  A
    # shaped datum's minimum is at most its mean 1/volume, so on the large
    # torus it is below the floor whatever its amplitude.
    from riccilab.heat import check_datum

    sphere = rl.MetricState(rl.RoundSphere(2), 0.0, np.array([1e12]))
    torus = rl.MetricState(rl.ConformalTorus2D(8, 1e6), 0.0, np.zeros((8, 8)))
    unit = [rl.MetricState(rl.RoundSphere(2), 0.0, np.array([1.0])),
            rl.MetricState(rl.ConformalTorus2D(8, 1e4), 0.0, np.zeros((8, 8)))]
    with pytest.raises(rl.NonPositive, match="^the constant datum 1/volume = "
                                             ".* is below the positivity floor 1e-10$"):
        check_datum(kind, sphere)
    what = "the constant datum" if kind == "constant" else f"the {kind} datum's mean"
    with pytest.raises(rl.NonPositive, match=f"^{what} 1/volume = 1e-12 is below "
                                             "the positivity floor 1e-10$"):
        check_datum(kind, torus)
    for m in unit:
        assert 1.0 / rl.volume(m) > 1e-10
        check_datum(kind, m)


def test_bump_nonpositive_amplitude_rejected():
    traj = flat_trajectory(N=16, T=0.01, dt=5e-4)
    with pytest.raises(rl.NonPositive):
        rl.terminal_datum("bump", traj.final_state(), amplitude=-1.1)


def test_bump_at_the_edge_of_the_float_range():
    # A bump whose phase pi (x - cx) / L or scale (L / (pi * width))**2 is
    # past the float range is a ValueError, with no numpy warning (the suite
    # makes warnings errors).
    from riccilab.heat import bump_terms

    m = flat_trajectory(N=16, T=0.01, dt=5e-4).final_state()
    for kw in (dict(width=1e-300), dict(center=(1e308, 0.0)),
               dict(center=(0.0, -1e308))):
        with pytest.raises(ValueError, match="past the float range"):
            rl.terminal_datum("bump", m, **kw)
    # A finite scale above half the float range overflows the exponent at the
    # nodes far from the centre, where exp(-inf) = 0 is the bump's value.
    width = 2.0 / math.sqrt(1.5e308)
    assert bump_terms(m.backend, width=width)[2] > 0.5 * sys.float_info.max
    v = rl.terminal_datum("bump", m, amplitude=0.5, width=width).values
    assert np.unravel_index(np.argmax(v), v.shape) == (8, 8)
    assert np.count_nonzero(v != v.min()) == 1
    assert v.max() / v.min() == pytest.approx(1.5, rel=1e-15)


def test_unknown_datum_kind():
    traj = flat_trajectory(N=16, T=0.01, dt=5e-4)
    with pytest.raises(ValueError):
        rl.terminal_datum("spike", traj.final_state())


# -------------------------------------------------------------------------
# Change of variables
# -------------------------------------------------------------------------

def test_change_variables_examples():
    backend = rl.ConformalTorus2D(8, TWO_PI)
    ones = np.ones((8, 8))
    u, f = rl.change_variables(rl.ScalarField(backend, ones))
    assert np.all(u.values == 1.0) and np.all(f.values == 0.0)

    u, f = rl.change_variables(rl.ScalarField(backend, ones / (4 * math.pi**2)))
    assert np.max(np.abs(f.values - math.log(4 * math.pi**2))) < 1e-14

    u, f = rl.change_variables(rl.ScalarField(backend, ones * math.exp(-2.0)))
    assert np.max(np.abs(u.values - math.exp(-1.0))) < 1e-16
    assert np.max(np.abs(f.values - 2.0)) < 1e-14


@pytest.mark.parametrize("seed", [0, 1])
def test_change_variables_round_trip(seed):
    backend = rl.ConformalTorus2D(16, TWO_PI)
    rng = np.random.default_rng(seed)
    v = np.exp(rng.standard_normal((16, 16)))
    u, f = rl.change_variables(rl.ScalarField(backend, v))
    assert np.max(np.abs(np.exp(-f.values) - v) / v) < 1e-14
    assert np.max(np.abs(u.values**2 - v) / v) < 1e-14


def test_change_variables_requires_positive():
    backend = rl.ConformalTorus2D(8, TWO_PI)
    v = np.ones((8, 8))
    v[3, 3] = 0.0
    with pytest.raises(rl.PositivityLoss):
        rl.change_variables(rl.ScalarField(backend, v))
