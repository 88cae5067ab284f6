"""Backward density solve: Fourier-mode and volume oracles, mass
conservation, positivity/mass guards, terminal data, change of variables."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import riccilab as rl

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


@pytest.mark.parametrize("m0", [
    rl.MetricState(rl.RoundSphere(3), 0.0, np.array([1.0])),
    rl.MetricState(rl.BergerSphere(), 0.0, np.array([1.0, 0.8, 0.6])),
], ids=["round", "berger"])
def test_homogeneous_backward_solve_bitwise_reference(m0):
    traj = rl.integrate_forward(m0, 0.02, 5e-4)
    v_T = rl.terminal_datum("constant", traj.final_state())

    def rhs(p, v):
        m = rl.MetricState(m0.backend, 0.0, p)
        return -float(rl.scalar_curvature(m).values) * v

    ref = reference_backward(traj, v_T, rhs)
    assert np.array_equal(rl.solve_backward(traj, v_T).v, ref)


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


def test_solver_step_must_be_even_multiple():
    traj = flat_trajectory(N=16, T=0.01, dt=5e-4)
    with pytest.raises(ValueError):
        rl.solve_backward(traj, rl.terminal_datum("constant", traj.final_state()),
                          step=5e-4)
    with pytest.raises(ValueError):
        rl.solve_backward(traj, rl.terminal_datum("constant", traj.final_state()),
                          step=1.5e-3)


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


def test_bump_nonpositive_amplitude_rejected():
    traj = flat_trajectory(N=16, T=0.01, dt=5e-4)
    with pytest.raises(rl.NonPositive):
        rl.terminal_datum("bump", traj.final_state(), amplitude=-1.1)


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
