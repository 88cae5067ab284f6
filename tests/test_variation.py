"""Variation tensor, the two rate forms, finite differences, and the
verification helpers."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import riccilab as rl

TWO_PI = 2.0 * math.pi


def sphere(c=1.0, n=2):
    return rl.MetricState(rl.RoundSphere(n), 0.0, np.array([c]))


def flat(N=32):
    return rl.MetricState(rl.ConformalTorus2D(N, TWO_PI), 0.0, np.zeros((N, N)))


def constant_u(m):
    vol = rl.integrate(m, rl.const_field(m, 1.0))
    return rl.const_field(m, 1.0 / math.sqrt(vol))


def low_mode(backend, amplitude, rng):
    """Random trigonometric polynomial in modes 0..2 with max |.| = amplitude."""
    x, y = rl.grid_coords(backend)
    w = np.zeros((backend.N, backend.N))
    for kx in range(3):
        for ky in range(3):
            c, theta = rng.uniform(-1.0, 1.0), rng.uniform(0.0, TWO_PI)
            w += c * np.cos(TWO_PI * (kx * x + ky * y) / backend.L + theta)
    return w * (amplitude / np.max(np.abs(w)))


# Even N in 8..32, L in [1, 4 pi], low-mode phi and log u.
LOW_MODE_GRIDS = dict(
    N=st.integers(4, 16).map(lambda k: 2 * k),
    L=st.floats(1.0, 4.0 * math.pi),
    phi_amp=st.floats(0.0, 0.3),
    u_amp=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**32 - 1),
)


def low_mode_state(N, L, phi_amp, u_amp, seed):
    """Torus metric with low-mode phi and a positive low-mode u = e^w."""
    backend = rl.ConformalTorus2D(N, L)
    rng = np.random.default_rng(seed)
    m = rl.MetricState(backend, 0.0, low_mode(backend, phi_amp, rng))
    return m, rl.scalar_field(m, np.exp(low_mode(backend, u_amp, rng)))


def mode_u(m, amplitude=0.5):
    x, y = rl.grid_coords(m.backend)
    return rl.scalar_field(m, np.sqrt((1.0 + amplitude * np.cos(x) + 0.0 * y)
                                      / (4 * math.pi**2)))


# -------------------------------------------------------------------------
# Variation tensor
# -------------------------------------------------------------------------

def test_matrix_quantity_constant_u_is_ricci():
    m = sphere(1.0, 2)
    np.testing.assert_allclose(rl.matrix_quantity(m, constant_u(m)).comps,
                               rl.ricci(m).comps, rtol=0)
    mf = flat()
    assert np.all(rl.matrix_quantity(mf, constant_u(mf)).comps == 0.0)


def test_matrix_quantity_requires_positive_u():
    m = flat(N=8)
    u = np.ones((8, 8))
    u[0, 0] = 0.0
    with pytest.raises(rl.PositivityLoss):
        rl.matrix_quantity(m, rl.scalar_field(m, u))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(scale=st.floats(0.1, 10.0), **LOW_MODE_GRIDS)
def test_trace_integrates_to_energy_property(scale, N, L, phi_amp, u_amp, seed):
    # integral(tr_g T u^2) = F for any positive u, whatever its mass.
    m, u = low_mode_state(N, L, phi_amp, u_amp, seed)
    u = rl.scalar_field(m, scale * u.values)
    tr = rl.tensor_trace(m, rl.matrix_quantity(m, u))
    lhs = rl.integrate(m, rl.scalar_field(m, tr.values * u.values**2))
    F = rl.f_functional(m, u)
    assert abs(lhs - F) <= 1e-13 * max(1.0, abs(F))


def test_matrix_quantity_two_forms_converge_at_second_order():
    # -2 Hess(u)/u + 2 grad u x grad u / u^2 = Hess(-2 ln u) holds exactly
    # only with exact chain rules; the discrete forms differ by O(h^2).
    errs = []
    for N in (32, 64, 128):
        m = flat(N)
        u = mode_u(m)
        f = rl.scalar_field(m, -2.0 * np.log(u.values))
        Tu = rl.matrix_quantity(m, u)
        Tf = rl.matrix_quantity_f_form(m, f)
        errs.append(np.max(np.abs(Tu.comps - Tf.comps)))
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all(orders > 1.9)
    assert errs[1] < 0.5 * (TWO_PI / 64) ** 2  # measured constant ~0.25 h^2


# -------------------------------------------------------------------------
# Rate forms
# -------------------------------------------------------------------------

def test_rates_on_round_sphere():
    m = sphere(1.0, 2)
    u = constant_u(m)
    # a = 0: the tensor equals (F/n) g exactly (soliton case), so only the
    # adjustment term could contribute and it vanishes too.
    assert abs(rl.rhs_split(m, u, 0.0)) < 1e-12
    assert abs(rl.rhs_combined(m, u, 0.0)) < 1e-12
    # a = 1: trace-free part vanishes; 4 a^2 / omega = 8/3.
    assert rl.rhs_split(m, u, 1.0) == pytest.approx(8.0 / 3.0, rel=1e-12)
    assert rl.rhs_combined(m, u, 1.0) == pytest.approx(8.0 / 3.0, rel=1e-12)


def test_rates_on_flat_torus():
    m = flat()
    u = constant_u(m)
    assert rl.rhs_split(m, u, 0.5) == pytest.approx(2.0, rel=1e-13)
    assert rl.rhs_combined(m, u, 0.5) == pytest.approx(2.0, rel=1e-13)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(a=st.floats(0.05, 2.0), **LOW_MODE_GRIDS)
def test_rate_forms_agree_at_unit_mass_property(a, N, L, phi_amp, u_amp, seed):
    # The split and combined forms are equal once integral(u^2) = 1.
    m, u = low_mode_state(N, L, phi_amp, u_amp, seed)
    mass = rl.integrate(m, rl.scalar_field(m, u.values**2))
    u = rl.scalar_field(m, u.values / math.sqrt(mass))
    F = rl.f_functional(m, u)
    assume(a + F / 4.0 > 0.01)
    split, combined = rl.rate_forms(m, u, rl.matrix_quantity(m, u), F, a)
    assert abs(split - combined) <= 1e-14 * max(1.0, abs(split))


@pytest.mark.parametrize("seed,a", [(0, 0.1), (1, 1.0), (2, 0.5)])
def test_split_rate_dominates_adjustment_term(seed, a):
    # rhs_split >= 4 a^2 / omega >= 0: the integral term is a norm.
    backend = rl.ConformalTorus2D(32, TWO_PI)
    rng = np.random.default_rng(seed)
    x, y = rl.grid_coords(backend)
    phi = 0.1 * np.sin(x + rng.uniform(0, TWO_PI)) + 0.05 * np.cos(y)
    m = rl.MetricState(backend, 0.0, phi)
    vf = rl.terminal_datum("random_smooth", m, amplitude=0.1, seed=seed)
    u, _ = rl.change_variables(vf)
    F = rl.f_functional(m, u)
    w = rl.omega(F, a)
    val = rl.rhs_split(m, u, a)
    assert val >= 4.0 * a * a / w - 1e-14


# -------------------------------------------------------------------------
# Finite differences
# -------------------------------------------------------------------------

def test_fd_exact_on_quadratics():
    t = 0.1 * np.arange(21)
    d = rl.fd_time_derivative(t**2, 0.1)
    np.testing.assert_allclose(d[1:-1], 2.0 * t[1:-1], rtol=0, atol=1e-13)
    assert d[10] == pytest.approx(2.0, abs=1e-13)


def test_fd_constant_series_zero():
    d = rl.fd_time_derivative(np.full(9, 3.3), 0.01)
    assert np.max(np.abs(d)) < 1e-12


def test_fd_sine_accuracy():
    dt = 1e-3
    t = dt * np.arange(-5, 6)  # includes t = 0 as an interior point
    d = rl.fd_time_derivative(np.sin(t), dt)
    k = 5
    assert abs(d[k] - 1.0) < 1e-6       # documented accuracy
    assert abs(d[k] - 1.0) < 1e-11      # fourth-order interior stencil


def test_fd_short_series_fallback_and_errors():
    d = rl.fd_time_derivative(np.array([0.0, 1.0, 4.0]), 1.0)  # y = t^2
    assert d[1] == pytest.approx(2.0, abs=1e-14)
    with pytest.raises(rl.TooFewSamples):
        rl.fd_time_derivative(np.array([1.0, 2.0]), 1.0)
    with pytest.raises(rl.TooFewSamples):
        rl.fd_time_derivative(np.ones((2, 4)), 1.0)  # two rows of four series
    with pytest.raises(ValueError):
        rl.fd_time_derivative(np.arange(5.0), -1.0)


@pytest.mark.parametrize("rows", [3, 4, 9, 12])
def test_fd_columns_match_one_dimensional_calls(rows):
    # A (rows, k) array is k series, one per column, under the same stencils.
    y = np.exp(np.random.default_rng(rows).standard_normal((rows, 5)))
    d = rl.fd_time_derivative(y, 0.01)
    assert d.shape == y.shape
    for j in range(5):
        assert np.array_equal(d[:, j], rl.fd_time_derivative(y[:, j], 0.01))


def test_fd_endpoints_second_order():
    dt = 1e-3
    t = dt * np.arange(9)
    d = rl.fd_time_derivative(np.sin(t), dt)
    assert abs(d[0] - 1.0) < 1e-6
    assert abs(d[-1] - math.cos(t[-1])) < 1e-6


# -------------------------------------------------------------------------
# Proof-chain report
# -------------------------------------------------------------------------

def sphere_run(a_values=(0.0,), T=0.2, dt=1e-3, c0=1.0, n=2):
    m0 = rl.MetricState(rl.RoundSphere(n), 0.0, np.array([c0]))
    traj = rl.integrate_forward(m0, T, dt / 2)
    v_T = rl.terminal_datum("constant", traj.final_state())
    hist = rl.solve_backward(traj, v_T, step=dt)
    return traj, hist


def test_proof_chain_on_round_sphere():
    # dS/dt = F = 2/c and dF/dt = 2 integral(|T|^2 u^2) = 4/c^2.
    T, dt = 0.2, 1e-3
    traj, hist = sphere_run(T=T, dt=dt)
    K = len(hist.times)
    S = np.empty(K)
    F = np.empty(K)
    dF_rhs = np.empty(K)
    for k in range(K):
        m = traj.state(2 * k)
        u, _ = rl.change_variables(hist.field(k))
        S[k] = rl.shannon_entropy(m, u)
        F[k] = rl.f_functional(m, u)
        Tq = rl.matrix_quantity(m, u)
        dF_rhs[k] = 2.0 * rl.integrate(
            m, rl.scalar_field(m, rl.tensor_norm_sq(m, Tq).values * u.values**2))
    rep = rl.proof_chain_check(hist.times, S, F, dF_rhs, dt)
    c = 1.0 - 2.0 * hist.times
    assert np.max(np.abs(F - 2.0 / c)) < 1e-12
    assert np.max(np.abs(dF_rhs - 4.0 / c**2)) < 1e-11
    assert rep.max_interior_res_dS < 1e-6
    assert rep.max_interior_res_dF < 1e-6
    assert not rep.interior[0] and not rep.interior[-1]


def test_flat_torus_constant_proof_chain_trivial():
    m0 = flat(N=16)
    traj = rl.integrate_forward(m0, 0.02, 5e-4)
    hist = rl.solve_backward(traj, rl.terminal_datum("constant", traj.final_state()),
                             step=1e-3)
    K = len(hist.times)
    S = np.empty(K)
    F = np.empty(K)
    for k in range(K):
        m = traj.state(2 * k)
        u, _ = rl.change_variables(hist.field(k))
        S[k] = rl.shannon_entropy(m, u)
        F[k] = rl.f_functional(m, u)
    rep = rl.proof_chain_check(hist.times, S, F, np.zeros(K), 1e-3)
    assert np.all(F == 0.0)
    assert rep.max_interior_res_dS < 1e-12


# -------------------------------------------------------------------------
# Flags
# -------------------------------------------------------------------------

def test_equivalence_check_flags():
    main_ok, sub_ok = rl.equivalence_check([2.0, 2.0], [2.0, 2.0 + 1e-12],
                                           [0.1, 0.1], [0.1, 0.1 + 1e-12])
    assert np.all(main_ok) and np.all(sub_ok)
    main_ok, sub_ok = rl.equivalence_check([2.0], [2.1], [0.1], [0.1])
    assert not main_ok[0] and sub_ok[0]
    main_ok, sub_ok = rl.equivalence_check([2.0], [2.0], [0.1], [0.2])
    assert main_ok[0] and not sub_ok[0]
    # the sub-identity tolerance is relative to max(1, |lhs|)
    main_ok, sub_ok = rl.equivalence_check([2.0], [2.0], [1e3], [1e3 + 1e-7])
    assert sub_ok[0]


def test_monotonicity_check():
    assert len(rl.monotonicity_check(np.array([1.0, 1.5, 1.5, 2.0]), 1e-6)) == 0
    drops = rl.monotonicity_check(np.array([3.0, 2.0, 1.0, 0.5]), 1e-6)
    np.testing.assert_array_equal(drops, [0, 1, 2])
    # drops within tolerance are not flagged
    assert len(rl.monotonicity_check(np.array([1.0, 1.0 - 1e-8]), 1e-6)) == 0
