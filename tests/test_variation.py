"""Variation tensor, the two rate forms, finite differences, and the
verification helpers."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import riccilab as rl

from cross_checks import matrix_quantity_f_form, tensor_trace

TWO_PI = 2.0 * math.pi


def sphere(c=1.0, n=2):
    return rl.MetricState(rl.RoundSphere(n), 0.0, np.array([c]))


def flat(N=32):
    return rl.MetricState(rl.ConformalTorus2D(N, TWO_PI), 0.0, np.zeros((N, N)))


def constant_u(m):
    shape = m.backend.field_shape
    vol = rl.integrate(m, rl.scalar_field(m, np.full(shape, 1.0)))
    return rl.scalar_field(m, np.full(shape, 1.0 / math.sqrt(vol)))


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
    np.testing.assert_allclose(rl.matrix_quantity(m, constant_u(m)),
                               m.stack.ricci, rtol=0)
    mf = flat()
    assert np.all(rl.matrix_quantity(mf, constant_u(mf)) == 0.0)


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
    tr = tensor_trace(m, rl.matrix_quantity(m, u))
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
        Tf = matrix_quantity_f_form(m, f)
        errs.append(np.max(np.abs(Tu - Tf)))
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
    split, combined = rl.rhs_split(m, u, a), rl.rhs_combined(m, u, a)
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
# Row kernel footprint
# -------------------------------------------------------------------------

@pytest.mark.parametrize("column,a_values", [
    (True, [0.1, 0.25, 0.5, 1.0, 2.0, 4.0]),
    (False, [0.1, 1.0]),
])
def test_row_kernel_holds_at_most_14_fields(column, a_values):
    # One row_values call over a block of 2^15 cells (8 rows of 64^2), as a
    # two-worker pool runs it, holds at most 14 block-sized fields at its
    # traced peak beyond its inputs: v, times and the stack with the metric
    # arrays it builds once (a first call builds them).  Each field is
    # released after its last reader and T is built in the Hessian's output;
    # with every field kept to the end of the block it holds 23.  column is
    # a y-invariant metric, held as one (N, 1) column; otherwise phi(x, y).
    import tracemalloc

    from riccilab.variation import row_values

    backend = rl.ConformalTorus2D(64, TWO_PI)
    K = 8
    x, y = rl.grid_coords(backend)
    shift = 0.01 * np.arange(K)[:, None, None]
    if column:
        phi = np.broadcast_to((0.1 * np.sin(x) + shift)[..., :1], (K, 64, 64))
    else:
        phi = 0.1 * np.sin(x + y) * np.cos(y) + shift
    v = np.exp(0.2 * np.cos(x) * np.sin(2.0 * y) + shift) / TWO_PI**2
    times = 1e-3 * np.arange(K)
    g = backend.stack(phi)
    assert g.params.shape == ((K, 64, 1) if column else (K, 64, 64))
    want = row_values(g, v, times, a_values)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = row_values(g, v, times, a_values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(got.om > 0.0) and np.array_equal(got.rhs_split, want.rhs_split)
    fields = (peak - before) / v.nbytes
    assert 8.0 < fields <= 14.0, fields


# -------------------------------------------------------------------------
# Row-failure rule
# -------------------------------------------------------------------------

SPECIAL = np.array([math.nan, math.inf, -math.inf])


@st.composite
def row_tables(draw):
    """A table as ``harness.evaluate_tables`` fills it, with random failing
    rows: (ground, F, a_series, times, a_values).  Each example draws its
    own odds of a failing cell.  At those odds a row's lambda0 is
    unconverged (residual twice the tolerance, or nan), its F is nan, inf or
    -inf, and so is each Y and rate cell.  omega = a + F/4 is built as the
    kernel builds it: non-positive where F < -4 a, nan or infinite where F
    is."""
    from riccilab.functionals import LAMBDA0_TOL, GroundStates

    rows, odds = draw(st.integers(1, 8)), draw(st.integers(2, 16))
    a_values = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3))
    shape = (5, rows, len(a_values))  # lambda0, F, Y and the two rates
    cells = draw(arrays(float, shape, elements=st.floats(0.0, 40.0)))
    # The top three of 0 ... 3 * odds - 1 pick nan, inf or -inf.
    pick = draw(arrays(np.int64, shape, elements=st.integers(0, 3 * odds - 1),
                       fill=st.nothing()))
    pick -= 3 * odds - 3
    cells = np.where(pick >= 0, SPECIAL[pick.clip(0)], cells)
    lam0 = pick[0].max(axis=1)  # as likely to fail as Y at each a
    residuals = np.where(lam0 >= 0, np.where(lam0, 2.0 * LAMBDA0_TOL,
                                             math.nan), 0.0)
    F = 40.0 - cells[1, :, 0]  # simple draws give omega > 0
    om = np.asarray(a_values) + F[:, None] / 4.0
    Y, split, combined = cells[2:]
    ground = GroundStates(np.zeros(rows), np.zeros(rows, dtype=int),
                          residuals)
    times = 1e-3 * np.arange(rows)
    return ground, F, np.stack([Y, om, split, combined]), times, a_values


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(table=row_tables())
def test_row_failure_matches_the_row_loop(table):
    # The vectorised rule finds the same row, error class and message as
    # the loop over rows: lambda0, then omega at each a, then the first
    # non-finite of each a's Y, omega, rhs_thm and rhs_ye.
    from riccilab.variation import row_failure

    from cross_checks import row_failure_reference

    k, error = row_failure(*table)
    want_k, want_error = row_failure_reference(*table)
    assert (k, type(error), str(error)) == (want_k, type(want_error),
                                            str(want_error))


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
        u, _ = rl.change_variables(rl.ScalarField(hist.backend, hist.v[k]))
        S[k] = rl.shannon_entropy(m, u)
        F[k] = rl.f_functional(m, u)
        Tq = rl.matrix_quantity(m, u)
        norm_sq = m.stack.tensor_norm_sq(Tq, m.stack.cross_sq(Tq))
        dF_rhs[k] = 2.0 * rl.integrate(
            m, rl.scalar_field(m, norm_sq * u.values**2))
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
        u, _ = rl.change_variables(rl.ScalarField(hist.backend, hist.v[k]))
        S[k] = rl.shannon_entropy(m, u)
        F[k] = rl.f_functional(m, u)
    rep = rl.proof_chain_check(hist.times, S, F, np.zeros(K), 1e-3)
    assert np.all(F == 0.0)
    assert rep.max_interior_res_dS < 1e-12


# -------------------------------------------------------------------------
# Flags
# -------------------------------------------------------------------------

def test_equivalence_check_flags():
    main_ok, sub_ok, _, _ = rl.equivalence_check(
        [2.0, 2.0], [2.0, 2.0 + 1e-12], [0.1, 0.1], [0.1, 0.1 + 1e-12])
    assert np.all(main_ok) and np.all(sub_ok)
    main_ok, sub_ok, main_res, sub_res = rl.equivalence_check(
        [2.0], [2.1], [0.1], [0.1])
    assert not main_ok[0] and sub_ok[0]
    # the residuals each flag bounds: |d| / max(1, |s|)
    assert (main_res[0], sub_res[0]) == (abs(2.0 - 2.1) / 2.0, 0.0)
    main_ok, sub_ok, main_res, sub_res = rl.equivalence_check(
        [2.0], [2.0], [0.1], [0.2])
    assert main_ok[0] and not sub_ok[0]
    assert (main_res[0], sub_res[0]) == (0.0, abs(0.1 - 0.2))
    # the sub-identity tolerance is relative to max(1, |lhs|)
    main_ok, sub_ok, _, sub_res = rl.equivalence_check(
        [2.0], [2.0], [1e3], [1e3 + 1e-7])
    assert sub_ok[0] and sub_res[0] == abs(1e3 - (1e3 + 1e-7)) / 1e3
    # a bound tol_equiv * max(1, |split|) past the float range holds any
    # finite difference, with no overflow warning (which fails this suite)
    main_ok, _, _, _ = rl.equivalence_check([1e200], [-1e200], [0.1], [0.1],
                                            tol_equiv=1e200)
    assert main_ok[0]


def test_monotonicity_check():
    assert len(rl.monotonicity_check(np.array([1.0, 1.5, 1.5, 2.0]), 1e-6)) == 0
    drops = rl.monotonicity_check(np.array([3.0, 2.0, 1.0, 0.5]), 1e-6)
    np.testing.assert_array_equal(drops, [0, 1, 2])
    # drops within tolerance are not flagged
    assert len(rl.monotonicity_check(np.array([1.0, 1.0 - 1e-8]), 1e-6)) == 0


@pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-3])
def test_monotonicity_check_counts_a_drop_of_five_tol(tol):
    # Negative control between tol and 10 tol: a drop of 5 tol is counted
    # wherever it falls, one of 0.5 tol is not.
    y = np.array([1.0, 1.0 - 5.0 * tol, 1.0 - 5.5 * tol, 1.0, 1.0 - 5.0 * tol])
    np.testing.assert_array_equal(rl.monotonicity_check(y, tol), [0, 3])
