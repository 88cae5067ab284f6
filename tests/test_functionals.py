"""Functional evaluations against closed forms, dense quadrature, and a
dense eigensolver oracle."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import riccilab as rl
from riccilab import functionals, parallel
from riccilab.functionals import LAMBDA0_TOL, _lowest_ritz, _neg_lap_symbol
from riccilab.geometry import _lap5

from cross_checks import (
    ProcessLog,
    children_left,
    f_functional_f_form,
    gradient_inner,
)

TWO_PI = 2.0 * math.pi


def sphere(c=1.0, n=2):
    return rl.MetricState(rl.RoundSphere(n), 0.0, np.array([c]))


def flat(N=64):
    return rl.MetricState(rl.ConformalTorus2D(N, TWO_PI), 0.0, np.zeros((N, N)))


def sine_torus(N=32, amplitude=0.1):
    backend = rl.ConformalTorus2D(N, TWO_PI)
    x, y = rl.grid_coords(backend)
    return rl.MetricState(backend, 0.0, amplitude * np.sin(x) + 0.0 * y)


def constant_u(m):
    shape = m.backend.field_shape
    vol = rl.integrate(m, rl.scalar_field(m, np.full(shape, 1.0)))
    return rl.scalar_field(m, np.full(shape, 1.0 / math.sqrt(vol)))


def mode_density_u(m):
    """u with u^2 = (1 + 0.5 cos x) / (4 pi^2) on the flat torus."""
    x, y = rl.grid_coords(m.backend)
    return rl.scalar_field(m, np.sqrt((1.0 + 0.5 * np.cos(x) + 0.0 * y)
                                      / (4 * math.pi**2)))


# -------------------------------------------------------------------------
# F functional
# -------------------------------------------------------------------------

def test_f_functional_flat_constant_zero():
    m = flat(N=16)
    assert rl.f_functional(m, constant_u(m)) == 0.0


def test_f_functional_sphere_constant():
    # F = integral(R u^2) = R = n(n-1)/c for a constant unit-mass density.
    assert rl.f_functional(sphere(1.0, 2), constant_u(sphere(1.0, 2))) \
        == pytest.approx(2.0, abs=1e-12)
    assert rl.f_functional(sphere(2.0, 3), constant_u(sphere(2.0, 3))) \
        == pytest.approx(3.0, rel=1e-12)


def mode_f_exact():
    """F for u^2 = (1 + 0.5 cos x)/(4 pi^2) on the flat torus.

    F = 4 integral(u_x^2) = (2/pi) (1/16) integral(sin^2 x / (1 + 0.5 cos x))
    over one period; closed form 1 - sqrt(3)/2, cross-checked by dense
    trapezoid quadrature (exact for this smooth periodic integrand).
    """
    s = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    integrand = 0.0625 * np.sin(s) ** 2 / (1.0 + 0.5 * np.cos(s))
    quad = (2.0 / math.pi) * np.mean(integrand) * TWO_PI
    closed = 1.0 - math.sqrt(3.0) / 2.0
    assert abs(quad - closed) < 1e-14
    return closed


def test_f_functional_mode_density_against_quadrature():
    exact = mode_f_exact()
    errs = []
    for N in (64, 128):
        m = flat(N)
        errs.append(abs(rl.f_functional(m, mode_density_u(m)) - exact))
    assert errs[0] < 2e-4
    assert math.log2(errs[0] / errs[1]) > 1.9


def test_f_functional_two_variable_forms_agree():
    # u-form vs potential form; exact on homogeneous backends, O(h^2)
    # chain-rule floor on the grid (small amplitude keeps it under 1e-10).
    for m in (sphere(1.0, 2), sphere(0.5, 3)):
        u = constant_u(m)
        v = rl.scalar_field(m, u.values**2)
        f = rl.scalar_field(m, -np.log(u.values**2))
        assert rl.f_functional(m, u) == pytest.approx(
            f_functional_f_form(m, f, v), rel=1e-14)

    m = sine_torus(N=64)
    m_T = rl.MetricState(m.backend, 0.0, m.params)
    vf = rl.terminal_datum("random_smooth", m_T, amplitude=0.01, seed=2)
    u, f = rl.change_variables(vf)
    v = rl.scalar_field(m, vf.values)
    lhs = rl.f_functional(m, u)
    rhs = f_functional_f_form(m, f, v)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


# -------------------------------------------------------------------------
# Entropy
# -------------------------------------------------------------------------

def test_shannon_entropy_constant_cases():
    m = flat(N=16)
    S = rl.shannon_entropy(m, constant_u(m))
    assert S == pytest.approx(-math.log(4 * math.pi**2), rel=1e-14)
    ms = sphere(1.0, 2)
    assert -rl.shannon_entropy(ms, constant_u(ms)) == pytest.approx(
        math.log(4 * math.pi), rel=1e-14)
    mb = rl.MetricState(rl.BergerSphere(), 0.0, np.array([1.2, 1.0, 0.9]))
    assert -rl.shannon_entropy(mb, constant_u(mb)) == pytest.approx(
        math.log(rl.volume(mb)), rel=1e-14)


# -------------------------------------------------------------------------
# omega and the log entropy
# -------------------------------------------------------------------------

def test_omega_values_and_guard():
    assert rl.omega(2.0, 1.0) == 1.5
    assert rl.omega(2.0, 0.0) == 0.5
    with pytest.raises(rl.NonPositiveOmega):
        rl.omega(0.0, 0.0)
    with pytest.raises(rl.NonPositiveOmega):
        rl.omega(-4.0, 0.5)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_omega_quarter_energy_identity(seed):
    # 4 omega = 4a + F, and the split-form coefficient 4(omega - a) = F.
    rng = np.random.default_rng(seed)
    for _ in range(50):
        F = rng.uniform(-2.0, 10.0)
        a = rng.uniform(-F / 4.0 + 1e-3, 5.0)
        w = rl.omega(F, a)
        assert 4.0 * w == pytest.approx(4.0 * a + F, rel=1e-13, abs=1e-13)
        assert 4.0 * (w - a) == pytest.approx(F, rel=1e-10, abs=1e-12)


def test_log_entropy_sphere_scale_invariant_at_zero_adjustment():
    # Y_0 = ln(4 pi c) + ln(1/(2c)) = ln(2 pi) for every c.
    for c in (1.0, 0.7, 2.0):
        m = sphere(c, 2)
        assert rl.log_entropy(m, constant_u(m), 0.0, 0.0) == pytest.approx(
            math.log(2 * math.pi), rel=1e-13)


def test_log_entropy_value_takes_math_log_of_each_entry():
    # The row kernel passes omega as an array; each entry still goes through
    # math.log, as one state does.  numpy's vectorised log differs from it
    # in the last bit for some arguments, which would move Y in data.csv.
    w = np.random.default_rng(0).uniform(0.01, 10.0, 20000)
    got = rl.log_entropy_value(0.25, w, 3, 0.5, 0.1)
    want = [-0.25 + 0.5 * 3 * math.log(x) + 4.0 * 0.5 * 0.1 for x in w.tolist()]
    assert np.array_equal(got, want)
    assert rl.log_entropy_value(0.25, 1.5, 3, 0.5, 0.1) == (
        -0.25 + 0.5 * 3 * math.log(1.5) + 4.0 * 0.5 * 0.1)


def test_log_entropy_flat_torus_values():
    m = flat(N=16)
    u = constant_u(m)
    y0 = rl.log_entropy(m, u, 0.5, 0.0)
    assert y0 == pytest.approx(math.log(4 * math.pi**2) + math.log(0.5), rel=1e-13)
    assert rl.log_entropy(m, u, 0.5, 1.0) == pytest.approx(y0 + 2.0, rel=1e-13)


# -------------------------------------------------------------------------
# Ground-state eigenvalue
# -------------------------------------------------------------------------

def test_lambda0_flat_torus_zero():
    assert abs(rl.lambda0(flat(N=32))) < 1e-10


def test_lambda0_constant_curvature_closed_forms():
    assert rl.lambda0(sphere(1.0, 2)) == pytest.approx(0.5, abs=1e-15)
    assert rl.lambda0(sphere(2.0, 3)) == pytest.approx(0.75, rel=1e-14)
    mb = rl.MetricState(rl.BergerSphere(), 0.0, np.array([1.2, 1.0, 1.0]))
    assert rl.lambda0(mb) == pytest.approx(1.4, rel=1e-13)


def dense_lambda0(m):
    """Brute-force oracle on the dense pencil (-Lap0 + diag((R/4) e^{2 phi}),
    diag e^{2 phi}), with the periodic 5-point -Lap0 assembled entry by entry.
    The ground state comes from a full dense eigendecomposition; its Rayleigh
    quotient is returned, which is quadratically accurate in the vector and
    so free of the eigenvalue rounding of the dense solver."""
    N, h = m.backend.N, m.backend.h
    eye = np.eye(N)
    d2 = (np.roll(eye, 1, axis=1) + np.roll(eye, -1, axis=1) - 2.0 * eye) / h**2
    neg_lap = -(np.kron(d2, eye) + np.kron(eye, d2))
    e2p = np.exp(2.0 * m.params).ravel()
    R = rl.scalar_curvature(m).values.ravel()
    A = neg_lap + np.diag(0.25 * R * e2p)
    s = 1.0 / np.sqrt(e2p)
    _, vecs = np.linalg.eigh(s[:, None] * A * s[None, :])
    x = s * vecs[:, 0]
    return float(x @ A @ x) / float(x @ (e2p * x))


def eig_residual(m, lam, vec):
    """||-LB x + (R/4) x - lam x||_g / ||x||_g from the geometry operators."""
    r = (-rl.laplace_beltrami(m, vec).values
         + 0.25 * rl.scalar_curvature(m).values * vec.values - lam * vec.values)
    return math.sqrt(rl.integrate(m, rl.scalar_field(m, r * r))
                     / rl.integrate(m, rl.scalar_field(m, vec.values**2)))


def test_lambda0_against_dense_eigensolver():
    m = sine_torus(N=32)
    assert rl.lambda0(m) == pytest.approx(dense_lambda0(m), abs=1e-12)


def test_neg_lap_symbol_diagonalises_stencil():
    # The preconditioner's symbol is the exact spectrum of the 5-point
    # stencil, so the FFT multiplier reproduces -_lap5 on any field.
    N, h = 32, 0.3
    w = np.random.default_rng(7).standard_normal((N, N))
    via_fft = np.fft.irfft2(_neg_lap_symbol(N, h) * np.fft.rfft2(w), s=(N, N))
    direct = -_lap5(w, h)
    assert np.linalg.norm(via_fft - direct) <= 1e-12 * np.linalg.norm(direct)


@pytest.mark.parametrize("N", [32, 64])
def test_lambda0_eig_residual_within_tol(N):
    m = sine_torus(N=N)
    lam, vec = rl.lambda0_eig(m)
    assert eig_residual(m, lam, vec) <= LAMBDA0_TOL


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    N=st.sampled_from([8, 10, 12, 14, 16]),
    L=st.floats(1.0, 4.0 * math.pi),
    amplitude=st.floats(0.0, 0.3),
    seed=st.integers(0, 2**32 - 1),
)
def test_lambda0_matches_dense_oracle_property(N, L, amplitude, seed):
    backend = rl.ConformalTorus2D(N, L)
    x, y = rl.grid_coords(backend)
    rng = np.random.default_rng(seed)
    phi = np.zeros((N, N))
    for kx in range(3):
        for ky in range(3):
            c, theta = rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0 * math.pi)
            phi += c * np.cos(TWO_PI * (kx * x + ky * y) / L + theta)
    phi *= amplitude / np.max(np.abs(phi))
    m = rl.MetricState(backend, 0.0, phi)
    ref = dense_lambda0(m)
    assert abs(rl.lambda0(m) - ref) <= 1e-11 * max(1.0, abs(ref))


def test_lambda0_eigenvector_rayleigh_quotient():
    m = sine_torus(N=32)
    lam, vec = rl.lambda0_eig(m)
    num = rl.integrate(m, rl.scalar_field(
        m, gradient_inner(m, vec, vec).values
        + 0.25 * rl.scalar_curvature(m).values * vec.values**2))
    den = rl.integrate(m, rl.scalar_field(m, vec.values**2))
    assert abs(num / den - lam) <= 1e-10 * max(1.0, abs(lam))


def test_lambda0_eigenfunction_has_unit_g_norm():
    for m in (sine_torus(N=32), sphere(2.0, 3)):
        _, vec = rl.lambda0_eig(m)
        assert rl.integrate(m, rl.scalar_field(m, vec.values**2)) == \
            pytest.approx(1.0, rel=1e-13)
        assert np.sum(vec.values) > 0.0


def test_lambda0_no_convergence_cap(monkeypatch):
    monkeypatch.setattr(functionals, "LAMBDA0_MAXITER", 2)
    with pytest.raises(rl.NoConvergence):
        rl.lambda0(sine_torus(N=32))


def test_lambda0_nondecreasing_along_flow():
    m0 = sine_torus(N=32)
    traj = rl.integrate_forward(m0, 0.02, 1e-3)
    lams = np.array([rl.lambda0(traj.state(k))
                     for k in range(0, traj.num_steps + 1, 2)])
    assert np.all(np.diff(lams) > -1e-8)
    # admissibility persists: a > -lambda0(g(0)) implies a > -lambda0(g(t))
    a = -lams[0] + 1e-6
    assert np.all(a > -lams)


# -------------------------------------------------------------------------
# Row-stack solver
# -------------------------------------------------------------------------

@pytest.mark.parametrize("rows_per_block", [1, 3, None])
def test_ground_states_rows_independent_of_block(rows_per_block, monkeypatch):
    # Each row is frozen once it passes, so its result is a pure function
    # of its own metric: bitwise the same in any block as alone.  The rows
    # come from a flow that smooths a large phi, so they need different
    # iteration counts.
    N = 16
    backend = rl.ConformalTorus2D(N, TWO_PI)
    x, y = rl.grid_coords(backend)
    m0 = rl.MetricState(backend, 0.0,
                        0.8 * np.sin(x) * np.cos(y) + 0.4 * np.sin(2 * y))
    traj = rl.integrate_forward(m0, 2.0, 2.0 / 1600)
    rows = range(0, traj.num_steps + 1, 100)
    alone = [rl.lambda0_eig(traj.state(i)) for i in rows]
    # A block holds ROW_CELLS // WORKERS cells.
    monkeypatch.setattr(parallel, "ROW_CELLS",
                        (rows_per_block or len(rows)) * N * N * parallel.WORKERS)
    params = traj.params[rows]
    ground = functionals.ground_states(backend.stack(params))
    assert len(set(ground.iterations.tolist())) > 2
    for k, (i, (lam, _)) in enumerate(zip(rows, alone)):
        assert ground.values[k] == lam == rl.lambda0(traj.state(i))
        assert ground.residuals[k] <= LAMBDA0_TOL


def test_ground_states_one_column_eigenfunctions(monkeypatch):
    # The flow of a y-invariant phi stores one column, and ground_states
    # solves its rows there, in blocks sized by the N cells a row holds.
    # lambda0_eig solves each state on the same column: its value is the
    # row's bit for bit, and its eigenfunction, broadcast to the full grid
    # with unit g-norm on it, agrees with a solve on the full grid.
    N = 16
    m0 = sine_torus(N=N, amplitude=0.4)
    traj = rl.integrate_forward(m0, 0.05, 0.05 / 8)
    params = traj.params
    assert m0.backend.stack(params).params.shape[1:] == (N, 1)
    solve = functionals._lopcg

    def spied(g, vectors=None):
        # The pool's workers record their blocks through the log.
        log.record(g.params.shape)
        return solve(g, vectors)

    monkeypatch.setattr(functionals, "_lopcg", spied)
    values = []
    for rows_per_block in (1, len(params)):
        # A block holds ROW_CELLS // WORKERS cells.
        monkeypatch.setattr(parallel, "ROW_CELLS",
                            rows_per_block * N * parallel.WORKERS)
        log = ProcessLog()
        g = m0.backend.stack(params)
        values.append(functionals.ground_states(g).values)
        blocks = [shape for _, shape in log.records()]
        assert sorted(blocks) == [(rows_per_block, N, 1)] * (
            len(params) // rows_per_block)
    assert np.array_equal(values[0], values[1])
    for k in range(len(params)):
        m = traj.state(k)
        log = ProcessLog()
        lam, vec = rl.lambda0_eig(m)
        assert [shape for _, shape in log.records()] == [(N, 1)]
        assert lam == values[0][k]
        full = np.full((1, N, N), np.nan)
        assert m.stack.params.shape == (N, N)
        assert abs(solve(m.stack, full)[0][0] - lam) <= 1e-13
        assert np.max(np.abs(full[0] - vec.values)) <= 1e-9
        assert rl.integrate(m, rl.scalar_field(m, vec.values ** 2)) == \
            pytest.approx(1.0, rel=1e-13)
    # A general phi(x, y) is solved on the full grid.
    x, y = rl.grid_coords(m0.backend)
    log = ProcessLog()
    rl.lambda0_eig(rl.MetricState(m0.backend, 0.0, 0.4 * np.sin(x + y)))
    assert [shape for _, shape in log.records()] == [(N, N)]


def test_ground_states_pool_stress(monkeypatch):
    # Six processes, more than the cores, and one-row blocks: every block
    # writes only its own rows of the shared output arrays, so the pooled
    # solve matches the serial one bitwise, and no worker outlives it.
    N = 8
    backend = rl.ConformalTorus2D(N, TWO_PI)
    x, y = rl.grid_coords(backend)
    params = np.stack([0.05 * k * np.sin(x) * np.cos(y) + 0.0 * y
                       for k in range(24)])
    monkeypatch.setattr(parallel, "WORKERS", 1)
    want = functionals.ground_states(backend.stack(params))
    monkeypatch.setattr(parallel, "WORKERS", 6)
    monkeypatch.setattr(parallel, "ROW_CELLS", 6 * N * N)
    for _ in range(2):
        got = functionals.ground_states(backend.stack(params))
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.iterations, want.iterations)
        assert np.array_equal(got.residuals, want.residuals)
        assert not children_left()


# Solves two rows at N = 128 and two at N = 256 and saves every row's value,
# iteration count and residual to the .npz path given as its argument.
BLAS_THREADS_SCRIPT = """
import sys
import numpy as np
import riccilab as rl
from riccilab import functionals

out = {}
for N in (128, 256):
    backend = rl.ConformalTorus2D(N, 2.0 * np.pi)
    x, y = rl.grid_coords(backend)
    params = np.stack([a * np.sin(x) * np.cos(y) + 0.1 * np.sin(2.0 * y)
                       for a in (0.2, 0.5)])
    ground = functionals.ground_states(backend.stack(params))
    for name in ("values", "iterations", "residuals"):
        out[f"{name}_{N}"] = getattr(ground, name)
np.savez(sys.argv[1], **out)
"""


def test_ground_states_independent_of_blas_threads(tmp_path):
    # The Gram pencils are BLAS dgemm products, which OpenBLAS splits across
    # threads only above a size threshold: 3 x 3 x N^2 multiply-adds are
    # above it at N = 256 and below it at N = 128.  One and two BLAS threads
    # give bitwise the same values, iteration counts and residuals.
    src = str(Path(rl.__file__).resolve().parent.parent)
    results = []
    for threads in ("1", "2"):
        path = tmp_path / f"threads_{threads}.npz"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", BLAS_THREADS_SCRIPT, str(path)],
                       env=env, check=True, timeout=300)
        with np.load(path) as saved:
            results.append(dict(saved))
    one, two = results
    assert sorted(one) == sorted(two) and len(one) == 6
    for name, want in one.items():
        assert np.array_equal(two[name], want), name


def test_ground_states_closed_form_rows():
    params = np.array([[1.0], [0.5], [2.0]])
    ground = functionals.ground_states(rl.RoundSphere(3).stack(params))
    for i, c in enumerate(params):
        assert ground.values[i] == rl.lambda0(sphere(c[0], 3))
    assert np.all(ground.iterations == 0) and np.all(ground.residuals == 0.0)


def test_lowest_ritz_flags_singular_and_nonfinite_rows():
    # Gram pairs of three vectors in R^6 under A (SPD) and B (diagonal).
    rng = np.random.default_rng(3)
    M = rng.standard_normal((6, 6))
    A, B = M @ M.T + np.eye(6), np.diag(rng.uniform(0.5, 2.0, 6))
    good = rng.standard_normal((3, 6))
    twin = good.copy()
    twin[2] = twin[1]                 # p equal to M r
    zero = good.copy()
    zero[2] = 0.0                     # p vanished
    bases = [good, twin, zero, good]
    GA = np.stack([V @ A @ V.T for V in bases])
    GB = np.stack([V @ B @ V.T for V in bases])
    GA[3, 0, 1] = GA[3, 1, 0] = np.inf
    c, ok = _lowest_ritz(GA, GB)
    assert ok.tolist() == [True, False, False, False]
    # the good row is the B-normalised lowest generalised eigenvector
    L = np.linalg.cholesky(GB[0])
    Li = np.linalg.inv(L)
    vals, Y = np.linalg.eigh(Li @ GA[0] @ Li.T)
    ref = Li.T @ Y[:, 0]
    assert np.allclose(c[0] * np.sign(c[0] @ ref), ref, rtol=1e-12, atol=1e-12)
    assert c[0] @ GB[0] @ c[0] == pytest.approx(1.0, rel=1e-13)
    assert c[0] @ GA[0] @ c[0] == pytest.approx(vals[0], rel=1e-13)


def test_lopcg_without_p_converges_to_the_same_value(monkeypatch):
    # Force the drop-p fallback on every step: the two-vector iteration
    # still converges, to the same ground state.
    dropped = []

    def ill_conditioned_p(GA, GB):
        c, ok = _lowest_ritz(GA, GB)
        if GA.shape[1] == 3:
            dropped.append(len(ok))
            ok = np.zeros_like(ok)
        return c, ok

    monkeypatch.setattr(functionals, "_lowest_ritz", ill_conditioned_p)
    m = sine_torus(N=32)
    lam, vec = rl.lambda0_eig(m)
    assert dropped
    assert eig_residual(m, lam, vec) <= LAMBDA0_TOL
    assert lam == pytest.approx(dense_lambda0(m), abs=1e-12)


def test_lopcg_degenerate_gram_raises_no_convergence(monkeypatch):
    # No Gram matrix passes: every row keeps its start vector until the
    # cap.  The failure is NoConvergence; no LinAlgError or warning escapes
    # (warnings fail the suite).
    monkeypatch.setattr(functionals, "GRAM_RCOND", 2.0)
    monkeypatch.setattr(functionals, "LAMBDA0_MAXITER", 20)
    with pytest.raises(rl.NoConvergence):
        rl.lambda0(sine_torus(N=16))
    ground = functionals.ground_states(rl.ConformalTorus2D(16, TWO_PI).stack(
        np.stack([sine_torus(N=16).params] * 2)))
    assert np.all(ground.iterations == 20)
    assert np.all(ground.residuals > LAMBDA0_TOL)
