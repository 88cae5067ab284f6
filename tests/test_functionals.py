"""Functional evaluations against closed forms, dense quadrature, and a
dense eigensolver oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import riccilab as rl
from riccilab.functionals import LAMBDA0_TOL, _neg_lap_symbol
from riccilab.geometry import _lap5

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
    vol = rl.integrate(m, rl.const_field(m, 1.0))
    return rl.const_field(m, 1.0 / math.sqrt(vol))


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
            rl.f_functional_f_form(m, f, v), rel=1e-14)

    m = sine_torus(N=64)
    m_T = rl.MetricState(m.backend, 0.0, m.params)
    vf = rl.terminal_datum("random_smooth", m_T, amplitude=0.01, seed=2)
    u, f = rl.change_variables(vf)
    v = rl.scalar_field(m, vf.values)
    lhs = rl.f_functional(m, u)
    rhs = rl.f_functional_f_form(m, f, v)
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
        m, rl.gradient_sq(m, vec).values
        + 0.25 * rl.scalar_curvature(m).values * vec.values**2))
    den = rl.integrate(m, rl.scalar_field(m, vec.values**2))
    assert abs(num / den - lam) <= 1e-10 * max(1.0, abs(lam))


def test_lambda0_no_convergence_cap():
    with pytest.raises(rl.NoConvergence):
        rl.lambda0(sine_torus(N=32), maxiter=2)


def test_lambda0_nondecreasing_along_flow():
    m0 = sine_torus(N=32)
    traj = rl.integrate_forward(m0, 0.02, 1e-3)
    lams = np.array([rl.lambda0(traj.state(k))
                     for k in range(0, traj.num_steps + 1, 2)])
    assert np.all(np.diff(lams) > -1e-8)
    # admissibility persists: a > -lambda0(g(0)) implies a > -lambda0(g(t))
    a = -lams[0] + 1e-6
    assert np.all(a > -lams)

