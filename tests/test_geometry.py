"""Operator-level tests: curvature formulas, stencils, quadrature, and the
discrete exactness properties the functional identities rely on."""

import math
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import riccilab as rl
from riccilab.geometry import _dp, _lap5, _roll

from cross_checks import (
    ProcessLog,
    TwoSidedMemory,
    children_left,
    gradient_inner,
    ricci_flow_rhs,
    tensor_trace,
)

TWO_PI = 2.0 * math.pi


def sphere(c=1.0, n=2, t=0.0):
    return rl.MetricState(rl.RoundSphere(n), t, np.array([c]))


def berger(A, B, C, t=0.0):
    return rl.MetricState(rl.BergerSphere(), t, np.array([A, B, C]))


def torus(phi, N=64, L=TWO_PI, t=0.0):
    backend = rl.ConformalTorus2D(N, L)
    x, y = rl.grid_coords(backend)
    return rl.MetricState(backend, t, phi(x, y) if callable(phi) else phi + 0.0 * x * y)


def flat(N=64, L=TWO_PI):
    return torus(lambda x, y: 0.0 * x + 0.0 * y, N=N, L=L)


def smooth_random_field(backend, seed, amplitude=1.0, cutoff=3):
    rng = np.random.default_rng(seed)
    x, y = rl.grid_coords(backend)
    w = np.zeros((backend.N, backend.N))
    for kx in range(cutoff + 1):
        for ky in range(-cutoff, cutoff + 1):
            if kx == 0 and ky <= 0:
                continue
            a, b = rng.standard_normal(2)
            phase = TWO_PI / backend.L * (kx * x + ky * y)
            w += (a * np.cos(phase) + b * np.sin(phase)) / (1 + kx * kx + ky * ky)
    return amplitude * w


# -------------------------------------------------------------------------
# Scalar curvature
# -------------------------------------------------------------------------

def test_scalar_curvature_round_sphere():
    assert rl.scalar_curvature(sphere(1.0, 2)).values == pytest.approx(2.0, abs=0)
    assert rl.scalar_curvature(sphere(2.0, 3)).values == pytest.approx(3.0, rel=1e-15)


def test_scalar_curvature_flat_torus_zero():
    assert np.all(rl.scalar_curvature(flat()).values == 0.0)


@pytest.mark.parametrize("N", [64, 128])
def test_scalar_curvature_conformal_sine(N):
    # R = -2 e^{-2 phi} Lap0 phi with phi = 0.1 sin x gives
    # R = 0.2 sin(x) e^{-0.2 sin x}; the stencil error is O(h^2).
    m = torus(lambda x, y: 0.1 * np.sin(x) + 0.0 * y, N=N)
    x, _ = rl.grid_coords(m.backend)
    exact = 0.2 * np.sin(x) * np.exp(-0.2 * np.sin(x)) + 0.0 * x.T
    err = np.max(np.abs(rl.scalar_curvature(m).values - exact))
    assert err < 0.03 * (TWO_PI / N) ** 2


def test_scalar_curvature_convergence_order():
    errs = []
    for N in (32, 64, 128):
        m = torus(lambda x, y: 0.1 * np.sin(x) + 0.0 * y, N=N)
        x, _ = rl.grid_coords(m.backend)
        exact = 0.2 * np.sin(x) * np.exp(-0.2 * np.sin(x)) + 0.0 * x.T
        errs.append(np.max(np.abs(rl.scalar_curvature(m).values - exact)))
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all(orders > 1.9)


# -------------------------------------------------------------------------
# Ricci tensor
# -------------------------------------------------------------------------

def test_ricci_flat_zero():
    assert np.all(flat().stack.ricci == 0.0)


def test_ricci_round_sphere_principal_values():
    # Ric = (n-1)/c in the orthonormal frame; for n=2, c=1 this is Ric = g.
    np.testing.assert_allclose(sphere(1.0, 2).stack.ricci, [1.0, 1.0], rtol=0)
    np.testing.assert_allclose(sphere(0.5, 3).stack.ricci, [4.0, 4.0, 4.0],
                               rtol=1e-15)


def test_ricci_torus_is_half_R_g():
    m = torus(lambda x, y: 0.05 * np.sin(x) + 0.03 * np.cos(y))
    R = rl.scalar_curvature(m).values
    g = m.stack.metric
    ric = m.stack.ricci
    np.testing.assert_allclose(ric, 0.5 * R * g, rtol=0, atol=1e-15)


@pytest.mark.parametrize("c", [1.0, 0.37, 2.5])
def test_berger_round_limit_matches_round_sphere(c):
    mb, ms = berger(c, c, c), sphere(c, 3)
    assert rl.scalar_curvature(mb).values == pytest.approx(
        float(rl.scalar_curvature(ms).values), rel=1e-12)
    np.testing.assert_allclose(mb.stack.ricci, ms.stack.ricci, rtol=1e-12)
    np.testing.assert_allclose(ricci_flow_rhs(mb), np.full(3, -4.0), rtol=1e-12)
    assert rl.volume(mb) == pytest.approx(rl.volume(ms), rel=1e-12)


def test_berger_anisotropic_scalar_curvature_value():
    # R = (2/ABC) (2(AB+BC+CA) - (A^2+B^2+C^2)); at (1.2, 1, 1) this is 5.6.
    assert rl.scalar_curvature(berger(1.2, 1.0, 1.0)).values == pytest.approx(
        5.6, rel=1e-14)


def test_berger_volume_identity_against_flow():
    # d/dt ln Vol = -R must hold along the flow (finite-difference oracle).
    m0 = berger(1.2, 1.0, 1.0)
    dt = 1e-3
    traj = rl.integrate_forward(m0, 0.1, dt)
    vols = np.array([rl.volume(traj.state(k)) for k in range(traj.num_steps + 1)])
    Rs = np.array([float(rl.scalar_curvature(traj.state(k)).values)
                   for k in range(traj.num_steps + 1)])
    d = rl.fd_time_derivative(np.log(vols), dt)
    assert np.max(np.abs(d + Rs)[1:-1]) < 1e-6


# -------------------------------------------------------------------------
# Periodic stencils
# -------------------------------------------------------------------------

@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    N=st.sampled_from([8, 10, 12, 14, 16]),
    k=st.sampled_from([None, 1, 3]),
    axis=st.sampled_from([0, 1]),
    h=st.floats(0.05, 2.0),
    column=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_stencils_match_numpy_roll_bitwise(N, k, axis, h, column, seed):
    # k None is an (N, N) grid; otherwise a (k, N, N) stack as lambda0's
    # row-stack LOPCG passes to _lap5.  The stencils act on the last two
    # axes, so the reference formulas are the numpy.roll forms along axis
    # - 2 (x) and - 1 (y), with the same operand order: equality is exact.
    # The Hessian's phi is the grid's shape, or its one column (N, 1) when
    # column is set, whose y-rolls are the column itself.
    shape = (N, N) if k is None else (k, N, N)
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(shape)
    ax = axis - 2
    for shift in (-1, 1):
        assert np.array_equal(_roll(w, shift, axis), np.roll(w, shift, ax))
    assert np.array_equal(_dp(w, axis, h), (np.roll(w, -1, ax) - w) / h)
    assert np.array_equal(_lap5(w, h), (
        np.roll(w, -1, -2) + np.roll(w, 1, -2) + np.roll(w, -1, -1)
        + np.roll(w, 1, -1) - 4.0 * w
    ) / (h * h))

    backend = rl.ConformalTorus2D(N, N * h)
    phi = rng.standard_normal(shape[:-1] + (1 if column else N,))
    hb, r = backend.h, np.roll
    # the backward differences are the forward ones shifted a cell
    dm = backend.stack(phi).differences(w)[1::2]
    assert np.array_equal(dm[axis], (w - r(w, 1, ax)) / hb)
    wx = (r(w, -1, -2) - r(w, 1, -2)) / (2.0 * hb)
    wy = (r(w, -1, -1) - r(w, 1, -1)) / (2.0 * hb)
    px = (r(phi, -1, -2) - r(phi, 1, -2)) / (2.0 * hb)
    py = (r(phi, -1, -1) - r(phi, 1, -1)) / (2.0 * hb)
    gamma_diag = px * wx - py * wy
    t11 = (r(w, -1, -2) - 2.0 * w + r(w, 1, -2)) / (hb * hb) - gamma_diag
    t12 = (r(r(w, -1, -2), -1, -1) - r(r(w, -1, -2), 1, -1)
           - r(r(w, 1, -2), -1, -1) + r(r(w, 1, -2), 1, -1)) / (4.0 * hb * hb)
    t22 = (r(w, -1, -1) - 2.0 * w + r(w, 1, -1)) / (hb * hb) + gamma_diag
    hess = backend.stack(phi).hessian(w)
    assert hess.shape == shape[:-2] + (3, N, N)
    assert np.array_equal(hess[..., 0, :, :], t11)
    assert np.array_equal(hess[..., 1, :, :], t12 - (py * wx + px * wy))
    assert np.array_equal(hess[..., 2, :, :], t22)
    if k is not None:
        # each grid of a stack is what it would be alone
        assert np.array_equal(_lap5(w, h)[-1], _lap5(w[-1], h))


def test_package_has_no_numpy_roll():
    # The stencils shift by slice copies; numpy.roll's per-call overhead
    # dominated them on the grids the runs use.
    sources = sorted(Path(rl.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        assert "np.roll" not in path.read_text(encoding="utf-8"), path.name


# -------------------------------------------------------------------------
# Laplacian, gradient, Hessian
# -------------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: sphere(0.8, 2),
    lambda: berger(1.2, 1.0, 0.9),
    lambda: flat(),
])
def test_derivatives_of_constants_vanish(make):
    m = make()
    w = rl.scalar_field(m, np.full(m.backend.field_shape, 3.7))
    assert np.all(rl.laplace_beltrami(m, w).values == 0.0)
    assert np.all(gradient_inner(m, w, w).values == 0.0)
    assert np.all(rl.hessian(m, w) == 0.0)


def test_laplacian_flat_eigenfunction():
    m = flat()
    x, y = rl.grid_coords(m.backend)
    w = rl.scalar_field(m, np.cos(x) + 0.0 * y)
    err = np.max(np.abs(rl.laplace_beltrami(m, w).values + np.cos(x) + 0.0 * y))
    assert err < (TWO_PI / 64) ** 2 / 10


def test_laplacian_constant_conformal_rescaling():
    m = torus(lambda x, y: 0.5 + 0.0 * x + 0.0 * y)
    x, y = rl.grid_coords(m.backend)
    w = rl.scalar_field(m, np.cos(x) + 0.0 * y)
    expected = -math.exp(-1.0) * (np.cos(x) + 0.0 * y)
    assert np.max(np.abs(rl.laplace_beltrami(m, w).values - expected)) < 1e-3


def test_gradient_sq_flat_and_rescaled():
    m = flat()
    x, y = rl.grid_coords(m.backend)
    w = rl.scalar_field(m, np.cos(x) + 0.0 * y)
    err = np.max(np.abs(gradient_inner(m, w, w).values - np.sin(x) ** 2 + 0.0 * y))
    assert err < 2 * (TWO_PI / 64) ** 2
    m2 = torus(lambda x, y: 0.5 + 0.0 * x + 0.0 * y)
    w2 = rl.scalar_field(m2, np.cos(x) + 0.0 * y)
    err2 = np.max(np.abs(gradient_inner(m2, w2, w2).values
                         - math.exp(-1.0) * np.sin(x) ** 2 + 0.0 * y))
    assert err2 < 2 * (TWO_PI / 64) ** 2


def test_hessian_flat_cosine():
    m = flat()
    x, y = rl.grid_coords(m.backend)
    w = rl.scalar_field(m, np.cos(x) + 0.0 * y)
    H = rl.hessian(m, w)
    h2 = (TWO_PI / 64) ** 2
    assert np.max(np.abs(H[0] + np.cos(x) + 0.0 * y)) < h2 / 10
    assert np.max(np.abs(H[1])) < 1e-14
    assert np.max(np.abs(H[2])) < 1e-14


def test_hessian_flat_cross_derivative():
    # The cross component of sin x sin y is cos x cos y, to second order in h.
    m = flat()
    x, y = rl.grid_coords(m.backend)
    H = rl.hessian(m, rl.scalar_field(m, np.sin(x) * np.sin(y)))
    h2 = (TWO_PI / 64) ** 2
    assert np.max(np.abs(H[1] - np.cos(x) * np.cos(y))) < h2 / 2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hessian_trace_equals_laplacian(seed):
    # The Christoffel contributions cancel identically in the trace, so
    # this holds for arbitrary grid fields, not just smooth ones.
    backend = rl.ConformalTorus2D(32, TWO_PI)
    rng = np.random.default_rng(seed)
    m = rl.MetricState(backend, 0.0, 0.4 * rng.standard_normal((32, 32)))
    w = rl.scalar_field(m, rng.standard_normal((32, 32)))
    tr = tensor_trace(m, rl.hessian(m, w))
    lap = rl.laplace_beltrami(m, w)
    scale = np.max(np.abs(lap.values)) + 1.0
    assert np.max(np.abs(tr.values - lap.values)) < 1e-12 * scale


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_grad_outer_trace_equals_gradient_sq(seed):
    backend = rl.ConformalTorus2D(32, TWO_PI)
    rng = np.random.default_rng(seed)
    m = rl.MetricState(backend, 0.0, 0.4 * rng.standard_normal((32, 32)))
    w = rl.scalar_field(m, rng.standard_normal((32, 32)))
    tr = tensor_trace(m, m.stack.grad_outer(m.stack.differences(w.values)))
    gs = gradient_inner(m, w, w)
    scale = np.max(np.abs(gs.values)) + 1.0
    assert np.max(np.abs(tr.values - gs.values)) < 1e-12 * scale


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_discrete_integration_by_parts_exact(seed):
    # integral(Lap_g w * z) = -integral(<grad w, grad z>) to round-off for
    # all grid fields: the volume factors cancel and the quadratic form is
    # built for exact summation by parts.
    backend = rl.ConformalTorus2D(32, TWO_PI)
    rng = np.random.default_rng(seed)
    m = rl.MetricState(backend, 0.0, 0.4 * rng.standard_normal((32, 32)))
    w = rl.scalar_field(m, rng.standard_normal((32, 32)))
    z = rl.scalar_field(m, rng.standard_normal((32, 32)))
    lhs = rl.integrate(m, rl.scalar_field(m, rl.laplace_beltrami(m, w).values * z.values))
    rhs = -rl.integrate(m, gradient_inner(m, w, z))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


# Even N in 8..32, L in [1, 4 pi], low-mode phi, white-noise grid fields.
ANY_GRID = dict(
    N=st.integers(4, 16).map(lambda k: 2 * k),
    L=st.floats(1.0, 4.0 * math.pi),
    phi_amp=st.floats(0.0, 0.3),
    seed=st.integers(0, 2**32 - 1),
)


def any_grid_state(N, L, phi_amp, seed):
    """Torus metric with low-mode phi and two white-noise grid fields."""
    backend = rl.ConformalTorus2D(N, L)
    m = rl.MetricState(backend, 0.0, smooth_random_field(
        backend, seed, amplitude=phi_amp, cutoff=2))
    rng = np.random.default_rng(seed)
    w, z = (rl.scalar_field(m, rng.standard_normal((N, N))) for _ in range(2))
    return m, w, z


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(**ANY_GRID)
def test_integration_by_parts_exact_property(N, L, phi_amp, seed):
    # Bound relative to integral(|Lap_g w z|): the round-off of the terms.
    m, w, z = any_grid_state(N, L, phi_amp, seed)
    lap_z = rl.laplace_beltrami(m, w).values * z.values
    lhs = rl.integrate(m, rl.scalar_field(m, lap_z))
    rhs = -rl.integrate(m, gradient_inner(m, w, z))
    scale = rl.integrate(m, rl.scalar_field(m, np.abs(lap_z)))
    assert abs(lhs - rhs) <= 1e-14 * scale


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(**ANY_GRID)
def test_hessian_trace_equals_laplacian_property(N, L, phi_amp, seed):
    m, w, _ = any_grid_state(N, L, phi_amp, seed)
    lap = rl.laplace_beltrami(m, w).values
    tr = tensor_trace(m, rl.hessian(m, w)).values
    assert np.max(np.abs(tr - lap)) <= 1e-14 * np.max(np.abs(lap))


# -------------------------------------------------------------------------
# Integration, norms, total curvature
# -------------------------------------------------------------------------

def test_integrate_constants():
    for m, want, rel in (
        (flat(), 4 * math.pi**2, 1e-14),
        (sphere(1.0, 2), 4 * math.pi, 1e-14),
        (torus(lambda x, y: 0.5 + 0.0 * x + 0.0 * y), 4 * math.pi**2 * math.e,
         1e-12),
    ):
        one = rl.scalar_field(m, np.full(m.backend.field_shape, 1.0))
        assert rl.integrate(m, one) == pytest.approx(want, rel=rel)


def test_sphere_volume_scaling():
    assert rl.volume(sphere(2.0, 2)) == pytest.approx(8 * math.pi, rel=1e-14)
    assert rl.volume(sphere(1.0, 3)) == pytest.approx(2 * math.pi**2, rel=1e-14)


def test_tensor_norm_sq():
    m = flat()
    zero = np.zeros((3, 64, 64))
    assert np.all(m.stack.tensor_norm_sq(zero, m.stack.cross_sq(zero)) == 0.0)
    for mk in (flat(), sphere(0.7, 2), sphere(1.3, 4), berger(1.2, 1.0, 0.8)):
        g = mk.stack.metric
        n = mk.backend.n
        np.testing.assert_allclose(
            mk.stack.tensor_norm_sq(g, mk.stack.cross_sq(g)), n,
            rtol=1e-12)
        np.testing.assert_allclose(tensor_trace(mk, g).values, n, rtol=1e-12)


def test_tensor_norm_sq_componentwise():
    # |T|^2 = T11^2 + 2 T12^2 + T22^2 on the flat torus: 1 + 8 + 9 = 18.
    m = flat(N=8)
    comps = np.zeros((3, 8, 8))
    comps[0, 2, 3], comps[1, 2, 3], comps[2, 2, 3] = 1.0, 2.0, 3.0
    assert m.stack.tensor_norm_sq(comps, m.stack.cross_sq(comps))[2, 3] \
        == pytest.approx(18.0, abs=0)


def test_total_curvature():
    # Round 2-sphere: integral(R) = 8 pi exactly; torus: 0 for any phi.
    ms = sphere(2.73, 2)
    assert rl.integrate(ms, rl.scalar_curvature(ms)) == pytest.approx(
        8 * math.pi, rel=1e-13)
    backend = rl.ConformalTorus2D(48, TWO_PI)
    m = rl.MetricState(backend, 0.0, smooth_random_field(backend, 13, 0.3))
    total = rl.integrate(m, rl.scalar_curvature(m))
    assert abs(total) < 1e-10


# -------------------------------------------------------------------------
# Flow velocity
# -------------------------------------------------------------------------

def test_flow_rhs_values():
    np.testing.assert_allclose(ricci_flow_rhs(sphere(1.0, 2)), [-2.0], rtol=0)
    np.testing.assert_allclose(ricci_flow_rhs(sphere(5.0, 3)), [-4.0], rtol=0)
    assert np.all(ricci_flow_rhs(flat()) == 0.0)


def test_pow_overflow_is_inf_entry_by_entry():
    # C's pow overflows to inf where Python's ** raises; the other entries
    # keep their values.
    from riccilab.geometry import _pow

    assert _pow(np.array([1e200, 3.0, -1e160]), 2).tolist() == [
        math.inf, 9.0, math.inf]
    assert _pow(1e200, 2) == _pow(np.array(1e300), 1.5) == math.inf
    assert _pow(np.float64(3.0), 2) == 9.0


POW_BASES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),  # subnormals and -0.0 too
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, math.inf, -math.inf,
                     math.nan, 1e200, -1e160, -3.0]),
    st.floats(1e100, 1e300), st.floats(-1e300, -1e100),  # squares overflow
)


def per_entry_pow(values, e):
    """float(v) ** e entry by entry, inf where it overflows; or the class of
    the error an entry raises (0.0 to a negative power)."""
    out = []
    for v in values:
        try:
            out.append(float(v) ** e)
        except OverflowError:
            out.append(math.inf)
        except ZeroDivisionError as exc:
            return type(exc)
    return np.array(out).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(values=st.lists(POW_BASES, min_size=1, max_size=12),
       e=st.one_of(st.integers(-3, 4), st.sampled_from([0.5, 1.5, 2.5])),
       rows=st.sampled_from([1, 2]))
def test_pow_arrays_are_the_per_entry_float_pow_bitwise(values, e, rows):
    # The array path maps float.__pow__ over the entries at once and falls
    # back to the per-entry loop only when an entry overflows: either way
    # each entry is float(x) ** e bitwise, inf where that overflows, in the
    # array's shape.
    from riccilab.geometry import _pow

    if e != int(e):  # a negative base needs an integer exponent
        values = [abs(v) for v in values]
    x = np.array(values * rows).reshape(rows, -1)
    try:
        got = _pow(x, e)
        assert got.shape == x.shape and got.dtype == float
        got = got.tobytes()
    except ZeroDivisionError as exc:
        got = type(exc)
    assert got == per_entry_pow(x.ravel().tolist(), e)


def from_bits(bits):
    """The float64 values of the unsigned 64-bit patterns ``bits``."""
    return np.array(bits, np.uint64).view(float)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=12),
       e=st.sampled_from([2, 2.0, 0.5, 1.0, 1.5, 2.5, 5.0]))
def test_pow_arrays_of_any_bit_patterns_are_the_per_entry_float_pow(bits, e):
    # Arbitrary float64 bit patterns (subnormals, signalling and quiet nan
    # payloads, infinities): negative bases at the Berger squares' e = 2,
    # positive bases at the round volume's e = n / 2.  Each entry is
    # float(x) ** e bitwise, inf where that overflows, whether the array
    # path maps math.pow at once or falls back entry by entry.
    from riccilab.geometry import _pow

    x = from_bits(bits)
    if e != 2:
        x = np.abs(x)
    assert _pow(x, e).tobytes() == per_entry_pow(x.tolist(), e)


@pytest.mark.parametrize("e", [2, 0.5, 1.5])
def test_pow_of_random_bit_patterns_in_bulk(e):
    # 2^16 random patterns, and the same patterns scaled into the range
    # where no power overflows, so both the at-once map and its per-entry
    # fallback run on every kind of entry.
    from riccilab.geometry import _pow

    x = from_bits(np.random.default_rng(7).integers(0, 2**64, 2**16, np.uint64))
    if e != 2:
        x = np.abs(x)
    with np.errstate(all="ignore"):
        tame = np.where(np.isfinite(x), np.fmod(x, 1e100), x)
    for values in (x, tame):
        assert _pow(values, e).tobytes() == per_entry_pow(values.tolist(), e)


def test_pow_keeps_the_per_entry_errors():
    # math.pow raises ValueError where ** raises ZeroDivisionError (0.0 to a
    # negative power) or returns a complex (a negative base to a fractional
    # power): the per-entry fallback raises what ** does.
    from riccilab.geometry import _pow

    with pytest.raises(ZeroDivisionError):
        _pow(np.array([2.0, 0.0]), -1)
    with pytest.raises(ZeroDivisionError):
        _pow(np.array([[1e200], [-0.0]]), -2)
    with pytest.raises(TypeError):  # a complex entry in a float array
        _pow(np.array([4.0, -8.0]), 0.5)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(p=st.tuples(*[st.floats(-160.0, 160.0).map(lambda s: 10.0**s)] * 3),
       signs=st.tuples(*[st.sampled_from([1.0, -1.0])] * 3))
def test_berger_ricci_floats_are_the_array_form_bitwise(p, signs):
    # The float form squares by ** without _pow's calls: bitwise the array
    # form, overflow to inf included, and ZeroDivisionError exactly where
    # ABC underflows to zero and the arrays give inf or nan.
    from riccilab.geometry import _berger_ricci_values

    A, B, C = (s * v for s, v in zip(signs, p))
    if A * B * C == 0.0:
        with pytest.raises(ZeroDivisionError):
            _berger_ricci_values(A, B, C)
        return
    got = _berger_ricci_values(A, B, C)
    assert all(type(r) is float for r in got)
    with np.errstate(all="ignore"):
        want = _berger_ricci_values(*(np.array([v]) for v in (A, B, C)))
    assert np.array(got).tobytes() == np.concatenate(want).tobytes()


# -------------------------------------------------------------------------
# Validation
# -------------------------------------------------------------------------

def test_backend_validation():
    with pytest.raises(ValueError):
        rl.RoundSphere(1)
    with pytest.raises(ValueError):
        rl.ConformalTorus2D(6, TWO_PI)
    with pytest.raises(ValueError):
        rl.ConformalTorus2D(33, TWO_PI)
    with pytest.raises(ValueError):
        rl.ConformalTorus2D(32, -1.0)


def test_state_validation():
    with pytest.raises(ValueError):
        rl.MetricState(rl.RoundSphere(2), 0.0, np.array([-1.0]))
    with pytest.raises(ValueError):
        rl.MetricState(rl.BergerSphere(), 0.0, np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        rl.MetricState(rl.ConformalTorus2D(8, 1.0), 0.0, np.full((8, 8), np.nan))
    with pytest.raises(ValueError):
        rl.MetricState(rl.ConformalTorus2D(8, 1.0), 0.0, np.zeros((4, 4)))


def test_cross_backend_field_rejected():
    m = flat()
    ms = sphere()
    w = rl.scalar_field(ms, np.full(ms.backend.field_shape, 1.0))
    with pytest.raises(rl.RicciLabError):
        rl.laplace_beltrami(m, w)
    with pytest.raises(rl.RicciLabError):
        rl.integrate(m, w)


# -------------------------------------------------------------------------
# Row-block pool
# -------------------------------------------------------------------------

def check_parts(records, parts):
    """Check that the blocks of each part (a list of block starts) ran as
    ``RowPool`` claims them: the caller's a run from the part's bottom, in
    order, its worker's a run from its top, downwards, the two covering
    the part without a block in both; returns each part's worker pid (None
    where the caller ran the whole part)."""
    owners = []
    for part in parts:
        ran = [(pid, start) for pid, start in records if start in part]
        mine = [start for pid, start in ran if pid == os.getpid()]
        theirs = [(pid, start) for pid, start in ran if pid != os.getpid()]
        assert mine == part[:len(mine)], (part, ran)
        assert [start for _, start in theirs] == part[::-1][:len(theirs)]
        assert len(mine) + len(theirs) == len(part), (part, ran)
        assert len({pid for pid, _ in theirs}) <= 1
        owners.append(theirs[0][0] if theirs else None)
    return owners


def test_row_blocks_map_in_order_on_the_pool_and_join(monkeypatch):
    # Blocks of 2 rows of 4 cells on 3 processes: 11 rows make 6 blocks, in
    # two parts of 3, one a worker.  The caller's blocks take 0.05 s, so each
    # worker takes the top of its part, and the caller its bottom; every
    # block runs once and lands at its own index of a shared array.  A
    # second call reuses the workers, and close reaps them.
    from riccilab import parallel

    monkeypatch.setattr(parallel, "WORKERS", 3)
    monkeypatch.setattr(parallel, "ROW_CELLS", 3 * 2 * 4)
    log, before = ProcessLog(), threading.active_count()
    with parallel.RowPool() as pool:
        out = pool.array((2, 6, 2), int)

        @pool.add
        def block(call, rows):
            out[call, rows.start // 2] = rows.start, rows.stop
            log.record(call, rows.start)
            if os.getpid() == parent:
                time.sleep(0.05)

        parent = os.getpid()
        pool.join(pool.submit(block, 11, 4, 0))
        pool.join(pool.submit(block, 11, 4, 1))
        assert pool.processes_used == 3 and pool.workers_peak_rss_mb > 0.0
    assert not children_left()
    assert threading.active_count() == before
    for call in (0, 1):
        assert out[call].tolist() == [[0, 2], [2, 4], [4, 6], [6, 8],
                                      [8, 10], [10, 11]]
    records = log.records()
    owners = [check_parts([(pid, start) for pid, c, start in records
                           if c == call], [[0, 2, 4], [6, 8, 10]])
              for call in (0, 1)]
    assert owners[0] == owners[1]
    assert None not in owners[0] and len(set(owners[0])) == 2
    assert os.getpid() not in owners[0]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(blocks=st.integers(0, 6), data=st.data())
def test_two_sided_claims_take_every_block(blocks, data):
    # The caller (side 0) and a worker (side 1) claim the blocks of one part
    # through _claim, one memory operation at a time in an order Hypothesis
    # draws, each read of the other side's end returning its current value
    # or an older one (a store not yet seen).  Every block is taken, by a
    # side or as one of the blocks between the ends once both stopped,
    # which the caller runs; a block is taken by both sides only where a
    # read was stale; each side's blocks run from its end of the part.
    from riccilab.parallel import _claim

    memory = TwoSidedMemory(blocks, data)
    taken = memory.run(_claim)
    gap = list(range(memory.values[0][-1], memory.values[1][-1]))
    assert taken[0] == list(range(len(taken[0])))
    assert taken[1] == list(range(blocks - 1, blocks - 1 - len(taken[1]), -1))
    assert sorted(set(taken[0]) | set(taken[1]) | set(gap)) == list(
        range(blocks))
    if set(taken[0]) & set(taken[1]):
        assert memory.stale
    assert len(gap) <= 1 and not set(gap) & (set(taken[0]) | set(taken[1]))


class LocalError(Exception):
    pass


# (the blocks that raise, the exception that propagates) of six one-row
# blocks on three processes: two parts, blocks 0-2 and 3-5, each shared by
# the caller, from its bottom, and one worker, from its top.
FAILING_BLOCKS = [
    ({1: ValueError("caller's block"), 3: KeyError("worker's block")},
     (ValueError, "caller's block")),
    ({3: rl.NoConvergence("first block of a part"),
      5: ValueError("second worker")},
     (rl.NoConvergence, "first block of a part")),
    ({4: ValueError("later block"), 5: KeyError("last block")},
     (ValueError, "later block")),
    ({2: LocalError("no pickle")}, (LocalError, "no pickle")),
    ({2: rl.NoConvergence("first worker"), 5: ValueError("second worker")},
     (rl.NoConvergence, "first worker")),
    ({0: ValueError("first block"), 2: KeyError("first worker")},
     (ValueError, "first block")),
]


def test_row_blocks_cancel_the_blocks_not_started(monkeypatch):
    # The first failing block in block order propagates, its type and
    # message, whichever process raised it, and the failing call kills the
    # workers at once: every block before it has run, the blocks ran as
    # the parts are claimed, and none after it starts but a part's top
    # block, a worker's first, which sleeps long enough to be still
    # running when the kill comes.  The caller's blocks take 0.1 s, so the
    # workers claim first; a worker stops at its first failing block, and
    # its failure stops the caller before the next part.  An exception
    # pickle cannot carry (a class it cannot find by name) arrives as a
    # RuntimeError naming it.
    from riccilab import parallel

    monkeypatch.setattr(parallel, "WORKERS", 3)
    monkeypatch.setattr(parallel, "ROW_CELLS", 3)
    for failing, raised in FAILING_BLOCKS:
        first = min(failing)
        running = {k for k in (2, 5) if k > first}
        started = time.perf_counter()
        records = map_failing_blocks(failing, raised)
        assert time.perf_counter() - started < 2.5, failing
        check_parts(records, [[k for k in part if k <= first or k in running]
                              for part in ([0, 1, 2], [3, 4, 5])])
        starts = {start for _, start in records}
        assert set(range(first + 1)) <= starts, failing
        assert starts <= set(range(first + 1)) | running, failing


def map_failing_blocks(failing, raised):
    """Map six one-row blocks, the caller's taking 0.1 s, with the
    ``failing`` ones raising and those after the first of them sleeping 3
    s, then
    again with none in what is left of the pool, the caller; check the
    exception, that the second call ran in the caller in order and that no
    child is left, and return (pid, block) of each block the first call
    started."""
    from riccilab import parallel

    log, parent = ProcessLog(), os.getpid()
    with parallel.RowPool() as pool:

        @pool.add
        def block(fail, rows):
            log.record(fail, rows.start)
            if fail and os.getpid() == parent:
                time.sleep(0.1)
            if fail and rows.start in failing:
                exc = failing[rows.start]
                if isinstance(exc, LocalError):
                    exc = type("LocalError", (Exception,), {})(*exc.args)
                raise exc
            if fail and rows.start > min(failing):
                time.sleep(3.0)

        with pytest.raises(Exception) as info:
            pool.join(pool.submit(block, 6, 1, True))
        pool.join(pool.submit(block, 6, 1, False))
    assert not children_left()
    kind, message = raised
    if kind is LocalError:
        assert type(info.value) is RuntimeError
        assert str(info.value) == f"LocalError: {message}"
    else:
        assert type(info.value) is kind
        assert info.value.args == (message,)
    records = log.records()
    assert records[-6:] == [(os.getpid(), False, k) for k in range(6)]
    return [(pid, start) for pid, fail, start in records if fail]


def test_row_pool_kills_the_workers_when_the_caller_leaves_by_an_interrupt(
        monkeypatch):
    # The caller's own block raises KeyboardInterrupt while the worker's
    # block would sleep a minute: the pool kills and reaps the worker, so
    # the interrupt propagates at once and no child is left.  A worker's
    # own interrupt ends it: the caller, whose block takes 0.5 s so that the
    # worker claims the other, reports that it exited.
    from riccilab import parallel

    monkeypatch.setattr(parallel, "WORKERS", 2)
    monkeypatch.setattr(parallel, "ROW_CELLS", 2)
    for where in ("caller", "worker"):
        started = time.perf_counter()
        with pytest.raises((KeyboardInterrupt, RuntimeError)) as info:
            with parallel.RowPool() as pool:

                @pool.add
                def block(rows):
                    if (rows.start == 0) == (where == "caller"):
                        raise KeyboardInterrupt
                    time.sleep(60.0 if where == "caller" else 0.5)

                pool.join(pool.submit(block, 2, 1))
        assert not children_left()
        assert time.perf_counter() - started < 30.0
        if where == "caller":
            assert type(info.value) is KeyboardInterrupt
        else:
            assert type(info.value) is RuntimeError
            assert "exited" in str(info.value)


def map_in_the_caller(workers, rows, monkeypatch):
    """Map one-cell rows in one-row blocks on the ``row_pool`` of ``workers``
    CPUs sized for them, with ``os.fork`` failing the test, and check that
    every block ran in the caller, in order."""
    from riccilab import parallel

    def no_fork():
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(parallel, "WORKERS", workers)
    monkeypatch.setattr(parallel, "ROW_CELLS", workers)
    monkeypatch.setattr(os, "fork", no_fork)
    starts = []
    with parallel.row_pool(rows, 1) as pool:
        assert pool.shared == (min(workers, rows) > 1)
        block = pool.add(lambda r: starts.append(r.start))
        pool.join(pool.submit(block, rows, 1))
        assert pool.processes_used == 1
        assert pool.workers_peak_rss_mb is None
    assert starts == list(range(rows))


@pytest.mark.parametrize("workers,rows", [(1, 9), (4, 1)])
def test_row_blocks_one_worker_or_block_maps_in_the_calling_thread(
        workers, rows, monkeypatch):
    # One worker or one block: a pool of one process (private arrays, no
    # shared memory).
    map_in_the_caller(workers, rows, monkeypatch)


def test_row_pool_forks_nothing_beside_a_live_thread(monkeypatch):
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        map_in_the_caller(4, 9, monkeypatch)
    finally:
        stop.set()
        other.join(10.0)
    assert not other.is_alive()


def test_row_pool_functions_are_added_before_the_fork(monkeypatch):
    from riccilab import parallel

    monkeypatch.setattr(parallel, "WORKERS", 2)
    monkeypatch.setattr(parallel, "ROW_CELLS", 2)
    with parallel.RowPool() as pool:
        with pytest.raises(ValueError, match="not added"):
            pool.submit(lambda r: None, 2, 1)
        pool.join(pool.submit(pool.add(lambda r: None), 2, 1))
        with pytest.raises(RuntimeError, match="after the pool forked"):
            pool.add(lambda r: None)
    assert not children_left()


def test_row_pool_arrays_are_made_before_the_fork(monkeypatch):
    # The worker writes its block into an array made before the fork; one
    # made after it would be the caller's alone, so it is refused.
    from riccilab import parallel

    monkeypatch.setattr(parallel, "WORKERS", 2)
    monkeypatch.setattr(parallel, "ROW_CELLS", 2)
    with parallel.RowPool() as pool:
        made = pool.array(2)
        block = pool.add(lambda rows: made.__setitem__(rows, 1.0))
        pool.join(pool.submit(block, 2, 1))
        assert made.tolist() == [1.0, 1.0] and pool.processes_used == 2
        with pytest.raises(RuntimeError, match="made after the pool forked"):
            pool.array(2)
    assert not children_left()
