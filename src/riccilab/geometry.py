"""Model geometries and their differential operators.

Three backends are supported:

* ``RoundSphere(n)``   -- the round n-sphere scaled by a single factor c,
  metric = c * (unit round metric).  All fields are spatially constant.
* ``BergerSphere()``   -- left-invariant metrics on the 3-sphere, diagonal
  (A, B, C) in a Milnor frame with structure constants 2.  Curvature is
  computed from the structure constants; all fields are constant.
* ``ConformalTorus2D(N, L)`` -- metrics e^{2*phi} * (dx^2 + dy^2) on the
  periodic square [0, L)^2, phi sampled on a uniform N x N grid.

Discretization on the torus: symmetric 5-point Laplacian and second-order
first derivatives with spacing h = L/N.  Gradient quadratic forms use the
average of forward and backward difference products, which is second-order
accurate pointwise and makes discrete integration by parts against the
5-point Laplacian exact up to round-off:

    sum (Lap0 w) z h^2  =  - sum <grad w, grad z>_h h^2    for all grids.

In two dimensions the e^{2 phi} volume weight cancels the e^{-2 phi} of the
Laplace-Beltrami operator under the integral, so the identity carries over
verbatim to the curved operators.  Functional identities downstream
(trace of the variation tensor integrating to the Dirichlet energy) rely on
this exactness.

Scalar fields hold one value per node: shape () on homogeneous backends,
shape (N, N) on the torus.  Symmetric 2-tensors hold principal values in
the orthonormal frame on homogeneous backends (shape (n,)) and coordinate
components (T11, T12, T22) on the torus (shape (3, N, N)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RicciLabError

__all__ = [
    "RoundSphere",
    "BergerSphere",
    "ConformalTorus2D",
    "MetricState",
    "ScalarField",
    "SymTensorField",
    "dim",
    "const_field",
    "scalar_field",
    "grid_coords",
    "volume",
    "scalar_curvature",
    "ricci",
    "metric_tensor",
    "laplace_beltrami",
    "gradient_sq",
    "gradient_inner",
    "grad_outer",
    "hessian",
    "integrate",
    "tensor_norm_sq",
    "tensor_trace",
    "ricci_flow_rhs",
]


# --------------------------------------------------------------------------
# Backends and state containers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RoundSphere:
    """Round n-sphere backend; metric parameter is a single factor c > 0."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"sphere dimension must be >= 2, got {self.n}")


@dataclass(frozen=True)
class BergerSphere:
    """Left-invariant 3-sphere backend; metric parameters (A, B, C) > 0."""

    @property
    def n(self) -> int:
        return 3


@dataclass(frozen=True)
class ConformalTorus2D:
    """Flat-background conformal torus; parameter is the exponent field phi."""

    N: int
    L: float

    def __post_init__(self):
        if self.N < 8 or self.N % 2 != 0:
            raise ValueError(f"grid size N must be even and >= 8, got {self.N}")
        if not (self.L > 0):
            raise ValueError(f"period L must be positive, got {self.L}")

    @property
    def h(self) -> float:
        return self.L / self.N


Backend = RoundSphere | BergerSphere | ConformalTorus2D


def dim(backend) -> int:
    """Manifold dimension of a backend."""
    if isinstance(backend, RoundSphere):
        return backend.n
    if isinstance(backend, BergerSphere):
        return 3
    return 2


def _param_shape(backend):
    if isinstance(backend, RoundSphere):
        return (1,)
    if isinstance(backend, BergerSphere):
        return (3,)
    return (backend.N, backend.N)


def _field_shape(backend):
    if isinstance(backend, ConformalTorus2D):
        return (backend.N, backend.N)
    return ()


def _tensor_shape(backend):
    if isinstance(backend, ConformalTorus2D):
        return (3, backend.N, backend.N)
    return (dim(backend),)


@dataclass(frozen=True, eq=False)
class MetricState:
    """A metric at one time instant, stored in backend parameters.

    params: shape (1,) holding c for RoundSphere, (3,) holding (A, B, C)
    for BergerSphere, (N, N) holding phi for ConformalTorus2D.
    """

    backend: Backend
    t: float
    params: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.params, dtype=float)
        object.__setattr__(self, "params", p)
        if p.shape != _param_shape(self.backend):
            raise ValueError(
                f"params shape {p.shape} does not match backend {self.backend}"
            )
        if not np.all(np.isfinite(p)):
            raise ValueError("metric parameters must be finite")
        if not isinstance(self.backend, ConformalTorus2D) and np.any(p <= 0):
            raise ValueError("scale parameters must be positive")


@dataclass(frozen=True, eq=False)
class ScalarField:
    """One real value per spatial node (a single value on homogeneous backends)."""

    backend: Backend
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != _field_shape(self.backend):
            raise ValueError(
                f"field shape {v.shape} does not match backend {self.backend}"
            )


@dataclass(frozen=True, eq=False)
class SymTensorField:
    """Symmetric 2-tensor: coordinate components (T11, T12, T22) on the torus,
    principal values in the orthonormal frame on homogeneous backends."""

    backend: Backend
    comps: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.comps, dtype=float)
        object.__setattr__(self, "comps", c)
        if c.shape != _tensor_shape(self.backend):
            raise ValueError(
                f"tensor shape {c.shape} does not match backend {self.backend}"
            )


def const_field(m: MetricState, value: float) -> ScalarField:
    """Constant scalar field on the state's backend."""
    return ScalarField(m.backend, np.full(_field_shape(m.backend), float(value)))


def scalar_field(m: MetricState, values) -> ScalarField:
    """Wrap raw values as a scalar field on the state's backend."""
    return ScalarField(m.backend, np.asarray(values, dtype=float))


def grid_coords(backend: ConformalTorus2D):
    """Node coordinates (x, y) as broadcastable arrays, x varying along axis 0."""
    s = np.arange(backend.N) * backend.h
    return s[:, None], s[None, :]


def _check_same_backend(m: MetricState, field) -> None:
    if field.backend != m.backend:
        raise RicciLabError("field and metric live on different backends")


# --------------------------------------------------------------------------
# Periodic difference stencils (torus), spacing h, on the last two axes:
# axis 0 = x is the second-to-last axis, axis 1 = y the last.
#
# ``_roll`` is numpy.roll for a shift of +-1 along x or y, built from two
# slice copies.  Every stencil therefore takes an (N, N) grid and a (K, N, N)
# stack of grids alike, as lambda0's row-stack LOPCG passes them.  Each
# stencil keeps the operand order of its numpy.roll form, so the results are
# bitwise the same, and each grid of a stack is bitwise what it would be
# alone.
# --------------------------------------------------------------------------

def _roll(w, shift, axis):
    """numpy.roll(w, shift, axis - 2) for shift = +-1: out[i] = w[i - shift]
    along x (axis 0) or y (axis 1) of the trailing grid, periodic."""
    out = np.empty_like(w)
    tail = (slice(None),) * (1 - axis)
    if shift == -1:
        out[(..., slice(None, -1)) + tail] = w[(..., slice(1, None)) + tail]
        out[(..., -1) + tail] = w[(..., 0) + tail]
    else:
        out[(..., slice(1, None)) + tail] = w[(..., slice(None, -1)) + tail]
        out[(..., 0) + tail] = w[(..., -1) + tail]
    return out


def _dp(w, axis, h):
    return (_roll(w, -1, axis) - w) / h


def _dm(w, axis, h):
    return (w - _roll(w, 1, axis)) / h


def _dc(w, axis, h):
    return (_roll(w, -1, axis) - _roll(w, 1, axis)) / (2.0 * h)


def _d2(w, axis, h):
    return (_roll(w, -1, axis) - 2.0 * w + _roll(w, 1, axis)) / (h * h)


def _lap5(w, h):
    return (
        _roll(w, -1, 0) + _roll(w, 1, 0) + _roll(w, -1, 1) + _roll(w, 1, 1)
        - 4.0 * w
    ) / (h * h)


def _dcross(w, h):
    xp, xm = _roll(w, -1, 0), _roll(w, 1, 0)
    return (
        _roll(xp, -1, 1) - _roll(xp, 1, 1) - _roll(xm, -1, 1) + _roll(xm, 1, 1)
    ) / (4.0 * h * h)


# --------------------------------------------------------------------------
# Curvature
# --------------------------------------------------------------------------

def _berger_ricci_values(p):
    """Principal Ricci values in the orthonormal frame for diag(A, B, C).

    Milnor-frame structure constants are 2 (A = B = C = 1 is the unit round
    3-sphere), giving r_1 = 2 (A^2 - (B - C)^2) / (ABC) and cyclic.
    """
    A, B, C = p
    abc = A * B * C
    r1 = 2.0 * (A * A - (B - C) ** 2) / abc
    r2 = 2.0 * (B * B - (C - A) ** 2) / abc
    r3 = 2.0 * (C * C - (A - B) ** 2) / abc
    return np.array([r1, r2, r3])


def scalar_curvature(m: MetricState) -> ScalarField:
    """Scalar curvature R of the metric.

    RoundSphere: R = n(n-1)/c.  BergerSphere: sum of the principal Ricci
    values.  ConformalTorus2D: R = -2 e^{-2 phi} Lap0 phi.
    """
    b = m.backend
    if isinstance(b, RoundSphere):
        return const_field(m, b.n * (b.n - 1) / m.params[0])
    if isinstance(b, BergerSphere):
        return const_field(m, float(np.sum(_berger_ricci_values(m.params))))
    return ScalarField(b, _torus_scalar_curvature(m.params, b.h))


def _torus_scalar_curvature(phi, h):
    """R = -2 e^{-2 phi} Lap0 phi of a conformal exponent grid or grid stack."""
    return -2.0 * np.exp(-2.0 * phi) * _lap5(phi, h)


def ricci(m: MetricState) -> SymTensorField:
    """Ricci tensor; (R/2) g on 2-d backends, structure-constant values on Berger."""
    b = m.backend
    if isinstance(b, RoundSphere):
        return SymTensorField(b, np.full(b.n, (b.n - 1) / m.params[0]))
    if isinstance(b, BergerSphere):
        return SymTensorField(b, _berger_ricci_values(m.params))
    R = scalar_curvature(m).values
    e2p = np.exp(2.0 * m.params)
    half_Rg = 0.5 * R * e2p
    return SymTensorField(b, np.stack([half_Rg, np.zeros_like(half_Rg), half_Rg]))


def metric_tensor(m: MetricState) -> SymTensorField:
    """The metric itself as a tensor field (identity in the orthonormal frame)."""
    b = m.backend
    if isinstance(b, ConformalTorus2D):
        e2p = np.exp(2.0 * m.params)
        return SymTensorField(b, np.stack([e2p, np.zeros_like(e2p), e2p]))
    return SymTensorField(b, np.ones(dim(b)))


# --------------------------------------------------------------------------
# Derivatives of scalar fields
# --------------------------------------------------------------------------

def laplace_beltrami(m: MetricState, w: ScalarField) -> ScalarField:
    """Laplace-Beltrami operator; e^{-2 phi} Lap0 on the torus, 0 on constants."""
    _check_same_backend(m, w)
    b = m.backend
    if isinstance(b, ConformalTorus2D):
        return ScalarField(b, np.exp(-2.0 * m.params) * _lap5(w.values, b.h))
    return const_field(m, 0.0)


def gradient_sq(m: MetricState, w: ScalarField) -> ScalarField:
    """Squared gradient norm |grad w|^2_g.

    Torus form: e^{-2 phi} times the average of forward and backward
    difference squares per axis (second-order accurate; summation by parts
    against the 5-point Laplacian is exact).
    """
    return gradient_inner(m, w, w)


def gradient_inner(m: MetricState, w: ScalarField, z: ScalarField) -> ScalarField:
    """Pointwise gradient inner product <grad w, grad z>_g (same quadratic form
    as :func:`gradient_sq`)."""
    _check_same_backend(m, w)
    _check_same_backend(m, z)
    b = m.backend
    if not isinstance(b, ConformalTorus2D):
        return const_field(m, 0.0)
    h = b.h
    wv, zv = w.values, z.values
    ip = 0.5 * (
        _dp(wv, 0, h) * _dp(zv, 0, h) + _dm(wv, 0, h) * _dm(zv, 0, h)
        + _dp(wv, 1, h) * _dp(zv, 1, h) + _dm(wv, 1, h) * _dm(zv, 1, h)
    )
    return ScalarField(b, np.exp(-2.0 * m.params) * ip)


def grad_outer(m: MetricState, w: ScalarField) -> SymTensorField:
    """Outer product grad w (x) grad w as a coordinate tensor.

    Diagonal components use the same averaged one-sided products as
    :func:`gradient_sq`, so the g-trace of the result equals gradient_sq
    exactly at the discrete level.
    """
    _check_same_backend(m, w)
    b = m.backend
    if not isinstance(b, ConformalTorus2D):
        return SymTensorField(b, np.zeros(dim(b)))
    h = b.h
    wv = w.values
    px, mx = _dp(wv, 0, h), _dm(wv, 0, h)
    py, my = _dp(wv, 1, h), _dm(wv, 1, h)
    t11 = 0.5 * (px * px + mx * mx)
    t22 = 0.5 * (py * py + my * my)
    t12 = 0.5 * (px * py + mx * my)
    return SymTensorField(b, np.stack([t11, t12, t22]))


def hessian(m: MetricState, w: ScalarField) -> SymTensorField:
    """Covariant Hessian (second derivatives minus Christoffel terms).

    Conformal 2-d Christoffel symbols reduce to first derivatives of phi.
    The Christoffel contributions to T11 and T22 are exact negatives, so the
    g-trace of the discrete Hessian equals the discrete Laplace-Beltrami
    operator up to round-off.
    """
    _check_same_backend(m, w)
    b = m.backend
    if not isinstance(b, ConformalTorus2D):
        return SymTensorField(b, np.zeros(dim(b)))
    h = b.h
    phi = m.params
    wv = w.values
    wx, wy = _dc(wv, 0, h), _dc(wv, 1, h)
    px, py = _dc(phi, 0, h), _dc(phi, 1, h)
    gamma_diag = px * wx - py * wy
    t11 = _d2(wv, 0, h) - gamma_diag
    t22 = _d2(wv, 1, h) + gamma_diag
    t12 = _dcross(wv, h) - (py * wx + px * wy)
    return SymTensorField(b, np.stack([t11, t12, t22]))


# --------------------------------------------------------------------------
# Integration and tensor algebra
# --------------------------------------------------------------------------

def volume(m: MetricState) -> float:
    """Total volume of the metric."""
    b = m.backend
    if isinstance(b, RoundSphere):
        n = b.n
        unit = 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)
        return unit * m.params[0] ** (n / 2.0)
    if isinstance(b, BergerSphere):
        A, B, C = m.params
        return 2.0 * math.pi**2 * math.sqrt(A * B * C)
    return float(np.sum(np.exp(2.0 * m.params))) * b.h**2


def integrate(m: MetricState, w: ScalarField) -> float:
    """Integral of w against the metric volume measure."""
    _check_same_backend(m, w)
    b = m.backend
    if isinstance(b, ConformalTorus2D):
        return float(np.sum(w.values * np.exp(2.0 * m.params))) * b.h**2
    return float(w.values) * volume(m)


def tensor_norm_sq(m: MetricState, T: SymTensorField) -> ScalarField:
    """Pointwise squared tensor norm |T|^2_g = g^{ik} g^{jl} T_ij T_kl."""
    _check_same_backend(m, T)
    b = m.backend
    if isinstance(b, ConformalTorus2D):
        t11, t12, t22 = T.comps
        val = np.exp(-4.0 * m.params) * (t11 * t11 + 2.0 * t12 * t12 + t22 * t22)
        return ScalarField(b, val)
    return const_field(m, float(np.sum(T.comps**2)))


def tensor_trace(m: MetricState, T: SymTensorField) -> ScalarField:
    """Pointwise g-trace g^{ij} T_ij."""
    _check_same_backend(m, T)
    b = m.backend
    if isinstance(b, ConformalTorus2D):
        t11, _, t22 = T.comps
        return ScalarField(b, np.exp(-2.0 * m.params) * (t11 + t22))
    return const_field(m, float(np.sum(T.comps)))


# --------------------------------------------------------------------------
# Flow velocity
# --------------------------------------------------------------------------

def _flow_rhs_params(backend, p):
    """Velocity of the curvature flow dg/dt = -2 Ric in backend parameters.

    RoundSphere: dc/dt = -2(n-1).  BergerSphere: dA/dt = -2 A r_1 and
    cyclic.  ConformalTorus2D: dphi/dt = e^{-2 phi} Lap0 phi (from
    dg/dt = -R g in two dimensions).
    """
    if isinstance(backend, RoundSphere):
        return np.array([-2.0 * (backend.n - 1)])
    if isinstance(backend, BergerSphere):
        return -2.0 * p * _berger_ricci_values(p)
    return np.exp(-2.0 * p) * _lap5(p, backend.h)


def ricci_flow_rhs(m: MetricState) -> np.ndarray:
    """Flow velocity in backend parameters (tangent to MetricState.params)."""
    return _flow_rhs_params(m.backend, m.params)
