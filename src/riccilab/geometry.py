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
shape (N, N) on the torus.  Symmetric 2-tensors are the stack's plain
arrays: principal values in the orthonormal frame on homogeneous backends
(shape (n,)) and coordinate components (T11, T12, T22) on the torus (shape
(3, N, N), the components on axis -3).

Array cores and the leading row axis.  ``backend.stack(params)`` returns a
``MetricStack``: the metrics of one backend as raw arrays, with an optional
leading ``(K, ...)`` row axis on the parameters (``params[k]`` holds row k;
no leading axis for one state).  Its operators -- R, Ric, g, the
Laplace-Beltrami operator, the gradient forms, the Hessian, ``integrate``
and the volume as per-row ``_row_sum`` sums, the tensor norm --
take fields and tensors with the same leading axes and return one result
per row.  Every operator is element-wise or reduces each row's own
contiguous cells, so each row's result is bitwise what that row gives
alone.  The metric-derived arrays (R, Ric, g, the volume weight, the
Laplace-Beltrami factor, phi's central differences for the Hessian) are
built on first use and kept, so a stack computes each once.  ``g[rows]``
is the stack of some rows.  A Berger slice takes its Ricci values and R
from g, so the slices of one trajectory's stack build those once for all
its states; every other array is built per slice, which keeps a torus
block's arrays block-sized.

One-column torus metrics.  A phi that is bitwise constant along y (every
run's initial ``amp * sin(mode * 2 pi x / L)``, and the flow keeps it so)
is held as its first column, shape (..., N, 1), and numpy broadcasting
carries it against the (..., N, N) density fields.  ``components`` steps
it so, and a torus stack takes a params view broadcast along y (stride 0,
as ``Trajectory.params`` is) back to that column: ``weight``,
``lap_factor``, R, Ric, g and the phi differences of ``hessian`` are then
(..., N, 1).  Each entry keeps its operations, and the y-neighbours of a
y-constant grid are the entries themselves, so ``exp``, the 5-point stencil
and every broadcast product give the bits of the full grid.  The torus
``quadrature`` sums the full grid, a one-column operand broadcast to it
first, so ``volume`` keeps its bits too.  A general phi(x, y) runs the same
code on an (N, N) grid.  ``MetricState`` always holds a contiguous full
grid, so the typed functions see (N, N); ``functionals.lambda0_eig`` takes
the state's ``components`` instead, so it solves g(0) on the column the
trajectory's rows are solved on.

The backends carry what the time-stepping loops use on one state.  The
flow steps ``components(p)``: Python floats on the spheres, where numpy's
per-call dispatch would dwarf the arithmetic, and a one-entry list holding
phi on the torus.  ``rates`` is the flow velocity in that form, and
``states`` steps it K times and returns every state, one row each (see
``flow``).  ``min_scale`` gives each state's
smallest metric scale, for the flow's floor and ``stability_dt``.  The heat
solve reads stack arrays through ``rows`` and checks positivity by
``_finite_min``.

The typed functions at the end (``scalar_curvature``, ``laplace_beltrami``,
``hessian``, ``volume``, ``integrate``) take a ``MetricState`` and typed
fields and evaluate the state's own stack (``MetricState.stack``, no leading
axis).  Runs call the stack; these serve the per-state functionals, the
tests and the benchmark's layer timings.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import RicciLabError

__all__ = [
    "RoundSphere",
    "BergerSphere",
    "ConformalTorus2D",
    "MetricState",
    "MetricStack",
    "ScalarField",
    "rk4_step",
    "scalar_field",
    "grid_coords",
    "volume",
    "scalar_curvature",
    "laplace_beltrami",
    "hessian",
    "integrate",
]


def rk4_step(rate, w, dt):
    """One classical RK4 step of dw/dt = rate from w: the torus flow's and the
    torus backward heat solve's one step.

    ``rate(s, x)`` is the velocity at x, ``s`` half steps into the step
    (stages at offsets 0, 1, 1, 2), written into an array it returns (or a
    new float).  The stages are k1 = rate(0, w), k2 = rate(1, w + (dt / 2)
    k1), k3 = rate(1, w + (dt / 2) k2) and k4 = rate(2, w + dt k3); then
    w + (dt / 6) (k1 + 2 k2 + 2 k3 + k4) is accumulated in k1 in that order
    (2 k2, 2 k3, k4, the factor dt / 6, then w), so an array updates in
    place and a float rebinds, each entry by the same operations.  The
    Berger flow's loops (``_berger_states``) and the spheres' heat steps
    (``heat._float_steps``) write the same order out on floats, which round
    each operation as numpy does: the tests pin them to it bitwise.
    """
    half = 0.5 * dt
    k1 = rate(0, w)
    k2 = rate(1, w + half * k1)
    k3 = rate(1, w + half * k2)
    k4 = rate(2, w + dt * k3)
    k2 *= 2.0
    k1 += k2
    k3 *= 2.0
    k1 += k3
    k1 += k4
    k1 *= dt / 6.0
    k1 += w
    return k1


# --------------------------------------------------------------------------
# Backends: shapes, the flow velocity and the stability bound of one state
# --------------------------------------------------------------------------

class _Homogeneous:
    """Shared raw-array cores of the spatially constant backends."""

    field_shape = ()
    cells = 1
    scale_name = "metric scale parameter"

    @staticmethod
    def components(p):
        """One state's parameters as Python floats: the flow's component form."""
        return p.tolist()

    @staticmethod
    def min_scale(states):
        """Smallest scale parameter of each state: ``_finite_min``."""
        return _finite_min(states)

    @staticmethod
    def stability_dt(scale):
        """(smallest scale parameter) / 8 from ``min_scale``."""
        return scale / 8.0

    @staticmethod
    def flat_laplacian(w):
        """Derivatives of spatially constant fields vanish."""
        return 0.0

    @staticmethod
    def rows(x):
        """The rows of a per-row array as Python floats."""
        return x.tolist()


@dataclass(frozen=True)
class RoundSphere(_Homogeneous):
    """Round n-sphere backend; metric parameter is a single factor c > 0."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"sphere dimension must be >= 2, got {self.n}")

    param_shape = (1,)

    def stack(self, params) -> MetricStack:
        return _RoundStack(self, params)

    def rates(self, p):
        """dc/dt = -2(n-1)."""
        return [-2.0 * (self.n - 1)]

    def states(self, p, dt, K):
        """The flow's states from p = [c0] over K steps, one row each.  The
        rate r does not depend on c, so the four stages of every RK4 step
        are the same float r and every step adds the same increment;
        ``np.add.accumulate`` sums c0 and the K increments in step order,
        each state the previous one plus the increment, as a loop of float
        steps gives it."""
        (r,) = self.rates(p)
        out = np.empty((K + 1, 1))
        out[0] = p
        out[1:] = (dt / 6.0) * (r + 2.0 * r + 2.0 * r + r)
        return np.add.accumulate(out, out=out)


@dataclass(frozen=True)
class BergerSphere(_Homogeneous):
    """Left-invariant 3-sphere backend; metric parameters (A, B, C) > 0."""

    param_shape = (3,)

    @property
    def n(self) -> int:
        return 3

    def stack(self, params) -> MetricStack:
        return _BergerStack(self, params)

    @staticmethod
    def rates(p):
        """dA/dt = -2 A r_1 and cyclic."""
        return list(_berger_rates(*p))

    @staticmethod
    def states(p, dt, K):
        """The flow's states from p = [A, B, C] over K steps, one row each,
        fewer when a step divides by zero: the float loops of
        ``_berger_states``, on (A, B) only when B = C."""
        A, B, C = p
        if B == C:  # positive (``MetricState``), so the same bits
            As, Bs = _berger_states_bc(A, B, dt, K)
            Cs = Bs
        else:
            As, Bs, Cs = _berger_states(A, B, C, dt, K)
        out = np.empty((len(As), 3))
        out[:, 0], out[:, 1], out[:, 2] = As, Bs, Cs
        return out


def _berger_states(A, B, C, dt, K):
    """A, B and C after each of K ``rk4_step``s written out on the floats,
    each stage's rates in ``_berger_rates``'s operations, each state
    stored in one float array per axis, allocated once (arrays grown by
    appending left the heap fragmented and ``homogeneous_long``'s peak
    resident memory 0.6 MiB higher).  A square that overflows (Python
    raises where C's pow gives inf) redoes the step through
    ``_berger_rates``, whose ``_pow`` squares are inf; a division by zero
    (the array form's inf or nan) ends the stepping at that step."""
    half, sixth = 0.5 * dt, dt / 6.0
    As, Bs, Cs = (array("d", [x]) * (K + 1) for x in (A, B, C))
    try:
        for k in range(1, K + 1):
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
                a2, b2, c2 = _berger_rates(A + half * a1, B + half * b1,
                                           C + half * c1)
                a3, b3, c3 = _berger_rates(A + half * a2, B + half * b2,
                                           C + half * c2)
                a4, b4, c4 = _berger_rates(A + dt * a3, B + dt * b3,
                                           C + dt * c3)
            A = A + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            B = B + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            C = C + sixth * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
            As[k], Bs[k], Cs[k] = A, B, C
    except ZeroDivisionError:
        del As[k:], Bs[k:], Cs[k:]
    return As, Bs, Cs


def _berger_states_bc(A, B, dt, K):
    """``_berger_states`` of (A, B, B), stepping A and B only.  With C = B
    bitwise, (C - A) ** 2 and (A - B) ** 2 are the same C pow of opposite
    signs, so C's rates and states are B's bit for bit, and so is a square's
    overflow.  (B - C) ** 2 is (B - B) itself: +0.0, or a nan where B is
    not finite, which ``**`` returns as it is."""
    half, sixth = 0.5 * dt, dt / 6.0
    As, Bs = array("d", [A]) * (K + 1), array("d", [B]) * (K + 1)
    try:
        for k in range(1, K + 1):
            try:
                s = (B - A) ** 2
                xyz = A * B * B
                a1 = -2.0 * A * (2.0 * (A * A - (B - B)) / xyz)
                b1 = -2.0 * B * (2.0 * (B * B - s) / xyz)
                X, Y = A + half * a1, B + half * b1
                s = (Y - X) ** 2
                xyz = X * Y * Y
                a2 = -2.0 * X * (2.0 * (X * X - (Y - Y)) / xyz)
                b2 = -2.0 * Y * (2.0 * (Y * Y - s) / xyz)
                X, Y = A + half * a2, B + half * b2
                s = (Y - X) ** 2
                xyz = X * Y * Y
                a3 = -2.0 * X * (2.0 * (X * X - (Y - Y)) / xyz)
                b3 = -2.0 * Y * (2.0 * (Y * Y - s) / xyz)
                X, Y = A + dt * a3, B + dt * b3
                s = (Y - X) ** 2
                xyz = X * Y * Y
                a4 = -2.0 * X * (2.0 * (X * X - (Y - Y)) / xyz)
                b4 = -2.0 * Y * (2.0 * (Y * Y - s) / xyz)
            except OverflowError:
                a1, b1, _ = _berger_rates(A, B, B)
                X, Y = A + half * a1, B + half * b1
                a2, b2, _ = _berger_rates(X, Y, Y)
                X, Y = A + half * a2, B + half * b2
                a3, b3, _ = _berger_rates(X, Y, Y)
                X, Y = A + dt * a3, B + dt * b3
                a4, b4, _ = _berger_rates(X, Y, Y)
            A = A + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            B = B + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            As[k], Bs[k] = A, B
    except ZeroDivisionError:
        del As[k:], Bs[k:]
    return As, Bs


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

    n = 2
    scale_name = "conformal factor"

    @property
    def h(self) -> float:
        return self.L / self.N

    @property
    def param_shape(self) -> tuple[int, int]:
        return (self.N, self.N)

    field_shape = param_shape

    @property
    def cells(self) -> int:
        return self.N * self.N

    def stack(self, params) -> MetricStack:
        return _TorusStack(self, params)

    @staticmethod
    def components(p):
        """The flow's component form: one entry, phi.  A phi whose every row
        is bitwise constant along y (bit patterns compared, so -0.0 and 0.0
        differ) enters as its first column, shape (N, 1); any other as the
        grid."""
        bits = p.view(np.uint64)
        return [p[..., :1] if (bits == bits[..., :1]).all() else p]

    def rates(self, p):
        """dphi/dt = e^{-2 phi} Lap0 phi (from dg/dt = -R g in two dimensions)."""
        return [self._rate(0, p[0])]

    def states(self, p, dt, K):
        """The flow's states from p = [phi] over K ``rk4_step``s, one row
        each.  A column (N, 1) steps its bare (N,) view."""
        (phi,) = p
        out = np.empty((K + 1, 1) + phi.shape)
        w = phi.reshape(-1) if phi.shape[-1] == 1 else phi
        rows = out.reshape((K + 1,) + w.shape)
        rows[0] = w
        for k in range(K):
            w = rk4_step(self._rate, w, dt)
            rows[k + 1] = w
        return out

    def _rate(self, s, w):
        """The flow velocity e^{-2 w} Lap0 w at any stage s, written into the
        stencil's output: ``_lap_column`` for a bare (N,) column, else
        ``_lap5``."""
        out = (_lap_column if w.ndim == 1 else _lap5)(w, self.h)
        out *= np.exp(-2.0 * w)
        return out

    @staticmethod
    def min_scale(states):
        """Smallest conformal factor e^{2 phi} of each state, from phi's
        ``_finite_min``."""
        return np.exp(2.0 * _finite_min(states))

    def stability_dt(self, scale):
        """h^2 * min(e^{2 phi}) / 8 from ``min_scale``: the parabolic bound of
        e^{-2 phi} Lap0 with the 5-point stencil."""
        return self.h**2 * scale / 8.0

    def flat_laplacian(self, w):
        return _lap5(w, self.h)

    @staticmethod
    def rows(x):
        """A per-row array, whose row k is the grid x[k]."""
        return x


Backend = RoundSphere | BergerSphere | ConformalTorus2D


def _finite_min(states):
    """The smallest parameter of each state along the leading axis of
    ``states``, nan for a state holding nan or +-inf: ``np.min`` and
    ``np.max`` propagate both, so a state is finite exactly when its minimum
    and maximum are."""
    flat = states.reshape(len(states), -1)
    lo, hi = flat.min(axis=1), flat.max(axis=1)
    return np.where(np.isfinite(lo) & np.isfinite(hi), lo, np.nan)


# --------------------------------------------------------------------------
# Typed state containers
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MetricState:
    """A metric at one time instant, stored in backend parameters.

    params: a C-contiguous array (a broadcast view is copied) of shape (1,)
    holding c for RoundSphere, (3,) holding (A, B, C) for BergerSphere,
    (N, N) holding phi for ConformalTorus2D.
    """

    backend: Backend
    t: float
    params: np.ndarray

    def __post_init__(self):
        p = np.require(self.params, float, "C")
        object.__setattr__(self, "params", p)
        if p.shape != self.backend.param_shape:
            raise ValueError(
                f"params shape {p.shape} does not match backend {self.backend}"
            )
        if not np.all(np.isfinite(p)):
            raise ValueError("metric parameters must be finite")
        if not isinstance(self.backend, ConformalTorus2D) and np.any(p <= 0):
            raise ValueError("scale parameters must be positive")

    @functools.cached_property
    def stack(self) -> MetricStack:
        """The operators of this one state (no leading row axis)."""
        return self.backend.stack(self.params)


@dataclass(frozen=True, eq=False)
class ScalarField:
    """One real value per spatial node (a single value on homogeneous backends)."""

    backend: Backend
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != self.backend.field_shape:
            raise ValueError(
                f"field shape {v.shape} does not match backend {self.backend}"
            )


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
# slice copies; ``_lap5`` adds flat shifted slices straight into its output,
# fixing the wrapped rows and column.  Every stencil takes an (N, Ny) grid
# and a (K, N, Ny) stack of grids alike (Ny = N, or 1 for a one-column
# metric, whose y-shifts are the column itself) and keeps the operand order
# of its numpy.roll form, so the results are bitwise the same, and each
# grid of a stack is bitwise what it would be alone.  The one 5-point
# stencil of a column is ``_lap_column``: ``_lap5`` hands it every
# (..., N, 1) operand (the torus R, the ground-state operator), and the
# flow step its bare (N,) column; it takes the x-neighbours by two cached
# periodic index arrays, and the y-neighbours are the entries themselves.
# A flow step on the bare column takes 25-28 us at N = 32 against 47-58 us
# for the (N, 1) array form (2-core Xeon): numpy's per-call cost, not the
# arithmetic, sets both.
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
    d = _roll(w, -1, axis)
    np.subtract(d, w, out=d)
    return np.divide(d, h, out=d)


def _lap5(w, h):
    """The periodic 5-point Laplacian of an (..., N, Ny) grid or stack; a
    one-column (..., N, 1) grid through ``_lap_column``."""
    Ny = w.shape[-1]
    if Ny == 1:
        return _lap_column(w[..., 0], h)[..., None]
    out, s = np.empty(w.shape), np.empty(w.shape)
    wf, of, sf = w.reshape(-1), out.reshape(-1), s.reshape(-1)
    np.add(wf[2 * Ny:], wf[:-2 * Ny], out=of[Ny:-Ny])  # x, then its wrapped rows
    np.add(w[..., 1, :], w[..., -1, :], out=out[..., 0, :])
    np.add(w[..., 0, :], w[..., -2, :], out=out[..., -1, :])
    sf[:-1], s[..., -1] = wf[1:], w[..., 0]  # y, with its wrapped column
    out += s
    sf[1:], s[..., 0] = wf[:-1], w[..., -1]
    out += s
    out -= np.multiply(4.0, w, out=s)
    return np.divide(out, h * h, out=out)


@functools.lru_cache
def _neighbours(N):
    """The periodic index arrays of x + h and x - h on N nodes."""
    i = np.arange(N)
    return (i + 1) % N, (i - 1) % N


def _lap_column(w, h):
    """``_lap5`` of a y-constant grid from its column w, x on the last axis
    of w: (((w[i+1] + w[i-1]) + w) + w - 4.0 * w) / (h * h), since the
    y-neighbours of a y-constant grid are the entries themselves; the same
    operations in the same order as the grid stencil, so the same bits."""
    up, down = _neighbours(w.shape[-1])
    out = w.take(up, axis=-1)
    out += w.take(down, axis=-1)
    out += w
    out += w
    out -= 4.0 * w
    out /= h * h
    return out


def _row_sum(w: np.ndarray) -> np.ndarray:
    """Sum over the trailing grid of each row: (K,) for a (K, N, N) stack, a
    scalar for one (N, N) grid.  Each row is one contiguous pairwise sum, so
    its value does not depend on the rows beside it."""
    return w.reshape(w.shape[:-2] + (w.shape[-2] * w.shape[-1],)).sum(axis=-1)


def _pow(x, e):
    """x ** e through the C library's pow, entry by entry, as numpy scalars
    and Python floats compute it, with inf (C's HUGE_VAL) where Python raises
    on overflow.  numpy's vectorised power (and x * x for e = 2) differ from
    it in the last bit for some x, which would move the per-state results.
    An array maps ``math.pow`` over its entries at once: the same C pow
    behind the same special cases as ``**``, without the slot wrapper's
    call cost.  Only when an entry overflows, or is outside ``math.pow``'s
    domain, does it go entry by entry, so ``**``'s errors stay (0.0 to a
    negative power raises ZeroDivisionError)."""
    if isinstance(x, float) or x.ndim == 0:  # scalars and 0-d arrays
        try:
            return float(x) ** e
        except OverflowError:
            return math.inf
    values = x.ravel().tolist()
    try:
        flat = np.fromiter(map(math.pow, values, repeat(e)), float, x.size)
    except (OverflowError, ValueError):  # entry by entry, inf on overflow
        flat = np.fromiter((_pow(v, e) for v in values), float, x.size)
    return flat.reshape(x.shape)


# --------------------------------------------------------------------------
# Metric stacks: the operators on raw arrays with a leading row axis
# --------------------------------------------------------------------------

class MetricStack:
    """Metrics of one backend as raw arrays, ``params[k]`` holding row k (no
    leading axis for one state; on the torus (N, 1) for a one-column
    stack); see the module docstring.

    Attributes built once on first use: ``R`` (scalar curvature, one field
    per row), ``ricci`` and ``metric`` (tensors), ``weight`` (the volume
    weight of a cell: e^{2 phi} on the torus, the volume on homogeneous
    backends), ``lap_factor`` (Laplace-Beltrami = lap_factor times the
    backend's flat Laplacian) and ``volume``.  Fields broadcast against
    tensors through ``np.expand_dims(w, comp_axis)``.
    The gradient forms take ``differences(w)``, and ``tensor_norm_sq(T,
    cross, c)`` is |T - c g|^2_g (c per row or None) given ``cross_sq(T)``.
    """

    comp_axis: int

    def __init__(self, backend, params):
        self.backend = backend
        self.params = params
        self.n = backend.n

    def __getitem__(self, rows):
        """The stack of the rows ``rows``, an index of the leading axis."""
        return self.backend.stack(self.params[rows])

    def laplace_beltrami(self, w):
        return self.lap_factor * self.backend.flat_laplacian(w)

    def integrate(self, w):
        """Integral of each row's field against its volume measure."""
        return self.quadrature(w * self.weight)


class _HomogeneousStack(MetricStack):
    comp_axis = -1

    @functools.cached_property
    def _lead(self):
        return self.params.shape[:-1]

    @functools.cached_property
    def lap_factor(self):
        return np.zeros(self._lead)

    @functools.cached_property
    def metric(self):
        return np.ones(self._lead + (self.n,))

    @functools.cached_property
    def weight(self):
        return self.volume

    @staticmethod
    def quadrature(x):
        """A homogeneous row is one cell whose weight is the whole volume."""
        return x

    # Constant fields have no differences, principal values no cross terms.
    differences = cross_sq = staticmethod(lambda _: None)

    def gradient_inner(self, dw, dz):
        return np.zeros(self._lead)

    def grad_outer(self, dw):
        return np.zeros(self._lead + (self.n,))

    def hessian(self, w):
        return np.zeros(self._lead + (self.n,))

    def tensor_norm_sq(self, T, cross, c=None):
        D = T if c is None else T - np.expand_dims(c, -1) * self.metric
        return (D * D).sum(axis=-1)


class _RoundStack(_HomogeneousStack):
    @functools.cached_property
    def R(self):
        """R = n(n-1)/c."""
        return self.n * (self.n - 1) / self.params[..., 0]

    @functools.cached_property
    def ricci(self):
        """(n-1)/c in every principal direction."""
        value = np.expand_dims((self.n - 1) / self.params[..., 0], -1)
        return np.repeat(value, self.n, axis=-1)

    @functools.cached_property
    def volume(self):
        n = self.n
        unit = 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)
        return unit * _pow(self.params[..., 0], n / 2.0)


def _last_axis(p):
    """The entries along the last axis of p: numpy scalars for one state."""
    return np.moveaxis(p, -1, 0) if p.ndim > 1 else p


def _berger_ricci_values(A, B, C):
    """Principal Ricci values (r_1, r_2, r_3) in the orthonormal frame for
    diag(A, B, C): Python floats, numpy scalars or arrays.

    Milnor-frame structure constants are 2 (A = B = C = 1 is the unit round
    3-sphere), giving r_1 = 2 (A^2 - (B - C)^2) / (ABC) and cyclic.
    """
    s1, s2, s3 = _pow(B - C, 2), _pow(C - A, 2), _pow(A - B, 2)
    abc = A * B * C
    return (2.0 * (A * A - s1) / abc,
            2.0 * (B * B - s2) / abc,
            2.0 * (C * C - s3) / abc)


def _berger_rates(A, B, C):
    """The flow velocity (dA/dt, dB/dt, dC/dt) = -2 (A r_1, B r_2, C r_3)."""
    r1, r2, r3 = _berger_ricci_values(A, B, C)
    return -2.0 * A * r1, -2.0 * B * r2, -2.0 * C * r3


class _BergerStack(_HomogeneousStack):
    def __getitem__(self, rows):
        """The stack of the rows ``rows``, holding the rows of this stack's
        Ricci values and R, which this stack builds on first use: three C
        pows a row, built once for all slices.  Each is element-wise in the
        rows, so a row's bits do not depend on the stack it was built in."""
        sub = super().__getitem__(rows)
        sub.ricci, sub.R = self.ricci[rows], self.R[rows]
        return sub

    @functools.cached_property
    def ricci(self):
        r = np.empty(self.params.shape)
        r[..., 0], r[..., 1], r[..., 2] = _berger_ricci_values(
            *_last_axis(self.params))
        return r

    @functools.cached_property
    def R(self):
        """Sum of the principal Ricci values."""
        return self.ricci.sum(axis=-1)

    @functools.cached_property
    def volume(self):
        A, B, C = _last_axis(self.params)
        return 2.0 * math.pi**2 * np.sqrt(A * B * C)


def _tensor(w):
    """An uninitialised tensor of the grid shape of w, its components on axis
    -3, and the views of its three components (T11, T12, T22)."""
    T = np.empty(w.shape[:-2] + (3,) + w.shape[-2:])
    return T, np.moveaxis(T, -3, 0)


def _sym(t11, t12, t22):
    """Coordinate components written into one tensor (component axis -3)."""
    T, comps = _tensor(t11)
    for c, t in zip(comps, (t11, t12, t22)):
        c[...] = t
    return T


def _second(up, w, down, h, out):
    """(up - 2.0 * w + down) / (h * h) into out: the central second
    difference from w's neighbours up and down along one axis."""
    np.multiply(2.0, w, out=out)
    np.subtract(up, out, out=out)
    out += down
    return np.divide(out, h * h, out=out)


def _central(up, down, h):
    """(up - down) / (2.0 * h): the central first difference."""
    d = np.subtract(up, down)
    return np.divide(d, 2.0 * h, out=d)


class _TorusStack(MetricStack):
    comp_axis = -3

    def __init__(self, backend, params):
        # A view broadcast along y (stride 0) holds its first column.
        if params.strides[-1] == 0:
            params = params[..., :1]
        super().__init__(backend, params)

    @functools.cached_property
    def weight(self):
        """e^{2 phi}."""
        return np.exp(2.0 * self.params)

    @functools.cached_property
    def lap_factor(self):
        """e^{-2 phi}."""
        return np.exp(-2.0 * self.params)

    @functools.cached_property
    def _inv_weight_sq(self):
        return np.exp(-4.0 * self.params)

    @functools.cached_property
    def R(self):
        """R = -2 e^{-2 phi} Lap0 phi."""
        return -2.0 * self.lap_factor * _lap5(self.params, self.backend.h)

    @functools.cached_property
    def ricci(self):
        """(R/2) g."""
        half = 0.5 * self.R * self.weight
        return _sym(half, 0.0, half)

    @functools.cached_property
    def metric(self):
        return _sym(self.weight, 0.0, self.weight)

    @functools.cached_property
    def volume(self):
        return self.quadrature(self.weight)

    def quadrature(self, x):
        """h^2 times each row's sum over the full grid, a one-column x
        broadcast to it first."""
        full = np.broadcast_to(x, x.shape[:-1] + (self.backend.N,))
        return _row_sum(full) * self.backend.h**2

    def differences(self, w):
        """Forward and backward differences along x, then along y.  The
        backward difference (w[i] - w[i-1]) / h is the forward one a cell
        down, the same subtraction and division: a shifted copy."""
        h = self.backend.h
        px, py = _dp(w, 0, h), _dp(w, 1, h)
        return px, _roll(px, 1, 0), py, _roll(py, 1, 1)

    def gradient_inner(self, dw, dz):
        """e^{-2 phi} times the average of the forward and backward difference
        products per axis."""
        ip = 0.5 * (dw[0] * dz[0] + dw[1] * dz[1] + dw[2] * dz[2] + dw[3] * dz[3])
        return self.lap_factor * ip

    def grad_outer(self, dw):
        """grad w (x) grad w from the averaged one-sided products of
        ``gradient_inner``, so its g-trace is the squared gradient exactly:
        0.5 * (px * px + mx * mx), 0.5 * (px * py + mx * my) and
        0.5 * (py * py + my * my), each written into its component."""
        px, mx, py, my = dw
        T, comps = _tensor(px)
        for c, (a, b, d, e) in zip(comps, ((px, px, mx, mx), (px, py, mx, my),
                                           (py, py, my, my))):
            np.multiply(a, b, out=c)
            c += d * e
            c *= 0.5
        return T

    @functools.cached_property
    def _phi_central(self):
        """Central differences of phi along x and y (the Christoffel terms)."""
        phi, h = self.params, self.backend.h
        return (_central(_roll(phi, -1, 0), _roll(phi, 1, 0), h),
                _central(_roll(phi, -1, 1), _roll(phi, 1, 1), h))

    def hessian(self, w):
        """Central second differences of w, its cross difference from the
        y-shifts of its x-neighbours, minus the Christoffel terms, each
        written into its component of one tensor: wxx - gamma_diag,
        wxy - (py * wx + px * wy) and wyy + gamma_diag, with gamma_diag =
        px * wx - py * wy for phi's central differences px, py."""
        h = self.backend.h
        H, (hxx, hxy, hyy) = _tensor(w)
        xp, xm = _roll(w, -1, 0), _roll(w, 1, 0)
        # wxy = (xp(y+1) - xp(y-1) - xm(y+1) + xm(y-1)) / (4.0 * h * h)
        np.subtract(_roll(xp, -1, 1), _roll(xp, 1, 1), out=hxy)
        hxy -= _roll(xm, -1, 1)
        hxy += _roll(xm, 1, 1)
        hxy /= 4.0 * h * h
        wx = _central(xp, xm, h)
        _second(xp, w, xm, h, out=hxx)
        del xp, xm  # one axis's neighbours at a time: less peak memory
        yp, ym = _roll(w, -1, 1), _roll(w, 1, 1)
        wy = _central(yp, ym, h)
        _second(yp, w, ym, h, out=hyy)
        del yp, ym
        px, py = self._phi_central
        gamma_diag = px * wx
        gamma_diag -= py * wy
        hxx -= gamma_diag
        hyy += gamma_diag
        del gamma_diag
        christoffel = np.multiply(py, wx, out=wx)
        christoffel += px * wy
        hxy -= christoffel
        return H

    def cross_sq(self, T):
        """2 T12^2, the part of |T - c g|^2 in coordinates free of c."""
        return 2.0 * T[..., 1, :, :] * T[..., 1, :, :]

    def tensor_norm_sq(self, T, cross, c=None):
        """e^{-4 phi} ((t11 * t11 + cross) + t22 * t22) of the diagonal
        components t11, t22 of T - c g, squared in place."""
        t11, _, t22 = np.moveaxis(T, -3, 0)
        if c is None:
            s, d = t11 * t11, t22 * t22
        else:  # c g is diagonal: (c e^{2 phi}, 0, c e^{2 phi})
            cg = c * self.weight
            s, d = t11 - cg, t22 - cg
            s *= s
            d *= d
        s += cross
        s += d
        return np.multiply(self._inv_weight_sq, s, out=s)


# --------------------------------------------------------------------------
# Typed operators on one state
# --------------------------------------------------------------------------

def scalar_curvature(m: MetricState) -> ScalarField:
    """Scalar curvature R of the metric.

    RoundSphere: R = n(n-1)/c.  BergerSphere: sum of the principal Ricci
    values.  ConformalTorus2D: R = -2 e^{-2 phi} Lap0 phi.
    """
    return ScalarField(m.backend, m.stack.R)


def laplace_beltrami(m: MetricState, w: ScalarField) -> ScalarField:
    """Laplace-Beltrami operator; e^{-2 phi} Lap0 on the torus, 0 on constants."""
    _check_same_backend(m, w)
    return ScalarField(m.backend, m.stack.laplace_beltrami(w.values))


def hessian(m: MetricState, w: ScalarField) -> np.ndarray:
    """Covariant Hessian (second derivatives minus Christoffel terms), as the
    stack's tensor array: (T11, T12, T22) on axis -3 on the torus, the
    principal values on the spheres.

    Conformal 2-d Christoffel symbols reduce to first derivatives of phi.
    The Christoffel contributions to T11 and T22 are exact negatives, so the
    g-trace of the discrete Hessian equals the discrete Laplace-Beltrami
    operator up to round-off.
    """
    _check_same_backend(m, w)
    return m.stack.hessian(w.values)


def volume(m: MetricState) -> float:
    """Total volume of the metric."""
    return float(m.stack.volume)


def integrate(m: MetricState, w: ScalarField) -> float:
    """Integral of w against the metric volume measure."""
    _check_same_backend(m, w)
    return float(m.stack.integrate(w.values))
