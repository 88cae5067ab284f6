"""Density evolution coupled to the flow: the backward solve and terminal data.

The density equation du/dt = -Lap u - |grad u|^2/u + (R/2) u is a backward
heat equation; it is solved here in the well-posed direction.  In the
variable v = u^2 the equation reads dv/dt = -Lap_g v + R v, and with
tau = T - t it becomes the forward heat-type equation

    dv/dtau = Lap_{g(T - tau)} v - R v,

integrated by RK4 from a positive terminal datum normalized at t = T.
Solving in v removes the |grad u|^2 / u singularity risk and makes mass
conservation a linear statement: sum over nodes of (Lap0 v) vanishes
identically on the periodic grid, so the semi-discrete mass
integral(v dmu_{g(t)}) is exactly conserved and the recorded drift is pure
time-integration error.

The right-hand side uses the geometry operators, one path for every backend.
The RK4 stages need metrics at half-step times.  The solver therefore steps
at an even multiple of the trajectory spacing so every stage time lands on
a stored snapshot; no interpolation enters the solve.  Mass is checked at
every step but never renormalized.

A density at one instant is a plain ``ScalarField`` holding v; its
positivity and unit mass are checked by the solver, not by its type.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MassDrift, NonPositive, PositivityLoss
from .flow import Trajectory
from .geometry import (
    ConformalTorus2D,
    MetricState,
    ScalarField,
    _field_shape,
    grid_coords,
    integrate,
    laplace_beltrami,
    scalar_curvature,
    scalar_field,
)

__all__ = [
    "DensityHistory",
    "terminal_datum",
    "change_variables",
    "solve_backward",
]

POSITIVITY_FLOOR = 1e-10
DATUM_KINDS = ("constant", "bump", "random_smooth")


@dataclass(frozen=True, eq=False)
class DensityHistory:
    """Density fields indexed by increasing time, aligned with a trajectory.

    ``v[k]`` holds v at ``times[k]`` and ``field(k)`` wraps it as a
    ``ScalarField``.  ``masses[k]`` records integral(v dmu) at ``times[k]``
    as measured, for drift diagnostics; the fields are never renormalized.
    """

    backend: object
    times: np.ndarray
    v: np.ndarray
    masses: np.ndarray

    def field(self, k: int) -> ScalarField:
        return ScalarField(self.backend, self.v[k])


# --------------------------------------------------------------------------
# Terminal data
# --------------------------------------------------------------------------

def _normalized(m_T: MetricState, raw: np.ndarray) -> ScalarField:
    fld = scalar_field(m_T, raw)
    mass = integrate(m_T, fld)
    return scalar_field(m_T, fld.values / mass)


def terminal_datum(
    kind: str,
    m_T: MetricState,
    *,
    amplitude: float = 0.5,
    seed: int = 0,
    mode_cutoff: int = 2,
    center: tuple[float, float] | None = None,
    width: float | None = None,
) -> ScalarField:
    """Positive density normalized against the terminal metric.

    kinds: ``constant``; ``bump`` (constant plus a periodic Gaussian-like
    profile of the given amplitude, center and width); ``random_smooth``
    (truncated random Fourier series with coefficients decaying like
    1/(1+|k|^2), scaled by amplitude, exponentiated, normalized).  The
    random coefficients are drawn in a fixed mode order independent of the
    grid size, so one seed describes one continuum datum across
    resolutions.  Homogeneous backends carry single-value fields, so every
    kind degenerates to the constant datum there.
    """
    b = m_T.backend
    if kind not in DATUM_KINDS:
        raise ValueError(f"unknown terminal datum kind {kind!r}")
    if not isinstance(b, ConformalTorus2D) or kind == "constant":
        return _normalized(m_T, np.ones(_field_shape(b)))

    x, y = grid_coords(b)
    if kind == "bump":
        cx, cy = center if center is not None else (b.L / 2.0, b.L / 2.0)
        bw = width if width is not None else b.L / 8.0
        if not (bw > 0):
            raise ValueError(f"bump width must be positive, got {bw}")
        shape = np.exp(
            -(np.sin(np.pi * (x - cx) / b.L) ** 2 + np.sin(np.pi * (y - cy) / b.L) ** 2)
            * (b.L / (np.pi * bw)) ** 2 / 2.0
        )
        raw = 1.0 + amplitude * shape
        if np.min(raw) <= 0.0:
            raise NonPositive(
                f"bump amplitude {amplitude:g} drives the datum non-positive"
            )
        return _normalized(m_T, raw)

    rng = np.random.default_rng(seed)
    w = np.zeros((b.N, b.N))
    two_pi = 2.0 * np.pi / b.L
    # Fixed (kx, ky) iteration order; half-plane to avoid duplicate modes.
    for kx in range(0, mode_cutoff + 1):
        ky_lo = 1 if kx == 0 else -mode_cutoff
        for ky in range(ky_lo, mode_cutoff + 1):
            if kx == 0 and ky <= 0:
                continue
            a_k, b_k = rng.standard_normal(2)
            decay = 1.0 / (1.0 + kx * kx + ky * ky)
            phase = two_pi * (kx * x + ky * y)
            w = w + decay * (a_k * np.cos(phase) + b_k * np.sin(phase))
    return _normalized(m_T, np.exp(amplitude * w))


def change_variables(v: ScalarField) -> tuple[ScalarField, ScalarField]:
    """Return (u, f) with u = sqrt(v) and f = -ln v, so e^{-f} = v."""
    if np.min(v.values) <= 0.0:
        raise PositivityLoss("density must be positive for the change of variables")
    u = ScalarField(v.backend, np.sqrt(v.values))
    f = ScalarField(v.backend, -np.log(v.values))
    return u, f


# --------------------------------------------------------------------------
# Backward solve
# --------------------------------------------------------------------------

def _heat_rhs(m: MetricState, v: np.ndarray) -> np.ndarray:
    """dv/dtau = Lap_g v - R v at the metric m, on raw arrays."""
    lap = laplace_beltrami(m, ScalarField(m.backend, v)).values
    return lap - scalar_curvature(m).values * v


def solve_backward(
    traj: Trajectory,
    v_T: ScalarField,
    *,
    step: float | None = None,
    mass_tol: float = 1e-6,
) -> DensityHistory:
    """Solve the density equation backward in t from a terminal datum.

    ``step`` is the solver step (in t), defaulting to twice the trajectory
    spacing; it must be an even integer multiple of it so RK4 stage times
    land exactly on stored snapshots.  Returns the history indexed by
    increasing t at the solver step spacing.  Raises PositivityLoss when
    min v <= 1e-10 (too-large step) and MassDrift when the measured mass
    leaves [1 - mass_tol, 1 + mass_tol]; the history is checked but never
    renormalized.
    """
    if v_T.backend != traj.backend:
        raise ValueError("terminal datum and trajectory live on different backends")
    step = 2.0 * traj.dt if step is None else float(step)
    stride = int(round(step / traj.dt))
    if stride < 2 or stride % 2 != 0 or abs(stride * traj.dt - step) > 1e-9 * step:
        raise ValueError(
            f"solver step {step:g} must be an even integer multiple of the "
            f"trajectory spacing {traj.dt:g}"
        )
    K = traj.num_steps
    if K % stride != 0:
        raise ValueError("trajectory length is not divisible by the solver step")
    M = K // stride
    half = stride // 2

    out = np.empty((M + 1,) + v_T.values.shape)
    masses = np.empty(M + 1)
    m1 = traj.final_state()
    out[M] = v_T.values
    masses[M] = integrate(m1, v_T)
    _check_density(out[M], masses[M], mass_tol, m1.t)

    v = v_T.values
    for j in range(M, 0, -1):
        # tau-step from the later snapshot m1 through the midpoint mm to m0.
        i1 = j * stride
        mm, m0 = traj.state(i1 - half), traj.state(i1 - stride)
        k1 = _heat_rhs(m1, v)
        k2 = _heat_rhs(mm, v + 0.5 * step * k1)
        k3 = _heat_rhs(mm, v + 0.5 * step * k2)
        k4 = _heat_rhs(m0, v + step * k3)
        v = v + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[j - 1] = v
        masses[j - 1] = integrate(m0, scalar_field(m0, v))
        _check_density(v, masses[j - 1], mass_tol, m0.t)
        m1 = m0

    times = traj.times[:: stride].copy()
    return DensityHistory(traj.backend, times, out, masses)


def _check_density(v, mass, mass_tol, t):
    if not np.all(np.isfinite(v)) or np.min(v) <= POSITIVITY_FLOOR:
        raise PositivityLoss(f"density positivity lost at t={t:g}")
    if abs(mass - 1.0) > mass_tol:
        raise MassDrift(f"mass drift {mass - 1.0:+.3e} at t={t:g} exceeds {mass_tol:g}")
