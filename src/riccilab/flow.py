"""Forward integration of the curvature flow dg/dt = -2 Ric.

Classical fixed-step RK4 in backend parameters on a uniform time grid.
Fixed steps keep every trajectory on a uniform grid so the backward density
solve and finite-difference time derivatives stay aligned.  Completed
trajectories are immutable.

The loop steps on raw parameter arrays with the backend's velocity: each
state is checked once, and its smallest metric scale serves both the floor
check and the stability bound of the step that leaves it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowUp, StepTooLarge
from .geometry import ConformalTorus2D, MetricState

__all__ = ["Trajectory", "stability_dt", "integrate_forward"]

PARAM_FLOOR = 1e-6


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-ordered metric states on a uniform grid t0 ... tK.

    ``params[k]`` holds the backend parameters at ``times[k]``.
    ``max_step_ratio`` is the largest dt / stability_dt over the steps taken
    (None when the trajectory was not integrated here).
    """

    backend: object
    times: np.ndarray
    params: np.ndarray
    dt: float
    max_step_ratio: float | None = None

    @property
    def num_steps(self) -> int:
        return len(self.times) - 1

    def state(self, k: int) -> MetricState:
        return MetricState(self.backend, float(self.times[k]), self.params[k])

    def final_state(self) -> MetricState:
        return self.state(self.num_steps)


def stability_dt(m: MetricState, safety: float = 1.0) -> float:
    """Largest safe explicit step at a state.

    Torus: safety * h^2 * min(e^{2 phi}) / 8, the parabolic bound for
    e^{-2 phi} Lap0 with the 5-point stencil.  Homogeneous backends:
    safety * min(scale parameter) / 8.
    """
    if not (0.0 < safety <= 1.0):
        raise ValueError(f"safety must lie in (0, 1], got {safety}")
    b = m.backend
    return float(b.stability_dt(b.min_scale(m.params), safety))


def _check_params(backend, p):
    """Raise BlowUp for a non-finite or floored state; return its smallest
    metric scale (``backend.min_scale``)."""
    if not np.isfinite(p).all():
        raise BlowUp("metric parameters became non-finite")
    scale = backend.min_scale(p)
    if scale < PARAM_FLOOR:
        what = ("conformal factor" if isinstance(backend, ConformalTorus2D)
                else "metric scale parameter")
        raise BlowUp(f"{what} fell below floor")
    return scale


def _rk4_step(velocity, p, dt):
    k1 = velocity(p)
    k2 = velocity(p + 0.5 * dt * k1)
    k3 = velocity(p + 0.5 * dt * k2)
    k4 = velocity(p + dt * k3)
    return p + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_forward(m0: MetricState, T: float, dt: float) -> Trajectory:
    """Integrate the flow from m0 over [t0, t0 + T] with fixed step dt.

    Raises StepTooLarge if dt exceeds the stability bound at any state and
    BlowUp if a parameter floors out or becomes non-finite.  T is required
    to be an integer multiple of dt (to grid round-off).
    """
    if not (T > 0):
        raise ValueError(f"horizon must be positive, got {T}")
    if not (dt > 0):
        raise ValueError(f"step must be positive, got {dt}")
    K = int(round(T / dt))
    if K < 1 or abs(K * dt - T) > 1e-9 * max(T, dt):
        raise ValueError(f"horizon {T} is not an integer multiple of dt {dt}")

    backend = m0.backend
    times = m0.t + dt * np.arange(K + 1)
    out = np.empty((K + 1,) + m0.params.shape)
    p = m0.params.copy()
    out[0] = p
    scale = _check_params(backend, p)
    ratio = 0.0
    for k in range(K):
        bound = backend.stability_dt(scale)
        if dt > bound * (1 + 1e-12):
            raise StepTooLarge(
                f"dt={dt:g} exceeds the stability bound at t={times[k]:g}"
            )
        ratio = max(ratio, dt / bound)
        p = _rk4_step(backend.velocity, p, dt)
        scale = _check_params(backend, p)
        out[k + 1] = p
    return Trajectory(backend, times, out, dt, float(ratio))

