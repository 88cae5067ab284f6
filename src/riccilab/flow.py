"""Forward integration of the curvature flow dg/dt = -2 Ric.

Classical fixed-step RK4 in backend parameters on a uniform time grid.
Fixed steps keep every trajectory on a uniform grid so the backward density
solve and finite-difference time derivatives stay aligned.  Completed
trajectories are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowUp, StepTooLarge
from .geometry import (
    ConformalTorus2D,
    MetricState,
    _flow_rhs_params,
)

__all__ = ["Trajectory", "stability_dt", "integrate_forward"]

PARAM_FLOOR = 1e-6


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-ordered metric states on a uniform grid t0 ... tK.

    ``params[k]`` holds the backend parameters at ``times[k]``.
    """

    backend: object
    times: np.ndarray
    params: np.ndarray
    dt: float

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
    if isinstance(b, ConformalTorus2D):
        return safety * b.h**2 * float(np.exp(2.0 * np.min(m.params))) / 8.0
    return safety * float(np.min(m.params)) / 8.0


def _check_params(backend, p) -> None:
    if not np.all(np.isfinite(p)):
        raise BlowUp("metric parameters became non-finite")
    if isinstance(backend, ConformalTorus2D):
        if float(np.exp(2.0 * np.min(p))) < PARAM_FLOOR:
            raise BlowUp("conformal factor fell below floor")
    elif float(np.min(p)) < PARAM_FLOOR:
        raise BlowUp("metric scale parameter fell below floor")


def _rk4_step(backend, p, dt):
    k1 = _flow_rhs_params(backend, p)
    k2 = _flow_rhs_params(backend, p + 0.5 * dt * k1)
    k3 = _flow_rhs_params(backend, p + 0.5 * dt * k2)
    k4 = _flow_rhs_params(backend, p + dt * k3)
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
    for k in range(K):
        _check_params(backend, p)
        if dt > stability_dt(MetricState(backend, float(times[k]), p)) * (1 + 1e-12):
            raise StepTooLarge(
                f"dt={dt:g} exceeds the stability bound at t={times[k]:g}"
            )
        p = _rk4_step(backend, p, dt)
        _check_params(backend, p)
        out[k + 1] = p
    return Trajectory(backend, times, out, dt)

