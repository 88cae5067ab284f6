"""Forward integration of the curvature flow dg/dt = -2 Ric.

Classical fixed-step RK4 in backend parameters on a uniform time grid.
Fixed steps keep every trajectory on a uniform grid so the backward density
solve and finite-difference time derivatives stay aligned.  Completed
trajectories are immutable.

The stored states come from one call, ``backend.states``, on the state in
the backend's component form (``geometry``'s ``components``); the tests pin
each backend's states to the array form bitwise, overflow and division by
zero at any stage included:

* the round sphere's rate does not depend on c, so its states are one
  ``np.add.accumulate`` of c0 and K equal increments;
* the Berger sphere runs a straight-line RK4 loop on Python floats, on
  (A, B) only when B = C (C's states are then B's bit for bit), and a
  division by zero ends it early, with fewer states;
* the torus runs a loop of ``geometry.rk4_step`` on phi.

The states are only stepped and stored; they are then checked in one
vectorised pass.  Each state's smallest metric scale (``min_scale``
over the leading state axis, nan where the state is not finite) serves both
its floor check and the stability bound of the step that leaves it.  The
error raised is the first failing event in step order: state k's
finiteness, then its floor, then step k's bound, then step k's division by
zero (the float form's ``ZeroDivisionError``, which ends the stepping).
Stepping and checking run with numpy's floating-point warnings off: a
step that overflows shows as a non-finite state, which the check reports,
and the steps taken past the failing event change nothing a run returns,
print nothing and cost at most what the steps of a passing run cost.

A y-invariant torus phi is stepped as one column (``geometry``'s
one-column metrics).  The trajectory stores what was stepped and exposes
``params`` as a read-only ``np.broadcast_to`` view of the full shape
(K+1,) + param_shape.

``stability_dt`` is the bound itself, with no safety factor: the step loop
checks against it, and a run's ``flow.dt = auto`` scales it by
``flow.safety``.  ``step_limit`` is the one rule a step is checked by, here
on every state and by ``harness.check_config`` on g(0).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import BlowUp, StepTooLarge
from .geometry import MetricStack, MetricState

__all__ = ["Trajectory", "stability_dt", "integrate_forward"]

PARAM_FLOOR = 1e-6


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-ordered metric states on a uniform grid t0 ... tK.

    ``params[k]`` holds the backend parameters at ``times[k]``; from
    ``integrate_forward`` it is a read-only view broadcast from the stepped
    storage (see the module docstring).
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

    @functools.cached_property
    def stack(self) -> MetricStack:
        """The metric stack of every state, built once.  The heat solve and
        the row evaluation take its slices (``MetricStack.__getitem__``),
        so a Berger trajectory's Ricci values are built once."""
        return self.backend.stack(self.params)


def stability_dt(m: MetricState) -> float:
    """Largest safe explicit step at a state.

    Torus: h^2 * min(e^{2 phi}) / 8, the parabolic bound for e^{-2 phi} Lap0
    with the 5-point stencil.  Homogeneous backends: min(scale parameter) / 8.
    The bound is the stepping loop's, from ``min_scale`` on a stack of one
    state.  A run's ``flow.dt = auto`` scales it by ``flow.safety``.
    """
    b = m.backend
    return float(b.stability_dt(b.min_scale(m.params[np.newaxis]))[0])


def step_limit(bound):
    """The largest step that passes a state's ``stability_dt`` of ``bound``:
    the bound widened by a relative 1e-12 for round-off."""
    return bound * (1 + 1e-12)


def integrate_forward(m0: MetricState, T: float, dt: float) -> Trajectory:
    """Integrate the flow from m0 over [t0, t0 + T] with fixed step dt.

    Steps first, then checks every stored state (see the module docstring).
    Raises StepTooLarge if dt exceeds the stability bound at any state and
    BlowUp if a parameter floors out or becomes non-finite, the first of
    these in step order.  T is required to be an integer multiple of dt (to
    grid round-off).
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
    with np.errstate(all="ignore"):
        # One row per state, one entry per component; the torus's single
        # (N, Ny) entry drops its unit axis in the reshape below.
        out = backend.states(backend.components(m0.params), dt, K)
        last = len(out) - 1
        scale = backend.min_scale(out)
        bound = backend.stability_dt(scale[:K])
    # One row per stored state k, one column per event in step order: state
    # k non-finite or floored, step k over its bound, step k dividing by zero.
    fails = np.zeros((last + 1, 3), bool)
    fails[:, 0] = ~(scale >= PARAM_FLOOR)
    fails[:len(bound), 1] = dt > step_limit(bound)
    fails[last, 2] = last < K
    if fails.any():
        k, event = divmod(int(fails.argmax()), 3)
        if event == 1:
            raise StepTooLarge(
                f"dt={dt:g} exceeds the stability bound at t={times[k]:g}"
            )
        if event == 0 and not np.isnan(scale[k]):
            raise BlowUp(f"{backend.scale_name} fell below floor")
        raise BlowUp("metric parameters became non-finite")
    shape = (K + 1,) + m0.params.shape
    params = np.broadcast_to(out.reshape(shape[:-1] + (-1,)), shape)
    return Trajectory(backend, times, params, dt, float(np.max(dt / bound)))
