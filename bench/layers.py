"""Layer microbenchmarks on the conformal torus at N = 32, 64, 128 and 256.

Each operation is timed through riccilab's public functions on the
workloads' initial metric (phi = 0.1 sin x) and their random smooth datum,
and reported as the median of several calls.  Alongside the timings,
``functionals.lambda0.eig_residual.N<n>`` is the relative L2(g) norm of
-LB x + (R/4) x - lambda x for the pair lambda0_eig returns, so a solver swap
can show that it reached the same accuracy.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

from riccilab import flow, functionals, geometry, heat, variation

SIZES = (32, 64, 128, 256)
FLOW_STEPS = 16
RATE_A = 0.1


def _median_ms(fn, reps: int, per_call: int = 1) -> float:
    samples = []
    for _ in range(reps):
        start = perf_counter()
        fn()
        samples.append((perf_counter() - start) / per_call)
    return 1e3 * statistics.median(samples)


def _initial_state(N: int):
    backend = geometry.ConformalTorus2D(N, 2.0 * math.pi)
    x, y = geometry.grid_coords(backend)
    return geometry.MetricState(backend, 0.0, 0.1 * np.sin(x) + 0.0 * y)


def eig_residual(m) -> float:
    """||-LB x + (R/4) x - lambda x||_g / ||x||_g for lambda0_eig's pair."""
    lam, x = functionals.lambda0_eig(m)
    r = (-geometry.laplace_beltrami(m, x).values
         + 0.25 * geometry.scalar_curvature(m).values * x.values
         - lam * x.values)

    def norm_sq(w):
        return geometry.integrate(m, geometry.scalar_field(m, w * w))

    return math.sqrt(norm_sq(r) / norm_sq(x.values))


def measure(seed: int) -> dict[str, float]:
    out = {}
    for N in SIZES:
        reps = {32: 9, 64: 7, 128: 5, 256: 3}[N]
        m0 = _initial_state(N)
        dt = 0.5 * flow.stability_dt(m0)
        T = FLOW_STEPS * dt
        out[f"flow.step_ms.N{N}"] = _median_ms(
            lambda: flow.integrate_forward(m0, T, dt), reps, FLOW_STEPS)

        traj = flow.integrate_forward(m0, T, dt)
        v_T = heat.terminal_datum("random_smooth", traj.final_state(),
                                  amplitude=0.02, seed=seed, mode_cutoff=2)
        out[f"heat.step_ms.N{N}"] = _median_ms(
            lambda: heat.solve_backward(traj, v_T, step=2.0 * dt), reps,
            FLOW_STEPS // 2)

        u, _ = heat.change_variables(v_T)
        m_T = traj.final_state()
        out[f"variation.rate_ms.N{N}"] = _median_ms(
            lambda: variation.rhs_split(m_T, u, RATE_A), reps)
        out[f"geometry.hessian_ms.N{N}"] = _median_ms(
            lambda: geometry.hessian(m_T, u), reps * 4)
        out[f"functionals.lambda0.ms.N{N}"] = _median_ms(
            lambda: functionals.lambda0(m0), reps)
        out[f"functionals.lambda0.eig_residual.N{N}"] = eig_residual(m0)
    return out
