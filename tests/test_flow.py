"""Forward-flow integrator tests: closed forms, stability guard, sampling,
and a convergence check against an independent explicit-Euler oracle."""

import math

import numpy as np
import pytest

import riccilab as rl
from riccilab.geometry import _flow_rhs_params

TWO_PI = 2.0 * math.pi


def sphere_state(c=1.0, n=2):
    return rl.MetricState(rl.RoundSphere(n), 0.0, np.array([c]))


def torus_state(amplitude=0.1, N=32, L=TWO_PI):
    backend = rl.ConformalTorus2D(N, L)
    x, y = rl.grid_coords(backend)
    return rl.MetricState(backend, 0.0, amplitude * np.sin(x) + 0.0 * y)


def euler_integrate(m0, T, dt):
    """Independent first-order oracle for the flow."""
    steps = int(round(T / dt))
    p = m0.params.copy()
    for _ in range(steps):
        p = p + dt * _flow_rhs_params(m0.backend, p)
    return p


# -------------------------------------------------------------------------
# Closed forms and fixed points
# -------------------------------------------------------------------------

def test_sphere_linear_decay_exact():
    traj = rl.integrate_forward(sphere_state(), 0.4, 1e-3)
    exact = 1.0 - 2.0 * traj.times
    assert np.max(np.abs(traj.params[:, 0] - exact)) < 1e-12


def test_flat_torus_is_fixed_point():
    m0 = torus_state(amplitude=0.0)
    traj = rl.integrate_forward(m0, 0.01, 5e-4)
    assert np.all(traj.params == 0.0)


def test_torus_flow_flattens():
    m0 = torus_state(amplitude=0.1)
    traj = rl.integrate_forward(m0, 0.05, 5e-4)
    amp = np.max(np.abs(traj.params), axis=(1, 2))
    assert np.all(np.diff(amp) < 0)
    assert amp[-1] < amp[0]


def test_torus_flow_matches_euler_oracle():
    # RK4 at dt must agree with explicit Euler at dt/100 to within the
    # Euler error, itself bracketed by the Euler dt/100 vs dt/200 gap.
    m0 = torus_state(amplitude=0.1, N=16)
    T, dt = 0.02, 1e-3
    rk = rl.integrate_forward(m0, T, dt).params[-1]
    e1 = euler_integrate(m0, T, dt / 100)
    e2 = euler_integrate(m0, T, dt / 200)
    euler_err = np.max(np.abs(e1 - e2))  # ~ half the dt/100 Euler error
    assert np.max(np.abs(rk - e1)) < 3 * euler_err + 1e-14


def test_rk4_order_against_fine_reference():
    # Halving dt must shrink the terminal error by >= 12 (order >= 3.6).
    m0 = torus_state(amplitude=0.1, N=16)
    T = 0.02
    ref = rl.integrate_forward(m0, T, 1e-4).params[-1]
    e1 = np.max(np.abs(rl.integrate_forward(m0, T, 2e-3).params[-1] - ref))
    e2 = np.max(np.abs(rl.integrate_forward(m0, T, 1e-3).params[-1] - ref))
    assert e1 / e2 >= 12.0


def test_sphere_volume_identity():
    traj = rl.integrate_forward(sphere_state(), 0.2, 1e-3)
    vols = np.array([rl.volume(traj.state(k)) for k in range(traj.num_steps + 1)])
    exact = 4 * math.pi * (1.0 - 2.0 * traj.times)
    assert np.max(np.abs(vols - exact)) < 1e-10


# -------------------------------------------------------------------------
# Stability bound
# -------------------------------------------------------------------------

def test_stability_dt_values():
    m = torus_state(amplitude=0.0, N=64)
    assert rl.stability_dt(m, 1.0) == pytest.approx((TWO_PI / 64) ** 2 / 8, rel=1e-14)
    assert rl.stability_dt(sphere_state(1.0), 1.0) == pytest.approx(0.125, abs=0)
    assert rl.stability_dt(m, 0.5) == pytest.approx(0.5 * rl.stability_dt(m, 1.0),
                                                    rel=1e-15)
    with pytest.raises(ValueError):
        rl.stability_dt(m, 0.0)


def test_step_too_large_rejected():
    m0 = torus_state(amplitude=0.1, N=32)
    bound = rl.stability_dt(m0, 1.0)
    with pytest.raises(rl.StepTooLarge):
        rl.integrate_forward(m0, 40 * bound, 10 * bound)


def test_blowup_on_floor_crossing():
    # Approaching extinction with a fixed step normally trips the stability
    # guard first (the bound shrinks with c); starting just above the floor
    # with a step inside the bound exercises the floor check itself.
    m0 = sphere_state(1.2e-6)
    with pytest.raises(rl.BlowUp):
        rl.integrate_forward(m0, 1.4e-6, 1.4e-7)


def test_step_guard_near_extinction():
    # c(t) = 1 - 2t shrinks the stability bound below dt before t = 0.6.
    with pytest.raises(rl.StepTooLarge):
        rl.integrate_forward(sphere_state(), 0.6, 1e-3)


def test_horizon_must_divide_step():
    with pytest.raises(ValueError):
        rl.integrate_forward(sphere_state(), 0.0105, 1e-3)


def test_trajectory_uniform_times():
    traj = rl.integrate_forward(sphere_state(), 0.05, 1e-3)
    diffs = np.diff(traj.times)
    assert np.max(np.abs(diffs - 1e-3)) < 1e-15
    assert traj.state(3).t == float(traj.times[3])
