"""Forward-flow integrator tests: closed forms, stability guard, sampling,
a convergence check against an independent explicit-Euler oracle, the
component-form loop against the same flow stepped on numpy arrays, and the
one-column storage of y-invariant torus metrics against the full grid."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import riccilab as rl
from cross_checks import (berger_sphere_per_step, integrate_forward_arrays,
                          round_sphere_per_step, velocity)
from riccilab.flow import PARAM_FLOOR, step_limit

TWO_PI = 2.0 * math.pi


def sphere_state(c=1.0, n=2):
    return rl.MetricState(rl.RoundSphere(n), 0.0, np.array([c]))


def berger_state(A, B, C):
    return rl.MetricState(rl.BergerSphere(), 0.0, np.array([A, B, C]))


def torus_state(amplitude=0.1, N=32, L=TWO_PI):
    backend = rl.ConformalTorus2D(N, L)
    x, y = rl.grid_coords(backend)
    return rl.MetricState(backend, 0.0, amplitude * np.sin(x) + 0.0 * y)


def euler_integrate(m0, T, dt):
    """Independent first-order oracle for the flow."""
    steps = int(round(T / dt))
    p = m0.params.copy()
    for _ in range(steps):
        p = p + dt * velocity(m0.backend, p)
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
    assert rl.stability_dt(m) == pytest.approx((TWO_PI / 64) ** 2 / 8, rel=1e-14)
    assert rl.stability_dt(sphere_state(1.0)) == pytest.approx(0.125, abs=0)


def test_auto_dt_bits_are_pinned():
    # The stability bound comes from the same smallest-scale pass as the
    # stepping loop's checks; these bits were recorded from the per-state
    # form it replaced, for stability_dt and for flow.dt = auto.
    from riccilab.harness import make_config, validate_config

    states = [
        rl.MetricState(rl.RoundSphere(3), 0.0, np.array([0.7])),
        berger_state(1.2, 0.9, 0.7),
        torus_state(amplitude=0.1, N=32),  # stepped as its (32, 1) column
        low_mode_state(16, 5.0, 0.3, 7),  # stepped on the full grid
    ]
    assert [rl.stability_dt(m).hex() for m in states] == [
        "0x1.6666666666666p-4", "0x1.6666666666666p-4",
        "0x1.0293dabfe73bbp-8", "0x1.fa543128b88e2p-8"]
    auto = {"flow.dt": "auto", "flow.safety": "0.15", "entropy.a": "1"}
    configs = [
        {"backend.kind": "round_sphere", "backend.n": "3", "backend.c0": "0.7",
         "flow.T": "0.4"},
        {"backend.kind": "berger_sphere", "backend.A0": "1.2",
         "backend.B0": "0.9", "backend.C0": "0.7", "flow.T": "1"},
        {"backend.kind": "conformal_torus", "backend.N": "32",
         "backend.phi_amplitude": "0.1", "flow.T": "0.02",
         "flow.safety": "0.5"},
    ]
    resolved = [validate_config(make_config({**auto, **raw})) for raw in configs]
    assert [(v.dt.hex(), v.num_rows) for v in resolved] == [
        ("0x1.9999999999999p-7", 8), ("0x1.9999999999999p-7", 8),
        ("0x1.dca01dca01dcap-10", 12)]


def test_step_too_large_rejected():
    # The flow steps past the failure at state 0 (four steps at ten times
    # the bound) before it checks; no numpy warning escapes (warnings fail
    # the suite).
    m0 = torus_state(amplitude=0.1, N=32)
    bound = rl.stability_dt(m0)
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


# -------------------------------------------------------------------------
# The component-form loop against the array reference
# -------------------------------------------------------------------------

def outcome(fn, *args):
    """fn's result, or the class and message of the numerical error it raised."""
    try:
        return fn(*args)
    except rl.NumericalError as exc:
        return type(exc), str(exc)


def flow_outcome(m0, T, dt):
    """integrate_forward's (params, max_step_ratio) as bytes, or its error."""
    got = outcome(rl.integrate_forward, m0, T, dt)
    if isinstance(got, rl.Trajectory):
        return got.params.tobytes(), got.max_step_ratio.hex()
    return got


def reference_outcome(m0, T, dt):
    """The same from the array reference, numpy's warnings silenced (it
    overflows where the floats do)."""
    with np.errstate(all="ignore"):
        ref = outcome(integrate_forward_arrays, m0, T, dt)
    if isinstance(ref[0], np.ndarray):
        return ref[0].tobytes(), float(ref[1]).hex()
    return ref


def low_mode_state(N, L, amplitude, seed):
    """A torus state whose phi is a random trigonometric polynomial in modes
    0..2 with max |phi| = amplitude."""
    backend = rl.ConformalTorus2D(N, L)
    x, y = rl.grid_coords(backend)
    rng = np.random.default_rng(seed)
    w = np.zeros((N, N))
    for kx in range(3):
        for ky in range(3):
            c, theta = rng.uniform(-1.0, 1.0), rng.uniform(0.0, TWO_PI)
            w = w + c * np.cos(TWO_PI * (kx * x + ky * y) / L + theta)
    return rl.MetricState(backend, 0.0, w * (amplitude / np.max(np.abs(w))))


# Berger parameters log-uniform over 1e-3 ... 1e150, so that squares and
# products overflow at any RK4 stage; round spheres up to n = 400, whose
# large rate -2(n-1) can drive c below the floor within one step.
LOG_UNIFORM = st.floats(-3.0, 150.0).map(lambda s: 10.0**s)


def drawn(column):
    """Mark a drawn state with whether the flow steps it as its column, and
    no step of its own."""
    return lambda m0: (m0, column, None)


# Each draw is (state, whether the flow steps it as its (N, 1) column, its
# step as a fraction of its stability bound or None to draw one).  The
# Berger draws with B0 = C0 take the flow's two-axis loop.  At half its
# bound, dt = 1/128, the Berger state (1, 1/8, 1/8) divides by zero: the
# second stage of its first step lands exactly on A = 0.  The y-invariant
# torus draws (N = 8 ... 32) take amplitudes up to 1, or from 7 to 12, where
# e^{2 min phi} starts below the floor when min phi is below about -6.9.
FLOW_STATES = st.one_of(
    st.builds(lambda n, c0: rl.MetricState(rl.RoundSphere(n), 0.0, np.array([c0])),
              st.integers(2, 400), st.floats(0.3, 3.0)).map(drawn(False)),
    st.builds(lambda p: rl.MetricState(rl.BergerSphere(), 0.0, np.array(p)),
              st.tuples(*[LOG_UNIFORM] * 3)).map(drawn(False)),
    st.builds(lambda a, b: berger_state(a, b, b), LOG_UNIFORM,
              LOG_UNIFORM).map(drawn(False)),
    st.just((berger_state(1.0, 0.125, 0.125), False, 0.5)),
    st.builds(low_mode_state, st.sampled_from([8, 12, 16]),
              st.floats(1.0, 4.0 * math.pi), st.floats(0.0, 0.3),
              st.integers(0, 2**32 - 1)).map(drawn(False)),
    st.builds(lambda N, amplitude, seed: x_profile_state(2 * N, amplitude, seed),
              st.integers(4, 16), st.floats(0.0, 1.0) | st.floats(7.0, 12.0),
              st.integers(0, 2**32 - 1)).map(drawn(True)),
)


def check_flows_against_reference(max_examples, steps):
    """Run the bitwise comparison over FLOW_STATES and return how the
    column draws ended: a Counter of "ok" and the error messages."""
    from collections import Counter

    column_ends = Counter()

    @settings(max_examples=max_examples, deadline=None, derandomize=True,
              database=None)
    @given(draw=FLOW_STATES, frac=st.floats(0.01, 0.5), steps=steps)
    def check(draw, frac, steps):
        # Parameters and max_step_ratio bitwise equal to the array form, or
        # the same error class and message where the array form fails.
        m0, column, pinned = draw
        dt = (frac if pinned is None else pinned) * rl.stability_dt(m0)
        got = flow_outcome(m0, steps * dt, dt)
        assert got == reference_outcome(m0, steps * dt, dt)
        if column:
            (phi,) = m0.backend.components(m0.params)
            assert phi.shape == (m0.backend.N, 1)
            if isinstance(got[0], bytes):
                traj = rl.integrate_forward(m0, steps * dt, dt)
                assert traj.params.strides[-1] == 0
                column_ends["ok"] += 1
            else:
                column_ends[got[1]] += 1

    check()
    return column_ends


FLOOR = "conformal factor fell below floor"


def test_flow_matches_array_reference_bitwise():
    # Up to 12 steps from every kind of state, the y-invariant torus on its
    # (N, 1) column; some of those draws end in a floor.
    ends = check_flows_against_reference(150, st.integers(1, 12))
    assert ends["ok"] > 0 and ends[FLOOR] > 0, ends


def test_long_flow_matches_array_reference_bitwise():
    # The same over hundreds of steps, so that failures deep in a
    # trajectory (a shrinking bound, a late overflow) are drawn too.
    ends = check_flows_against_reference(60, st.integers(100, 400))
    assert ends["ok"] > 0 and ends[FLOOR] > 0, ends


def test_a_state_exactly_at_the_floor_passes(monkeypatch):
    # The floor test is scale >= PARAM_FLOOR.  The flat torus is a fixed
    # point of the flow, and its conformal factor e^0 is exactly 1: with the
    # floor at 1, every state sits exactly on it and the run passes.
    from riccilab import flow

    monkeypatch.setattr(flow, "PARAM_FLOOR", 1.0)
    m0 = rl.MetricState(rl.ConformalTorus2D(8, 1.0), 0.0, np.zeros((8, 8)))
    traj = rl.integrate_forward(m0, 1e-3, 1e-4)
    assert traj.num_steps == 10 and np.all(traj.params == 0.0)


@pytest.mark.parametrize("m0,T,dt,error,message", [
    # near extinction the bound c/8 falls below dt (message names t)
    (sphere_state(), 0.6, 1e-3, rl.StepTooLarge,
     "dt=0.001 exceeds the stability bound at t=0.497"),
    (berger_state(0.5, 0.5, 0.5), 0.2, 2e-3, rl.StepTooLarge,
     "dt=0.002 exceeds the stability bound at t=0.122"),
    # floors: A = B = C shrinks linearly, as the round sphere does
    (sphere_state(1.2e-6), 1.4e-6, 1.4e-7, rl.BlowUp,
     "metric scale parameter fell below floor"),
    (berger_state(1.2e-6, 1.2e-6, 1.2e-6), 1.4e-6, 1.4e-7, rl.BlowUp,
     "metric scale parameter fell below floor"),
    (rl.MetricState(rl.ConformalTorus2D(8, 1.0), 0.0, np.full((8, 8), -7.0)),
     1e-9, 1e-9, rl.BlowUp, "conformal factor fell below floor"),
    # overflow: A^2 and (C - A)^2 of the first stage exceed the double range
    (berger_state(1e140, 1.0, 1.0), 1e-3, 1e-3, rl.BlowUp,
     "metric parameters became non-finite"),
    # the second stage lands exactly on A = 0, so ABC = 0: the floats divide
    # by zero where the arrays give inf and nan
    (berger_state(1.0, 0.125, 0.125), 1 / 128, 1 / 128, rl.BlowUp,
     "metric parameters became non-finite"),
    # k1 is finite and the squares at the second stage's point overflow (see
    # test_first_overflow_at_the_second_stage)
    (berger_state(1e78, 1.0, 1.0), 1 / 16, 1 / 16, rl.BlowUp,
     "metric parameters became non-finite"),
    # The flow checks its stored states after stepping; these cases fix the
    # order of the events found in one state.  A = B = C shrinks as 1 - 4t:
    # state 3 (A = 1/4) has the bound 1/32 < dt, and step 3 would divide by
    # zero (its last stage lands on A = 0); the bound comes first.
    (berger_state(1.0, 1.0, 1.0), 1 / 4, 1 / 16, rl.StepTooLarge,
     "dt=0.0625 exceeds the stability bound at t=0.1875"),
    # c = 1.45e-6 - 2t passes states 0-2 and floors on the last state, 3
    (sphere_state(1.45e-6), 3e-7, 1e-7, rl.BlowUp,
     "metric scale parameter fell below floor"),
    # state 2 (c = 8.6e-7) is below the floor and its bound c/8 < dt: the
    # floor comes first
    (sphere_state(1.34e-6), 4.8e-7, 1.2e-7, rl.BlowUp,
     "metric scale parameter fell below floor"),
    # state 0 (phi about -8) is below the floor, and the steps taken after
    # it overflow e^{-2 phi}: numpy's warnings are off while stepping
    (rl.MetricState(rl.ConformalTorus2D(8, 1.0), 0.0,
                    low_mode_state(8, 1.0, 0.3, 0).params - 8.0),
     8e-3, 1e-3, rl.BlowUp, "conformal factor fell below floor"),
], ids=["sphere-step", "berger-step", "sphere-floor", "berger-floor",
        "torus-floor", "berger-overflow", "berger-zero-stage",
        "berger-overflow-stage-2", "bound-before-zero-division",
        "floor-on-last-state", "floor-before-bound",
        "torus-floor-then-overflow"])
def test_flow_errors_match_array_reference(m0, T, dt, error, message):
    assert flow_outcome(m0, T, dt) == (error, message)
    assert reference_outcome(m0, T, dt) == (error, message)


def per_step_round_outcome(c0, n, dt, K):
    """``integrate_forward``'s outcome over K steps from the per-step float
    loop's states: the first failing event in step order (state k below the
    floor, then step k over its bound c_k / 8), else the states as bytes."""
    states = round_sphere_per_step(c0, n, dt, K)
    for k, c in enumerate(states):
        if not c >= PARAM_FLOOR:
            return rl.BlowUp, "metric scale parameter fell below floor"
        if k < K and dt > step_limit(c / 8.0):
            return (rl.StepTooLarge,
                    f"dt={dt:g} exceeds the stability bound at t={k * dt:g}")
    return np.array(states).tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 400), c0=st.floats(1e-6, 3.0),
       frac=st.floats(0.01, 1.0), steps=st.integers(1, 40))
@example(n=2, c0=1.45e-6, frac=0.55172413793103448, steps=4)
def test_round_flow_states_are_the_per_step_loop_bitwise(n, c0, frac, steps):
    # The round sphere's states are one add.accumulate of the step's
    # increment: every horizon of 1 ... steps steps gives the per-step float
    # loop's states bitwise, and fails where the loop's states first fail;
    # a run whose state k first crosses the floor raises BlowUp from k steps
    # on and passes with k - 1.
    m0 = sphere_state(c0, n)
    dt = frac * rl.stability_dt(m0)
    for K in range(1, steps + 1):
        got = outcome(rl.integrate_forward, m0, K * dt, dt)
        if isinstance(got, rl.Trajectory):
            assert got.times.tobytes() == (dt * np.arange(K + 1)).tobytes()
            got = got.params.tobytes()
        assert got == per_step_round_outcome(c0, n, dt, K)


def test_round_flow_floor_crossing_is_at_the_loops_step():
    # c = 1.45e-6 - 2t at dt = 1e-7: the loop's state 3 is the first below
    # the floor, so 2 steps pass with the loop's bits and 3 raise BlowUp.
    c0, dt = 1.45e-6, 1e-7
    states = round_sphere_per_step(c0, 2, dt, 3)
    assert min(states[:3]) >= PARAM_FLOOR > states[3]
    traj = rl.integrate_forward(sphere_state(c0), 2 * dt, dt)
    assert traj.params.tobytes() == np.array(states[:3]).tobytes()
    with pytest.raises(rl.BlowUp, match="^metric scale parameter fell below floor$"):
        rl.integrate_forward(sphere_state(c0), 3 * dt, dt)


BERGER_TRIPLES = st.tuples(*[LOG_UNIFORM] * 3) | st.builds(
    lambda a, b: (a, b, b), LOG_UNIFORM, LOG_UNIFORM)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(p=BERGER_TRIPLES, frac=st.floats(0.01, 1.0), steps=st.integers(1, 40))
@example(p=(1.0, 0.125, 0.125), frac=0.5, steps=3)
@example(p=(1.0, 8.0, 1.0), frac=0.5, steps=3)
def test_berger_states_are_the_per_step_loop_bitwise(p, frac, steps):
    # The Berger sphere's states, from one float loop over A, B and C or
    # over A and B when B = C, are the per-step reference's bitwise, and end
    # where its steps first divide by zero (the two examples, on two axes
    # and on three).
    dt = frac * min(p) / 8.0
    got = rl.BergerSphere.states(list(p), dt, steps)
    want = berger_sphere_per_step(p, dt, steps)
    assert got.tobytes() == np.array(want).tobytes()


def test_last_state_bound_is_not_checked():
    # No step leaves the last state, so its bound does not count: c = 1 - 2t
    # has c/8 < dt from t = 0.497 on, where the sphere-step case above fails.
    m0, T, dt = sphere_state(), 0.497, 1e-3
    assert rl.stability_dt(rl.integrate_forward(m0, T, dt).final_state()) < dt
    assert flow_outcome(m0, T, dt) == reference_outcome(m0, T, dt)


def test_first_overflow_at_the_second_stage():
    # Found by scanning A = 10^a (a = -3 ... 150), B = C = 10^b (b = -3 ... 2)
    # at half the stability bound for the states whose first non-finite rate
    # comes after k1: at B = C = 1 the smallest is A = 1e78, at dt = 1/16.
    # k1 = (-4 A^2, 4 A, 4 A) is finite; at the stage point A + k1 / 32 =
    # -1.25e155, (C - A)^2 is past the double range.
    A, dt = 1e78, 1 / 16
    k1 = rl.BergerSphere.rates([A, 1.0, 1.0])
    assert all(map(math.isfinite, k1))
    stage = [x + 0.5 * dt * k for x, k in zip([A, 1.0, 1.0], k1)]
    assert all(map(math.isfinite, stage))
    assert not all(map(math.isfinite, rl.BergerSphere.rates(stage)))


# -------------------------------------------------------------------------
# One-column storage of y-invariant torus metrics
# -------------------------------------------------------------------------

def x_profile_state(N, amplitude, seed):
    """A torus state whose phi is constant along y: a random x-profile in
    modes 0..3 with max |phi| = amplitude, on a contiguous (N, N) grid."""
    backend = rl.ConformalTorus2D(N, TWO_PI)
    x, _ = rl.grid_coords(backend)
    rng = np.random.default_rng(seed)
    w = sum(rng.uniform(-1.0, 1.0) * np.cos(k * x + rng.uniform(0.0, TWO_PI))
            for k in range(4))
    scale = amplitude / max(np.max(np.abs(w)), 1e-300)
    return rl.MetricState(backend, 0.0, np.repeat(w * scale, N, axis=1))


def full_grid_flow(m0, T, dt):
    """``integrate_forward`` with the torus stepped on the full grid."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rl.ConformalTorus2D, "components", staticmethod(lambda p: [p]))
        return rl.integrate_forward(m0, T, dt)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(N=st.sampled_from([8, 16, 32]), amplitude=st.floats(0.0, 0.5),
       seed=st.integers(0, 2**32 - 1))
def test_one_column_path_is_bitwise_the_full_path(N, amplitude, seed):
    # A y-invariant phi is stepped, stacked and solved on its first column.
    # Flow, heat solve, row kernel and stack arrays are bitwise what the
    # full grid gives; the ground state, whose preconditioner shift is the
    # mean over the cells held, agrees to round-off in as many iterations.
    from riccilab import functionals
    from riccilab.variation import row_values

    m0 = x_profile_state(N, amplitude, seed)
    backend = m0.backend
    assert m0.params.flags.c_contiguous
    assert backend.components(m0.params)[0].shape == (N, 1)
    dt = 0.25 * rl.stability_dt(m0)
    col = rl.integrate_forward(m0, 12 * dt, dt)
    full = full_grid_flow(m0, 12 * dt, dt)
    assert col.params.strides[-1] == 0 and full.params.strides[-1] != 0
    assert col.params.tobytes() == full.params.tobytes()
    ref, _ = integrate_forward_arrays(m0, 12 * dt, dt)
    assert col.params.tobytes() == ref.tobytes()
    assert col.max_step_ratio == full.max_step_ratio

    g_col, g_full = backend.stack(col.params), backend.stack(full.params)
    assert g_col.params.shape == (13, N, 1)
    assert g_full.params.shape == (13, N, N)
    for name in ("R", "lap_factor", "weight"):
        want = getattr(g_full, name)
        got = np.broadcast_to(getattr(g_col, name), want.shape)
        assert got.tobytes() == want.tobytes(), name
    assert g_col.volume.tobytes() == g_full.volume.tobytes()

    rng = np.random.default_rng(seed)
    v = np.exp(0.2 * rng.uniform(-1.0, 1.0, (N, N)))
    m_T = col.final_state()
    v_T = rl.scalar_field(m_T, v / rl.integrate(m_T, rl.scalar_field(m_T, v)))
    hist = rl.solve_backward(col, v_T, step=2 * dt)
    hist_full = rl.solve_backward(full, v_T, step=2 * dt)
    assert hist.v.tobytes() == hist_full.v.tobytes()
    assert hist.masses.tobytes() == hist_full.masses.tobytes()

    got = row_values(backend.stack(col.params[::2]), hist.v, hist.times,
                     [0.5, 2.0])
    want = row_values(backend.stack(full.params[::2]), hist.v, hist.times,
                      [0.5, 2.0])
    assert np.all(want.om > 0.0) and np.all(np.isfinite(want.rhs_split))
    for field in dataclasses.fields(want):
        assert (getattr(got, field.name).tobytes()
                == getattr(want, field.name).tobytes()), field.name

    ground = functionals.ground_states(backend.stack(col.params))
    ground_full = functionals.ground_states(backend.stack(full.params))
    assert np.all(ground.converged)
    assert np.max(np.abs(ground.values - ground_full.values)) <= 1e-13
    assert np.array_equal(ground.iterations, ground_full.iterations)


def test_signed_zeros_along_y_take_the_full_path():
    # -0.0 and 0.0 compare equal but are different bits: a phi that differs
    # along y only by signed zeros is stepped on the full grid, and matches
    # the array reference bitwise.
    m = torus_state(amplitude=0.1, N=16)
    phi = m.params.copy()
    assert np.all(phi[0] == 0.0)
    phi[0, 1::2] = -0.0
    m0 = rl.MetricState(m.backend, 0.0, phi)
    assert m0.backend.components(m0.params)[0].shape == (16, 16)
    dt = 0.25 * rl.stability_dt(m0)
    traj = rl.integrate_forward(m0, 8 * dt, dt)
    assert traj.params.strides[-1] != 0
    ref, _ = integrate_forward_arrays(m0, 8 * dt, dt)
    assert traj.params.tobytes() == ref.tobytes()
    assert rl.integrate_forward(m, 8 * dt, dt).params.strides[-1] == 0
