"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest tests/test_acceptance.py
-v -s``).  Shared runs are session-scoped fixtures; criteria 5, 7, and 8
aggregate over every accepted run produced here.

Criterion 6's grid part runs its own refinement study with the same
refinement rule, initial metric, and ladder as criterion 4's but a larger
datum amplitude: the derivative-identity residuals it measures must sit
above the finite-difference round-off floor (~5e-12 at the finest step),
while criterion 4's run keeps the datum small so the per-row
integration-by-parts sub-identity stays under its 1e-9 tolerance.  One
amplitude cannot do both; the two residual families scale together.
"""

import math

import numpy as np
import pytest

import riccilab as rl
from riccilab.cli import main as cli_main
from riccilab.harness import convergence_study, make_config, run, validate_config

LN_2PI = math.log(2.0 * math.pi)


def criterion(num, ok, detail):
    line = f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def pairwise_orders(values):
    return [math.log2(e0 / e1) for e0, e1 in zip(values[:-1], values[1:])]


# -------------------------------------------------------------------------
# Shared runs
# -------------------------------------------------------------------------

@pytest.fixture(scope="session")
def sphere_run(tmp_path_factory):
    cfg = make_config({
        "backend.kind": "round_sphere", "backend.n": "2", "backend.c0": "1.0",
        "flow.T": "0.4", "flow.dt": "1e-3",
        "heat.datum": "constant", "entropy.a": "0, 1",
    })
    result = run(validate_config(cfg), tmp_path_factory.mktemp("acc_sphere"))
    assert result.exit_code == 0
    return result


@pytest.fixture(scope="session")
def flat_run(tmp_path_factory):
    cfg = make_config({
        "backend.kind": "conformal_torus", "backend.N": "32",
        "flow.T": "0.1", "flow.dt": "1e-3",
        "heat.datum": "constant", "entropy.a": "0.5",
    })
    result = run(validate_config(cfg), tmp_path_factory.mktemp("acc_flat"))
    assert result.exit_code == 0
    return result


@pytest.fixture(scope="session")
def variation_study(tmp_path_factory):
    """Criterion 4 ladder: N = 32, 64, 128 with dt quartered per level."""
    cfg = make_config({
        "backend.kind": "conformal_torus", "backend.N": "32",
        "backend.phi_amplitude": "0.1", "backend.phi_mode": "1",
        "flow.T": "0.02", "flow.dt": "2e-3",
        "heat.datum": "random_smooth", "heat.seed": "1",
        "heat.amplitude": "0.02", "heat.cutoff": "2",
        "entropy.a": "0.1, 1",
    })
    return convergence_study(cfg, 3, tmp_path_factory.mktemp("acc_study4"))


@pytest.fixture(scope="session")
def derivative_identity_study(tmp_path_factory):
    """Criterion 6 ladder: same rule and metric, measurable datum amplitude."""
    cfg = make_config({
        "backend.kind": "conformal_torus", "backend.N": "32",
        "backend.phi_amplitude": "0.1", "backend.phi_mode": "1",
        "flow.T": "0.02", "flow.dt": "2e-3",
        "heat.datum": "random_smooth", "heat.seed": "7",
        "heat.amplitude": "0.05", "heat.cutoff": "2",
        "entropy.a": "0.1",
    })
    return convergence_study(cfg, 3, tmp_path_factory.mktemp("acc_study6"))


@pytest.fixture(scope="session")
def berger_round_pair(tmp_path_factory):
    common = {"flow.T": "0.1", "flow.dt": "1e-3", "heat.datum": "constant",
              "entropy.a": "0"}
    cfg_b = make_config({"backend.kind": "berger_sphere",
                         "backend.A0": "1", "backend.B0": "1", "backend.C0": "1",
                         **common})
    cfg_s = make_config({"backend.kind": "round_sphere", "backend.n": "3",
                         "backend.c0": "1", **common})
    rb = run(validate_config(cfg_b), tmp_path_factory.mktemp("acc_berger_round"))
    rs = run(validate_config(cfg_s), tmp_path_factory.mktemp("acc_sphere3"))
    assert rb.exit_code == 0 and rs.exit_code == 0
    return rb, rs


@pytest.fixture(scope="session")
def berger_aniso_run(tmp_path_factory):
    cfg = make_config({
        "backend.kind": "berger_sphere",
        "backend.A0": "1.2", "backend.B0": "1.0", "backend.C0": "1.0",
        "flow.T": "0.1", "flow.dt": "1e-3",
        "heat.datum": "constant", "entropy.a": "0",
    })
    result = run(validate_config(cfg), tmp_path_factory.mktemp("acc_berger_aniso"))
    assert result.exit_code == 0
    return result


@pytest.fixture(scope="session")
def all_summaries(sphere_run, flat_run, variation_study,
                  derivative_identity_study, berger_round_pair, berger_aniso_run):
    out = [
        ("sphere", sphere_run.summary),
        ("flat", flat_run.summary),
        ("berger_round", berger_round_pair[0].summary),
        ("sphere3", berger_round_pair[1].summary),
        ("berger_aniso", berger_aniso_run.summary),
    ]
    for study, tag in ((variation_study, "study4"), (derivative_identity_study,
                                                     "study6")):
        out += [(f"{tag}_level{row['level']}", row["summary"])
                for row in study.levels]
    return out


# -------------------------------------------------------------------------
# Criteria
# -------------------------------------------------------------------------

def test_criterion_1_soliton_constancy(sphere_run):
    t = sphere_run.tables
    dev_Y = float(np.max(np.abs(t.Y[:, 0] - LN_2PI)))
    dev_rhs = float(np.max(np.abs(t.rhs_thm[:, 0])))
    criterion(1, dev_Y <= 1e-10 and dev_rhs <= 1e-10,
              f"max|Y0 - ln 2pi| = {dev_Y:.2e}, max|rhs| = {dev_rhs:.2e}")


def test_criterion_2_pure_adjustment_rate(sphere_run):
    t = sphere_run.tables
    om = 1.0 + 1.0 / (2.0 * (1.0 - 2.0 * t.times))
    res = np.abs(t.dY_fd[:, 1] - 4.0 / om)[1:-1]
    criterion(2, float(np.max(res)) <= 1e-6,
              f"max interior |dY/dt - 4/omega| = {np.max(res):.2e}")


def test_criterion_3_flat_torus_baseline(flat_run):
    t = flat_run.tables
    j = t.a_values.index(0.5)
    devs = [
        float(np.max(np.abs(t.dY_fd[1:-1, j] - 2.0))),
        float(np.max(np.abs(t.rhs_thm[:, j] - 2.0))),
        float(np.max(np.abs(t.rhs_ye[:, j] - 2.0))),
        float(np.max(t.res_thm[1:-1, j])),
        float(np.max(t.res_equiv[:, j])),
    ]
    criterion(3, max(devs) <= 1e-8, f"max deviation from 2 = {max(devs):.2e}")


def test_criterion_4_first_variation_convergence(variation_study):
    res = [row["max_res_thm_interior"] for row in variation_study.levels]
    orders = pairwise_orders(res)
    ok = res[0] > res[1] > res[2] and all(o >= 1.8 for o in orders)
    criterion(4, ok, "residuals " + " -> ".join(f"{e:.3e}" for e in res)
              + ", orders " + ", ".join(f"{o:.2f}" for o in orders))


def test_criterion_5_two_form_equivalence(all_summaries):
    worst = max(s["max_res_equiv"] for _, s in all_summaries)
    violations = sum(s["equivalence_violations"] for _, s in all_summaries)
    criterion(5, violations == 0,
              f"violations = {violations}, max |rhs_thm - rhs_ye| = {worst:.2e} "
              f"over {len(all_summaries)} runs")


def test_criterion_6_derivative_identities(derivative_identity_study, sphere_run):
    dS = [row["max_res_dS_interior"] for row in derivative_identity_study.levels]
    dF = [row["max_res_dF_interior"] for row in derivative_identity_study.levels]
    orders_dS = pairwise_orders(dS)
    orders_dF = pairwise_orders(dF)
    grid_ok = all(o >= 1.8 for o in orders_dS + orders_dF)

    t = sphere_run.tables
    c = 1.0 - 2.0 * t.times
    rep = t.variation
    dev_F = float(np.max(np.abs(t.F - 2.0 / c)))
    res_dS = float(np.max(np.abs(rep.dS_dt_fd - t.F)[1:-1]))
    res_dF = float(np.max(np.abs(rep.dF_dt_fd - 4.0 / c**2)[1:-1]))
    sphere_ok = dev_F <= 1e-6 and res_dS <= 1e-6 and res_dF <= 1e-6
    criterion(6, grid_ok and sphere_ok,
              f"orders dS {', '.join(f'{o:.2f}' for o in orders_dS)}; "
              f"dF {', '.join(f'{o:.2f}' for o in orders_dF)}; sphere "
              f"|dS/dt-F| = {res_dS:.2e}, |dF/dt-4/c^2| = {res_dF:.2e}")


def test_criterion_7_monotonicity(all_summaries):
    mono = sum(sum(s["monotonicity_violations"].values())
               for _, s in all_summaries)
    lam = sum(s["lambda0_monotonicity_violations"] for _, s in all_summaries)
    criterion(7, mono == 0 and lam == 0,
              f"Y violations = {mono}, lambda0 violations = {lam} "
              f"over {len(all_summaries)} runs")


def test_criterion_8_mass_conservation(all_summaries):
    worst = max(s["max_mass_drift"] for _, s in all_summaries)
    criterion(8, worst <= 1e-6, f"max |mass - 1| = {worst:.2e}")


def test_criterion_9_berger_cross_check(berger_round_pair, berger_aniso_run):
    rb, rs = berger_round_pair
    tb, ts = rb.tables, rs.tables
    col_dev = 0.0
    for col_b, col_s in (
        (tb.times, ts.times), (tb.F, ts.F), (tb.S, ts.S), (tb.lam0, ts.lam0),
        (tb.Y[:, 0], ts.Y[:, 0]), (tb.om[:, 0], ts.om[:, 0]),
        (tb.dY_fd[:, 0], ts.dY_fd[:, 0]),
        (tb.rhs_thm[:, 0], ts.rhs_thm[:, 0]), (tb.rhs_ye[:, 0], ts.rhs_ye[:, 0]),
    ):
        col_dev = max(col_dev, float(np.max(np.abs(col_b - col_s))))

    # trajectory itself: isotropic flow must match the round n=3 rate
    m0 = rl.MetricState(rl.BergerSphere(), 0.0, np.array([1.0, 1.0, 1.0]))
    traj = rl.integrate_forward(m0, 0.1, 5e-4)
    traj_dev = float(np.max(np.abs(traj.params - (1.0 - 4.0 * traj.times)[:, None])))

    ta = berger_aniso_run.tables
    min_rhs = float(np.min(ta.rhs_thm[:, 0]))
    res = float(np.max(ta.res_thm[1:-1, 0]))
    criterion(9, col_dev <= 1e-10 and traj_dev <= 1e-10 and min_rhs > 0
              and res <= 1e-6,
              f"round-limit column dev = {col_dev:.2e}, traj dev = {traj_dev:.2e}, "
              f"min rhs = {min_rhs:.3f}, max |dY/dt - rhs| = {res:.2e}")


def test_criterion_10_negative_controls(tmp_path):
    boundary = tmp_path / "boundary.cfg"
    boundary.write_text(
        "backend.kind = conformal_torus\nbackend.N = 16\n"
        "flow.T = 0.02\nflow.dt = 1e-3\nheat.datum = constant\nentropy.a = 0\n",
        encoding="utf-8",
    )
    code_boundary = cli_main(["run", str(boundary), "--out", str(tmp_path / "b")])

    unstable = tmp_path / "unstable.cfg"
    unstable.write_text(
        "backend.kind = conformal_torus\nbackend.N = 32\n"
        "backend.phi_amplitude = 0.1\n"
        "flow.T = 0.2\nflow.dt = 0.04\nheat.datum = constant\nentropy.a = 0.5\n",
        encoding="utf-8",
    )
    code_unstable = cli_main(["run", str(unstable), "--out", str(tmp_path / "u")])
    data = (tmp_path / "u" / "data.csv").read_text().strip().split("\n")
    no_silent_rows = len(data) == 1  # header only; status lives in the manifest

    criterion(10, code_boundary == 2 and code_unstable == 3 and no_silent_rows,
              f"boundary a exit = {code_boundary}, unstable dt exit = "
              f"{code_unstable}, csv rows = {len(data) - 1}")
