"""Config parsing/validation, run artifacts, determinism, exit codes, and
the convergence-study driver."""

import json
import math

import numpy as np
import pytest

import riccilab as rl
from riccilab.cli import main as cli_main
from riccilab.harness import (
    convergence_study,
    make_config,
    parse_config_file,
    resolve_out_dir,
    run,
    validate_config,
)

TWO_PI = 2.0 * math.pi


def write_cfg(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


SPHERE_CFG = """
backend.kind = round_sphere
backend.n = 2
backend.c0 = 1.0
flow.T = 0.4
flow.dt = 1e-3
heat.datum = constant
entropy.a = 0, 1
"""

FLAT_CFG = """
backend.kind = conformal_torus
backend.N = 16
backend.L = 6.283185307179586
flow.T = 0.02
flow.dt = 1e-3
heat.datum = constant
entropy.a = 0.5
"""


# -------------------------------------------------------------------------
# Parsing and validation
# -------------------------------------------------------------------------

def test_parse_config_file(tmp_path):
    p = write_cfg(tmp_path / "a.cfg", """
# comment
backend.kind = round_sphere   # trailing comment
flow.T = 0.1
entropy.a = 0.1, 0.5, 1
""")
    raw = parse_config_file(p)
    assert raw["backend.kind"] == "round_sphere"
    cfg = make_config(raw)
    assert cfg.a_values == [0.1, 0.5, 1.0]


def test_parse_rejects_bad_lines(tmp_path):
    p = write_cfg(tmp_path / "b.cfg", "backend.kind round_sphere\n")
    with pytest.raises(rl.ConfigError):
        parse_config_file(p)
    p2 = write_cfg(tmp_path / "c.cfg", "flow.T = 0.1\nflow.T = 0.2\n")
    with pytest.raises(rl.ConfigError):
        parse_config_file(p2)


@pytest.mark.parametrize("raw,msg", [
    ({"flow.T": "0.1"}, "backend.kind"),
    ({"backend.kind": "round_sphere"}, "flow.T"),
    ({"backend.kind": "klein_bottle", "flow.T": "0.1"}, "backend.kind"),
    ({"backend.kind": "round_sphere", "flow.T": "0.1", "extra.key": "1"}, "extra.key"),
    ({"backend.kind": "round_sphere", "flow.T": "0.1", "flow.dt": "zero"}, "flow.dt"),
    ({"backend.kind": "round_sphere", "flow.T": "0.1", "entropy.a": ""}, "entropy.a"),
    ({"backend.kind": "round_sphere", "flow.T": "-1"}, "flow.T"),
    ({"backend.kind": "round_sphere", "flow.T": "0.1", "tol.mono": "0"}, "tol.mono"),
    ({"backend.kind": "round_sphere", "flow.T": "0.1", "entropy.a": "0.1, 0.1"},
     "entropy.a"),
    ({"backend.kind": "round_sphere", "flow.T": "0.1",
      "entropy.a": "0.1, 0.5, 0.1000001"}, "entropy.a"),
    ({"backend.kind": "conformal_torus", "flow.T": "0.1",
      "heat.datum": "gaussian"}, "heat.datum"),
    ({"backend.kind": "conformal_torus", "flow.T": "0.1", "heat.datum": "bump",
      "heat.width": "-1"}, "heat.width"),
    ({"backend.kind": "conformal_torus", "flow.T": "0.1", "heat.datum": "bump",
      "heat.center_x": "1.0"}, "heat.center_y"),
    ({"backend.kind": "conformal_torus", "flow.T": "0.1", "heat.datum": "bump",
      "heat.center_y": "1.0"}, "heat.center_x"),
    ({"backend.kind": "conformal_torus", "flow.T": "0.1",
      "heat.datum": "random_smooth", "heat.cutoff": "-1"}, "heat.cutoff"),
    ({"backend.kind": "conformal_torus", "flow.T": "0.1",
      "heat.datum": "random_smooth", "heat.cutoff": "0"}, "heat.cutoff"),
    ({"backend.kind": "round_sphere", "flow.T": "0.1", "backend.c0": "inf"},
     "backend.c0"),
    ({"backend.kind": "berger_sphere", "flow.T": "0.1", "backend.A0": "inf"},
     "backend.A0"),
    ({"backend.kind": "conformal_torus", "flow.T": "0.1", "backend.L": "inf"},
     "backend.L"),
    ({"backend.kind": "conformal_torus", "flow.T": "0.1",
      "backend.phi_amplitude": "nan"}, "backend.phi_amplitude"),
    ({"backend.kind": "conformal_torus", "flow.T": "inf"}, "flow.T"),
    ({"backend.kind": "round_sphere", "flow.T": "0.1", "entropy.a": "inf"},
     "entropy.a"),
    ({"backend.kind": "round_sphere", "flow.T": "0.1", "entropy.a": "0.1, -inf"},
     "entropy.a"),
    ({"backend.kind": "round_sphere", "flow.T": "0.1", "flow.dt": "inf"},
     "flow.dt"),
], ids=["no-kind", "no-T", "bad-kind", "unknown", "bad-dt", "empty-a", "neg-T",
        "bad-tol", "repeated-a", "tag-collision-a", "bad-datum", "bad-width",
        "lone-center-x", "lone-center-y", "negative-cutoff", "zero-cutoff",
        "inf-c0", "inf-A0", "inf-L", "nan-phi-amplitude", "inf-T", "inf-a",
        "neg-inf-in-a-list", "inf-dt"])
def test_make_config_errors(raw, msg):
    with pytest.raises(rl.ConfigError) as exc:
        make_config(raw)
    assert msg in str(exc.value)


def test_flat_torus_zero_adjustment_inadmissible():
    cfg = make_config({
        "backend.kind": "conformal_torus", "backend.N": "16",
        "flow.T": "0.02", "flow.dt": "1e-3", "entropy.a": "0",
    })
    with pytest.raises(rl.AdmissibilityError) as exc:
        validate_config(cfg)
    assert "a=0" in str(exc.value)


def test_sphere_negative_adjustment_admissible():
    # lambda0 = 0.5 on the unit 2-sphere, so a = -0.25 passes.
    cfg = make_config({
        "backend.kind": "round_sphere", "flow.T": "0.1", "flow.dt": "1e-3",
        "entropy.a": "-0.25",
    })
    v = validate_config(cfg)
    assert v.lambda0_g0 == pytest.approx(0.5)
    assert v.admissibility[0]["admissible"]


def test_auto_dt_resolution():
    cfg = make_config({
        "backend.kind": "conformal_torus", "backend.N": "64",
        "flow.T": "0.01", "flow.dt": "auto", "flow.safety": "0.5",
        "entropy.a": "0.5",
    })
    v = validate_config(cfg)
    bound = (TWO_PI / 64) ** 2 / 8
    assert v.dt <= 0.5 * bound * (1 + 1e-12)
    assert v.num_rows - 1 == round(v.T / v.dt)


def test_sphere_horizon_cap():
    cfg = make_config(dict((k, v) for k, v in [
        ("backend.kind", "round_sphere"), ("flow.T", "0.4"),
        ("flow.dt", "1e-3"), ("entropy.a", "0"),
    ]))
    v = validate_config(cfg)
    assert v.T == pytest.approx(0.25, abs=1e-12)  # 0.5 * c0 / (2(n-1))
    assert v.num_rows == 251


def test_too_short_horizon_rejected():
    cfg = make_config({
        "backend.kind": "round_sphere", "flow.T": "0.002", "flow.dt": "1e-3",
        "entropy.a": "0",
    })
    with pytest.raises(rl.ConfigError):
        validate_config(cfg)


# -------------------------------------------------------------------------
# Runs and artifacts
# -------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sphere_result(tmp_path_factory):
    raw = parse_config_file_from_text(SPHERE_CFG, tmp_path_factory, "sphere.cfg")
    cfg = make_config(raw)
    out = tmp_path_factory.mktemp("sphere_out")
    return run(validate_config(cfg), out)


def parse_config_file_from_text(text, tmp_path_factory, name):
    p = tmp_path_factory.mktemp("cfg") / name
    p.write_text(text, encoding="utf-8")
    return parse_config_file(p)


def test_run_sphere_summary(sphere_result):
    assert sphere_result.exit_code == 0
    s = sphere_result.summary
    assert s["rows"] == 251
    assert s["monotonicity_violations"] == {"0": 0, "1": 0}
    assert s["lambda0_monotonicity_violations"] == 0
    assert s["max_mass_drift"] < 1e-10
    t = sphere_result.tables
    assert np.max(np.abs(t.Y[:, 0] - math.log(2 * math.pi))) < 1e-10


def test_run_artifacts_schema(sphere_result):
    out = sphere_result.out_dir
    data = (out / "data.csv").read_bytes()
    assert b"\r" not in data
    header = data.split(b"\n", 1)[0].decode()
    assert header == (
        "t,F,S,lambda0,"
        "Y[0],omega[0],dYdt_fd[0],rhs_thm[0],rhs_ye[0],res_thm[0],res_equiv[0],"
        "Y[1],omega[1],dYdt_fd[1],rhs_thm[1],rhs_ye[1],res_thm[1],res_equiv[1]"
    )
    lines = data.decode().strip().split("\n")
    assert len(lines) == 1 + 251
    # 17 significant digits survive a parse round-trip
    row1 = lines[2].split(",")
    assert float(row1[1]) == sphere_result.tables.F[1]

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["exit_code"] == 0
    assert manifest["resolved"]["T"] == pytest.approx(0.25)
    assert manifest["lambda0_g0"] == pytest.approx(0.5)
    assert all(chk["admissible"] for chk in manifest["admissibility"])
    assert (out / "proof_chain.csv").exists()


def test_run_flat_torus_closed_form(tmp_path):
    cfg = make_config(parse_config_file(write_cfg(tmp_path / "flat.cfg", FLAT_CFG)))
    result = run(validate_config(cfg), tmp_path / "out")
    assert result.exit_code == 0
    t = result.tables
    j = t.a_values.index(0.5)
    assert np.max(np.abs(t.rhs_thm[:, j] - 2.0)) < 1e-12
    assert np.max(np.abs(t.rhs_ye[:, j] - 2.0)) < 1e-12
    assert np.max(np.abs(t.dY_fd[1:-1, j] - 2.0)) < 1e-8
    assert np.all(t.F == 0.0)
    assert np.max(np.abs(t.lam0)) < 1e-10


def test_sub_identity_within_resolution_regime(tmp_path):
    # integral(Lap f e^-f) = integral(|grad f|^2 e^-f) carries an O(h^2
    # |grad f|^4) chain-rule floor; inside the resolution/amplitude regime
    # it sits below 1e-9 of max(1, |lhs|) on every row.
    cfg = make_config({
        "backend.kind": "conformal_torus", "backend.N": "32",
        "backend.phi_amplitude": "0.1",
        "flow.T": "0.02", "flow.dt": "2e-3",
        "heat.datum": "random_smooth", "heat.seed": "1",
        "heat.amplitude": "0.02", "entropy.a": "0.1",
    })
    result = run(validate_config(cfg), tmp_path / "out")
    assert result.exit_code == 0
    assert result.summary["sub_identity_violations"] == 0
    assert result.summary["max_sub_identity_residual"] <= 1e-9


def test_run_determinism(tmp_path):
    text = """
backend.kind = conformal_torus
backend.N = 16
backend.phi_amplitude = 0.05
flow.T = 0.01
flow.dt = 1e-3
heat.datum = random_smooth
heat.seed = 9
heat.amplitude = 0.1
entropy.a = 0.3
"""
    cfg = make_config(parse_config_file(write_cfg(tmp_path / "d.cfg", text)))
    r1 = run(validate_config(cfg), tmp_path / "o1")
    r2 = run(validate_config(cfg), tmp_path / "o2")
    b1 = (r1.out_dir / "data.csv").read_bytes()
    b2 = (r2.out_dir / "data.csv").read_bytes()
    assert b1 == b2


@pytest.fixture(scope="module")
def curved_torus_result(tmp_path_factory):
    # Coarse grid: the integration-by-parts sub-identity misses its 1e-9
    # bound on every row while the two rate forms agree to round-off.
    cfg = make_config({
        "backend.kind": "conformal_torus", "backend.N": "16",
        "backend.phi_amplitude": "0.1",
        "flow.T": "0.02", "flow.dt": "2e-3",
        "heat.datum": "random_smooth", "heat.seed": "1", "entropy.a": "0.1",
    })
    return run(validate_config(cfg), tmp_path_factory.mktemp("curved_torus"))


def read_csv(path):
    """Header and float columns of a run CSV."""
    lines = path.read_text(encoding="ascii").splitlines()
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), np.array(rows).T


@pytest.mark.parametrize("fixture", ["sphere_result", "curved_torus_result"])
def test_csvs_mirror_tables(fixture, request):
    # .17g round-trips float64, so every column reads back exactly.
    r = request.getfixturevalue(fixture)
    t, rep = r.tables, r.tables.variation
    header, cols = read_csv(r.out_dir / "data.csv")
    expected = {"t": t.times, "F": t.F, "S": t.S, "lambda0": t.lam0}
    for j, a in enumerate(t.a_values):
        tag = format(a, "g")
        expected |= {
            f"Y[{tag}]": t.Y[:, j], f"omega[{tag}]": t.om[:, j],
            f"dYdt_fd[{tag}]": t.dY_fd[:, j], f"rhs_thm[{tag}]": t.rhs_thm[:, j],
            f"rhs_ye[{tag}]": t.rhs_ye[:, j], f"res_thm[{tag}]": t.res_thm[:, j],
            f"res_equiv[{tag}]": t.res_equiv[:, j],
        }
    assert header == list(expected)
    for name, col in zip(header, cols):
        np.testing.assert_array_equal(col, expected[name], err_msg=name)

    header, cols = read_csv(r.out_dir / "proof_chain.csv")
    expected = {
        "t": t.times, "S": t.S, "dSdt_fd": rep.dS_dt_fd, "F": t.F,
        "dFdt_fd": rep.dF_dt_fd, "dF_rhs": t.dF_rhs, "res_dS": rep.res_dS,
        "res_dF": rep.res_dF, "sub_lhs": t.sub_lhs, "sub_rhs": t.sub_rhs,
        "mass": t.masses, "interior": rep.interior,
    }
    assert header == list(expected)
    for name, col in zip(header, cols):
        np.testing.assert_array_equal(col, expected[name], err_msg=name)
    flags = (r.out_dir / "proof_chain.csv").read_text().splitlines()[1:]
    assert [line.rsplit(",", 1)[1] for line in flags] == (
        ["0"] + ["1"] * (len(t.times) - 2) + ["0"])


def test_sub_identity_kept_out_of_equivalence_count(curved_torus_result):
    s = curved_torus_result.summary
    assert curved_torus_result.exit_code == 0 and s["rows"] == 11
    assert s["equivalence_violations"] == 0
    assert s["sub_identity_violations"] > 0


# Row-kernel configs: a curved torus and both homogeneous backends, each with
# several adjustment values.
ROW_KERNEL_CFGS = {
    "curved_torus": {
        "backend.kind": "conformal_torus", "backend.N": "16",
        "backend.phi_amplitude": "0.1", "flow.T": "0.02", "flow.dt": "2e-3",
        "heat.datum": "random_smooth", "heat.seed": "1",
        "entropy.a": "0.1, 0.5, 2",
    },
    "round_sphere": {
        "backend.kind": "round_sphere", "backend.n": "2", "flow.T": "0.02",
        "flow.dt": "1e-3", "entropy.a": "0, 1",
    },
    "berger_sphere": {
        "backend.kind": "berger_sphere", "backend.A0": "1.2", "flow.T": "0.02",
        "flow.dt": "1e-3", "entropy.a": "0, 0.5",
    },
}


def row_states(validated):
    """(t, metric, u) of every row, rebuilt the way ``run`` builds them."""
    cfg = validated.cfg
    traj = rl.integrate_forward(validated.m0, validated.T, validated.dt / 2.0)
    v_T = rl.terminal_datum(cfg.datum, traj.final_state(), amplitude=cfg.amplitude,
                            seed=cfg.seed, mode_cutoff=cfg.cutoff)
    hist = rl.solve_backward(traj, v_T, step=validated.dt, mass_tol=cfg.tol_mass)
    for k, t in enumerate(hist.times):
        u, _ = rl.change_variables(hist.field(k))
        yield float(t), traj.state(2 * k), u


@pytest.mark.parametrize("name", list(ROW_KERNEL_CFGS))
def test_row_kernel_matches_public_functionals(name, tmp_path):
    # The run builds T and F once per row and shares them across every a;
    # each entry must equal the public functional on that row's state.
    validated = validate_config(make_config(ROW_KERNEL_CFGS[name]))
    tables = run(validated, tmp_path / name).tables
    states = list(row_states(validated))
    assert len(states) == len(tables.times) == validated.num_rows
    for k, (t, m, u) in enumerate(states):
        assert tables.times[k] == t
        assert tables.F[k] == rl.f_functional(m, u)
        assert tables.S[k] == rl.shannon_entropy(m, u)
        for j, a in enumerate(tables.a_values):
            assert tables.Y[k, j] == rl.log_entropy(m, u, a, t)
            assert tables.om[k, j] == rl.omega(rl.f_functional(m, u), a)
            assert tables.rhs_thm[k, j] == rl.rhs_split(m, u, a)
            assert tables.rhs_ye[k, j] == rl.rhs_combined(m, u, a)


@pytest.mark.parametrize("a_values", ["0.1", "0.1, 0.5, 2"])
def test_row_kernel_builds_tensor_and_energy_once_per_row(a_values, tmp_path,
                                                          monkeypatch):
    # Count every call, whichever module namespace it goes through.
    from riccilab import functionals, harness, variation

    counts = {}
    for module, name in ((variation, "matrix_quantity"),
                         (functionals, "f_functional")):
        original = getattr(module, name)
        counts[name] = 0

        def counted(*args, _fn=original, _name=name):
            counts[_name] += 1
            return _fn(*args)

        for ns in (functionals, variation, harness):
            if getattr(ns, name, None) is original:
                monkeypatch.setattr(ns, name, counted)
    validated = validate_config(make_config(
        {**ROW_KERNEL_CFGS["curved_torus"], "entropy.a": a_values}))
    result = run(validated, tmp_path / "out")
    assert result.exit_code == 0
    assert counts == {"matrix_quantity": validated.num_rows,
                      "f_functional": validated.num_rows}


def test_evaluate_tables_keeps_completed_rows():
    from riccilab.harness import evaluate_tables

    backend = rl.ConformalTorus2D(16, TWO_PI)
    m0 = rl.MetricState(backend, 0.0, np.zeros((16, 16)))
    traj = rl.integrate_forward(m0, 0.01, 5e-4)
    hist = rl.solve_backward(traj, rl.terminal_datum("constant", traj.final_state()),
                             step=1e-3)
    poisoned = rl.DensityHistory(
        backend, hist.times, hist.v.copy(), hist.masses.copy())
    poisoned.v[4] = 0.0  # change of variables fails at row 4
    tables, error = evaluate_tables(traj, poisoned, [0.5], 1e-3)
    assert isinstance(error, rl.PositivityLoss)
    assert tables is not None and len(tables.times) == 4


def test_failed_run_keeps_artifacts_and_status(tmp_path):
    text = """
backend.kind = conformal_torus
backend.N = 16
backend.phi_amplitude = 0.1
flow.T = 0.4
flow.dt = 0.08
heat.datum = constant
entropy.a = 0.5
"""
    cfg = make_config(parse_config_file(write_cfg(tmp_path / "u.cfg", text)))
    result = run(validate_config(cfg), tmp_path / "out")
    assert result.exit_code == 3
    assert result.status == "StepTooLarge"
    manifest = json.loads((result.out_dir / "manifest.json").read_text())
    assert manifest["status"] == "StepTooLarge"
    assert manifest["exit_code"] == 3
    # same artifact set as a passed run: status lives in the manifest; no
    # row survived, so each CSV is exactly its header line
    assert (result.out_dir / "data.csv").read_bytes() == (
        b"t,F,S,lambda0,Y[0.5],omega[0.5],dYdt_fd[0.5],rhs_thm[0.5],"
        b"rhs_ye[0.5],res_thm[0.5],res_equiv[0.5]\n")
    assert (result.out_dir / "proof_chain.csv").read_bytes() == (
        b"t,S,dSdt_fd,F,dFdt_fd,dF_rhs,res_dS,res_dF,sub_lhs,sub_rhs,mass,"
        b"interior\n")


# -------------------------------------------------------------------------
# CLI
# -------------------------------------------------------------------------

def test_cli_exit_codes(tmp_path, capsys):
    bad = write_cfg(tmp_path / "bad.cfg", """
backend.kind = conformal_torus
backend.N = 16
flow.T = 0.02
flow.dt = 1e-3
entropy.a = 0
""")
    assert cli_main(["run", bad, "--out", str(tmp_path / "x")]) == 2

    dup_a = write_cfg(tmp_path / "dup_a.cfg", FLAT_CFG.replace(
        "entropy.a = 0.5", "entropy.a = 0.1, 0.1000001"))
    capsys.readouterr()
    assert cli_main(["check", dup_a]) == 2
    assert "entropy.a: 0.1000001 repeats" in capsys.readouterr().err

    # bad terminal-datum settings and non-finite numbers are rejected before
    # any artifact is written
    heat = "heat.datum = constant"
    for field, text in (
        ("heat.datum", FLAT_CFG.replace(heat, "heat.datum = gaussian")),
        ("heat.width", FLAT_CFG.replace(heat, "heat.datum = bump\nheat.width = -1")),
        ("heat.center_y",
         FLAT_CFG.replace(heat, "heat.datum = bump\nheat.center_x = 1.0")),
        ("heat.cutoff",
         FLAT_CFG.replace(heat, "heat.datum = random_smooth\nheat.cutoff = -1")),
        ("heat.cutoff",
         FLAT_CFG.replace(heat, "heat.datum = random_smooth\nheat.cutoff = 0")),
        ("backend.c0", SPHERE_CFG.replace("backend.c0 = 1.0", "backend.c0 = inf")),
        ("backend.A0",
         SPHERE_CFG.replace("round_sphere", "berger_sphere") + "backend.A0 = inf\n"),
        ("backend.L", FLAT_CFG.replace("6.283185307179586", "inf")),
        ("backend.phi_amplitude", FLAT_CFG + "backend.phi_amplitude = inf\n"),
        ("flow.T", FLAT_CFG.replace("flow.T = 0.02", "flow.T = inf")),
        ("entropy.a", FLAT_CFG.replace("entropy.a = 0.5", "entropy.a = inf")),
    ):
        bad_input = write_cfg(tmp_path / "bad_input.cfg", text)
        assert cli_main(["check", bad_input]) == 2
        assert f"ConfigError: {field}" in capsys.readouterr().err
        assert cli_main(["run", bad_input, "--out", str(tmp_path / "h")]) == 2
        assert not (tmp_path / "h").exists()

    # admissible at ladder level 0 (-lambda0 = 0.011016), not at level 1
    # (-lambda0 = 0.011123): the level-1 rejection is an input error too
    ladder = write_cfg(tmp_path / "ladder.cfg", """
backend.kind = conformal_torus
backend.N = 16
backend.phi_amplitude = 0.3
flow.T = 0.02
flow.dt = 2e-3
entropy.a = 0.0111
""")
    capsys.readouterr()
    assert cli_main(["check", ladder]) == 0
    assert cli_main(["converge", ladder, "--levels", "3",
                     "--out", str(tmp_path / "c")]) == 2
    assert "AdmissibilityError: entropy.a" in capsys.readouterr().err

    unstable = write_cfg(tmp_path / "unstable.cfg", """
backend.kind = conformal_torus
backend.N = 16
backend.phi_amplitude = 0.1
flow.T = 0.4
flow.dt = 0.08
heat.datum = constant
entropy.a = 0.5
""")
    assert cli_main(["run", unstable, "--out", str(tmp_path / "y")]) == 3

    ok = write_cfg(tmp_path / "ok.cfg", FLAT_CFG)
    assert cli_main(["check", ok]) == 0
    assert cli_main(["run", ok, "--out", str(tmp_path / "z")]) == 0
    capsys.readouterr()


def test_resolve_out_dir_env(tmp_path, monkeypatch):
    from pathlib import Path

    cfg = make_config({"backend.kind": "round_sphere", "flow.T": "0.1",
                       "flow.dt": "1e-3", "entropy.a": "0",
                       "out.dir": "rel/dir"})
    monkeypatch.setenv("RICCILAB_OUT", str(tmp_path / "root"))
    assert resolve_out_dir(cfg) == tmp_path / "root" / "rel" / "dir"
    monkeypatch.delenv("RICCILAB_OUT")
    assert resolve_out_dir(cfg) == Path("rel/dir")
    # --out always wins
    monkeypatch.setenv("RICCILAB_OUT", str(tmp_path / "root"))
    assert resolve_out_dir(cfg, override=str(tmp_path / "o")) == tmp_path / "o"


# -------------------------------------------------------------------------
# Convergence study
# -------------------------------------------------------------------------

STUDY_CFG = """
backend.kind = conformal_torus
backend.N = 16
backend.phi_amplitude = 0.1
flow.T = 0.048
flow.dt = 8e-3
heat.datum = random_smooth
heat.seed = 7
heat.amplitude = 0.05
heat.cutoff = 2
entropy.a = 0.1
"""


def test_convergence_study_residual_decreases(tmp_path):
    cfg = make_config(parse_config_file(write_cfg(tmp_path / "s.cfg", STUDY_CFG)))
    study = convergence_study(cfg, 3, tmp_path / "study")
    res = [row["max_res_thm_interior"] for row in study.levels]
    assert res[0] > res[1] > res[2]
    assert (tmp_path / "study" / "study.csv").exists()
    assert (tmp_path / "study" / "level_2" / "data.csv").exists()
    assert len(study.orders_thm) == 2


def test_convergence_study_validation(tmp_path):
    cfg = make_config(parse_config_file(write_cfg(tmp_path / "s.cfg", STUDY_CFG)))
    with pytest.raises(rl.ConfigError):
        convergence_study(cfg, 1, tmp_path / "x")
    sphere_cfg = make_config({"backend.kind": "round_sphere", "flow.T": "0.1",
                              "flow.dt": "1e-3", "entropy.a": "0"})
    with pytest.raises(rl.ConfigError):
        convergence_study(sphere_cfg, 3, tmp_path / "y")
