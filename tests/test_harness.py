"""Config parsing/validation, run artifacts, determinism, exit codes, the
convergence-study driver, and the library names the benchmark reaches."""

import ast
import dataclasses
import hashlib
import importlib.util
import inspect
import json
import math
import os
import re
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import riccilab as rl
from riccilab.cli import main as cli_main
from riccilab.functionals import LAMBDA0_TOL
from riccilab.harness import (
    RunConfig,
    check_config,
    convergence_study,
    make_config,
    parse_config_file,
    resolve_out_dir,
    run,
    validate_config,
)

from cross_checks import (
    ProcessLog,
    children_left,
    chunk_lengths,
    chunks_through_out,
    gradient_inner,
    row_failure_reference,
    row_values_reference,
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


# The N = 16 torus of the float-range rows below.
EDGE = {"backend.kind": "conformal_torus", "backend.N": "16", "flow.T": "0.02",
        "flow.dt": "2e-3", "entropy.a": "1"}


@pytest.mark.parametrize("raw,msg", [
    ({}, "backend.kind: missing required key"),
    ({"flow.T": "0.1"}, "backend.kind"),
    ({"backend.kind": "round_sphere"}, "flow.T"),
    ({"backend.kind": "klein_bottle", "flow.T": "0.1"}, "backend.kind"),
    ({"backend.kind": "round_sphere", "flow.T": "0.1", "extra.key": "1"}, "extra.key"),
    ({"backend.kind": "round_sphere", "flow.T": "0.1", "flow.dt": "zero"}, "flow.dt"),
    ({"backend.kind": "round_sphere", "flow.T": "0.1", "entropy.a": ""}, "entropy.a"),
    ({"backend.kind": "round_sphere", "flow.T": "-1"}, "flow.T"),
    ({"backend.kind": "round_sphere", "flow.T": "0"}, "flow.T: must be positive"),
    ({"backend.kind": "round_sphere", "flow.T": "0.1", "tol.mono": "0"}, "tol.mono"),
    ({"backend.kind": "round_sphere", "flow.T": "0.1", "tol.equiv": "0"},
     "tol.equiv: must be positive"),
    ({"backend.kind": "round_sphere", "flow.T": "0.1", "tol.mass": "-1e-6"},
     "tol.mass: must be positive"),
    ({"backend.kind": "round_sphere", "flow.T": "0.1", "entropy.a": "0.1, 0.1"},
     "entropy.a"),
    ({"backend.kind": "round_sphere", "flow.T": "0.1",
      "entropy.a": "0.1, 0.5, 0.1000001"}, "entropy.a"),
    ({"backend.kind": "round_sphere", "flow.T": "0.1", "entropy.a": "0, -0"},
     "entropy.a"),
    ({"backend.kind": "conformal_torus", "flow.T": "0.1",
      "heat.datum": "gaussian"}, "heat.datum"),
    ({"backend.kind": "conformal_torus", "flow.T": "0.1", "heat.datum": "bump",
      "heat.width": "-1"}, "heat.width"),
    ({"backend.kind": "conformal_torus", "flow.T": "0.1", "heat.datum": "bump",
      "heat.width": "0"}, "heat.width: must be positive"),
    ({"backend.kind": "conformal_torus", "flow.T": "0.1", "heat.datum": "bump",
      "heat.center_x": "1.0"}, "heat.center_y"),
    ({"backend.kind": "conformal_torus", "flow.T": "0.1", "heat.datum": "bump",
      "heat.center_y": "1.0"}, "heat.center_x"),
    ({"backend.kind": "conformal_torus", "flow.T": "0.1",
      "heat.datum": "random_smooth", "heat.cutoff": "-1"}, "heat.cutoff"),
    ({"backend.kind": "conformal_torus", "flow.T": "0.1",
      "heat.datum": "random_smooth", "heat.cutoff": "0"}, "heat.cutoff"),
    ({"backend.kind": "conformal_torus", "flow.T": "0.1",
      "heat.datum": "random_smooth", "heat.seed": "-1"}, "heat.seed"),
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
    # The constant datum 1/volume(g(0)) below the positivity floor (1e-12
    # and 8e-14) would fail the run's terminal row.
    ({"backend.kind": "conformal_torus", "backend.N": "16", "backend.L": "1e6",
      "flow.T": "0.02", "flow.dt": "2e-3", "entropy.a": "1"},
     "backend.L: the constant datum 1/volume = 1e-12 is below the positivity "
     "floor 1e-10"),
    ({"backend.kind": "round_sphere", "backend.c0": "1e12", "flow.T": "0.1",
      "flow.dt": "1e-2", "entropy.a": "1"},
     "backend.c0: the constant datum 1/volume = 7.95775e-14 is below the "
     "positivity floor 1e-10"),
    # A shaped datum's minimum is at most its mean 1/volume: on the large
    # torus no amplitude lifts it above the floor, so the volume key is named.
    ({"backend.kind": "conformal_torus", "backend.N": "16", "backend.L": "1e6",
      "flow.T": "0.02", "flow.dt": "2e-3", "entropy.a": "1",
      "heat.datum": "random_smooth", "heat.amplitude": "0.02"},
     "backend.L: the random_smooth datum's mean 1/volume = 1e-12 is below the "
     "positivity floor 1e-10"),
    # Arrays past numpy's index range are rejected by arithmetic, before
    # anything is allocated: the flow's 2e299 stored states, and one grid.
    ({"backend.kind": "round_sphere", "flow.T": "0.1", "flow.dt": "1e-300"},
     "flow.dt: 1e+299 rows (2e+299 stored flow states): 1.6e+300 bytes of "
     "float64, past numpy's largest array (9223372036854775807 bytes)"),
    ({"backend.kind": "conformal_torus", "backend.N": "100000000000",
      "flow.T": "0.02", "flow.dt": "2e-3", "entropy.a": "1"},
     "backend.N: one 100000000000 x 100000000000 grid: 8e+22 bytes"),
    # T / dt past the double range: checked before it is made an int
    ({"backend.kind": "round_sphere", "flow.T": "0.1", "flow.dt": "5e-324"},
     "flow.dt: inf rows (inf stored flow states)"),
    # flow.dt = auto on a subnormal scale: the bound c / 8 underflows to 0
    ({"backend.kind": "berger_sphere", "backend.A0": "5e-324", "flow.T": "1"},
     "flow.dt: inf rows (inf stored flow states)"),
    ({"backend.kind": "round_sphere", "flow.T": "0.1", "flow.dt": "0"},
     "flow.dt: must be positive or 'auto'"),
    ({"backend.kind": "round_sphere", "flow.T": "0.1", "flow.dt": "-1e-3"},
     "flow.dt: must be positive or 'auto'"),
    ({"backend.kind": "round_sphere", "flow.T": "0.1", "flow.safety": "0"},
     "flow.safety: must lie in (0, 1]"),
    ({"backend.kind": "round_sphere", "flow.T": "0.1", "flow.safety": "1.5"},
     "flow.safety: must lie in (0, 1]"),
    ({"backend.kind": "round_sphere", "flow.T": "0.1", "backend.n": "1"},
     "backend.n: sphere dimension must be >= 2"),
    ({"backend.kind": "round_sphere", "flow.T": "0.1", "backend.c0": "-1"},
     "backend.c0: must be positive"),
    ({"backend.kind": "berger_sphere", "flow.T": "0.1", "backend.A0": "0"},
     "backend.A0: must be positive"),
    ({"backend.kind": "berger_sphere", "flow.T": "0.1", "backend.B0": "0"},
     "backend.B0: must be positive"),
    ({"backend.kind": "berger_sphere", "flow.T": "0.1", "backend.C0": "-2"},
     "backend.C0: must be positive"),
    ({"backend.kind": "conformal_torus", "flow.T": "0.1", "backend.N": "7"},
     "backend.N/backend.L: grid size N must be even and >= 8, got 7"),
    ({"backend.kind": "conformal_torus", "flow.T": "0.1", "backend.L": "-1"},
     "backend.N/backend.L: period L must be positive, got -1.0"),
    # Inputs at the edge of the float range, each named by its own key: the
    # torus h**2 of the volume overflows (an OverflowError, as the large-n
    # round sphere's volume raises), the phase mode * 2 pi x / L overflows
    # in x or in mode, a 400-digit mode does not convert to a float, and
    # h * h underflows to 0.
    ({**EDGE, "backend.L": "1e200"},
     "backend.L: the initial metric's curvature or volume is not finite"),
    ({**EDGE, "backend.L": "1e308"},
     "backend.L: the initial phi's phase is not finite"),
    ({**EDGE, "backend.phi_mode": "1" + "0" * 307},
     "backend.phi_mode: the initial phi's phase is not finite"),
    ({**EDGE, "backend.phi_mode": "1" + "0" * 399},
     "backend.phi_mode: the initial phi's phase is not finite"),
    ({**EDGE, "backend.L": "1e-200"},
     "backend.L: the initial metric's curvature or volume is not finite"),
    # The volume c^{n/2} times the unit 260-sphere's 1e-155 underflows to 0.
    ({"backend.kind": "round_sphere", "backend.n": "260", "backend.c0": "1e-62",
      "flow.T": "1"}, "backend.c0: the initial metric's volume underflows to 0"),
    # The bump's scale (L / (pi * width))**2 and its phases pi (x - cx) / L.
    ({**EDGE, "heat.datum": "bump", "heat.width": "1e-300"},
     "heat.width: the bump scale is not finite"),
    ({**EDGE, "heat.datum": "bump", "heat.center_x": "1e308",
      "heat.center_y": "0"},
     "heat.center_x/center_y: a bump phase is not finite"),
    ({**EDGE, "heat.datum": "bump", "heat.center_x": "0",
      "heat.center_y": "-1e308"},
     "heat.center_x/center_y: a bump phase is not finite"),
    # An explicit step whose flow half step is over g(0)'s stability bound
    # h^2 / 8 = 0.0192766: the run would end in StepTooLarge at t = 0.
    ({**EDGE, "flow.T": "0.8", "flow.dt": "0.05", "entropy.a": "0.1"},
     "flow.dt: the flow step dt/2 = 0.025 exceeds the stability bound "
     "0.0192766 of g(0); the largest flow.dt that passes is "
     "0.038553142191793864"),
    # g(0)'s smallest scale below the flow's floor 1e-6 would end the run in
    # BlowUp at t = 0: c0 = 1e-7, and e^{2 min phi} = e^{-14} on the torus,
    # rejected before the ground-state solve on that metric.
    ({"backend.kind": "round_sphere", "backend.c0": "1e-7", "flow.T": "1",
      "flow.dt": "1e-9", "entropy.a": "1"},
     "backend.c0: g(0)'s smallest metric scale 1e-07 is below the flow's "
     "floor 1e-06"),
    ({"backend.kind": "conformal_torus", "backend.N": "16",
      "backend.phi_amplitude": "7", "flow.T": "1e-9", "flow.dt": "1e-10",
      "entropy.a": "100"},
     "backend.phi_amplitude: g(0)'s smallest metric scale 8.31529e-07 is "
     "below the flow's floor 1e-06"),
    # A subnormal half step holds too few digits for the flow's horizon to
    # be a multiple of it: integrate_forward would raise a ValueError.
    ({"backend.kind": "round_sphere", "flow.T": "2.36214e-318",
      "flow.dt": "1.138e-320", "entropy.a": "1"},
     "flow.dt: the flow step dt/2 = 5.69164e-321 is subnormal, below "
     "2.22507e-308"),
], ids=["no-keys", "no-kind", "no-T", "bad-kind", "unknown", "bad-dt",
        "empty-a", "neg-T", "zero-T", "bad-tol", "zero-tol-equiv",
        "negative-tol-mass", "repeated-a", "tag-collision-a", "signed-zero-a",
        "bad-datum", "bad-width", "zero-width", "lone-center-x",
        "lone-center-y", "negative-cutoff", "zero-cutoff", "negative-seed",
        "inf-c0", "inf-A0", "inf-L", "nan-phi-amplitude", "inf-T", "inf-a",
        "neg-inf-in-a-list", "inf-dt", "constant-datum-large-L",
        "constant-datum-large-c0", "random-datum-large-L",
        "flow-past-index-range", "grid-past-index-range",
        "flow-steps-past-double-range", "auto-dt-underflows-to-0", "zero-dt",
        "negative-dt", "zero-safety", "safety-above-1", "sphere-n-1",
        "negative-c0", "zero-A0", "zero-B0", "negative-C0", "odd-N",
        "negative-L", "torus-L-1e200", "torus-L-1e308", "torus-mode-1e307",
        "torus-mode-400-digits", "torus-L-1e-200", "sphere-volume-underflows",
        "bump-width-1e-300", "bump-center-x-1e308",
        "bump-center-y-minus-1e308", "flow-step-over-the-bound",
        "sphere-c0-below-floor", "torus-scale-below-floor",
        "subnormal-flow-step"])
def test_make_config_errors(raw, msg):
    # make_config rejects the keys it parses; validate_config the settings
    # that need the initial metric; check_config, after validate_config, the
    # flow step over g(0)'s stability bound.
    with pytest.raises(rl.ConfigError) as exc:
        check_config(make_config(raw))
    assert msg in str(exc.value)


def test_declared_defaults_satisfy_their_rules():
    # make_config checks only the keys given, which is complete because each
    # default satisfies its own key's rule (None, an unset key, is never
    # checked); a required key has no default.
    ruled = [f for f in dataclasses.fields(RunConfig)
             if f.metadata and f.metadata["rule"]]
    assert len(ruled) == 17
    for f in ruled:
        ok, _ = f.metadata["rule"]
        default = (f.default if f.default_factory is dataclasses.MISSING
                   else f.default_factory())
        if default is not dataclasses.MISSING and default is not None:
            assert ok(default), f.name
    assert {f.metadata["backend"] for f in ruled} == {
        None, "round_sphere", "berger_sphere"}


@pytest.mark.parametrize("raw", [
    {**EDGE, "backend.n": "1"},
    {**EDGE, "backend.c0": "-1"},
    {**EDGE, "backend.A0": "0"},
    {"backend.kind": "round_sphere", "flow.T": "0.1", "flow.dt": "1e-2",
     "entropy.a": "1", "backend.B0": "0"},
    {"backend.kind": "berger_sphere", "flow.T": "0.1", "flow.dt": "1e-2",
     "entropy.a": "1", "backend.n": "1", "backend.c0": "0"},
], ids=["torus-n-1", "torus-c0-negative", "torus-A0-zero", "round-B0-zero",
        "berger-n-1-c0-zero"])
def test_backend_rules_apply_to_their_backend_only(raw):
    # A round-sphere or Berger rule applies only when its backend is the
    # configured one; on the others the key is accepted and unused.
    check_config(make_config(raw))


def test_flow_dt_at_the_stability_bound_passes_check(tmp_path):
    # The flow steps dt / 2 and fails a step over its bound by the rule
    # flow.step_limit; check_config takes the same rule at g(0).  A flow.dt
    # of exactly twice the bound passes, and so does the largest flow.dt the
    # error names, whose run finishes; the next float up is rejected.
    raw = {**EDGE, "flow.T": "0.8", "entropy.a": "0.1"}
    bound = rl.stability_dt(validate_config(make_config(raw)).m0)
    assert bound == (TWO_PI / 16) ** 2 / 8.0
    check_config(make_config({**raw, "flow.dt": 2.0 * bound}))
    with pytest.raises(rl.ConfigError) as exc:
        check_config(make_config({**raw, "flow.dt": "0.05"}))
    largest = float(str(exc.value).rsplit(" ", 1)[1])
    assert largest > 2.0 * bound
    validated = check_config(make_config(
        {**raw, "flow.T": 4.0 * largest, "flow.dt": largest}))
    assert run(validated, tmp_path / "edge").exit_code == 0
    with pytest.raises(rl.ConfigError, match="^flow.dt: the flow step"):
        check_config(make_config(
            {**raw, "flow.dt": math.nextafter(largest, math.inf)}))


def test_random_datum_mode_cells_are_capped(monkeypatch):
    # Cutoff c gives 2 c (c + 1) modes, each a pass over at least 32 x 32
    # cells: 65160 modes (cutoff 180) are under the cap of 2^26 mode-cells on
    # N = 32 and N = 16, 65884 (cutoff 181) past it.
    from riccilab import harness

    raw = {"backend.kind": "conformal_torus", "flow.T": "0.1",
           "heat.datum": "random_smooth"}
    for n in ("16", "32"):
        assert make_config({**raw, "backend.N": n, "heat.cutoff": "180"}).cutoff == 180
        with pytest.raises(rl.ConfigError) as exc:
            make_config({**raw, "backend.N": n, "heat.cutoff": "181"})
        assert str(exc.value).startswith("heat.cutoff: 65884 random_smooth modes")
    # The cap itself passes, one mode-cell past it does not: cutoff 2 (12
    # modes) on a 64 x 64 grid.
    at_cap = {**raw, "backend.N": "64", "heat.cutoff": "2"}
    monkeypatch.setattr(harness, "_MAX_MODE_CELLS", 12 * 64 * 64)
    assert make_config(at_cap).cutoff == 2
    monkeypatch.setattr(harness, "_MAX_MODE_CELLS", 12 * 64 * 64 - 1)
    with pytest.raises(rl.ConfigError, match="^heat.cutoff: 12 random_smooth"):
        make_config(at_cap)
    # No other datum or backend builds the modes.
    monkeypatch.undo()
    for other in ({"heat.datum": "bump"}, {"backend.kind": "round_sphere"}):
        assert make_config({**raw, **other, "heat.cutoff": "1000000"}).cutoff == 10**6


def test_readme_key_table_lists_every_declared_key():
    # README's key table names each key a RunConfig field declares, a row
    # like `backend.A0/B0/C0` standing for backend.A0, B0 and C0, with one
    # default per named key group; exactly the required keys (fields with
    # no default) read "required".
    declared = {f.metadata["key"]: f for f in dataclasses.fields(RunConfig)
                if f.metadata}
    required = {key for key, f in declared.items()
                if f.default is f.default_factory is dataclasses.MISSING}
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("\n| key ", 1)[1].split("\n\n", 1)[0].splitlines()[2:]
    marked = {}
    for line in table:
        cells = line.strip().strip("|").split("|")
        groups = re.findall(r"`([^`]+)`", cells[0])
        defaults = [d.strip() for d in cells[-1].split(",")]
        assert len(defaults) == len(groups), line
        for group, default in zip(groups, defaults):
            head, *rest = group.split("/")
            section = head.rsplit(".", 1)[0]
            for key in [head] + [f"{section}.{name}" for name in rest]:
                marked[key] = default == "required"
    assert set(marked) == set(declared)
    assert {key for key, req in marked.items() if req} == required
    assert required == {"backend.kind", "flow.T"}


def test_readme_names_every_manifest_field_cli_option_and_exit_code(tmp_path):
    # The README is the contract.  In backticks or in its CLI usage block it
    # names every top-level manifest key of a passing sphere run and of the
    # documented N = 16 torus over-step (exit 3), every entry of their
    # blocks, and every subcommand and option of the CLI parser; its
    # exit-code paragraph names each exit code.
    import argparse

    from riccilab import cli

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    usage = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    named = set(re.findall(r"`([^`\n]+)`", readme)) | set(usage.split())

    passed = run(validate_config(make_config(ROW_KERNEL_CFGS["round_sphere"])),
                 tmp_path / "passed")
    over = run(validate_config(make_config(
        {**EDGE, "flow.T": "0.8", "flow.dt": "0.05"})), tmp_path / "over")
    assert (passed.exit_code, over.exit_code) == (0, 3)
    names = set()
    for result in (passed, over):
        manifest = json.loads((result.out_dir / "manifest.json").read_text())
        names |= set(manifest)
        for block in ("resolved", "timings", "cpu_s", "minor_faults",
                      "peak_rss_mb", "steps", "lambda0", "summary"):
            names |= set(manifest[block] or ())
        for check in manifest["admissibility"]:
            names |= set(check)
    (commands,) = [action for action in cli._build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    for command, parser in commands.choices.items():
        names.add(command)
        names |= {option for action in parser._actions
                  for option in action.option_strings} - {"-h", "--help"}
    assert sorted(names - named) == []

    (exit_codes,) = [paragraph for paragraph in readme.split("\n\n")
                     if paragraph.startswith("Exit codes")]
    assert set(re.findall(r"`(\d)`", exit_codes)) == {"0", "1", "2", "3"}


def test_flat_torus_zero_adjustment_inadmissible():
    cfg = make_config({
        "backend.kind": "conformal_torus", "backend.N": "16",
        "flow.T": "0.02", "flow.dt": "1e-3", "entropy.a": "0",
    })
    with pytest.raises(rl.AdmissibilityError) as exc:
        validate_config(cfg)
    assert "a=0" in str(exc.value)
    # lambda0 = 0 on the flat torus: the bound prints as 0, not -0.
    assert str(exc.value).endswith(" = 0")


def test_cli_check_prints_a_zero_bound_unsigned(tmp_path, capsys):
    # The flat torus (phi_amplitude 0 by default) has lambda0(g(0)) = 0.
    path = write_cfg(tmp_path / "flat.cfg", """
backend.kind = conformal_torus
backend.N = 16
flow.T = 0.02
flow.dt = 1e-3
entropy.a = 0.5
""")
    capsys.readouterr()
    assert cli_main(["check", path]) == 0
    assert "  a=0.5: admissible (a > 0)\n" in capsys.readouterr().out


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


def test_summary_counts_a_y_drop_of_five_tol_mono(sphere_result):
    # A Y drop of 5 tol.mono at one interior row of the a = 0 soliton, whose
    # Y is constant to round-off, is one monotonicity violation for a = 0;
    # a = 1's Y, which rises by far more per row, has none.
    from riccilab import harness

    cfg = make_config({"backend.kind": "round_sphere", "flow.T": "0.4",
                       "entropy.a": "0, 1", "tol.mono": "1e-6"})
    Y = sphere_result.tables.Y.copy()
    Y[100:, 0] -= 5e-6
    summary = harness._summary(
        dataclasses.replace(sphere_result.tables, Y=Y), cfg)
    assert summary["monotonicity_violations"] == {"0": 1, "1": 0}
    # Two more such drops are three violations: every drop is counted.
    Y[60:, 0] -= 5e-6
    Y[150:, 0] -= 5e-6
    summary = harness._summary(
        dataclasses.replace(sphere_result.tables, Y=Y), cfg)
    assert summary["monotonicity_violations"] == {"0": 3, "1": 0}


@pytest.mark.parametrize("row", [0, -1])
def test_summary_max_res_equiv_includes_the_endpoint_rows(sphere_result, row):
    # max_res_equiv is taken over every row, the endpoints too.
    from riccilab import harness

    cfg = make_config({"backend.kind": "round_sphere", "flow.T": "0.4",
                       "entropy.a": "0, 1"})
    res = sphere_result.tables.res_equiv.copy()
    res[row, 1] = 10.0 * np.max(res) + 1e-9
    summary = harness._summary(
        dataclasses.replace(sphere_result.tables, res_equiv=res), cfg)
    assert summary["max_res_equiv"] == res[row, 1]


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


def test_manifest_metric_grid(sphere_result, curved_torus_result, tmp_path):
    # Config tori start from a y-invariant phi: the flow steps one column.
    def grid(result):
        manifest = json.loads((result.out_dir / "manifest.json").read_text())
        return manifest["resolved"]["metric_grid"]

    assert grid(curved_torus_result) == [16, 1]
    assert grid(sphere_result) is None
    cfg = make_config(parse_config_file(write_cfg(tmp_path / "flat.cfg", FLAT_CFG)))
    assert grid(run(validate_config(cfg), tmp_path / "out")) == [cfg.N, 1]


def test_lambda0_g0_is_row_0_lambda0(tmp_path, capsys):
    # g(0) has one ground-state solve: validate_config's admissibility value
    # is the run's row-0 lambda0 bit for bit, both solved on the column the
    # flow steps, and check prints it.  The config is the benchmark's
    # many-a torus (501 rows, six adjustment values).
    path = write_cfg(tmp_path / "many_a.cfg", """
backend.kind = conformal_torus
backend.N = 32
backend.phi_amplitude = 0.1
backend.phi_mode = 1
flow.T = 1.0
flow.dt = 2e-3
heat.datum = random_smooth
heat.seed = 1
heat.amplitude = 0.02
heat.cutoff = 2
entropy.a = 0.1, 0.25, 0.5, 1, 2, 4
""")
    assert cli_main(["run", path, "--out", str(tmp_path / "o")]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    header, cols = read_csv(tmp_path / "o" / "data.csv")
    row0 = cols[header.index("lambda0")][0]
    assert manifest["lambda0_g0"] == row0
    assert [chk["lambda0_g0"] for chk in manifest["admissibility"]] == [row0] * 6
    capsys.readouterr()
    assert cli_main(["check", path]) == 0
    assert f"lambda0(g(0)) = {row0:.12g}\n" in capsys.readouterr().out


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


def test_manifest_lambda0_diagnostics(sphere_result, curved_torus_result):
    def block(result):
        manifest = json.loads((result.out_dir / "manifest.json").read_text())
        return manifest["lambda0"]

    # closed form on the sphere
    assert block(sphere_result) == {
        "iterations_max": 0, "iterations_mean": 0, "residual_max": 0.0}
    # on the torus: the LOPCG counts and residuals of the rows' own solves
    t = curved_torus_result.tables
    diag = block(curved_torus_result)
    assert diag == {
        "iterations_max": int(np.max(t.lam0_iterations)),
        "iterations_mean": float(np.mean(t.lam0_iterations)),
        "residual_max": float(np.max(t.lam0_residuals)),
    }
    assert len(t.lam0_iterations) == len(t.times) == 11
    assert 1 <= diag["iterations_mean"] <= diag["iterations_max"] < 20
    assert 0.0 < diag["residual_max"] <= LAMBDA0_TOL
    header = (curved_torus_result.out_dir / "data.csv").read_text().split("\n")[0]
    assert "iter" not in header and "resid" not in header


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
        u, _ = rl.change_variables(rl.ScalarField(hist.backend, hist.v[k]))
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


def spied_kernel_run(a_values, workers, tmp_path, monkeypatch):
    """Run the curved torus over blocks of 3 rows on ``workers`` processes,
    spying on the stacked kernel and the per-state functionals through a
    ``ProcessLog``, which the pool's workers write to as well; each
    ``row_values`` call in this process takes 0.05 s more.  Returns the
    result and, per ``row_values`` call in the order made, the pid of the
    process that made it and the times it covered; checks that the stacked
    cores covered the same rows in as many calls and that no per-state
    functional ran."""
    from riccilab import functionals, harness, parallel, variation

    stacked = ("row_values", "_energy", "_variation_tensor")
    per_state = ("f_functional", "shannon_entropy", "matrix_quantity",
                 "_state_rates")
    log, parent = ProcessLog(), os.getpid()

    def spy(name, fn):
        def wrapped(*args):
            # row_values(g, v, times, a): times; stacked cores: the rows of u
            log.record(name, tuple(map(float, args[2])) if name == "row_values"
                       else len(args[1]) if name in stacked else 0)
            if name == "row_values" and os.getpid() == parent:
                time.sleep(0.05)
            return fn(*args)
        return wrapped

    for name in stacked + per_state:
        module = variation if hasattr(variation, name) else functionals
        original = getattr(module, name)
        for ns in (functionals, variation, harness):
            if getattr(ns, name, None) is original:
                monkeypatch.setattr(ns, name, spy(name, original))
    monkeypatch.setattr(parallel, "WORKERS", workers)
    monkeypatch.setattr(parallel, "ROW_CELLS", workers * 3 * 16**2)
    validated = validate_config(make_config(
        {**ROW_KERNEL_CFGS["curved_torus"], "entropy.a": a_values}))
    result = run(validated, tmp_path / "out")
    assert result.exit_code == 0 and validated.num_rows == 11
    calls = {name: [] for name in stacked + per_state}
    for pid, name, payload in log.records():
        calls[name].append((pid, payload))
    for name in ("_energy", "_variation_tensor"):
        assert sum(n for _, n in calls[name]) == 11, name
        assert len(calls[name]) == len(calls["row_values"]), name
    assert all(not calls[name] for name in per_state)
    return result, calls["row_values"]


@pytest.mark.parametrize("a_values", ["0.1", "0.1, 0.5, 2"])
def test_row_kernel_builds_tensor_and_energy_once_per_row(a_values, tmp_path,
                                                          monkeypatch):
    # The stacked kernel builds F and T once per row whatever len(a) is: over
    # blocks of 3 rows its calls cover every row exactly once, in order, and
    # no per-state functional runs beside it.  The order is the serial map's:
    # one worker, which runs every block in the calling process.
    result, blocks = spied_kernel_run(a_values, 1, tmp_path, monkeypatch)
    assert [len(t) for _, t in blocks] == [3, 3, 3, 2]
    np.testing.assert_array_equal(np.concatenate([t for _, t in blocks]),
                                  result.tables.times)
    assert {pid for pid, _ in blocks} == {os.getpid()}


@pytest.mark.parametrize("a_values", ["0.1", "0.1, 0.5, 2"])
def test_row_kernel_covers_each_row_once_on_the_pool(a_values, tmp_path,
                                                      monkeypatch):
    # On two processes the caller evaluates the blocks from the first up,
    # in order, and one forked worker from the last down, until they meet;
    # the caller's blocks are slow, so the worker takes at least one.  Every
    # row is covered exactly once, and the manifest counts the worker's.
    result, blocks = spied_kernel_run(a_values, 2, tmp_path, monkeypatch)
    mine = [t for pid, t in blocks if pid == os.getpid()]
    theirs = [(pid, t) for pid, t in blocks if pid != os.getpid()]
    assert len({pid for pid, _ in theirs}) == 1
    np.testing.assert_array_equal(
        np.concatenate(mine + [t for _, t in theirs][::-1]),
        result.tables.times)
    starts = [t[0] for t in mine] + [t[0] for _, t in theirs][::-1]
    assert starts == list(result.tables.times[::3])
    manifest = json.loads((result.out_dir / "manifest.json").read_text())
    assert manifest["workers"] == 2 and manifest["workers_peak_rss_mb"] > 0.0
    assert manifest["workers_rows"] == sum(len(t) for _, t in theirs) > 0


# -------------------------------------------------------------------------
# Stacked row kernel: block independence and failure order
# -------------------------------------------------------------------------

def low_mode(backend, amplitude, rng):
    """Random trigonometric polynomial in modes 0..2 with max |.| = amplitude."""
    x, y = rl.grid_coords(backend)
    w = np.zeros((backend.N, backend.N))
    for kx in range(3):
        for ky in range(3):
            c, theta = rng.uniform(-1.0, 1.0), rng.uniform(0.0, TWO_PI)
            w += c * np.cos(TWO_PI * (kx * x + ky * y) / backend.L + theta)
    return w * (amplitude / max(np.max(np.abs(w)), 1e-300))


def torus_case(N, L, phi_amp, logv_amp, seed):
    backend = rl.ConformalTorus2D(N, L)
    rng = np.random.default_rng(seed)
    m0 = rl.MetricState(backend, 0.0, low_mode(backend, phi_amp, rng))
    dt = 0.25 * rl.stability_dt(m0)
    traj = rl.integrate_forward(m0, 12 * dt, dt)
    m_T = traj.final_state()
    v = np.exp(low_mode(backend, logv_amp, rng))
    v_T = rl.scalar_field(m_T, v / rl.integrate(m_T, rl.scalar_field(m_T, v)))
    return traj, v_T


def homogeneous_case(m0, extinction):
    dt = 0.05 * extinction / 12
    traj = rl.integrate_forward(m0, 12 * dt, dt)
    return traj, rl.terminal_datum("constant", traj.final_state())


def round_case(n, c0):
    m0 = rl.MetricState(rl.RoundSphere(n), 0.0, np.array([c0]))
    return homogeneous_case(m0, c0 / (2.0 * (n - 1)))


def berger_case(A, B, C):
    m0 = rl.MetricState(rl.BergerSphere(), 0.0, np.array([A, B, C]))
    return homogeneous_case(m0, min(A, B, C) / 8.0)


KERNEL_A = [0.3, 1.0, 4.0]


def admissible(case):
    """Every a of KERNEL_A satisfies a > -lambda0(g(0)), as validate_config
    requires; for other a, omega = a + F/4 <= lambda0 + a fails on a row."""
    traj, _ = case
    return min(KERNEL_A) > -rl.lambda0(traj.state(0))


# Trajectories of 12 flow steps and their terminal densities (7 rows at a row
# step of two flow steps) on which every a of KERNEL_A is admissible.
ROW_CASES = st.one_of(
    st.builds(torus_case, N=st.integers(4, 16).map(lambda k: 2 * k),
              L=st.floats(1.0, 4.0 * math.pi), phi_amp=st.floats(0.0, 0.3),
              logv_amp=st.floats(0.0, 0.3), seed=st.integers(0, 2**32 - 1)),
    st.builds(round_case, n=st.integers(2, 10), c0=st.floats(0.5, 2.0)),
    st.builds(berger_case, A=st.floats(0.7, 1.5), B=st.floats(0.7, 1.5),
              C=st.floats(0.7, 1.5)),
).filter(admissible)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(case=ROW_CASES)
def test_row_blocks_match_public_functionals_bitwise(case):
    # Blocks of 1 row, 3 rows and the whole stack give every table column
    # bitwise equal to the public functionals on each row (a stack of one),
    # and the heat solve's blocked snapshot geometry moves no bit either.
    from riccilab import functionals, harness, parallel

    traj, v_T = case
    step = 2.0 * traj.dt
    hist = rl.solve_backward(traj, v_T, step=step)
    K, cells = len(hist.times), traj.backend.cells
    expected = {name: [] for name in (
        "F", "S", "lam0", "dF_rhs", "sub_lhs", "sub_rhs", "om", "Y",
        "rhs_thm", "rhs_ye")}
    for k, t in enumerate(hist.times):
        m = traj.state(2 * k)
        u, f = rl.change_variables(rl.ScalarField(hist.backend, hist.v[k]))
        F = rl.f_functional(m, u)
        T = rl.matrix_quantity(m, u)
        v = hist.v[k]
        for name, value in (
            ("F", F), ("S", rl.shannon_entropy(m, u)),
            ("lam0", functionals.lambda0(m)),
            ("dF_rhs", 2.0 * rl.integrate(m, rl.scalar_field(
                m, m.stack.tensor_norm_sq(T, m.stack.cross_sq(T))
                * u.values**2))),
            ("sub_lhs", rl.integrate(m, rl.scalar_field(
                m, rl.laplace_beltrami(m, f).values * v))),
            ("sub_rhs", rl.integrate(m, rl.scalar_field(
                m, gradient_inner(m, f, f).values * v))),
            ("om", [rl.omega(F, a) for a in KERNEL_A]),
            ("Y", [rl.log_entropy(m, u, a, float(t)) for a in KERNEL_A]),
            ("rhs_thm", [rl.rhs_split(m, u, a) for a in KERNEL_A]),
            ("rhs_ye", [rl.rhs_combined(m, u, a) for a in KERNEL_A]),
        ):
            expected[name].append(value)
    for rows in (1, 3, K):
        with pytest.MonkeyPatch.context() as mp:
            # A row block holds ROW_CELLS // WORKERS cells.
            mp.setattr(parallel, "ROW_CELLS", rows * cells * parallel.WORKERS)
            assert np.array_equal(rl.solve_backward(traj, v_T, step=step).v, hist.v)
            tables, error = harness.evaluate_tables(
                traj, chunks_through_out(hist), KERNEL_A)
        assert error is None and len(tables.times) == K
        for name, want in expected.items():
            assert np.array_equal(getattr(tables, name), np.array(want)), (rows, name)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(case=ROW_CASES)
def test_row_kernel_matches_reference_bitwise(case):
    # The kernel shares u**2, the differences of u and the off-diagonal part
    # of the tensor norm between F, S, T, dF_rhs and every rate; the
    # reference builds each functional on its own.  Over blocks of 1 row, 3
    # rows and all K rows every field is bitwise the same, and the same as
    # the reference over all K rows, also with the extra a = -min(F)/4,
    # whose omega is 0 on the rows of least F, so that Y is nan there.
    # row_failure finds the same row and error as the reference loop, at
    # least once at a block's first row.  On nearly flat cases every omega
    # of that a is nearly 0 and the rates overflow, alike in both:
    # floating-point warnings are off.
    from riccilab.functionals import GroundStates
    from riccilab.variation import row_failure, row_values

    traj, v_T = case
    hist = rl.solve_backward(traj, v_T, step=2.0 * traj.dt)
    K = len(hist.times)
    params = traj.params[::2][:K]
    F = row_values_reference(traj.backend.stack(params), hist.v, hist.times,
                             KERNEL_A).F
    a_values = KERNEL_A + [-float(np.min(F)) / 4.0]
    with np.errstate(all="ignore"):
        full = row_values_reference(traj.backend.stack(params), hist.v,
                                    hist.times, a_values)
    failures = []
    for rows in (1, 3, K):
        for start in range(0, K, rows):
            block = slice(start, start + rows)
            args = (traj.backend.stack(params[block]), hist.v[block],
                    hist.times[block], a_values)
            with np.errstate(all="ignore"):
                got = row_values(*args)
                want = row_values_reference(*args)
            for field in dataclasses.fields(want):
                name = field.name
                for expected in (getattr(want, name), getattr(full, name)[block]):
                    assert np.array_equal(getattr(got, name), expected,
                                          equal_nan=True), (rows, start, name)
            n = len(got.F)
            ground = GroundStates(np.zeros(n), np.zeros(n, dtype=int),
                                  np.zeros(n))
            table = np.stack([got.Y, got.om, got.rhs_split, got.rhs_combined])
            k, error = row_failure(ground, got.F, table, args[2], a_values)
            want_k, want_error = row_failure_reference(ground, got.F, table,
                                                       args[2], a_values)
            assert (k, type(error), str(error)) == (
                want_k, type(want_error), str(want_error))
            if error is not None:
                failures.append(k)
    assert len(failures) >= 3 and 0 in failures


def table_arrays(tables):
    """Every array of a RunTables, the VariationReport's included, by name."""
    arrays = {f.name: getattr(tables, f.name) for f in dataclasses.fields(tables)}
    report = arrays.pop("variation")
    arrays.update((f.name, getattr(report, f.name))
                  for f in dataclasses.fields(report))
    return {name: a for name, a in arrays.items() if isinstance(a, np.ndarray)}


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(case=ROW_CASES)
def test_tables_independent_of_worker_count(case):
    # One-row blocks make 7 blocks, which 2 and 3 workers do not divide
    # evenly, and the 7 rows arrive in chunks of 3, 3 and 1 rows through the
    # pool's 3-row chunk array (CHUNK_CELLS); every table column and
    # lambda0's values, iterations and residuals are bitwise the same on 1,
    # 2 and 3 workers.
    from riccilab import harness, parallel

    traj, v_T = case
    step = 2.0 * traj.dt
    hist = rl.solve_backward(traj, v_T, step=step)
    assert len(hist.times) == 7
    results = []
    for workers in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(parallel, "WORKERS", workers)
            mp.setattr(parallel, "ROW_CELLS", workers * traj.backend.cells)
            mp.setattr(parallel, "CHUNK_CELLS", 4 * 3 * traj.backend.cells)
            tables, error = harness.evaluate_tables(
                traj, chunks_through_out(hist), KERNEL_A)
        assert error is None and len(tables.times) == 7
        results.append(table_arrays(tables))
    serial = results[0]
    assert {"lam0", "lam0_iterations", "lam0_residuals", "dY_fd"} <= set(serial)
    for pooled in results[1:]:
        assert pooled.keys() == serial.keys()
        for name, want in serial.items():
            assert np.array_equal(pooled[name], want), name


def sphere_rows(n_rows=11):
    """Trajectory and density history of the unit round 2-sphere."""
    m0 = rl.MetricState(rl.RoundSphere(2), 0.0, np.array([1.0]))
    traj = rl.integrate_forward(m0, 1e-3 * (n_rows - 1), 5e-4)
    return traj, rl.solve_backward(traj, rl.terminal_datum("constant",
                                                           traj.final_state()),
                                   step=1e-3)


def poisoned(hist, k, scale):
    v = hist.v.copy()
    v[k] = v[k] * scale
    return rl.DensityHistory(hist.backend, hist.times, v, hist.masses)


def mark_unconverged(mp, rows):
    """Patch ``harness.submit_ground_states`` to join the solve at once and
    mark ``rows`` unconverged, as a solve that missed ``LAMBDA0_TOL``
    would."""
    from riccilab import harness

    submit = harness.submit_ground_states

    def marked(g, pool):
        ground, call = submit(g, pool)
        pool.join(call)
        ground.residuals[list(rows)] = 2 * LAMBDA0_TOL
        return ground, call

    mp.setattr(harness, "submit_ground_states", marked)


def expected_error(fn, *args):
    with pytest.raises(rl.NumericalError) as exc:
        fn(*args)
    return type(exc.value), str(exc.value)


# (workers, rows per block) of the failure-order tests: every row in one
# block, mapped in the calling thread, then blocks of 3 rows on two threads.
POOLS = [(1, None), (2, 3)]


@contextmanager
def pool(workers, rows, cells):
    """Pin the row-block pool to ``workers`` threads and blocks of ``rows``
    rows of ``cells`` cells (None: one block for every row of these tests)."""
    from riccilab import parallel

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parallel, "WORKERS", workers)
        mp.setattr(parallel, "ROW_CELLS", workers * (rows or 2**12) * cells)
        yield


def torus_rows():
    """Trajectory and constant-datum density history of a curved N = 16
    torus, 11 rows."""
    backend = rl.ConformalTorus2D(16, TWO_PI)
    x, _ = rl.grid_coords(backend)
    m0 = rl.MetricState(backend, 0.0, 0.1 * np.sin(x) + np.zeros((16, 16)))
    traj = rl.integrate_forward(m0, 0.01, 5e-4)
    return traj, rl.solve_backward(traj, rl.terminal_datum("constant",
                                                           traj.final_state()),
                                   step=1e-3)


@pytest.mark.parametrize("k", [4, 9])
def test_row_kernel_stops_at_non_positive_omega_of_second_a(k):
    # Scaling row k's density down drops its F to 0.02, so omega = -0.3 + F/4
    # fails there for the second a only; math.log never sees it.
    from riccilab import harness

    traj, hist = sphere_rows()
    bad = poisoned(hist, k, 0.01)
    u, _ = rl.change_variables(rl.ScalarField(bad.backend, bad.v[k]))
    F_k = rl.f_functional(traj.state(2 * k), u)
    rl.omega(F_k, 1.0)
    for workers, rows in POOLS:
        with pool(workers, rows, traj.backend.cells):
            full, error = harness.evaluate_tables(
                traj, chunks_through_out(hist), [1.0, -0.3])
            assert error is None
            tables, error = harness.evaluate_tables(
                traj, chunks_through_out(bad), [1.0, -0.3])
        assert (type(error), str(error)) == expected_error(rl.omega, F_k, -0.3)
        assert len(tables.times) == k
        for name in ("F", "S", "om", "Y", "rhs_thm", "rhs_ye"):
            np.testing.assert_array_equal(getattr(tables, name),
                                          getattr(full, name)[:k])


@pytest.mark.parametrize("omega,lam0,raised", [
    (4, 4, rl.NoConvergence),    # lambda0 comes before omega
    (4, 5, rl.NonPositiveOmega),  # the earlier row wins
    (5, 4, rl.NoConvergence),
    (5, None, rl.NonPositiveOmega),
])
def test_row_failures_follow_the_row_check_order(omega, lam0, raised,
                                                 monkeypatch):
    from riccilab import harness

    traj, hist = sphere_rows()
    hist = poisoned(hist, omega, 0.01)
    if lam0 is not None:
        mark_unconverged(monkeypatch, [lam0])
    first = min(k for k in (omega, lam0) if k is not None)
    for workers, rows in POOLS:
        with pool(workers, rows, traj.backend.cells):
            tables, error = harness.evaluate_tables(
                traj, chunks_through_out(hist), [1.0, -0.3])
        assert type(error) is raised
        assert len(tables.times) == first


def test_heat_failure_comes_before_lambda0(tmp_path, monkeypatch):
    # The heat failures come first (README): the backward solve raises its
    # MassDrift before it hands the row over, so it ends the run even though
    # row 0's lambda0 did not converge, and both CSVs are header-only.
    mark_unconverged(monkeypatch, [0])
    validated = validate_config(make_config(
        {**ROW_KERNEL_CFGS["curved_torus"], "tol.mass": "5e-324"}))
    result = run(validated, tmp_path)
    assert (result.status, result.exit_code, result.tables) == (
        "MassDrift", 3, None)
    assert (tmp_path / "data.csv").read_text().count("\n") == 1


@pytest.mark.parametrize("later", ["omega", "lambda0"])
def test_earliest_failing_block_wins_on_the_pool(later, monkeypatch):
    # Row 4 fails its omega in the second 3-row block; a later block fails
    # too, by its own omega at row 9 or by its lambda0.  The pool runs that
    # block beside the earlier ones, yet row 4's class and message win and
    # rows 0-3 are kept, as on one block in the calling thread.
    from riccilab import harness

    traj, hist = sphere_rows()
    hist = poisoned(hist, 4, 0.01)
    if later == "omega":
        hist = poisoned(hist, 9, 0.01)
    else:
        mark_unconverged(monkeypatch, [9])
    u, _ = rl.change_variables(rl.ScalarField(hist.backend, hist.v[4]))
    want = expected_error(rl.omega, rl.f_functional(traj.state(8), u), -0.3)
    with pool(1, None, 1):
        serial, _ = harness.evaluate_tables(
            traj, chunks_through_out(sphere_rows()[1]), [1.0, -0.3])
    with pool(2, 3, 1):
        tables, error = harness.evaluate_tables(
            traj, chunks_through_out(hist), [1.0, -0.3])
    assert (type(error), str(error)) == want
    assert len(tables.times) == 4
    for name in ("F", "S", "lam0", "om", "Y", "rhs_thm", "rhs_ye"):
        np.testing.assert_array_equal(getattr(tables, name),
                                      getattr(serial, name)[:4])


@pytest.mark.parametrize("workers", [1, 2])
def test_later_block_exception_propagates(workers, monkeypatch):
    # Row 4 fails its omega, and the block of rows 9-10 raises.  Every row
    # is evaluated before the table is checked, so the exception propagates
    # on one process and on two alike (from the worker's share there, with
    # its type and message), and no worker outlives it.
    from riccilab import harness

    traj, hist = sphere_rows()
    hist = poisoned(hist, 4, 0.01)
    kernel = harness.row_values

    def exploding(g, v, times, a_values):
        if times[0] >= hist.times[9]:
            raise RuntimeError("later block exploded")
        return kernel(g, v, times, a_values)

    monkeypatch.setattr(harness, "row_values", exploding)
    with pool(workers, 3, 1):
        with pytest.raises(RuntimeError) as info:
            harness.evaluate_tables(traj, chunks_through_out(hist),
                                    [1.0, -0.3])
    assert info.value.args == ("later block exploded",)
    assert not children_left()


@pytest.mark.parametrize("k", [3, 7])
def test_evaluate_tables_stops_at_unconverged_row(k, monkeypatch):
    # The row solves run as one stack before the kernel; a row whose solve
    # did not converge fails where its lambda0 is read, keeping rows < k.
    from riccilab import harness

    traj, hist = torus_rows()
    full, error = harness.evaluate_tables(traj, chunks_through_out(hist),
                                          [0.5])
    assert error is None and len(full.times) == 11

    mark_unconverged(monkeypatch, [k])
    for workers, rows in POOLS:
        with pool(workers, rows, traj.backend.cells):
            tables, error = harness.evaluate_tables(
                traj, chunks_through_out(hist), [0.5])
        assert isinstance(error, rl.NoConvergence)
        assert len(tables.times) == k
        np.testing.assert_array_equal(tables.lam0, full.lam0[:k])
        np.testing.assert_array_equal(tables.F, full.F[:k])
        np.testing.assert_array_equal(tables.lam0_iterations,
                                      full.lam0_iterations[:k])


def test_evaluate_tables_rejects_chunks_that_miss_a_row():
    # Chunks of rows 0-4 and 6-10 leave row 5 unevaluated.
    from riccilab import harness

    traj, hist = sphere_rows()
    pieces = [rl.DensityHistory(hist.backend, hist.times[rows], hist.v[rows],
                                hist.masses[rows], rows.start)
              for rows in (slice(0, 5), slice(6, 11))]
    with pytest.raises(ValueError, match="density chunks hold 10 rows, not "
                                         "the trajectory's 11"):
        harness.evaluate_tables(traj, chunks_through_out(*pieces), [1.0])


STAGES = ("flow_s", "heat_s", "rows_s", "summary_s", "writers_s")


def test_manifest_timings_and_steps(sphere_result, curved_torus_result):
    for result in (sphere_result, curved_torus_result):
        manifest = json.loads((result.out_dir / "manifest.json").read_text())
        timings, steps = manifest["timings"], manifest["steps"]
        assert set(timings) == set(STAGES) | {"lambda0_s"}
        assert all(v >= 0.0 for v in timings.values())
        assert timings["lambda0_s"] <= timings["rows_s"]
        assert sum(timings[k] for k in STAGES) <= manifest["wall_clock_s"]
        rows = manifest["summary"]["rows"]
        # the flow is stored at half the row step
        assert steps["flow"] == 2 * (rows - 1) and steps["heat"] == rows - 1
        assert 0.0 < steps["max_dt_over_stability_dt"] <= 1.0
        header = (result.out_dir / "data.csv").read_text().split("\n", 1)[0]
        assert "_s" not in header and "steps" not in header
    # unit round 2-sphere: c(t) = 1 - 2t, bound c/8 smallest at the last step
    # from c = 0.5 + 2 * flow dt
    dt_flow = sphere_result.tables.times[1] / 2.0
    ratio = json.loads((sphere_result.out_dir / "manifest.json").read_text())[
        "steps"]["max_dt_over_stability_dt"]
    assert ratio == pytest.approx(dt_flow / ((0.5 + 2 * dt_flow) / 8.0), rel=1e-9)


def test_manifest_peak_rss(sphere_result, curved_torus_result, tmp_path):
    # The peak resident set at the end of each stage, never decreasing; a
    # stage the run did not reach (the summary of a failed run) is null.
    from riccilab import harness

    unstable = make_config({
        "backend.kind": "conformal_torus", "backend.N": "16",
        "backend.phi_amplitude": "0.1", "flow.T": "0.4", "flow.dt": "0.08",
        "heat.datum": "constant", "entropy.a": "0.5"})
    failed = run(validate_config(unstable), tmp_path / "failed")
    assert failed.status == "StepTooLarge"
    for result, reached in ((sphere_result, 4), (curved_torus_result, 4),
                            (failed, 0)):
        manifest = json.loads((result.out_dir / "manifest.json").read_text())
        memory = manifest["peak_rss_mb"]
        assert list(memory) == ["flow", "heat_and_rows", "summary", "writers"]
        values = [v for v in memory.values() if v is not None]
        assert len(values) == reached + (result is failed)
        assert all(v > 0.0 for v in values) and values == sorted(values)
        assert "peak_rss_mb" not in manifest["timings"]
    assert harness.resource is not None


def test_manifest_cpu_time_and_minor_faults(curved_torus_result, tmp_path,
                                            monkeypatch):
    # Every stage records its CPU time and minor page faults beside its
    # wall time, non-negative on every exit path: a passing run, a
    # numerical failure (the flow's StepTooLarge) and an internal error in
    # the row evaluation.
    from riccilab import harness

    unstable = make_config({
        "backend.kind": "conformal_torus", "backend.N": "16",
        "backend.phi_amplitude": "0.1", "flow.T": "0.4", "flow.dt": "0.08",
        "heat.datum": "constant", "entropy.a": "0.5"})
    failed = run(validate_config(unstable), tmp_path / "failed")
    assert failed.status == "StepTooLarge"

    def broken(traj, chunks, *args, **kwargs):
        for _ in chunks(None):  # the heat solve's own chunk buffer
            pass
        raise RuntimeError("row kernel exploded")

    validated = validate_config(make_config(ROW_KERNEL_CFGS["round_sphere"]))
    monkeypatch.setattr(harness, "evaluate_tables", broken)
    with pytest.raises(RuntimeError):
        run(validated, tmp_path / "internal")
    stages = ["flow_s", "heat_s", "lambda0_s", "rows_s", "summary_s",
              "writers_s"]
    for out in (curved_torus_result.out_dir, tmp_path / "failed",
                tmp_path / "internal"):
        manifest = json.loads((out / "manifest.json").read_text())
        cpu, faults = manifest["cpu_s"], manifest["minor_faults"]
        assert list(cpu) == stages and list(faults) == stages, out
        assert all(isinstance(v, float) and v >= 0.0 for v in cpu.values())
        assert all(isinstance(v, int) and v >= 0 for v in faults.values())
        assert cpu["flow_s"] > 0.0
        assert list(manifest["timings"]) == stages
    internal = json.loads((tmp_path / "internal" / "manifest.json").read_text())
    assert internal["status"] == "internal_error"
    assert internal["cpu_s"]["heat_s"] > 0.0


def test_stage_clock_invariants(tmp_path):
    # In every usage block of an ok torus run, lambda0_s is a part of
    # rows_s, and the five disjoint stages (heat_s taken out of rows_s) use
    # at most the CPU time and minor faults the whole run() did, its reaped
    # row-block workers included (this run's 2 blocks fork one when the
    # process may use 2 CPUs).  The heat
    # solve's CPU time (about 7 ms here) is well above what run() spends
    # outside its stages (under 1 ms, mostly the manifest), so counting it
    # in rows_s too would show.
    import resource

    validated = validate_config(make_config({
        "backend.kind": "conformal_torus", "backend.N": "32",
        "backend.phi_amplitude": "0.1", "flow.T": "0.04", "flow.dt": "1e-3",
        "heat.datum": "random_smooth", "heat.seed": "1", "entropy.a": "0.1"}))

    def usage():
        own, children = (resource.getrusage(who) for who in (
            resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        return (time.process_time() + children.ru_utime + children.ru_stime,
                own.ru_minflt + children.ru_minflt)

    before = usage()
    result = run(validated, tmp_path / "z")
    after = usage()
    assert result.status == "ok"
    manifest = json.loads((tmp_path / "z" / "manifest.json").read_text())
    for name in ("timings", "cpu_s", "minor_faults"):
        block = manifest[name]
        assert 0 <= block["lambda0_s"] <= block["rows_s"], name
    assert manifest["timings"]["lambda0_s"] > 0.0
    assert manifest["cpu_s"]["lambda0_s"] > 0.0
    for name, used in zip(("cpu_s", "minor_faults"),
                          (b - a for a, b in zip(before, after))):
        block = manifest[name]
        assert sum(block[k] for k in STAGES) <= used + 1e-9, name


def test_peak_rss_is_read_at_the_stage_end(tmp_path, monkeypatch):
    # Each stage's peak_rss_mb is the reading at its end, after the stage's
    # work: under a reader whose peak grows by 1 MiB a call, the summary
    # stage records more than the reading its work ran after.
    from riccilab import harness, parallel

    inside = []
    calls = iter(range(1, 100))

    def summary(tables, cfg):
        inside.append(next(calls))
        return real_summary(tables, cfg)

    real_summary = harness._summary
    monkeypatch.setattr(parallel, "peak_rss_mb", lambda: float(next(calls)))
    monkeypatch.setattr(harness, "_summary", summary)
    validated = validate_config(make_config(ROW_KERNEL_CFGS["round_sphere"]))
    assert run(validated, tmp_path / "z").status == "ok"
    peaks = json.loads((tmp_path / "z" / "manifest.json").read_text())[
        "peak_rss_mb"]
    assert peaks["heat_and_rows"] < inside[0] < peaks["summary"]


@pytest.mark.skipif(not Path("/proc/self/status").is_file(),
                    reason="VmHWM needs /proc/self/status")
def test_child_run_reports_its_own_peak_rss(tmp_path):
    # A run started as a child of a process that first touched 128 MiB:
    # getrusage's ru_maxrss in the child starts at that parent's peak, the
    # VmHWM that peak_rss_mb reads is reset by exec, and every stage's peak
    # stays below 100 MiB.
    child = ("import resource, sys\n"
             "from riccilab.harness import make_config, run, validate_config\n"
             f"cfg = make_config({ROW_KERNEL_CFGS['round_sphere']!r})\n"
             "assert run(validate_config(cfg), sys.argv[1]).status == 'ok'\n"
             "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    parent = ("import subprocess, sys\n"
              "held = b'x' * (128 << 20)\n"
              "subprocess.run([sys.executable, '-c', sys.argv[1], sys.argv[2]],"
              " check=True)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(rl.__file__).parent.parent)}
    done = subprocess.run(
        [sys.executable, "-c", parent, child, str(tmp_path / "out")], env=env,
        capture_output=True, text=True, check=True)
    assert int(done.stdout) / 1024.0 >= 128.0  # KiB on Linux
    peaks = json.loads((tmp_path / "out" / "manifest.json").read_text())[
        "peak_rss_mb"]
    assert set(peaks) == {"flow", "heat_and_rows", "summary", "writers"}
    assert all(0.0 < peak < 100.0 for peak in peaks.values()), peaks


def test_manifest_records_the_numeric_environment(sphere_result):
    # numpy's version and the SIMD targets its dispatch takes here: output
    # bytes are reproducible within one of these.
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        from numpy.core import _multiarray_umath as umath
    manifest = json.loads((sphere_result.out_dir / "manifest.json").read_text())
    assert manifest["numpy_version"] == np.__version__
    dispatch = manifest["numpy_simd_dispatch"]
    assert dispatch == [name for name in umath.__cpu_dispatch__
                        if umath.__cpu_features__.get(name)]


# numpy's AVX-512 dispatch targets; with them disabled np.exp and np.log take
# their AVX2 path, which differs in the last bit for some inputs.
AVX512_TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
DISPATCH_CFGS = {
    "torus": {
        "backend.kind": "conformal_torus", "backend.N": "16",
        "backend.phi_amplitude": "0.1", "flow.T": "0.02", "flow.dt": "2e-3",
        "heat.datum": "random_smooth", "heat.seed": "1", "entropy.a": "0.1, 1",
    },
    "sphere": ROW_KERNEL_CFGS["round_sphere"],
}
# Runs each of the JSON {name: config} in argv[1] into argv[2]/name.
DISPATCH_SCRIPT = """
import json, sys
from pathlib import Path
from riccilab import harness

for name, raw in json.loads(sys.argv[1]).items():
    cfg = harness.make_config(raw)
    harness.run(harness.validate_config(cfg), Path(sys.argv[2]) / name)
"""


def test_outputs_across_numpy_simd_dispatch(tmp_path):
    # The reference columns of a torus and a sphere run stay within 1e-10
    # relative (floor 1) of this process's when a child process runs them
    # with numpy's active AVX-512 targets disabled.  The largest difference
    # observed on an AVX-512 Xeon with numpy 2.4 was 5.8e-16 (torus lambda0).
    from riccilab import harness

    active = [name for name in harness._NUMERIC_ENVIRONMENT[
        "numpy_simd_dispatch"] if name in AVX512_TARGETS]
    if not active:
        pytest.skip(f"none of {AVX512_TARGETS} is active in numpy's dispatch "
                    "on this CPU")
    src = str(Path(rl.__file__).resolve().parent.parent)
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(active),
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", DISPATCH_SCRIPT,
                    json.dumps(DISPATCH_CFGS), str(tmp_path / "child")],
                   env=env, check=True, timeout=300)
    worst = 0.0
    for name, raw in DISPATCH_CFGS.items():
        child = tmp_path / "child" / name
        manifest = json.loads((child / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert not set(active) & set(manifest["numpy_simd_dispatch"])
        here = run(validate_config(make_config(raw)), tmp_path / name)
        assert here.status == "ok"
        header, want = read_csv(here.out_dir / "data.csv")
        assert read_csv(child / "data.csv")[0] == header
        got = read_csv(child / "data.csv")[1]
        for j, col in enumerate(header):
            if col.split("[")[0] in ("t", "F", "S", "lambda0", "Y", "omega",
                                     "rhs_thm", "rhs_ye"):
                rel = np.abs(got[j] - want[j]) / np.maximum(1.0, np.abs(want[j]))
                worst = max(worst, float(np.max(rel)))
    assert worst <= 1e-10, worst


# -------------------------------------------------------------------------
# Streamed heat solve and row evaluation
# -------------------------------------------------------------------------

def streamed_run(validated, out, chunk_rows, unconverged=()):
    """Run with density chunks of at most ``chunk_rows`` rows (None: one
    chunk of every row), the lambda0 of the rows ``unconverged`` lists marked
    unconverged.  Returns the result, the ``first`` row of each chunk
    handed over and the bytes of both CSVs."""
    from riccilab import harness, parallel

    stream, handed = harness.stream_backward, []

    def spied(*args, **kwargs):
        for chunk in stream(*args, **kwargs):
            handed.append(chunk.first)
            yield chunk

    rows = chunk_rows or validated.num_rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parallel, "CHUNK_CELLS",
                   4 * rows * validated.m0.backend.cells)
        mp.setattr(harness, "stream_backward", spied)
        mark_unconverged(mp, unconverged)
        result = run(validated, out)
    return result, handed, [(out / name).read_bytes() for name in
                            ("data.csv", "proof_chain.csv")]


def stream_cfg(kind, N, phi_amp, seed, amp):
    if kind == "torus":
        return {"backend.kind": "conformal_torus", "backend.N": str(N),
                "backend.phi_amplitude": repr(phi_amp), "flow.T": "0.02",
                "flow.dt": "2e-3", "heat.datum": "random_smooth",
                "heat.seed": str(seed), "heat.amplitude": repr(amp),
                "entropy.a": "0.1, 1"}
    return {**ROW_KERNEL_CFGS[kind], "entropy.a": "0.1, 1"}


STREAM_CASES = st.builds(
    stream_cfg, kind=st.sampled_from(["torus", "torus", "round_sphere",
                                      "berger_sphere"]),
    N=st.sampled_from([8, 12, 16]), phi_amp=st.floats(0.0, 0.3),
    seed=st.integers(0, 2**16), amp=st.floats(0.01, 0.3))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(raw=STREAM_CASES,
       failure=st.sampled_from([None, "omega", "lambda0", "lambda0 x2",
                                "mass"]),
       chunk_rows=st.integers(1, 4), row=st.integers(0, 20))
def test_streamed_run_matches_collected_run(raw, failure, chunk_rows, row):
    # Chunks down to one row give the run of one chunk of every row (the
    # collected history) bitwise: the same tables, error, status, exit code
    # and CSV bytes, on a clean run and on each failure -- an omega cut by
    # a = -min(F)/4, an unconverged lambda0 row, two of them in different
    # chunks (the lower one wins, although the higher chunk fails first),
    # a MassDrift raised after chunks above it were evaluated.
    import tempfile

    validated = validate_config(make_config(raw))
    K = validated.num_rows
    lengths = chunk_lengths(K, chunk_rows)  # top-down
    # "lambda0 x2": a row below the top chunk and one in it.
    unconverged = {"lambda0": [row % K],
                   "lambda0 x2": [row % (K - lengths[0]),
                                  K - 1 - (7 * row + 3) % lengths[0]],
                   }.get(failure, [])
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        clean = run(validated, tmp / "clean")
        assert clean.exit_code == 0
        if failure == "omega":
            a = -float(np.min(clean.tables.F)) / 4.0
            cfg = dataclasses.replace(validated.cfg,
                                      a_values=validated.cfg.a_values + [a])
            validated = dataclasses.replace(validated, cfg=cfg)
        if failure == "mass":
            # A tolerance between the drifts of the rows above the first
            # chunk and a lower row's, which fails the solve mid-stream.
            drift = np.abs(clean.tables.masses - 1.0)
            lower = [k for k in range(K - lengths[0])
                     if drift[k] > np.max(drift[k + 1:]) > 0.0]
            assume(lower)
            cfg = dataclasses.replace(validated.cfg,
                                      tol_mass=float(np.max(drift[lower[-1] + 1:])))
            validated = dataclasses.replace(validated, cfg=cfg)
        want, want_handed, want_csv = streamed_run(
            validated, tmp / "collected", None, unconverged)
        got, handed, csv = streamed_run(
            validated, tmp / "streamed", chunk_rows, unconverged)
    assert (got.status, got.exit_code, got.error) == (
        want.status, want.exit_code, want.error)
    assert (got.status == "ok") == (failure is None)
    if failure == "mass":
        assert got.status == "MassDrift" and handed and got.tables is None
    else:
        assert want_handed == [0]
        assert handed == [K - int(end) for end in np.cumsum(lengths)]
    assert csv == want_csv
    assert (got.tables is None) == (want.tables is None)
    if want.tables is not None:
        arrays, want_arrays = table_arrays(got.tables), table_arrays(want.tables)
        assert arrays.keys() == want_arrays.keys()
        for name, array in want_arrays.items():
            assert arrays[name].tobytes() == array.tobytes(), name


def test_run_holds_one_density_chunk_not_the_history(tmp_path, monkeypatch):
    # 257 rows of 32^2 cells make a 2.1 MB history.  In chunks of 4 rows (65
    # chunks, two arrays of CHUNK_CELLS // 4), on one worker with one-row
    # kernel blocks, the traced peak before the first CSV write (the chunk
    # arrays, the row tables and the kernel's one-row temporaries) stays
    # below a quarter of it, about 0.23 of it;
    # the CSV writer's blocks set the whole run's peak, which stays below
    # half of it, about 0.41 of it.  The peak is read and reset at the first
    # write, so the chunking is gated apart from the writer.
    import tracemalloc

    from riccilab import harness, parallel

    before = []
    write_csv = harness._write_csv

    def write_after_reading_the_peak(*args):
        if not before:
            before.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
        write_csv(*args)

    monkeypatch.setattr(harness, "_write_csv", write_after_reading_the_peak)
    validated = validate_config(make_config({
        "backend.kind": "conformal_torus", "backend.N": "32",
        "backend.phi_amplitude": "0.1", "flow.T": "0.512", "flow.dt": "2e-3",
        "heat.datum": "random_smooth", "heat.amplitude": "0.02",
        "entropy.a": "0.1, 1"}))
    cells = validated.m0.backend.cells
    history = validated.num_rows * cells * 8
    assert validated.num_rows == 257 and history == 2105344
    monkeypatch.setattr(parallel, "CHUNK_CELLS", 4 * 4 * cells)
    monkeypatch.setattr(parallel, "WORKERS", 1)
    monkeypatch.setattr(parallel, "ROW_CELLS", cells)
    tracemalloc.start()
    try:
        result = run(validated, tmp_path / "out")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0
    assert before[0] < history / 4, (before[0], history)
    peak = max(peak, before[0])
    assert peak < history / 2, (peak, history)


def test_internal_error_is_recorded_and_reraised(tmp_path, monkeypatch):
    from riccilab import harness

    def broken(traj, chunks, *args, **kwargs):
        for _ in chunks(None):  # the heat solve streams its own chunks
            pass
        raise RuntimeError("row kernel exploded")

    monkeypatch.setattr(harness, "evaluate_tables", broken)
    validated = validate_config(make_config(ROW_KERNEL_CFGS["round_sphere"]))
    with pytest.raises(RuntimeError, match="row kernel exploded"):
        run(validated, tmp_path / "out")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "internal_error"
    assert manifest["error"] == "RuntimeError: row kernel exploded"
    assert manifest["exit_code"] == 1 and manifest["summary"] is None
    assert manifest["timings"]["flow_s"] > 0.0 and manifest["steps"]["heat"] > 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["manifest.json"]


def test_internal_error_in_a_reused_directory_leaves_no_old_csv(tmp_path,
                                                                 monkeypatch):
    from riccilab import harness

    validated = validate_config(make_config(ROW_KERNEL_CFGS["round_sphere"]))
    out = tmp_path / "out"
    assert run(validated, out).exit_code == 0
    assert (out / "data.csv").stat().st_size > 0

    def broken(*args, **kwargs):
        raise RuntimeError("row kernel exploded")

    monkeypatch.setattr(harness, "evaluate_tables", broken)
    with pytest.raises(RuntimeError, match="row kernel exploded"):
        run(validated, out)
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    assert json.loads((out / "manifest.json").read_text())["status"] == \
        "internal_error"


@pytest.mark.parametrize("where", ["row_values", "_lopcg"])
def test_worker_block_exception_is_internal_error(where, tmp_path, monkeypatch):
    # An exception in a pool block (a later row-kernel block, or a lambda0
    # block) reaches run(), which records it and re-raises; the pool's
    # workers are reaped.
    from riccilab import functionals, harness, parallel

    validated = validate_config(make_config(ROW_KERNEL_CFGS["curved_torus"]))
    monkeypatch.setattr(parallel, "WORKERS", 2)
    monkeypatch.setattr(parallel, "ROW_CELLS", 2 * 3 * 16**2)
    module = harness if where == "row_values" else functionals
    original = getattr(module, where)

    def exploding(*args):
        if where == "_lopcg" or args[2][0] > 0.0:
            raise RuntimeError(f"{where} block exploded")
        return original(*args)

    monkeypatch.setattr(module, where, exploding)
    with pytest.raises(RuntimeError, match=f"{where} block exploded"):
        run(validated, tmp_path / "out")
    assert not children_left()
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "internal_error" and manifest["exit_code"] == 1
    assert manifest["error"] == f"RuntimeError: {where} block exploded"
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["manifest.json"]


def test_manifest_records_workers(sphere_result, curved_torus_result):
    # Every row block of these runs ran in the run's own process.
    for result in (sphere_result, curved_torus_result):
        manifest = json.loads((result.out_dir / "manifest.json").read_text())
        assert manifest["workers"] == 1
        assert manifest["workers_peak_rss_mb"] is None
        for name in ("data.csv", "proof_chain.csv"):
            assert "workers" not in (result.out_dir / name).read_text()


def test_single_block_runs_start_no_pool(tmp_path, monkeypatch):
    # validate_config's one-row lambda0 solve and a sphere run, whose rows
    # form one block, map in the calling process.
    def no_fork():
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(os, "fork", no_fork)
    validate_config(make_config(ROW_KERNEL_CFGS["curved_torus"]))
    validated = validate_config(make_config(ROW_KERNEL_CFGS["round_sphere"]))
    assert run(validated, tmp_path / "out").exit_code == 0


# A curved N = 16 torus run of 41 rows, over blocks of 3 rows in 3 density
# chunks: at two workers every call of the row kernel but the last has
# several blocks.
POOLED_CFG = {**ROW_KERNEL_CFGS["curved_torus"], "flow.T": "0.08"}


@contextmanager
def pooled(workers):
    """Blocks of 3 torus rows on ``workers`` processes, chunks of at most
    16 rows."""
    from riccilab import parallel

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parallel, "WORKERS", workers)
        mp.setattr(parallel, "ROW_CELLS", workers * 3 * 16**2)
        mp.setattr(parallel, "CHUNK_CELLS", 4 * 16 * 16**2)
        yield mp


def test_csvs_are_the_same_bytes_on_any_worker_count(tmp_path):
    validated = validate_config(make_config(POOLED_CFG))
    assert validated.num_rows == 41
    outputs = []
    for workers in (1, 2, 3):
        out = tmp_path / str(workers)
        with pooled(workers):
            assert run(validated, out).exit_code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["workers"] == workers
        assert not children_left()
        outputs.append([(out / name).read_bytes()
                        for name in ("data.csv", "proof_chain.csv")])
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("end", ["ok", "worker_raises", "parent_interrupted"])
def test_no_child_outlives_a_run(end, tmp_path):
    # A run that passes, one whose worker's block raises, and one whose
    # heat solve is interrupted after the worker was forked (its second
    # chunk): each leaves no child process, reaped or killed.
    from riccilab import harness

    validated = validate_config(make_config(POOLED_CFG))
    kernel, stream = harness.row_values, harness.stream_backward
    parent = os.getpid()

    def exploding(g, v, times, a_values):
        if os.getpid() != parent:
            raise ValueError("worker block exploded")
        return kernel(g, v, times, a_values)

    def interrupted(*args, **kwargs):
        chunks = stream(*args, **kwargs)
        yield next(chunks)
        raise KeyboardInterrupt

    raised = {"ok": None, "worker_raises": ValueError,
              "parent_interrupted": KeyboardInterrupt}[end]
    with pooled(2) as mp:
        if end == "worker_raises":
            mp.setattr(harness, "row_values", exploding)
        if end == "parent_interrupted":
            mp.setattr(harness, "stream_backward", interrupted)
        if raised is None:
            assert run(validated, tmp_path).exit_code == 0
        else:
            with pytest.raises(raised):
                run(validated, tmp_path)
    assert not children_left()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["workers"] == 2


# A forking run in a process of its own whose worker's kernel blocks each
# sleep 0.3 s and log "pid first-time" to the file argv[1].
ORPHAN_SCRIPT = """
import json, os, sys, time
from riccilab import harness, parallel
parallel.WORKERS, parallel.ROW_CELLS = 2, 2 * 16**2
parallel.CHUNK_CELLS = 4 * 16 * 16**2
kernel, parent = harness.row_values, os.getpid()
log = os.open(sys.argv[1], os.O_WRONLY | os.O_APPEND)

def spied(g, v, times, a_values):
    os.write(log, f"{os.getpid()} {float(times[0])!r}\\n".encode())
    if os.getpid() != parent:
        time.sleep(0.3)
    return kernel(g, v, times, a_values)

harness.row_values = spied
harness.run(harness.validate_config(harness.make_config(
    json.loads(sys.argv[2]))), sys.argv[3])
"""


@pytest.mark.skipif(not Path("/proc/self/stat").is_file(),
                    reason="reads a process's state in /proc")
def test_orphaned_worker_starts_no_block(tmp_path):
    # SIGKILL the run's process while its worker is inside a kernel block of
    # a chunk: the worker finds itself orphaned before its next claim and
    # exits, with no block started after the kill.
    import signal

    log = tmp_path / "blocks.log"
    log.touch()
    env = {**os.environ, "PYTHONPATH": str(Path(rl.__file__).parent.parent)}
    run_process = subprocess.Popen(
        [sys.executable, "-c", ORPHAN_SCRIPT, str(log), json.dumps(POOLED_CFG),
         str(tmp_path / "out")], env=env)

    def worker_lines():
        return [line for line in log.read_text().splitlines()
                if int(line.split()[0]) != run_process.pid]

    try:
        deadline = time.monotonic() + 60.0
        while not worker_lines():
            assert run_process.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
    finally:
        run_process.kill()
        run_process.wait()
    started = worker_lines()
    worker = int(started[0].split()[0])

    def alive():  # a zombie has exited; whoever adopted it reaps it
        try:
            stat = Path(f"/proc/{worker}/stat").read_text()
        except OSError:
            return False
        return stat.rsplit(")", 1)[1].split()[0] != "Z"

    deadline = time.monotonic() + 10.0
    while alive():
        if time.monotonic() > deadline:
            os.kill(worker, signal.SIGKILL)
            pytest.fail("the orphaned worker is still running")
        time.sleep(0.05)
    assert worker_lines() == started and len(started) == 1


def test_kernel_reads_each_chunk_where_the_heat_solve_stepped_it(tmp_path):
    # On a forking torus run (the kernel runs 1-row blocks, chunks of at
    # most 16 rows: 14, 14 and 13 of them), every density block the kernel
    # reads, in the caller and in the worker, lies in the pool array its
    # chunk was stepped into: the first of the two 14-row chunk arrays for
    # rows 27-40 and 0-12, the second for rows 13-26.  Both processes
    # evaluate kernel blocks.  A heat stream whose chunks are copies outside
    # them ends the run in ValueError.
    from riccilab import harness, parallel

    validated = validate_config(make_config(POOLED_CFG))
    field = validated.m0.backend.field_shape
    array, kernel = parallel.RowPool.array, harness.row_values
    stream, made, log = harness.stream_backward, [], ProcessLog()

    def recorded(pool, shape, dtype=float):
        made.append(array(pool, shape, dtype))
        return made[-1]

    def spied(g, v, times, a_values):
        log.record(float(times[0]), tuple(
            i for i, a in enumerate(made) if np.shares_memory(v, a)))
        return kernel(g, v, times, a_values)

    def copied(*args, **kwargs):
        for chunk in stream(*args, **kwargs):
            yield rl.DensityHistory(chunk.backend, chunk.times, chunk.v.copy(),
                                    chunk.masses, chunk.first)

    with pooled(2) as mp:
        mp.setattr(parallel, "ROW_CELLS", 2 * 16**2)  # 1-row kernel blocks
        mp.setattr(parallel.RowPool, "array", recorded)
        mp.setattr(harness, "row_values", spied)
        result = run(validated, tmp_path / "ok")
    assert result.exit_code == 0
    records = log.records()
    chunks = [i for i, a in enumerate(made) if a.shape[1:] == field]
    assert [made[i].shape for i in chunks] == [(14,) + field] * 2
    rows = {int(np.argmin(np.abs(result.tables.times - t))): (pid, where)
            for pid, t, where in records}
    assert len(records) == 41 and sorted(rows) == list(range(41))
    for k, (_, where) in rows.items():
        assert where == (chunks[1 if 13 <= k <= 26 else 0],), k
    assert len({pid for pid, _ in rows.values()}) == 2  # caller and worker
    with pooled(2) as mp:
        mp.setattr(harness, "stream_backward", copied)
        with pytest.raises(ValueError, match="density chunk of rows 27-40 is "
                                             "not held in the row pool's"):
            run(validated, tmp_path / "copied")
    assert not children_left()


def test_workers_usage_is_counted_in_rows_s(tmp_path):
    # Each worker block spins 0.05 s of CPU time and touches 2048 pages of
    # a new 8 MiB mapping, which only RUSAGE_CHILDREN sees; the caller's
    # blocks do neither.  rows_s counts both for every worker block, and
    # workers_rows counts the worker blocks' rows.
    import mmap

    from riccilab import harness

    validated = validate_config(make_config(POOLED_CFG))
    kernel, parent, log = harness.row_values, os.getpid(), ProcessLog()

    def busy(g, v, times, a_values):
        log.record(len(times))
        if os.getpid() != parent:
            with mmap.mmap(-1, 2**23) as pages:
                np.frombuffer(pages, np.uint8)[::4096] = 1
            spin = time.process_time() + 0.05
            while time.process_time() < spin:
                pass
        return kernel(g, v, times, a_values)

    with pooled(2) as mp:
        mp.setattr(harness, "row_values", busy)
        assert run(validated, tmp_path).exit_code == 0
    worker_blocks = [n for pid, n in log.records() if pid != parent]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert worker_blocks
    assert manifest["workers_rows"] == sum(worker_blocks)
    assert manifest["cpu_s"]["rows_s"] >= 0.05 * len(worker_blocks)
    assert manifest["minor_faults"]["rows_s"] >= 2048 * len(worker_blocks)


def test_csv_writer_matches_format_17g_on_edge_values(tmp_path):
    from riccilab.harness import _fmt, _write_csv

    tiny = np.nextafter(0.0, 1.0)
    edge = np.array([0.0, -0.0, tiny, -tiny, 1e-310, 2.2250738585072014e-308,
                     np.finfo(float).max, -np.finfo(float).max, 0.1, 1.0 / 3.0,
                     -2.5, 1e16, 123456789012345678.0, np.inf, -np.inf, np.nan])
    bits = np.random.default_rng(3).integers(0, 2**63, 2000, dtype=np.uint64)
    noise = bits.view(float)
    noise = noise[np.isfinite(noise)][:len(edge) * 100]
    cols = [np.resize(edge, len(noise)), noise,
            np.arange(len(noise)) % 3 == 0]
    _write_csv(tmp_path / "x.csv", ["a", "b", "flag"], cols)
    lines = (tmp_path / "x.csv").read_text(encoding="ascii").split("\n")
    assert lines[0] == "a,b,flag" and lines[-1] == ""
    assert lines[1:-1] == [",".join(_fmt(x) for x in row)
                           for row in zip(*(c.tolist() for c in cols))]
    assert lines[1:3] == ["0,%s,1" % _fmt(noise[0]), "-0,%s,0" % _fmt(noise[1])]


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

FLOOR_CFG = """
backend.kind = conformal_torus
backend.N = 16
backend.phi_amplitude = 0.1
flow.T = 0.02
flow.dt = 2e-3
entropy.a = 1
"""


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
        # 2 * 10^12 modes, which would exhaust memory before printing
        ("heat.cutoff",
         FLAT_CFG.replace(heat, "heat.datum = random_smooth\nheat.cutoff = 1000000")),
        ("heat.seed",
         FLAT_CFG.replace(heat, "heat.datum = random_smooth\nheat.seed = -1")),
        ("backend.c0", SPHERE_CFG.replace("backend.c0 = 1.0", "backend.c0 = inf")),
        ("backend.A0",
         SPHERE_CFG.replace("round_sphere", "berger_sphere") + "backend.A0 = inf\n"),
        ("backend.L", FLAT_CFG.replace("6.283185307179586", "inf")),
        ("backend.phi_amplitude", FLAT_CFG + "backend.phi_amplitude = inf\n"),
        ("flow.T", FLAT_CFG.replace("flow.T = 0.02", "flow.T = inf")),
        ("entropy.a", FLAT_CFG.replace("entropy.a = 0.5", "entropy.a = inf")),
        ("entropy.a", FLAT_CFG.replace("entropy.a = 0.5", "entropy.a = 0, -0")),
        ("backend.n", SPHERE_CFG.replace("backend.n = 2", "backend.n = 400")),
        # a bump datum that is non-positive on a grid node
        ("heat.amplitude", FLAT_CFG.replace(
            heat, "heat.datum = bump\nheat.amplitude = -1.5").replace(
            "entropy.a = 0.5", "entropy.a = 0.1\nbackend.phi_amplitude = 0.1")),
        # a random datum whose exponential overflows
        ("heat.amplitude", FLAT_CFG.replace(
            heat, "heat.datum = random_smooth\nheat.amplitude = 1000").replace(
            "entropy.a = 0.5", "entropy.a = 0.1\nbackend.phi_amplitude = 0.1")),
        # normalized data whose minimum is below the positivity floor, which
        # would fail the run's terminal row: a finite random datum spanning
        # 143 decades, and a bump whose centre node is 1e-12 before
        # normalizing
        ("heat.amplitude", FLOOR_CFG + "heat.datum = random_smooth\n"
                                       "heat.amplitude = 100\n"),
        ("heat.amplitude", FLOOR_CFG + "heat.datum = bump\n"
                                       "heat.amplitude = -0.999999999999\n"),
        # the constant datum 1/volume(g(0)) below the floor: a large torus
        # and a large round sphere
        ("backend.L", FLOOR_CFG.replace("backend.phi_amplitude = 0.1",
                                        "backend.L = 1e6")),
        # a shaped datum on that torus: its mean 1/volume is below the floor,
        # which no amplitude changes
        ("backend.L", FLOOR_CFG.replace("backend.phi_amplitude = 0.1",
                                        "backend.L = 1e6")
         + "heat.datum = random_smooth\nheat.amplitude = 0.02\n"),
        ("backend.c0", SPHERE_CFG.replace("backend.c0 = 1.0", "backend.c0 = 1e12")
         .replace("flow.T = 0.4\nflow.dt = 1e-3", "flow.T = 0.1\nflow.dt = 1e-2")),
        # sizes numpy cannot index: the flow's stored states, and one grid
        ("flow.dt", SPHERE_CFG.replace("flow.T = 0.4\nflow.dt = 1e-3",
                                       "flow.T = 0.1\nflow.dt = 1e-300")),
        ("backend.N", FLAT_CFG.replace("backend.N = 16",
                                       "backend.N = 100000000000")),
    ):
        bad_input = write_cfg(tmp_path / "bad_input.cfg", text)
        assert cli_main(["check", bad_input]) == 2
        assert f"ConfigError: {field}" in capsys.readouterr().err
        assert cli_main(["run", bad_input, "--out", str(tmp_path / "h")]) == 2
        assert not (tmp_path / "h").exists()

    # The bump's positivity is tested on the grid nodes: centred between
    # nodes (h = 0.393, the nearest node 0.2 away on each axis), an
    # amplitude below -1 keeps every node positive, and the centre node at
    # -1.05 does not.
    for centre, code in (("3.34", 0), ("3.141592653589793", 2)):
        bump = write_cfg(tmp_path / "bump.cfg", FLAT_CFG.replace(
            heat, f"heat.datum = bump\nheat.amplitude = -1.05\n"
                  f"heat.center_x = {centre}\nheat.center_y = {centre}"))
        assert cli_main(["check", bump]) == code

    # A random datum past its coefficient bound (exp(-2 |amplitude| B) /
    # volume = 6.2e-19 at amplitude 5) is built on g(0): its minimum,
    # 6.0e-8, is above the floor, so check passes it.
    big = write_cfg(tmp_path / "big.cfg", FLAT_CFG.replace(
        heat, "heat.datum = random_smooth\nheat.amplitude = 5"))
    assert cli_main(["check", big]) == 0

    # Rates that overflow at a huge a end the run at that row (exit 3), not
    # as an ok run with inf and nan columns; the manifest stays valid JSON.
    def strict_json(text):
        return json.loads(text, parse_constant=lambda c: pytest.fail(c))

    huge_a = write_cfg(tmp_path / "huge_a.cfg", """
backend.kind = round_sphere
backend.n = 2
flow.T = 0.1
flow.dt = 1e-2
entropy.a = 1e200
""")
    capsys.readouterr()
    assert cli_main(["run", huge_a, "--out", str(tmp_path / "a")]) == 3
    err = capsys.readouterr().err
    assert ("run failed (BlowUp): rhs_thm[1e+200] = inf is not finite at t=0 "
            "(a=1e+200)") in err
    manifest = strict_json((tmp_path / "a" / "manifest.json").read_text())
    assert (manifest["status"], manifest["exit_code"]) == ("BlowUp", 3)
    assert len((tmp_path / "a" / "data.csv").read_text().splitlines()) == 1

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
    # every level is validated before anything is written
    assert not (tmp_path / "c").exists()

    unstable = write_cfg(tmp_path / "unstable.cfg", """
backend.kind = conformal_torus
backend.N = 16
backend.phi_amplitude = 0.1
flow.T = 0.4
flow.dt = 0.08
heat.datum = constant
entropy.a = 0.5
""")
    # check rejects a flow step over g(0)'s stability bound; run takes it
    # and ends in StepTooLarge at t = 0, the numerical failure (exit 3)
    capsys.readouterr()
    assert cli_main(["check", unstable]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError: flow.dt: the flow step dt/2 = "
                          "0.04 exceeds the stability bound") and err.count("\n") == 1
    assert cli_main(["run", unstable, "--out", str(tmp_path / "y")]) == 3

    # Unreadable config and output paths are input errors: one ConfigError
    # line naming the path, no traceback, nothing written.
    paths = tmp_path / "paths"
    paths.mkdir()
    ok = write_cfg(paths / "ok.cfg", FLAT_CFG)
    (paths / "latin1.cfg").write_bytes(b"backend.kind = \xe9\n")
    (paths / "taken").write_text("a regular file\n")
    before = {f: f.read_bytes() for f in paths.iterdir() if f.is_file()}
    for argv, named in (
        (["check", str(paths / "missing.cfg")], str(paths / "missing.cfg")),
        (["check", str(paths)], str(paths)),
        (["check", str(paths / "latin1.cfg")], str(paths / "latin1.cfg")),
        (["run", ok, "--out", str(paths / "taken")], str(paths / "taken")),
        (["converge", ok, "--out", str(paths / "taken")], str(paths / "taken")),
    ):
        capsys.readouterr()
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and err.count("\n") == 1
        assert named in err and "Traceback" not in err
        assert {f: f.read_bytes() for f in paths.iterdir()
                if f.is_file()} == before
        assert not any(f.is_dir() for f in paths.iterdir())

    assert cli_main(["check", ok]) == 0
    assert cli_main(["run", ok, "--out", str(tmp_path / "z")]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("key,text", [
    # R = A^2 / ABC - ... overflows: inf - inf
    ("backend.A0/B0/C0", "backend.kind = berger_sphere\nbackend.A0 = 1e160\n"),
    # the volume 2 pi^2 c^{3/2} overflows while R = 6/c is finite
    ("backend.c0", "backend.kind = round_sphere\nbackend.n = 3\n"
                   "backend.c0 = 1e300\n"),
    # R = 2/c overflows for a subnormal c
    ("backend.c0", "backend.kind = round_sphere\nbackend.c0 = 1e-320\n"),
    # the unit sphere's volume 2 pi^{(n+1)/2} / Gamma((n+1)/2) overflows
    ("backend.n", "backend.kind = round_sphere\nbackend.n = 400\n"),
    # e^{2 phi} overflows
    ("backend.phi_amplitude", "backend.kind = conformal_torus\nbackend.N = 16\n"
                              "backend.phi_amplitude = 400\nentropy.a = 1\n"),
])
def test_cli_rejects_an_initial_metric_that_overflows(key, text, tmp_path,
                                                      capsys):
    # A config error (exit 2) keyed by the backend parameter, before any
    # artifact; no traceback and no numpy warning (which fail this suite).
    path = write_cfg(tmp_path / "big.cfg",
                     text + "flow.T = 0.1\nflow.dt = 1e-3\n")
    capsys.readouterr()
    assert cli_main(["check", path]) == 2
    assert cli_main(["run", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count(f"error: ConfigError: {key}: the initial metric's "
                     "curvature or volume is not finite\n") == 2
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_cli_check_of_a_tiny_torus_period_is_one_error_line(tmp_path, capsys):
    # At L = 1e-100 the ground-state arithmetic overflows (its vectors scale
    # like 1/L, the potential like 1/h^2): the residual is not finite, so
    # check ends in NoConvergence (exit 3) on one error line, with no numpy
    # warning (which fails this suite) and no traceback.
    path = write_cfg(tmp_path / "tiny.cfg", """
backend.kind = conformal_torus
backend.N = 16
backend.L = 1e-100
backend.phi_amplitude = 0.01
flow.T = 1e-203
flow.dt = 1e-204
entropy.a = 1
""")
    capsys.readouterr()
    assert cli_main(["check", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: NoConvergence: ground-state LOPCG reached eigen-residual nan "
        f"> {LAMBDA0_TOL:g} within 200 iterations"]


def test_cli_flow_blow_up_is_exit_3(tmp_path, capsys):
    # An admissible Berger start whose first flow step blows up (A = 1e28
    # goes to -5e60) is BlowUp (exit 3) with a valid manifest, not an
    # internal error.  A start whose float rates overflow (A0 = 1e140, the
    # flow's inf and nan of test_flow's berger-overflow case) has a volume
    # of 2e71, so its constant datum is below the positivity floor and
    # check and run reject it first (exit 2, no output directory).
    path = write_cfg(tmp_path / "big.cfg", """
backend.kind = berger_sphere
backend.A0 = 1e28
backend.B0 = 1e-6
backend.C0 = 1e-6
flow.T = 1
flow.dt = 2.5e-8
entropy.a = 1e40
""")
    out = tmp_path / "o"
    assert cli_main(["run", path, "--out", str(out)]) == 3
    assert "run failed (BlowUp)" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "BlowUp"
    assert manifest["error"] == "metric scale parameter fell below floor"
    assert manifest["exit_code"] == 3
    assert manifest["steps"]["flow"] is None
    assert (out / "data.csv").read_text().count("\n") == 1

    huge = write_cfg(tmp_path / "huge.cfg", """
backend.kind = berger_sphere
backend.A0 = 1e140
flow.T = 0.1
flow.dt = 1e-3
entropy.a = 1e141
""")
    for argv in (["check", huge], ["run", huge, "--out", str(tmp_path / "h")]):
        assert cli_main(argv) == 2
        assert ("ConfigError: backend.A0/B0/C0: the constant datum 1/volume = "
                "5.06606e-72 is below the positivity floor 1e-10"
                in capsys.readouterr().err)
    assert not (tmp_path / "h").exists()


def test_converge_validates_each_level_once(tmp_path, monkeypatch, capsys):
    from riccilab import cli, harness

    calls = []
    real = harness.validate_config

    def counted(cfg):
        calls.append(cfg.N)
        return real(cfg)

    for ns in (cli, harness):
        if hasattr(ns, "validate_config"):
            monkeypatch.setattr(ns, "validate_config", counted)
    path = write_cfg(tmp_path / "s.cfg", STUDY_CFG)
    assert cli_main(["converge", path, "--levels", "3",
                     "--out", str(tmp_path / "study")]) == 0
    assert calls == [16, 32, 64]
    capsys.readouterr()


def test_verbose_logs_stage_timings(tmp_path, capsys):
    ok = write_cfg(tmp_path / "ok.cfg", FLAT_CFG)
    assert cli_main(["run", ok, "--out", str(tmp_path / "z"), "--verbose"]) == 0
    err = capsys.readouterr().err
    manifest = json.loads((tmp_path / "z" / "manifest.json").read_text())
    timings, peaks = manifest["timings"], manifest["peak_rss_mb"]
    cpu, faults = manifest["cpu_s"], manifest["minor_faults"]
    steps = manifest["steps"]
    assert steps["flow"] == 40 and steps["heat"] == 20
    # Each stage's time, its CPU time and minor faults, and beside them the
    # manifest's peak RSS at its end; beside flow_s and heat_s the steps
    # block's counts.
    counts = {"flow_s": f", {steps['flow']} steps, max dt/stability_dt "
                        f"{steps['max_dt_over_stability_dt']:.3g}",
              "heat_s": f", {steps['heat']} steps"}
    for stage, entry in (("flow_s", "flow"), ("heat_s", None),
                         ("rows_s", "heat_and_rows"), ("lambda0_s", None),
                         ("summary_s", "summary"), ("writers_s", "writers")):
        line = (f"riccilab.harness: {tmp_path / 'z'}: {stage} "
                f"{timings[stage]:.3f} s, cpu {cpu[stage]:.3f} s, "
                f"{faults[stage]} minor faults")
        if entry is not None:
            assert peaks[entry] > 0.0, entry
            line += f", peak RSS {peaks[entry]:.1f} MiB"
        assert line + counts.get(stage, "") + "\n" in err, stage
    assert manifest["workers"] == 1
    assert f"{tmp_path / 'z'}: workers 1\n" in err
    assert cli_main(["run", ok, "--out", str(tmp_path / "q")]) == 0
    assert "flow_s" not in capsys.readouterr().err
    assert cli_main(["converge", write_cfg(tmp_path / "s.cfg", STUDY_CFG),
                     "--out", str(tmp_path / "c"), "--verbose"]) == 0
    assert f"{tmp_path / 'c' / 'level_2'}: writers_s" in capsys.readouterr().err


def test_verbose_logs_each_density_chunk(tmp_path, caplog):
    # A forking run logs each chunk's rows, top chunk first, and how many of
    # them the worker evaluated, once its call is joined; the counts add up
    # to the manifest's workers_rows.  A run that forks nothing logs 0.
    import logging

    validated = validate_config(make_config(POOLED_CFG))
    pattern = re.compile(r"(\S+): density chunk rows (\d+)-(\d+), (\d+) of "
                         r"them on the workers$")
    for workers in (2, 1):
        out = tmp_path / str(workers)
        caplog.clear()
        with pooled(workers), caplog.at_level(logging.INFO,
                                              logger="riccilab.harness"):
            assert run(validated, out).exit_code == 0
        lines = [pattern.match(r.getMessage()) for r in caplog.records]
        chunks = [tuple(map(int, m.groups()[1:])) for m in lines if m]
        assert {m.group(1) for m in lines if m} == {str(out)}
        assert [(lo, hi) for lo, hi, _ in chunks] == [(27, 40), (13, 26),
                                                      (0, 12)]
        assert all(0 <= n <= hi - lo + 1 for lo, hi, n in chunks)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["workers_rows"] == sum(n for _, _, n in chunks)
        if workers == 1:
            assert manifest["workers_rows"] == 0


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


def test_study_csv_order_is_log2_of_the_level_residuals(tmp_path):
    # Each order_vs_prev is _fmt(log2(e0 / e1)) of the previous and this
    # level's max_res_thm_interior, as study.csv prints them and as each
    # level's own data.csv gives them.
    from riccilab.harness import _fmt

    cfg = make_config(parse_config_file(write_cfg(tmp_path / "s.cfg", STUDY_CFG)))
    study = convergence_study(cfg, 3, tmp_path / "study")
    lines = (tmp_path / "study" / "study.csv").read_text().splitlines()
    assert lines[0] == "level,N,dt,max_res_thm_interior,order_vs_prev"
    rows = [line.split(",") for line in lines[1:]]
    res = []
    for level, row in enumerate(rows):
        header, *table = (tmp_path / "study" / f"level_{level}" / "data.csv"
                          ).read_text().splitlines()
        col = header.split(",").index("res_thm[0.1]")
        res.append(max(float(line.split(",")[col]) for line in table[1:-1]))
        assert row[3] == _fmt(res[-1]) == _fmt(
            study.levels[level]["max_res_thm_interior"])
    assert [row[4] for row in rows] == [""] + [
        _fmt(math.log2(e0 / e1)) for e0, e1 in zip(res[:-1], res[1:])]
    assert study.orders_thm == [math.log2(e0 / e1)
                                for e0, e1 in zip(res[:-1], res[1:])]


def test_convergence_study_failed_level_is_numerical(tmp_path, monkeypatch,
                                                     capsys):
    from riccilab import harness

    real_run = harness.run

    def level_1_fails(validated, out_dir):
        result = real_run(validated, out_dir)
        if out_dir.name == "level_1":
            result.exit_code, result.status = 3, "NoConvergence"
        return result

    monkeypatch.setattr(harness, "run", level_1_fails)
    path = write_cfg(tmp_path / "s.cfg", STUDY_CFG)
    with pytest.raises(rl.NumericalError, match="study level 1 failed"):
        convergence_study(make_config(parse_config_file(path)), 3,
                          tmp_path / "study")
    assert not (tmp_path / "study" / "study.csv").exists()
    capsys.readouterr()
    assert cli_main(["converge", path, "--out", str(tmp_path / "cli")]) == 3
    assert "NumericalError: study level 1 failed" in capsys.readouterr().err


def test_convergence_study_zero_residual_orders(tmp_path, monkeypatch, capsys):
    # A level with no residual left: the order after it is inf and the one
    # before it -inf, each in study.csv; converge exits 0.
    from riccilab import harness
    from riccilab.harness import _fmt

    residuals = [0.0, 1e-12, 5e-13, 0.0]

    def level_run(validated, out_dir):
        out_dir.mkdir(parents=True)
        summary = {"max_res_thm_interior": residuals[int(out_dir.name[6:])],
                   "max_res_dS_interior": 0.0, "max_res_dF_interior": 0.0}
        return harness.RunResult("ok", 0, out_dir, summary, None)

    monkeypatch.setattr(harness, "run", level_run)
    path = write_cfg(tmp_path / "s.cfg", STUDY_CFG)
    study = convergence_study(make_config(parse_config_file(path)), 4,
                              tmp_path / "study")
    assert study.orders_thm == [-math.inf, 1.0, math.inf]
    assert cli_main(["converge", path, "--levels", "4",
                     "--out", str(tmp_path / "cli")]) == 0
    capsys.readouterr()
    for out in ("study", "cli"):
        lines = (tmp_path / out / "study.csv").read_text().splitlines()
        assert [line.split(",")[4] for line in lines[1:]] == [
            "", "-inf", "1", "inf"]
        assert [line.split(",")[3] for line in lines[1:]] == [
            _fmt(e) for e in residuals]


@pytest.mark.parametrize("kind", ["round_sphere", "berger_sphere"])
def test_auto_dt_too_coarse_on_spheres_names_the_fix(kind, tmp_path, capsys):
    # At safety 0.5 the unit spheres' auto step is 0.0625: T = 0.1 allows
    # 2 steps.  The error names the resolved step and flow.dt = T/4.
    path = write_cfg(tmp_path / "auto.cfg", f"backend.kind = {kind}\nflow.T = 0.1\n")
    assert cli_main(["check", path]) == 2
    err = capsys.readouterr().err
    assert "ConfigError: flow.T/flow.dt: horizon allows only 2 steps" in err
    assert "flow.dt = auto resolves to 0.0625" in err
    assert "flow.dt = 0.025" in err
    with pytest.raises(rl.ConfigError, match="only 3 steps"):
        validate_config(make_config({"backend.kind": kind, "flow.T": "0.1",
                                     "flow.dt": "0.03"}))
    v = validate_config(make_config({"backend.kind": kind, "flow.T": "0.1",
                                     "flow.dt": "0.025"}))
    assert v.num_rows == 5 and v.dt == 0.025


def test_convergence_study_validation(tmp_path):
    cfg = make_config(parse_config_file(write_cfg(tmp_path / "s.cfg", STUDY_CFG)))
    with pytest.raises(rl.ConfigError):
        convergence_study(cfg, 1, tmp_path / "x")
    sphere_cfg = make_config({"backend.kind": "round_sphere", "flow.T": "0.1",
                              "flow.dt": "1e-3", "entropy.a": "0"})
    with pytest.raises(rl.ConfigError):
        convergence_study(sphere_cfg, 3, tmp_path / "y")
    auto_cfg = make_config({"backend.kind": "conformal_torus", "flow.T": "0.02",
                            "backend.N": "16", "entropy.a": "1"})
    with pytest.raises(rl.ConfigError, match="explicit base dt"):
        convergence_study(auto_cfg, 3, tmp_path / "z")
    assert not (tmp_path / "z").exists()


# The forked study: levels 0 and 1 in a child, level 2 here.  Two processes
# even on one CPU, and 4-row kernel blocks at N = 32, so that level 1 would
# fork its own row pool if the child's pools could.
@contextmanager
def study_forks():
    from riccilab import parallel

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parallel, "WORKERS", 2)
        mp.setattr(parallel, "ROW_CELLS", 2 * 4 * 32**2)
        yield mp


STUDY_FILES = [f"level_{k}/{name}" for k in range(3)
               for name in ("data.csv", "proof_chain.csv")] + ["study.csv"]
USAGE_FIELDS = ("timings", "cpu_s", "minor_faults", "peak_rss_mb",
                "wall_clock_s", "workers", "workers_peak_rss_mb",
                "workers_rows")


def study_cfg(tmp_path):
    return make_config(parse_config_file(write_cfg(tmp_path / "s.cfg",
                                                   STUDY_CFG)))


def test_forked_study_gives_the_serial_bytes(tmp_path):
    # The same study with the fork and with it disabled: sha256-identical
    # level CSVs and study.csv, and manifests equal but for the usage
    # fields and workers.
    from riccilab import parallel

    cfg = study_cfg(tmp_path)
    for name in ("forked", "serial"):
        with study_forks() as mp:
            if name == "serial":
                mp.setattr(parallel, "may_fork", lambda *a, **k: False)
            convergence_study(cfg, 3, tmp_path / name)
        assert not children_left()

    def digest(name, path):
        return hashlib.sha256((tmp_path / name / path).read_bytes()).hexdigest()

    def manifest(name, k):
        text = (tmp_path / name / f"level_{k}" / "manifest.json").read_text()
        return {key: value for key, value in json.loads(text).items()
                if key not in USAGE_FIELDS}

    for path in STUDY_FILES:
        assert digest("forked", path) == digest("serial", path), path
    for k in range(3):
        assert manifest("forked", k) == manifest("serial", k), k
        assert manifest("forked", k)["status"] == "ok"


def test_study_runs_its_lower_levels_in_one_child_on_one_process(
        tmp_path, monkeypatch):
    from riccilab import harness

    real_run, log = harness.run, ProcessLog()

    def logged(validated, out_dir):
        log.record(out_dir.name)
        return real_run(validated, out_dir)

    monkeypatch.setattr(harness, "run", logged)
    with study_forks():
        convergence_study(study_cfg(tmp_path), 3, tmp_path / "study")
    pids = dict((name, pid) for pid, name in log.records())
    assert pids["level_0"] == pids["level_1"] != os.getpid()
    assert pids["level_2"] == os.getpid()
    workers = [json.loads((tmp_path / "study" / f"level_{k}" / "manifest.json")
                          .read_text())["workers"] for k in range(3)]
    assert workers == [1, 1, 2]


@pytest.mark.parametrize("end", [
    "ok", "child_fails", "top_fails", "both_fail", "child_raises",
    "child_raises_unpicklable", "top_interrupted"])
def test_no_child_outlives_a_study(end, tmp_path, monkeypatch):
    # A study that passes; one whose child level, top level or both fail
    # (the lowest failing level is raised); one whose child level raises
    # an exception pickle carries or one it cannot (a RuntimeError naming
    # it); and one interrupted in the top level while the child's level 0
    # would sleep 5 s.  None leaves a child process, and each ends within
    # 2.5 s (a passing study takes about 0.2 s).
    from riccilab import harness

    real_run = harness.run
    failing = {"child_fails": {0}, "top_fails": {2},
               "both_fail": {0, 2}}.get(end, set())

    def level_run(validated, out_dir):
        k = int(out_dir.name[6:])
        if end == "top_interrupted":
            if k == 2:
                raise KeyboardInterrupt
            time.sleep(5.0 if k == 0 else 0.0)
        if end.startswith("child_raises") and k == 0:
            if end == "child_raises":
                raise ValueError("level 0 exploded")
            raise type("LocalStudyError", (Exception,), {})("level 0 exploded")
        result = real_run(validated, out_dir)
        if k in failing:
            result.exit_code, result.status = 3, "NoConvergence"
        return result

    monkeypatch.setattr(harness, "run", level_run)
    raised = {"ok": None, "child_fails": (rl.NumericalError, "level 0"),
              "top_fails": (rl.NumericalError, "level 2"),
              "both_fail": (rl.NumericalError, "level 0"),
              "child_raises": (ValueError, "level 0 exploded"),
              "child_raises_unpicklable": (
                  RuntimeError, "LocalStudyError: level 0 exploded"),
              "top_interrupted": (KeyboardInterrupt, "")}[end]
    started = time.perf_counter()
    with study_forks():
        if raised is None:
            convergence_study(study_cfg(tmp_path), 3, tmp_path / "study")
        else:
            with pytest.raises(raised[0]) as info:
                convergence_study(study_cfg(tmp_path), 3, tmp_path / "study")
            assert type(info.value) is raised[0]
            assert raised[1] in str(info.value)
            if raised[0] is rl.NumericalError:
                assert str(info.value) == (f"study level {min(failing)} "
                                           "failed with status NoConvergence")
    assert time.perf_counter() - started < 2.5
    assert not children_left()
    assert (tmp_path / "study" / "study.csv").exists() == (raised is None)


def test_child_levels_cpu_is_not_counted_in_the_top_level(tmp_path,
                                                          monkeypatch):
    # The child spins 1 s of CPU time after its last level and signals;
    # the top level starts once the child has exited, so the child is
    # reaped after the top level's run, not within it: the top level's
    # rows_s (whose row pool reaps its own worker) does not count that
    # second.
    import select

    from riccilab import harness

    real_run, parent = harness.run, os.getpid()
    done_r, done_w = os.pipe()

    def level_run(validated, out_dir):
        if out_dir.name == "level_2":
            assert select.select([done_r], [], [], 60.0)[0]
            assert os.read(done_r, 1) == b"1"
            time.sleep(0.2)  # the child exits after its message
            return real_run(validated, out_dir)
        result = real_run(validated, out_dir)
        if out_dir.name == "level_1" and os.getpid() != parent:
            spin = time.process_time() + 1.0
            while time.process_time() < spin:
                pass
            os.write(done_w, b"1")
        return result

    monkeypatch.setattr(harness, "run", level_run)
    try:
        with study_forks():
            convergence_study(study_cfg(tmp_path), 3, tmp_path / "study")
    finally:
        os.close(done_r)
        os.close(done_w)
    manifest = json.loads((tmp_path / "study" / "level_2" / "manifest.json")
                          .read_text())
    assert manifest["workers"] == 2
    assert manifest["cpu_s"]["rows_s"] < 1.0
    assert not children_left()


@pytest.mark.parametrize("where", ["one_cpu", "not_linux", "live_thread"])
def test_study_runs_serially_where_the_pool_may_not_fork(where, tmp_path,
                                                         monkeypatch):
    # On one CPU, off Linux or beside a live thread nothing forks: every
    # level runs here, in order, as the serial loop did.
    import threading

    from riccilab import harness, parallel

    def no_fork():
        raise AssertionError("a process was forked")

    real_run, levels = harness.run, []

    def logged(validated, out_dir):
        levels.append((os.getpid(), out_dir.name))
        return real_run(validated, out_dir)

    monkeypatch.setattr(harness, "run", logged)
    monkeypatch.setattr(parallel, "WORKERS", 1 if where == "one_cpu" else 2)
    if where == "not_linux":
        monkeypatch.setattr(sys, "platform", "darwin")
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    if where == "live_thread":
        other.start()
    try:
        with monkeypatch.context() as mp:
            mp.setattr(os, "fork", no_fork)
            convergence_study(study_cfg(tmp_path), 3, tmp_path / "study")
    finally:
        stop.set()
        if other.is_alive():
            other.join(10.0)
    assert not other.is_alive()
    assert levels == [(os.getpid(), f"level_{k}") for k in range(3)]
    assert (tmp_path / "study" / "study.csv").exists()


def test_converge_verbose_logs_every_level(tmp_path):
    # In a fresh process: the child's levels log their stage lines to
    # stderr as the parent's level does.
    env = {**os.environ, "PYTHONPATH": str(Path(rl.__file__).parent.parent)}
    done = subprocess.run(
        [sys.executable, "-m", "riccilab.cli", "converge",
         write_cfg(tmp_path / "s.cfg", STUDY_CFG), "--out",
         str(tmp_path / "study"), "--verbose"],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(f"study ok -> {tmp_path / 'study'}\n")
    for k in range(3):
        for stage in ("flow_s", "heat_s", "rows_s", "writers_s"):
            assert f"{tmp_path / 'study' / f'level_{k}'}: {stage} " in done.stderr
        assert f"{tmp_path / 'study' / f'level_{k}'}: workers " in done.stderr


# -------------------------------------------------------------------------
# The benchmark's import surface
# -------------------------------------------------------------------------

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_reaches_only_existing_names(monkeypatch):
    # The benchmark calls the library from bench/, which changes apart from
    # it: every function its tracer wraps must exist and be callable, every
    # module attribute its layer timings and workloads name must exist, and
    # every call they make on one must bind to the function's signature, so
    # a parameter the benchmark passes cannot be deleted either.  The
    # tracer is imported without writing bytecode, and nothing is run.
    from riccilab import flow, functionals, geometry, harness, heat, variation

    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    for module, name, _ in tracer.TRACED:
        assert callable(getattr(module, name, None)), (module.__name__, name)

    modules = {m.__name__.rsplit(".", 1)[-1]: m
               for m in (flow, functionals, geometry, harness, heat, variation)}
    nodes = [node for name in ("layers.py", "workloads.py")
             for node in ast.walk(ast.parse((BENCH / name).read_text()))]
    named = {(node.value.id, node.attr) for node in nodes
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id in modules}
    assert {("geometry", "hessian"), ("geometry", "laplace_beltrami"),
            ("harness", "convergence_study")} <= named
    assert [(mod, attr) for mod, attr in sorted(named)
            if not hasattr(modules[mod], attr)] == []

    bound = set()
    for node in nodes:
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in modules):
            continue
        keywords = [k.arg for k in node.keywords]
        assert None not in keywords and not any(
            isinstance(a, ast.Starred) for a in node.args), ast.unparse(node)
        fn = getattr(modules[node.func.value.id], node.func.attr)
        try:
            inspect.signature(fn).bind(*node.args, **dict.fromkeys(keywords))
        except TypeError as exc:
            pytest.fail(f"bench call {ast.unparse(node)}: {exc}")
        bound.add((node.func.attr, tuple(sorted(keywords))))
    assert {("solve_backward", ("step",)),
            ("terminal_datum", ("amplitude", "mode_cutoff", "seed")),
            ("convergence_study", ())} <= bound


def unit_sphere():
    return rl.MetricState(rl.RoundSphere(2), 0.0, np.array([1.0]))


def small_torus():
    return rl.MetricState(rl.ConformalTorus2D(8, TWO_PI), 0.0,
                          np.zeros((8, 8)))


@pytest.mark.parametrize("call, error", [
    (lambda: rl.integrate_forward(unit_sphere(), 0.0, 1e-3),
     (ValueError, "horizon must be positive, got 0.0")),
    (lambda: rl.integrate_forward(unit_sphere(), 0.1, -1e-3),
     (ValueError, "step must be positive, got -0.001")),
    (lambda: rl.shannon_entropy(small_torus(), rl.ScalarField(
        small_torus().backend, np.zeros((8, 8)))),
     (rl.PositivityLoss, "density must be positive for the entropy")),
    (lambda: rl.ScalarField(rl.RoundSphere(2), np.ones(3)),
     (ValueError, "field shape (3,) does not match backend")),
    (lambda: rl.heat.bump_terms(small_torus().backend, width=0.0),
     (ValueError, "bump width must be positive, got 0.0")),
    (lambda: next(rl.stream_backward(
        rl.integrate_forward(unit_sphere(), 0.02, 1e-3),
        rl.terminal_datum("constant", small_torus()))),
     (ValueError, "terminal datum and trajectory live on different backends")),
    (lambda: make_config({"backend.kind": "round_sphere", "flow.T": "0.1",
                          "entropy.a": [0.1, 2]}).a_values, [0.1, 2.0]),
], ids=["flow-T-0", "flow-dt-negative", "entropy-zero-density",
        "field-shape", "bump-width-0", "stream-backend-mismatch",
        "a-as-typed-list"])
def test_guards_no_run_reaches(call, error):
    # Library guards that no run reaches, since validate_config rejects
    # their inputs first or a run never builds them; make_config also takes
    # entropy.a as a typed list, as a caller in Python passes it.
    if isinstance(error, list):
        assert call() == error
        return
    kind, message = error
    with pytest.raises(kind, match=re.escape(message)):
        call()
