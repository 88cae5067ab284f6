"""Workload definitions, the pipeline calls they time, and their correctness gates.

Every call into riccilab goes through a module attribute (``harness.run``,
``harness.convergence_study``, ...), so the tracer in ``tracer.py`` sees the
calls the benchmark makes as well as the calls the package makes internally.

Gates (a run fails when any of them fails):

* exit code 0 and ``status == "ok"`` in the run's ``manifest.json``;
* ``equivalence_violations == 0`` (criterion 5);
* no ``Y`` and no ``lambda0`` monotonicity violations (criterion 7);
* ``max_mass_drift <= 1e-6`` (criterion 8);
* convergence ladder: strictly decreasing interior residuals, every observed
  order >= 1.8 (criterion 4);
* homogeneous runs: the closed-form checks of criteria 1, 2 and 9;
* reference outputs, where recorded: the columns in ``REFERENCE_COLUMNS``
  within 1e-10 relative (floor 1 on the scale) of ``reference/``.

``sub_identity_violations`` is reported but not gated: on the N = 32 torus it
is an O(h^2) diagnostic compared against a fixed 1e-9.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from riccilab import harness

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 1
REFERENCE_RTOL = 1e-10
REFERENCE_COLUMNS = ("t", "F", "S", "lambda0", "Y", "omega", "rhs_thm", "rhs_ye")
MASS_TOL = 1e-6
MIN_ORDER = 1.8
CLOSED_FORM_TOL = 1e-10
FD_TOL = 1e-6

_TORUS = {
    "backend.kind": "conformal_torus", "backend.N": "32",
    "backend.phi_amplitude": "0.1", "backend.phi_mode": "1",
    "heat.datum": "random_smooth", "heat.amplitude": "0.02", "heat.cutoff": "2",
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: named runs, each a raw riccilab config.

    ``levels > 0`` runs the single config as a convergence study with that
    many levels.  ``seeded`` says whether ``heat.seed`` changes the outputs,
    which decides whether the reference applies to every seed or one.
    """

    name: str
    runs: tuple[tuple[str, dict], ...]
    levels: int = 0
    seeded: bool = True

    def raw_configs(self, seed: int) -> list[tuple[str, dict]]:
        return [(name, {**raw, "heat.seed": str(seed)}) for name, raw in self.runs]

    def setup_configs(self, seed: int) -> list[dict]:
        """Raw configs of every pipeline run, ladder levels spelled out the
        way ``convergence_study`` derives them: (N, dt) -> (2N, dt/4)."""
        raws = [raw for _, raw in self.raw_configs(seed)]
        if not self.levels:
            return raws
        (base,) = raws
        return [
            {**base, "backend.N": int(base["backend.N"]) * 2**k,
             "flow.dt": float(base["flow.dt"]) / 4.0**k}
            for k in range(self.levels)
        ]


WORKLOADS = {
    w.name: w for w in (
        # Criterion-4 ladder, N = 32, 64, 128: the suite's cost centre, where
        # the per-row lambda0 solve dominates.
        Workload("torus_ladder", (("ladder", {
            **_TORUS, "flow.T": "0.02", "flow.dt": "2e-3", "entropy.a": "0.1, 1",
        }),), levels=3),
        # 501 rows at N = 32 with six adjustment values: the per-a rate kernel
        # and the stencils dominate, lambda0 is a minority.
        Workload("torus_many_a", (("many_a", {
            **_TORUS, "flow.T": "1.0", "flow.dt": "2e-3",
            "entropy.a": "0.1, 0.25, 0.5, 1, 2, 4",
        }),)),
        # 11252 rows with no stencil and no eigensolve: per-call dispatch, the
        # flow and heat loops and the CSV writers carry the time.
        Workload("homogeneous_long", (
            ("round_sphere", {
                "backend.kind": "round_sphere", "backend.n": "2",
                "flow.T": "0.4", "flow.dt": "4e-5", "entropy.a": "0, 1",
            }),
            ("berger_sphere", {
                "backend.kind": "berger_sphere", "backend.A0": "1.2",
                "flow.T": "0.1", "flow.dt": "2e-5", "entropy.a": "0, 0.5",
            }),
        ), seeded=False),
    )
}


# --------------------------------------------------------------------------
# Set-up and execution
# --------------------------------------------------------------------------

def setup(workload: Workload, seed: int) -> list:
    """make_config and validate_config for every pipeline run of the workload."""
    return [harness.validate_config(harness.make_config(raw))
            for raw in workload.setup_configs(seed)]


@dataclass
class Execution:
    """Outcome of one pass over a workload's runs."""

    out_dir: Path
    errors: dict[str, str] = field(default_factory=dict)
    study_residuals: list[float] | None = None
    study_orders: list[float] | None = None


def execute(workload: Workload, seed: int, validated: list, out_dir: Path) -> Execution:
    """Run every pipeline run of the workload, writing artifacts under out_dir.

    The ladder goes through ``convergence_study`` from its level-0 config;
    the other workloads call ``run`` on the validated configs.  Exceptions
    are recorded per run, not raised, so one failing run is counted and the
    benchmark still reports.
    """
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    ex = Execution(out_dir)
    if workload.levels:
        ((name, raw),) = workload.raw_configs(seed)
        try:
            study = harness.convergence_study(
                harness.make_config(raw), workload.levels, out_dir / name)
            ex.study_residuals = [row["max_res_thm_interior"] for row in study.levels]
            ex.study_orders = list(study.orders_thm)
        except Exception as exc:  # counted as a failed run and reported
            ex.errors[name] = f"{type(exc).__name__}: {exc}"
        return ex
    for (name, _), v in zip(workload.runs, validated):
        try:
            result = harness.run(v, out_dir / name)
            if result.exit_code != 0:
                ex.errors[name] = f"exit code {result.exit_code} ({result.status})"
        except Exception as exc:  # counted as a failed run and reported
            ex.errors[name] = f"{type(exc).__name__}: {exc}"
    return ex


# --------------------------------------------------------------------------
# Verification
# --------------------------------------------------------------------------

def run_dirs(workload: Workload, out_dir: Path) -> list[tuple[str, Path]]:
    """(reference key, directory) of every pipeline run's artifacts."""
    if workload.levels:
        ((name, _),) = workload.runs
        return [(f"{name}/level_{k}", out_dir / name / f"level_{k}")
                for k in range(workload.levels)]
    return [(name, out_dir / name) for name, _ in workload.runs]


def read_data_csv(path: Path) -> dict[str, np.ndarray]:
    with path.open(encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
    values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: values[:, j] for j, name in enumerate(header)}


def reference_columns(cols: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {name: col for name, col in cols.items()
            if name.split("[", 1)[0] in REFERENCE_COLUMNS}


def load_reference(workload: Workload, seed: int) -> dict | None:
    """Recorded reference for this workload and seed, or None if there is none."""
    index_path = REFERENCE_DIR / "index.json"
    if (workload.seeded and seed != REFERENCE_SEED) or not index_path.is_file():
        return None
    index = json.loads(index_path.read_text(encoding="utf-8"))
    runs = index["workloads"].get(workload.name)
    if runs is None:
        return None
    ref = {}
    for key, entry in runs.items():
        with np.load(REFERENCE_DIR / entry["file"], allow_pickle=False) as npz:
            ref[key] = {"sha256": entry["sha256"],
                        "columns": {name: npz[name] for name in npz.files}}
    return ref


def _gate_summary(s: dict) -> list[str]:
    bad = []
    if s["equivalence_violations"] != 0:
        bad.append(f"equivalence_violations = {s['equivalence_violations']}")
    y_drops = sum(s["monotonicity_violations"].values())
    if y_drops != 0:
        bad.append(f"Y monotonicity violations = {y_drops}")
    if s["lambda0_monotonicity_violations"] != 0:
        bad.append(f"lambda0 monotonicity violations = "
                   f"{s['lambda0_monotonicity_violations']}")
    if not s["max_mass_drift"] <= MASS_TOL:
        bad.append(f"max_mass_drift = {s['max_mass_drift']:.3e}")
    return bad


def _a_values(cols: dict) -> list[str]:
    return [name[2:-1] for name in cols if name.startswith("Y[")]


def _gate_round_sphere(cols: dict) -> list[str]:
    """Criteria 1 and 2: the unit round 2-sphere is a shrinking soliton."""
    bad = []
    dev_Y = float(np.max(np.abs(cols["Y[0]"] - math.log(2.0 * math.pi))))
    dev_rhs = float(np.max(np.abs(cols["rhs_thm[0]"])))
    if not (dev_Y <= CLOSED_FORM_TOL and dev_rhs <= CLOSED_FORM_TOL):
        bad.append(f"criterion 1: max|Y0 - ln 2pi| = {dev_Y:.2e}, "
                   f"max|rhs| = {dev_rhs:.2e}")
    om = 1.0 + 1.0 / (2.0 * (1.0 - 2.0 * cols["t"]))
    res = float(np.max(np.abs(cols["dYdt_fd[1]"] - 4.0 / om)[1:-1]))
    if not res <= FD_TOL:
        bad.append(f"criterion 2: max interior |dY/dt - 4/omega| = {res:.2e}")
    return bad


def _gate_berger(cols: dict) -> list[str]:
    """Criterion 9, anisotropic part: strictly positive rate, and the
    finite-difference derivative matches it."""
    bad = []
    for a in _a_values(cols):
        min_rhs = float(np.min(cols[f"rhs_thm[{a}]"]))
        res = float(np.max(cols[f"res_thm[{a}]"][1:-1]))
        if not (min_rhs > 0.0 and res <= FD_TOL):
            bad.append(f"criterion 9 (a={a}): min rhs = {min_rhs:.3e}, "
                       f"max interior |dY/dt - rhs| = {res:.2e}")
    return bad


_CLOSED_FORM_GATES = {"round_sphere": _gate_round_sphere,
                      "berger_sphere": _gate_berger}


def _gate_reference(cols: dict, ref: dict) -> list[str]:
    bad = []
    for name, want in ref["columns"].items():
        got = cols.get(name)
        if got is None or got.shape != want.shape:
            bad.append(f"reference: column {name} missing or resized")
            continue
        err = float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)))
        if not err <= REFERENCE_RTOL:
            bad.append(f"reference: {name} differs by {err:.2e} relative")
    return bad


@dataclass
class Verdict:
    """Per-run failures plus what is reported without gating."""

    failures: dict[str, list[str]]
    rows: int
    sub_identity_violations: dict[str, int]
    byte_identical: dict[str, bool]


def verify(workload: Workload, ex: Execution, reference: dict | None) -> Verdict:
    """Apply every gate to the artifacts one ``execute`` pass left on disk.

    Returns failures keyed by workload run (the whole ladder is one run).
    """
    failures = {name: [] for name, _ in workload.runs}
    for name, msg in ex.errors.items():
        failures[name].append(msg)
    rows = 0
    sub_viol, identical = {}, {}
    for key, d in run_dirs(workload, ex.out_dir):
        run_name = key.split("/", 1)[0]
        if run_name in ex.errors:
            continue
        bad = failures[run_name]
        try:
            manifest = json.loads((d / "manifest.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            bad.append(f"{key}: unreadable manifest ({exc})")
            continue
        if manifest["exit_code"] != 0 or manifest["status"] != "ok":
            bad.append(f"{key}: status {manifest['status']}")
            continue
        s = manifest["summary"]
        rows += s["rows"]
        sub_viol[key] = s["sub_identity_violations"]
        bad += [f"{key}: {msg}" for msg in _gate_summary(s)]
        data = d / "data.csv"
        cols = read_data_csv(data)
        gate = _CLOSED_FORM_GATES.get(run_name)
        if gate is not None:
            bad += [f"{key}: {msg}" for msg in gate(cols)]
        if reference is not None:
            digest = hashlib.sha256(data.read_bytes()).hexdigest()
            identical[key] = digest == reference[key]["sha256"]
            bad += [f"{key}: {msg}" for msg in _gate_reference(cols, reference[key])]
    if ex.study_orders is not None:
        ((name, _),) = workload.runs
        res = ex.study_residuals
        decreasing = all(e0 > e1 for e0, e1 in zip(res[:-1], res[1:]))
        if not (decreasing and all(o >= MIN_ORDER for o in ex.study_orders)):
            failures[name].append(
                "criterion 4: residuals " + " -> ".join(f"{e:.3e}" for e in res)
                + ", orders " + ", ".join(f"{o:.3f}" for o in ex.study_orders))
    return Verdict({k: v for k, v in failures.items() if v}, rows, sub_viol,
                   identical)


def bytes_written(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
