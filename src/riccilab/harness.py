"""Experiment runner: config parsing, the forward/backward pipeline, CSV and
manifest persistence, and convergence studies.

Config format: flat ``key = value`` text, ``#`` comments, dotted keys
(``backend.kind``, ``flow.T``, ``entropy.a`` as a comma list, ...).  See
README for the full key table.

Artifacts per run: ``data.csv`` (fixed schema: t, F, S, lambda0, then per
adjustment value Y[a], omega[a], dYdt_fd[a], rhs_thm[a], rhs_ye[a],
res_thm[a], res_equiv[a]; 17 significant digits, comma separator, LF line
endings), ``proof_chain.csv`` (the derivative-identity columns, which do
not fit the fixed data.csv schema), and ``manifest.json`` (config echo,
resolved step, admissibility checks, summary block, exit status), written
exactly once per run, also for failed runs so partial artifacts carry a
status marker.  One writer prints both CSV files from the ``RunTables``
arrays (header only when no table exists; per-a arrays hold one column per
adjustment value); the summary counts come from
``variation``'s ``equivalence_check`` and ``monotonicity_check``.

Exit codes: 0 success, 2 ``InputError`` (configuration or admissibility),
3 ``NumericalError`` (partial CSV retained).

Time stepping: the flow trajectory is integrated and stored at half the
row step, and the density solver steps at the row step, so its RK4 stage
times land exactly on stored snapshots.  Interpolating stage metrics
instead would inject an O(dt^2) mass drift that the two-form equivalence
residual is directly sensitive to.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__ as _VERSION
from .errors import AdmissibilityError, ConfigError, NumericalError
from .flow import Trajectory, integrate_forward, stability_dt
from .geometry import (
    BergerSphere,
    ConformalTorus2D,
    MetricState,
    RoundSphere,
    dim,
    grid_coords,
    gradient_sq,
    integrate,
    laplace_beltrami,
    scalar_field,
    tensor_norm_sq,
)
from .functionals import (
    f_functional,
    lambda0,
    log_entropy_value,
    omega,
    shannon_entropy,
)
from .heat import (
    DATUM_KINDS,
    DensityHistory,
    change_variables,
    solve_backward,
    terminal_datum,
)
from .variation import (
    VariationReport,
    equivalence_check,
    fd_time_derivative,
    matrix_quantity,
    monotonicity_check,
    proof_chain_check,
    rate_forms,
)

__all__ = [
    "RunConfig",
    "ValidatedRun",
    "RunResult",
    "StudyResult",
    "parse_config_file",
    "make_config",
    "validate_config",
    "run",
    "convergence_study",
    "OUTPUT_ROOT_ENV",
]

OUTPUT_ROOT_ENV = "RICCILAB_OUT"
ADMISSIBILITY_MARGIN = 1e-12
LAMBDA0_STEP_TOL = 1e-8


# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------

@dataclass
class RunConfig:
    """Typed run configuration with defaults applied."""

    backend_kind: str
    n: int = 2
    c0: float = 1.0
    A0: float = 1.0
    B0: float = 1.0
    C0: float = 1.0
    N: int = 64
    L: float = 2.0 * math.pi
    phi_amplitude: float = 0.0
    phi_mode: int = 1
    T: float = 0.1
    dt: float | str = "auto"
    safety: float = 0.5
    datum: str = "constant"
    seed: int = 0
    amplitude: float = 0.1
    cutoff: int = 2
    center_x: float | None = None
    center_y: float | None = None
    width: float | None = None
    a_values: list[float] = field(default_factory=lambda: [0.0])
    tol_mono: float = 1e-6
    tol_equiv: float = 1e-8
    tol_mass: float = 1e-6
    out_dir: str | None = None
    raw: dict = field(default_factory=dict)


_KEY_TABLE = {
    "backend.kind": ("backend_kind", str),
    "backend.n": ("n", int),
    "backend.c0": ("c0", float),
    "backend.A0": ("A0", float),
    "backend.B0": ("B0", float),
    "backend.C0": ("C0", float),
    "backend.N": ("N", int),
    "backend.L": ("L", float),
    "backend.phi_amplitude": ("phi_amplitude", float),
    "backend.phi_mode": ("phi_mode", int),
    "flow.T": ("T", float),
    "flow.dt": ("dt", "dt"),
    "flow.safety": ("safety", float),
    "heat.datum": ("datum", str),
    "heat.seed": ("seed", int),
    "heat.amplitude": ("amplitude", float),
    "heat.cutoff": ("cutoff", int),
    "heat.center_x": ("center_x", float),
    "heat.center_y": ("center_y", float),
    "heat.width": ("width", float),
    "entropy.a": ("a_values", "float_list"),
    "tol.mono": ("tol_mono", float),
    "tol.equiv": ("tol_equiv", float),
    "tol.mass": ("tol_mass", float),
    "out.dir": ("out_dir", str),
}

_BACKEND_KINDS = ("round_sphere", "berger_sphere", "conformal_torus")


def parse_config_file(path) -> dict:
    """Read a flat key = value config file into a raw string dict."""
    raw = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _convert(key: str, value, kind):
    """Typed value of one config entry; float values must be finite."""
    if kind == "dt" and str(value).strip() == "auto":
        return "auto"
    try:
        if kind is str:
            return str(value)
        if kind is int:
            return int(str(value))
        if kind != "float_list":
            floats = [float(str(value))]
        elif isinstance(value, (list, tuple)):
            floats = [float(a) for a in value]
        else:
            floats = [float(s) for s in str(value).split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {value!r}") from exc
    if not all(math.isfinite(x) for x in floats):
        raise ConfigError(f"{key}: must be finite, got {value!r}")
    return floats if kind == "float_list" else floats[0]


def make_config(raw: dict) -> RunConfig:
    """Build a typed RunConfig from raw key/value pairs (strings or typed)."""
    if "backend.kind" not in raw:
        raise ConfigError("backend.kind: missing required key")
    if "flow.T" not in raw:
        raise ConfigError("flow.T: missing required key")
    cfg = RunConfig(backend_kind="", raw=dict(raw))
    for key, value in raw.items():
        if key not in _KEY_TABLE:
            raise ConfigError(f"{key}: unknown configuration key")
        attr, kind = _KEY_TABLE[key]
        setattr(cfg, attr, _convert(key, value, kind))
    if cfg.backend_kind not in _BACKEND_KINDS:
        raise ConfigError(
            f"backend.kind: must be one of {_BACKEND_KINDS}, got {cfg.backend_kind!r}"
        )
    if cfg.datum not in DATUM_KINDS:
        raise ConfigError(
            f"heat.datum: must be one of {DATUM_KINDS}, got {cfg.datum!r}"
        )
    if cfg.width is not None and not (cfg.width > 0):
        raise ConfigError("heat.width: must be positive")
    if (cfg.center_x is None) != (cfg.center_y is None):
        missing = "heat.center_y" if cfg.center_y is None else "heat.center_x"
        raise ConfigError(f"{missing}: missing; heat.center_x and "
                          f"heat.center_y must be set together")
    if cfg.cutoff < 1:
        raise ConfigError("heat.cutoff: must be at least 1")
    if not cfg.a_values:
        raise ConfigError("entropy.a: list must be nonempty")
    # Output columns and summary keys are tagged format(a, "g"), so values
    # that repeat or print the same would share a tag.
    seen_tags = set()
    for a in cfg.a_values:
        tag = format(a, "g")
        if tag in seen_tags:
            raise ConfigError(
                f"entropy.a: {a!r} repeats or prints the same as an earlier "
                f"value (tag {tag!r}); values must be distinct to 6 "
                f"significant digits"
            )
        seen_tags.add(tag)
    for name in ("tol_mono", "tol_equiv", "tol_mass"):
        if not (getattr(cfg, name) > 0):
            raise ConfigError(f"tol.{name.split('_')[1]}: must be positive")
    if not (cfg.T > 0):
        raise ConfigError("flow.T: must be positive")
    if isinstance(cfg.dt, float) and not (cfg.dt > 0):
        raise ConfigError("flow.dt: must be positive or 'auto'")
    if not (0.0 < cfg.safety <= 1.0):
        raise ConfigError("flow.safety: must lie in (0, 1]")
    return cfg


def _initial_state(cfg: RunConfig) -> MetricState:
    if cfg.backend_kind == "round_sphere":
        if cfg.n < 2:
            raise ConfigError("backend.n: sphere dimension must be >= 2")
        if not (cfg.c0 > 0):
            raise ConfigError("backend.c0: must be positive")
        return MetricState(RoundSphere(cfg.n), 0.0, np.array([cfg.c0]))
    if cfg.backend_kind == "berger_sphere":
        p = np.array([cfg.A0, cfg.B0, cfg.C0])
        if np.any(p <= 0):
            raise ConfigError("backend.A0/B0/C0: must be positive")
        return MetricState(BergerSphere(), 0.0, p)
    try:
        backend = ConformalTorus2D(cfg.N, cfg.L)
    except ValueError as exc:
        raise ConfigError(f"backend.N/backend.L: {exc}") from exc
    x, y = grid_coords(backend)
    phi0 = cfg.phi_amplitude * np.sin(cfg.phi_mode * 2.0 * math.pi * x / cfg.L)
    return MetricState(backend, 0.0, phi0 + 0.0 * y)


@dataclass
class ValidatedRun:
    """Config with the initial state constructed and every invariant checked."""

    cfg: RunConfig
    m0: MetricState
    T: float
    dt: float
    num_rows: int
    lambda0_g0: float
    admissibility: list[dict]


def validate_config(cfg: RunConfig) -> ValidatedRun:
    """Check all config invariants, resolve dt, and verify a > -lambda0(g(0)).

    The horizon is capped at half the extinction time on homogeneous
    backends and snapped down to an integer number of rows.
    """
    m0 = _initial_state(cfg)
    T = cfg.T
    if not isinstance(m0.backend, ConformalTorus2D):
        n = dim(m0.backend)
        T = min(T, 0.5 * float(np.min(m0.params)) / (2.0 * (n - 1)))

    if cfg.dt == "auto":
        raw_dt = cfg.safety * stability_dt(m0, 1.0)
        K = max(int(math.ceil(T / raw_dt - 1e-9)), 1)
        dt = T / K
    else:
        dt = float(cfg.dt)
        K = int(math.floor(T / dt + 1e-6))
        T = K * dt
    if K < 4:
        raise ConfigError(
            f"flow.T/flow.dt: horizon allows only {K} steps; need at least 4 rows"
        )

    lam0 = lambda0(m0)
    checks = []
    for a in cfg.a_values:
        ok = a > -lam0 + ADMISSIBILITY_MARGIN
        checks.append({"a": a, "lambda0_g0": lam0, "admissible": bool(ok)})
        if not ok:
            raise AdmissibilityError(
                f"entropy.a: a={a:g} violates a > -lambda0(g(0)) = {-lam0:g}"
            )
    return ValidatedRun(cfg, m0, T, dt, K + 1, lam0, checks)


# --------------------------------------------------------------------------
# Row evaluation
# --------------------------------------------------------------------------

@dataclass
class RunTables:
    """All per-row series of a completed run.  The per-a series (Y to
    res_equiv) are (rows, len(a_values)) arrays, column j for a_values[j]."""

    times: np.ndarray
    F: np.ndarray
    S: np.ndarray
    lam0: np.ndarray
    a_values: list[float]
    Y: np.ndarray
    om: np.ndarray
    dY_fd: np.ndarray
    rhs_thm: np.ndarray
    rhs_ye: np.ndarray
    res_thm: np.ndarray
    res_equiv: np.ndarray
    dF_rhs: np.ndarray
    sub_lhs: np.ndarray
    sub_rhs: np.ndarray
    masses: np.ndarray
    variation: VariationReport


def evaluate_tables(
    traj: Trajectory, hist: DensityHistory, a_values, dt: float
) -> tuple[RunTables | None, Exception | None]:
    """Evaluate every functional and verification column row by row.

    Each row builds F, S, lambda0 and the variation tensor T once; every
    adjustment value then reuses them for omega, Y and both rate forms.
    The per-row and per-a series live in two arrays cut by one slice.  On a
    numerical failure the completed rows are kept (truncated tables, finite
    differences over the surviving series) so a failed run still
    ships a partial CSV; returns (tables, error), tables None when fewer
    than 3 rows survived.
    """
    stride = int(round(dt / traj.dt))
    n = dim(traj.backend)
    a_values = list(a_values)
    K = len(hist.times)
    row_series = np.empty((6, K))
    a_series = np.empty((4, K, len(a_values)))
    F, S, lam, dF_rhs, sub_lhs, sub_rhs = row_series
    Y, om, rt, ry = a_series

    error = None
    done = 0
    for k, t in enumerate(hist.times):
        try:
            m = traj.state(k * stride)
            u, f = change_variables(hist.field(k))
            v = hist.v[k]
            F[k] = f_functional(m, u)
            S[k] = shannon_entropy(m, u)
            lam[k] = lambda0(m)
            T_var = matrix_quantity(m, u)
            dF_rhs[k] = 2.0 * integrate(
                m, scalar_field(m, tensor_norm_sq(m, T_var).values * u.values**2)
            )
            sub_lhs[k] = integrate(
                m, scalar_field(m, laplace_beltrami(m, f).values * v)
            )
            sub_rhs[k] = integrate(m, scalar_field(m, gradient_sq(m, f).values * v))
            for j, a in enumerate(a_values):
                om[k, j] = omega(F[k], a)
                Y[k, j] = log_entropy_value(S[k], om[k, j], n, a, float(t))
                rt[k, j], ry[k, j] = rate_forms(m, u, T_var, F[k], a)
        except NumericalError as exc:
            error = exc
            break
        done = k + 1

    if done < 3:
        return None, error
    times = hist.times[:done]
    F, S, lam, dF_rhs, sub_lhs, sub_rhs = row_series[:, :done]
    Y, om, rt, ry = a_series[:, :done]
    dY = fd_time_derivative(Y, dt)
    tables = RunTables(
        times=times, F=F, S=S, lam0=lam, a_values=a_values,
        Y=Y, om=om, dY_fd=dY, rhs_thm=rt, rhs_ye=ry,
        res_thm=np.abs(dY - rt), res_equiv=np.abs(rt - ry),
        dF_rhs=dF_rhs, sub_lhs=sub_lhs, sub_rhs=sub_rhs,
        masses=hist.masses[:done],
        variation=proof_chain_check(times, S, F, dF_rhs, dt),
    )
    return tables, error


def _summary(tables: RunTables, cfg: RunConfig) -> dict:
    interior = tables.variation.interior
    lam_drops = monotonicity_check(tables.lam0, LAMBDA0_STEP_TOL)
    # Only the main flags count as equivalence violations: the sub-identity
    # has an O(h^2) chain-rule floor that coarse grids exceed while the two
    # rate forms still agree.  Its flags do not depend on a: one column.
    main_ok, sub_ok = equivalence_check(
        tables.rhs_thm, tables.rhs_ye, tables.sub_lhs[:, None],
        tables.sub_rhs[:, None], cfg.tol_equiv)
    sub_res = np.abs(tables.sub_lhs - tables.sub_rhs) / np.maximum(
        1.0, np.abs(tables.sub_lhs)
    )
    return {
        "rows": int(len(tables.times)),
        "max_res_thm_interior": float(np.max(tables.res_thm[interior])),
        "max_res_equiv": float(np.max(tables.res_equiv)),
        "equivalence_violations": int(np.sum(~main_ok)),
        "max_sub_identity_residual": float(np.max(sub_res)),
        "sub_identity_violations": int(np.sum(~sub_ok)),
        "monotonicity_violations": {
            format(a, "g"): int(len(monotonicity_check(y, cfg.tol_mono)))
            for a, y in zip(tables.a_values, tables.Y.T)
        },
        "lambda0_monotonicity_violations": int(len(lam_drops)),
        "max_mass_drift": float(np.max(np.abs(tables.masses - 1.0))),
        "max_res_dS_interior": tables.variation.max_interior_res_dS,
        "max_res_dF_interior": tables.variation.max_interior_res_dF,
    }


# --------------------------------------------------------------------------
# Artifact writers
# --------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Header line, then one line per row of the equal-length columns."""
    rows = zip(*(c.tolist() for c in columns))
    lines = [",".join(header)] + [",".join(_fmt(x) for x in row) for row in rows]
    path.write_bytes(("\n".join(lines) + "\n").encode("ascii"))


# data.csv columns repeated per adjustment value, mapped to RunTables fields.
_PER_A_COLS = {
    "Y": "Y", "omega": "om", "dYdt_fd": "dY_fd", "rhs_thm": "rhs_thm",
    "rhs_ye": "rhs_ye", "res_thm": "res_thm", "res_equiv": "res_equiv",
}
_PROOF_CHAIN_COLS = [
    "t", "S", "dSdt_fd", "F", "dFdt_fd", "dF_rhs", "res_dS", "res_dF",
    "sub_lhs", "sub_rhs", "mass", "interior",
]


def _write_artifact_csvs(out: Path, a_values, tables: RunTables | None) -> None:
    """data.csv and proof_chain.csv; header-only files when tables is None."""
    header = ["t", "F", "S", "lambda0"] + [
        f"{name}[{format(a, 'g')}]" for a in a_values for name in _PER_A_COLS
    ]
    data, chain = [], []
    if tables is not None:
        rep = tables.variation
        data = [tables.times, tables.F, tables.S, tables.lam0] + [
            getattr(tables, field)[:, j] for j in range(len(a_values))
            for field in _PER_A_COLS.values()
        ]
        chain = [
            tables.times, tables.S, rep.dS_dt_fd, tables.F, rep.dF_dt_fd,
            tables.dF_rhs, rep.res_dS, rep.res_dF, tables.sub_lhs,
            tables.sub_rhs, tables.masses, rep.interior,
        ]
    _write_csv(out / "data.csv", header, data)
    _write_csv(out / "proof_chain.csv", _PROOF_CHAIN_COLS, chain)


# --------------------------------------------------------------------------
# Run pipeline
# --------------------------------------------------------------------------

@dataclass
class RunResult:
    status: str
    exit_code: int
    out_dir: Path
    summary: dict | None
    tables: RunTables | None
    error: str | None = None


def resolve_out_dir(cfg: RunConfig, override=None, default_name="run") -> Path:
    """Output directory: --out override, then out.dir, resolved against the
    environment output root (or the working directory) when relative."""
    target = Path(override) if override else Path(cfg.out_dir or default_name)
    if not target.is_absolute():
        root = os.environ.get(OUTPUT_ROOT_ENV)
        if root:
            target = Path(root) / target
    return target


def run(validated: ValidatedRun, out_dir) -> RunResult:
    """Execute the pipeline and persist artifacts.

    Numerical failures produce exit code 3 with partial artifacts and a
    status marker in the manifest; the artifact set is the same for passed
    and failed runs.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = validated.cfg
    started = time.perf_counter()
    status, error, tables, summary = "ok", None, None, None
    try:
        traj = integrate_forward(validated.m0, validated.T, validated.dt / 2.0)
        m_T = traj.final_state()
        v_T = terminal_datum(
            cfg.datum, m_T,
            amplitude=cfg.amplitude, seed=cfg.seed, mode_cutoff=cfg.cutoff,
            center=(None if cfg.center_x is None
                    else (cfg.center_x, cfg.center_y)),
            width=cfg.width,
        )
        hist = solve_backward(traj, v_T, step=validated.dt, mass_tol=cfg.tol_mass)
        tables, row_error = evaluate_tables(traj, hist, cfg.a_values, validated.dt)
        if row_error is not None:
            raise row_error
        summary = _summary(tables, cfg)
    except NumericalError as exc:
        status = type(exc).__name__
        error = str(exc)
    _write_artifact_csvs(out, cfg.a_values, tables)
    exit_code = 0 if status == "ok" else 3

    manifest = {
        "config": cfg.raw,
        "resolved": {
            "backend": cfg.backend_kind,
            "T": validated.T,
            "dt": validated.dt,
            "rows": validated.num_rows,
            "flow_dt": validated.dt / 2.0,
        },
        "version": _VERSION,
        "lambda0_g0": validated.lambda0_g0,
        "admissibility": validated.admissibility,
        "status": status,
        "error": error,
        "exit_code": exit_code,
        "summary": summary,
        "wall_clock_s": time.perf_counter() - started,
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return RunResult(status, exit_code, out, summary, tables, error)


# --------------------------------------------------------------------------
# Convergence study
# --------------------------------------------------------------------------

@dataclass
class StudyResult:
    levels: list[dict]
    orders_thm: list[float]
    out_dir: Path


def convergence_study(cfg: RunConfig, levels: int, out_dir) -> StudyResult:
    """Repeat the run at (N, dt), (2N, dt/4), ...; report the max interior
    split-form residual per level and observed orders per refinement."""
    if cfg.backend_kind != "conformal_torus":
        raise ConfigError("convergence study requires the conformal_torus backend")
    if levels < 3:
        raise ConfigError(f"levels: need at least 3, got {levels}")
    if cfg.dt == "auto":
        raise ConfigError("flow.dt: convergence study needs an explicit base dt")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for level in range(levels):
        lcfg_raw = dict(cfg.raw)
        lcfg_raw["backend.N"] = cfg.N * 2**level
        lcfg_raw["flow.dt"] = float(cfg.dt) / 4.0**level
        lcfg = make_config(lcfg_raw)
        validated = validate_config(lcfg)
        result = run(validated, out / f"level_{level}")
        if result.exit_code != 0:
            raise RuntimeError(
                f"study level {level} failed with status {result.status}"
            )
        rows.append(
            {
                "level": level,
                "N": lcfg.N,
                "dt": validated.dt,
                "max_res_thm_interior": result.summary["max_res_thm_interior"],
                "max_res_dS_interior": result.summary["max_res_dS_interior"],
                "max_res_dF_interior": result.summary["max_res_dF_interior"],
                "summary": result.summary,
            }
        )

    orders = []
    for prev, cur in zip(rows[:-1], rows[1:]):
        e0, e1 = prev["max_res_thm_interior"], cur["max_res_thm_interior"]
        orders.append(math.log2(e0 / e1) if e1 > 0 else math.inf)

    lines = ["level,N,dt,max_res_thm_interior,order_vs_prev"]
    for i, row in enumerate(rows):
        order = "" if i == 0 else _fmt(orders[i - 1])
        lines.append(
            f'{row["level"]},{row["N"]},{_fmt(row["dt"])},'
            f'{_fmt(row["max_res_thm_interior"])},{order}'
        )
    (out / "study.csv").write_bytes(("\n".join(lines) + "\n").encode("ascii"))
    return StudyResult(rows, orders, out)
