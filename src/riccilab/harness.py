"""Experiment runner: config parsing, the forward/backward pipeline, CSV and
manifest persistence, and convergence studies.

Config format: flat ``key = value`` text, ``#`` comments, dotted keys
(``backend.kind``, ``flow.T``, ``entropy.a`` as a comma list, ...), each
declared once, by its ``RunConfig`` field.  README's key table lists them.

Artifacts: ``_artifact_csvs`` gives the columns of ``data.csv`` and
``proof_chain.csv``, which ``_write_csv`` prints through
``csvtext.write_rows`` (header only when no table exists), and ``run``
writes ``manifest.json`` (``_write_manifest``) exactly once per run, on
every exit path.  Each stage's ``timings``, ``cpu_s`` and ``minor_faults``
are charged by ``_charged``, and ``_timed`` reads its ``peak_rss_mb``.
README names every column and manifest field.  The summary counts come
from ``variation``'s ``equivalence_check`` and ``monotonicity_check``.

Row evaluation: ``evaluate_tables``.  The flow steps at half the row step
(``validate_config``'s dt), so the heat solve's RK4 stages land on stored
snapshots (``heat``).
"""

from __future__ import annotations

import functools
import json
import logging
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

try:
    import resource
except ImportError:  # not on every platform; the memory block is then null
    resource = None

from . import __version__ as _VERSION
from . import csvtext, flow, geometry
from .errors import (
    AdmissibilityError,
    ConfigError,
    NonPositive,
    NumericalError,
)
from .flow import Trajectory, integrate_forward, stability_dt, step_limit
from .geometry import (
    BergerSphere,
    ConformalTorus2D,
    MetricState,
    RoundSphere,
    _peak_rss_mb,
    grid_coords,
    volume,
)
from .functionals import ground_states, lambda0
from .heat import (
    DATUM_KINDS,
    POSITIVITY_FLOOR,
    bump_terms,
    check_datum,
    stream_backward,
    terminal_datum,
)
from .variation import (
    VariationReport,
    a_tag,
    equivalence_check,
    fd_time_derivative,
    monotonicity_check,
    proof_chain_check,
    row_failure,
    row_values,
)

__all__ = [
    "RunConfig",
    "ValidatedRun",
    "RunResult",
    "StudyResult",
    "parse_config_file",
    "make_config",
    "validate_config",
    "check_config",
    "run",
    "convergence_study",
    "OUTPUT_ROOT_ENV",
]

OUTPUT_ROOT_ENV = "RICCILAB_OUT"
ADMISSIBILITY_MARGIN = 1e-12
LAMBDA0_STEP_TOL = 1e-8

log = logging.getLogger(__name__)


# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------

def _key(key: str, kind, default=MISSING, rule=None, backend=None, **options):
    """A ``RunConfig`` field read from the config key ``key``, converted as
    ``_convert``'s ``kind``; without a default the key is required.  A
    ``rule`` is the key's own range: a predicate on the converted value and
    the message that follows ``"<key>: "`` (``{!r}`` standing for the
    value), checked only when the configured backend is ``backend`` (any
    backend when None)."""
    return field(default=default, metadata=dict(key=key, kind=kind, rule=rule,
                                                backend=backend), **options)


_ROUND, _BERGER = "round_sphere", "berger_sphere"
_BACKEND_KINDS = (_ROUND, _BERGER, "conformal_torus")
_POSITIVE = (lambda x: x > 0, "must be positive")


def _one_of(kinds: tuple) -> tuple:
    return (lambda s: s in kinds, f"must be one of {kinds}, got {{!r}}")


@dataclass(kw_only=True)
class RunConfig:
    """Typed run configuration with defaults applied.  Each field but ``raw``
    declares its config key, kind and rule (``_key``), in the order the
    required keys and the rules are checked; every default satisfies its
    key's rule."""

    backend_kind: str = _key("backend.kind", str, rule=_one_of(_BACKEND_KINDS))
    n: int = _key("backend.n", int, 2, backend=_ROUND,
                  rule=(lambda n: n >= 2, "sphere dimension must be >= 2"))
    c0: float = _key("backend.c0", float, 1.0, rule=_POSITIVE, backend=_ROUND)
    A0: float = _key("backend.A0", float, 1.0, rule=_POSITIVE, backend=_BERGER)
    B0: float = _key("backend.B0", float, 1.0, rule=_POSITIVE, backend=_BERGER)
    C0: float = _key("backend.C0", float, 1.0, rule=_POSITIVE, backend=_BERGER)
    N: int = _key("backend.N", int, 64)
    L: float = _key("backend.L", float, 2.0 * math.pi)
    phi_amplitude: float = _key("backend.phi_amplitude", float, 0.0)
    phi_mode: int = _key("backend.phi_mode", int, 1)
    T: float = _key("flow.T", float, rule=_POSITIVE)
    dt: float | str = _key("flow.dt", "dt", "auto", rule=(
        lambda dt: dt == "auto" or dt > 0, "must be positive or 'auto'"))
    safety: float = _key("flow.safety", float, 0.5,
                         rule=(lambda s: 0.0 < s <= 1.0, "must lie in (0, 1]"))
    datum: str = _key("heat.datum", str, "constant", rule=_one_of(DATUM_KINDS))
    seed: int = _key("heat.seed", int, 0,
                     rule=(lambda s: s >= 0, "must be non-negative"))
    amplitude: float = _key("heat.amplitude", float, 0.1)
    cutoff: int = _key("heat.cutoff", int, 2,
                       rule=(lambda c: c >= 1, "must be at least 1"))
    center_x: float | None = _key("heat.center_x", float, None)
    center_y: float | None = _key("heat.center_y", float, None)
    width: float | None = _key("heat.width", float, None, rule=_POSITIVE)
    a_values: list[float] = _key("entropy.a", "float_list", rule=(
        bool, "list must be nonempty"), default_factory=lambda: [0.0])
    tol_mono: float = _key("tol.mono", float, 1e-6, rule=_POSITIVE)
    tol_equiv: float = _key("tol.equiv", float, 1e-8, rule=_POSITIVE)
    tol_mass: float = _key("tol.mass", float, 1e-6, rule=_POSITIVE)
    out_dir: str | None = _key("out.dir", str, None)
    raw: dict = field(default_factory=dict)


def parse_config_file(path) -> dict:
    """Read a flat key = value config file into a raw string dict; a
    ConfigError naming the path when it cannot be read as UTF-8 text."""
    raw = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"{path}: cannot read config: {reason}") from None
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


@functools.cache
def _declared() -> tuple[dict, tuple, tuple]:
    """Each config key's ``RunConfig`` field, the required keys (the fields
    without a default), and each declared rule as (key, field name, rule,
    backend), all in field order."""
    declared = {f.metadata["key"]: f for f in fields(RunConfig) if f.metadata}
    return declared, tuple(key for key, f in declared.items()
                           if f.default is MISSING is f.default_factory), tuple(
        (key, f.name, f.metadata["rule"], f.metadata["backend"])
        for key, f in declared.items() if f.metadata["rule"])


def make_config(raw: dict) -> RunConfig:
    """Build a typed RunConfig from raw key/value pairs (strings or typed).

    Each key given is checked against its declared rule, in field order (a
    default satisfies its own), then the rules across keys: the bump centre
    pair, the random datum's mode cap and distinct adjustment values."""
    declared, required, rules = _declared()
    for key in required:
        if key not in raw:
            raise ConfigError(f"{key}: missing required key")
    values = {}
    for key, value in raw.items():
        if key not in declared:
            raise ConfigError(f"{key}: unknown configuration key")
        f = declared[key]
        values[f.name] = _convert(key, value, f.metadata["kind"])
    cfg = RunConfig(**values, raw=dict(raw))
    for key, name, (ok, message), backend in rules:
        value = getattr(cfg, name)
        if key in raw and backend in (None, cfg.backend_kind) and not ok(value):
            raise ConfigError(f"{key}: {message.format(value)}")
    if (cfg.center_x is None) != (cfg.center_y is None):
        missing = "heat.center_y" if cfg.center_y is None else "heat.center_x"
        raise ConfigError(f"{missing}: missing; heat.center_x and "
                          f"heat.center_y must be set together")
    if cfg.backend_kind == "conformal_torus" and cfg.datum == "random_smooth":
        modes = 2 * cfg.cutoff * (cfg.cutoff + 1)
        if modes * max(cfg.N * cfg.N, _MODE_CELLS_FLOOR) > _MAX_MODE_CELLS:
            raise ConfigError(
                f"heat.cutoff: {modes} random_smooth modes on a {cfg.N} x "
                f"{cfg.N} grid (at least {_MODE_CELLS_FLOOR} cells a mode) "
                f"are past the cap of {_MAX_MODE_CELLS} mode-cells")
    # Output columns and summary keys are tagged ``a_tag(a)``: a value equal
    # to an earlier one (-0 to 0 too) would repeat its columns, and one that
    # prints the same would share their tag.
    seen = set()
    for a in cfg.a_values:
        tag = a_tag(a)
        if a in seen or tag in seen:
            raise ConfigError(
                f"entropy.a: {a!r} repeats or prints the same as an earlier "
                f"value (tag {tag!r}); values must be distinct to 6 "
                f"significant digits"
            )
        seen |= {a, tag}
    return cfg


# The random_smooth datum sums 2 c (c + 1) Fourier modes of cutoff c, each a
# pass over the grid in ``heat.terminal_datum`` and ``heat.check_datum``.
# Its mode-cells are capped, a grid counting at least 32 x 32 cells (a
# mode's fixed cost), so the datum's time and its mode list stay bounded:
# at most 65536 modes (cutoff 180) up to N = 32, cutoff 22 at N = 256.
_MAX_MODE_CELLS = 2**26
_MODE_CELLS_FLOOR = 32 * 32


def _initial_state(cfg: RunConfig) -> MetricState:
    """The initial metric; one whose curvature or volume overflows, or whose
    volume underflows to 0, is a ConfigError keyed by the backend parameter,
    and so is a torus whose initial phase mode * 2 pi x / L is not finite at
    some node."""
    if cfg.backend_kind == "round_sphere":
        key, m0 = "backend.c0", MetricState(RoundSphere(cfg.n), 0.0,
                                            np.array([cfg.c0]))
    elif cfg.backend_kind == "berger_sphere":
        key, m0 = "backend.A0/B0/C0", MetricState(
            BergerSphere(), 0.0, np.array([cfg.A0, cfg.B0, cfg.C0]))
    else:
        try:
            backend = ConformalTorus2D(cfg.N, cfg.L)
        except ValueError as exc:
            raise ConfigError(f"backend.N/backend.L: {exc}") from exc
        if 8 * cfg.N * cfg.N > _MAX_ARRAY_BYTES:
            raise _past_index_range("backend.N", f"one {cfg.N} x {cfg.N} grid",
                                    cfg.N * cfg.N)
        x, y = grid_coords(backend)
        try:
            k = cfg.phi_mode * 2.0 * math.pi
        except OverflowError:  # an int past the float range
            k = math.inf
        with np.errstate(all="ignore"):
            phase = k * x / cfg.L
        if not np.isfinite(phase).all():
            key = "backend.phi_mode" if abs(k) > cfg.L else "backend.L"
            raise ConfigError(f"{key}: the initial phi's phase is not finite")
        phi0 = cfg.phi_amplitude * np.sin(phase)
        # h * h = 0 makes the 5-point stencil 0 / 0 whatever phi is.
        key = "backend.phi_amplitude" if backend.h * backend.h > 0 else "backend.L"
        m0 = MetricState(backend, 0.0, phi0 + 0.0 * y)
    with np.errstate(all="ignore"):
        try:
            R, vol = m0.stack.R, m0.stack.volume
        except OverflowError:  # the unit round sphere's volume, or the torus's h**2
            key = "backend.n" if cfg.backend_kind == "round_sphere" else "backend.L"
            R, vol = math.nan, math.nan
    # R is a float on the spheres (math.isfinite is the cheap test) and a
    # grid on the torus.
    finite = math.isfinite(R) if isinstance(R, float) else np.isfinite(R).all()
    if not (finite and math.isfinite(vol)):
        raise ConfigError(f"{key}: the initial metric's curvature or volume "
                          "is not finite")
    if not vol > 0:
        raise ConfigError(f"{key}: the initial metric's volume underflows to 0")
    return m0


# The bytes of numpy's largest array.  A run whose flow states or grid take
# more float64 bytes fails allocating them, or computing their size, so
# validation rejects it by arithmetic first.
_MAX_ARRAY_BYTES = np.iinfo(np.intp).max


def _past_index_range(key: str, what: str, values) -> ConfigError:
    return ConfigError(f"{key}: {what}: {8 * values:.3g} bytes of float64, "
                       f"past numpy's largest array ({_MAX_ARRAY_BYTES} bytes)")


# The backend keys that set the initial volume.
_VOLUME_KEYS = {"round_sphere": "backend.c0", "berger_sphere": "backend.A0/B0/C0",
                "conformal_torus": "backend.L"}
# The keys that set g(0)'s smallest metric scale.
_SCALE_KEYS = {**_VOLUME_KEYS, "conformal_torus": "backend.phi_amplitude"}


def _datum_params(cfg: RunConfig) -> dict:
    """The keyword arguments of the configured terminal datum."""
    return dict(
        amplitude=cfg.amplitude, seed=cfg.seed, mode_cutoff=cfg.cutoff,
        center=None if cfg.center_x is None else (cfg.center_x, cfg.center_y),
        width=cfg.width,
    )


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
    backends and snapped down to an integer number of rows.  A bump datum's
    positivity and a random datum's finiteness depend only on the config
    and the grid, so ``heat.check_datum`` checks them here on g(0), on the
    grid nodes the run's datum uses.  A datum below the positivity floor is
    a ConfigError on the backend key that sets the volume when its mean
    1/volume is below the floor already (no amplitude can lift it), and on
    ``heat.amplitude`` otherwise.  A torus bump whose ``heat.bump_terms``
    are not finite is a ConfigError on ``heat.center_x/center_y`` (a phase)
    or ``heat.width`` (the scale), checked first.  After the horizon and
    step checks (the flow's half step dt/2 must be a normal float, or its
    horizon is no multiple of it to round-off), g(0)'s smallest metric scale
    must pass the flow's floor (``flow.PARAM_FLOOR``) by the flow's own
    comparison, a ConfigError on the backend key that sets it; lambda0 is
    solved last.
    """
    m0 = _initial_state(cfg)
    params = _datum_params(cfg)
    if cfg.datum == "bump" and isinstance(m0.backend, ConformalTorus2D):
        px, py, scale = bump_terms(m0.backend, params["center"], params["width"])
        if not (np.isfinite(px).all() and np.isfinite(py).all()):
            raise ConfigError("heat.center_x/center_y: a bump phase is not finite")
        if not scale < math.inf:
            raise ConfigError("heat.width: the bump scale is not finite")
    try:
        check_datum(cfg.datum, m0, **params)
    except NonPositive as exc:
        small = not 1.0 / volume(m0) > POSITIVITY_FLOOR
        key = _VOLUME_KEYS[cfg.backend_kind] if small else "heat.amplitude"
        raise ConfigError(f"{key}: {exc}") from None
    T = cfg.T
    if isinstance(m0.backend, ConformalTorus2D):
        scale = float(m0.backend.min_scale(m0.params[np.newaxis])[0])
    else:
        scale = min(m0.params.tolist())
        T = min(T, 0.5 * scale / (2.0 * (m0.backend.n - 1)))

    # The flow stores the 2K + 1 states of its half steps, each as
    # len(p) components shaped like p[0] (``integrate_forward``'s storage);
    # the row count K + 1 is checked in floats, before it is an int.  The
    # auto step of a subnormal scale underflows to 0: infinitely many rows.
    auto = cfg.dt == "auto"
    raw_dt = cfg.safety * stability_dt(m0) if auto else float(cfg.dt)
    steps = T / raw_dt if raw_dt > 0 else math.inf
    p = m0.backend.components(m0.params)
    states = 2.0 * steps + 1.0
    values = states * len(p) * np.asarray(p[0]).size
    if 8 * values > _MAX_ARRAY_BYTES:
        raise _past_index_range("flow.dt", f"{steps + 1.0:.6g} rows "
                                f"({states:.6g} stored flow states)", values)
    if auto:
        K = max(int(math.ceil(steps - 1e-9)), 1)
        dt = T / K
    else:
        dt = raw_dt
        K = int(math.floor(steps + 1e-6))
        T = K * dt
    if K < 4:
        hint = "" if not auto else (
            f" (flow.dt = auto resolves to {raw_dt:g}; flow.dt = {T / 4.0:g}, "
            f"a quarter of the horizon T = {T:g}, gives 4)")
        raise ConfigError(
            f"flow.T/flow.dt: horizon allows only {K} steps; need at least "
            f"4{hint}"
        )
    if dt / 2.0 < sys.float_info.min:  # flow.integrate_forward's grid test
        raise ConfigError(f"flow.dt: the flow step dt/2 = {dt / 2.0:g} is "
                          f"subnormal, below {sys.float_info.min:g}")
    if not scale >= flow.PARAM_FLOOR:  # the flow's own test of each state
        raise ConfigError(
            f"{_SCALE_KEYS[cfg.backend_kind]}: g(0)'s smallest metric scale "
            f"{scale:g} is below the flow's floor {flow.PARAM_FLOOR:g}")

    lam0 = lambda0(m0)
    checks = []
    for a in cfg.a_values:
        ok = a > -lam0 + ADMISSIBILITY_MARGIN
        checks.append({"a": a, "lambda0_g0": lam0, "admissible": bool(ok)})
        if not ok:
            raise AdmissibilityError(
                f"entropy.a: a={a:g} violates a > -lambda0(g(0)) = {0.0 - lam0:g}"
            )
    return ValidatedRun(cfg, m0, T, dt, K + 1, lam0, checks)


def check_config(cfg: RunConfig) -> ValidatedRun:
    """``riccilab check``'s verdict: ``validate_config``, then the run's flow
    step dt / 2 against g(0)'s stability bound by the flow's own rule
    (``flow.step_limit``), a ConfigError on ``flow.dt`` naming the bound and
    the largest flow.dt that passes.  ``run`` does not take this verdict: a
    step over the bound is its own numerical failure, StepTooLarge at t = 0
    (exit 3, header-only CSVs)."""
    validated = validate_config(cfg)
    bound = stability_dt(validated.m0)
    if validated.dt / 2.0 > step_limit(bound):
        raise ConfigError(
            f"flow.dt: the flow step dt/2 = {validated.dt / 2.0:g} exceeds the "
            f"stability bound {bound:g} of g(0); the largest flow.dt that "
            f"passes is {2.0 * step_limit(bound)!r}")
    return validated


# --------------------------------------------------------------------------
# Row evaluation
# --------------------------------------------------------------------------

@dataclass
class RunTables:
    """All per-row series of a completed run.  The per-a series (Y to
    res_equiv) are (rows, len(a_values)) arrays, column j for a_values[j].
    res_equiv = |rhs_thm - rhs_ye| is formed with the tables, not taken
    from ``equivalence_check`` in the summary, since a failed run writes it
    without a summary."""

    times: np.ndarray
    F: np.ndarray
    S: np.ndarray
    lam0: np.ndarray
    lam0_iterations: np.ndarray
    lam0_residuals: np.ndarray
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
    traj: Trajectory, chunks, a_values, blocks: dict | None = None,
) -> tuple[RunTables | None, Exception | None]:
    """Evaluate every functional and verification column.

    The rows are every second state of ``traj``, a slice of its stack
    (``Trajectory.stack``), as is each kernel block.  ``chunks(out)``
    returns their densities as ``DensityHistory`` chunks of consecutive
    rows that together cover every row once, in any order, each chunk's
    ``v`` being ``out[:n]`` (else ValueError): ``heat.stream_backward``
    with ``out``, consumed as they complete.  ``out`` is one chunk of at
    most ``geometry.CHUNK_CELLS`` cells (at least one row) from the
    pool's ``array``s, made before the pool forks, so the pool's workers
    read each chunk's rows where the heat solve stepped them.
    One ``geometry.row_pool`` serves the run: the lambda0 of every row
    comes first, from one ``ground_states`` call on it.  Then the row kernel
    ``variation.row_values`` evaluates each chunk over the pool's row
    blocks, each block writing its rows of the tables (the pool's shared
    arrays); only these per-row values outlive the chunk.  An error the
    chunks or a kernel block raise propagates.  Once every row is evaluated,
    ``variation.row_failure`` finds the lowest failing row and its error,
    so neither depends on the pool or the chunks.  On a
    numerical failure the completed rows are kept (truncated tables, finite
    differences over the surviving series) so a failed run still ships a
    partial CSV; returns (tables, error), tables None when fewer than 3
    rows survived.  Given ``run``'s usage ``blocks``, the ground-state
    solve is charged to their ``lambda0_s`` (``_charged``), and the pool's
    ``processes_used`` and ``workers_peak_rss_mb`` are recorded there as
    ``workers`` and ``workers_peak_rss_mb``, also when an error propagates.
    """
    backend, dt = traj.backend, 2.0 * traj.dt
    a_values = list(a_values)
    times = traj.times[::2]
    K = len(times)
    pool = geometry.row_pool(K, backend.cells)
    try:
        with pool:
            @pool.add
            def kernel(lo, rows):
                # The rows' own slice of the stack, apart from the one
                # ground_states solves, so that the arrays it built (R, on
                # the round sphere) are not held through the kernel.
                at = slice(lo + rows.start, lo + rows.stop)
                g = traj.stack[2 * at.start:2 * at.stop:2]
                vals = row_values(g, out[rows], times[at], a_values)
                row_series[:5, at] = (vals.F, vals.S, vals.dF_rhs,
                                      vals.sub_lhs, vals.sub_rhs)
                a_series[:, at] = (vals.Y, vals.om, vals.rhs_split,
                                   vals.rhs_combined)

            # F, S, dF_rhs, sub_lhs, sub_rhs, mass; Y, omega, rhs_thm, rhs_ye
            row_series = pool.array((6, K))
            a_series = pool.array((4, K, len(a_values)))
            chunk_rows = min(K, max(1, geometry.CHUNK_CELLS // backend.cells))
            out = pool.array((chunk_rows,) + backend.field_shape)
            with _charged(blocks, "lambda0_s"):
                ground = ground_states(traj.stack[::2], pool)
            covered = 0
            for chunk in chunks(out):
                lo, n = chunk.first, len(chunk.times)
                # The same memory, shape and strides as out[:n].
                if chunk.v.__array_interface__ != out[:n].__array_interface__:
                    raise ValueError(f"density chunk of rows {lo}-{lo + n - 1} "
                                     "is not held in the row pool's array")
                covered += n
                row_series[5, lo:lo + n] = chunk.masses
                pool.map(kernel, n, backend.cells, lo)
    finally:
        if blocks is not None:
            blocks["workers"] = pool.processes_used
            blocks["workers_peak_rss_mb"] = pool.workers_peak_rss_mb
    if covered != K:
        raise ValueError(f"density chunks hold {covered} rows, not the "
                         f"trajectory's {K}")
    done, error = row_failure(ground, row_series[0], a_series, times, a_values)

    if done < 3:
        return None, error
    F, S, dF_rhs, sub_lhs, sub_rhs, masses = row_series[:, :done]
    times = times[:done].copy()
    Y, om, rt, ry = a_series[:, :done]
    dY = fd_time_derivative(Y, dt)
    tables = RunTables(
        times=times, F=F, S=S, lam0=ground.values[:done],
        lam0_iterations=ground.iterations[:done],
        lam0_residuals=ground.residuals[:done], a_values=a_values,
        Y=Y, om=om, dY_fd=dY, rhs_thm=rt, rhs_ye=ry,
        res_thm=np.abs(dY - rt), res_equiv=np.abs(rt - ry),
        dF_rhs=dF_rhs, sub_lhs=sub_lhs, sub_rhs=sub_rhs, masses=masses,
        variation=proof_chain_check(times, S, F, dF_rhs, dt),
    )
    return tables, error


def _summary(tables: RunTables, cfg: RunConfig) -> dict:
    interior = tables.variation.interior
    lam_drops = monotonicity_check(tables.lam0, LAMBDA0_STEP_TOL)
    # Only the main flags count as equivalence violations: the sub-identity
    # has an O(h^2) chain-rule floor that coarse grids exceed while the two
    # rate forms still agree.  Its flags do not depend on a: one column.
    main_ok, sub_ok, _, sub_res = equivalence_check(
        tables.rhs_thm, tables.rhs_ye, tables.sub_lhs[:, None],
        tables.sub_rhs[:, None], cfg.tol_equiv)
    return {
        "rows": int(len(tables.times)),
        "max_res_thm_interior": float(np.max(tables.res_thm[interior])),
        "max_res_equiv": float(np.max(tables.res_equiv)),
        "equivalence_violations": int(np.sum(~main_ok)),
        "max_sub_identity_residual": float(np.max(sub_res)),
        "sub_identity_violations": int(np.sum(~sub_ok)),
        "monotonicity_violations": {
            a_tag(a): int(len(monotonicity_check(y, cfg.tol_mono)))
            for a, y in zip(tables.a_values, tables.Y.T)
        },
        "lambda0_monotonicity_violations": int(len(lam_drops)),
        "max_mass_drift": float(np.max(np.abs(tables.masses - 1.0))),
        "max_res_dS_interior": tables.variation.max_interior_res_dS,
        "max_res_dF_interior": tables.variation.max_interior_res_dF,
    }


def _lambda0_diagnostics(tables: RunTables) -> dict:
    """LOPCG iterations and eigen-residuals of the evaluated rows' lambda0."""
    return {
        "iterations_max": int(np.max(tables.lam0_iterations)),
        "iterations_mean": float(np.mean(tables.lam0_iterations)),
        "residual_max": float(np.max(tables.lam0_residuals)),
    }


# --------------------------------------------------------------------------
# Artifact writers
# --------------------------------------------------------------------------

def _fmt(x: float) -> str:
    """One value as the artifacts print it: study.csv's writer, and the
    reference the CSV writer's tests compare ``csvtext`` with."""
    return format(float(x), ".17g")


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Header line, then one line per row of the equal-length columns, each
    value as ``_fmt`` prints it, written by ``csvtext.write_rows`` a block
    of values at a time, so a long table's text is never held whole."""
    with open(path, "wb") as f:
        f.write((",".join(header) + "\n").encode("ascii"))
        csvtext.write_rows(f, columns)


# data.csv columns repeated per adjustment value, mapped to RunTables fields.
_PER_A_COLS = {
    "Y": "Y", "omega": "om", "dYdt_fd": "dY_fd", "rhs_thm": "rhs_thm",
    "rhs_ye": "rhs_ye", "res_thm": "res_thm", "res_equiv": "res_equiv",
}
_CSV_FILES = ("data.csv", "proof_chain.csv")
_PROOF_CHAIN_COLS = [
    "t", "S", "dSdt_fd", "F", "dFdt_fd", "dF_rhs", "res_dS", "res_dF",
    "sub_lhs", "sub_rhs", "mass", "interior",
]


def _artifact_csvs(a_values, tables: RunTables | None):
    """(file name, header, columns) of data.csv and proof_chain.csv, in the
    order they are written; header-only files when tables is None."""
    header = ["t", "F", "S", "lambda0"] + [
        f"{name}[{a_tag(a)}]" for a in a_values for name in _PER_A_COLS
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
    return zip(_CSV_FILES, (header, _PROOF_CHAIN_COLS), (data, chain))


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


# Stages, each with its wall time, CPU time and minor faults in manifest.json
# (host contention moves CPU time less than wall time).
# The heat solve and the row evaluation interleave, chunk by chunk: heat_s
# counts the terminal datum and the chunks' solve, rows_s the rest of that
# stage, and lambda0_s is the part of rows_s spent in the ground-state solve.
_STAGES = ("flow_s", "heat_s", "rows_s", "lambda0_s", "summary_s", "writers_s")
# The timed stages at whose end manifest.json records the peak resident set
# (MiB), and its entry for each.
_MEMORY_STAGES = {"flow_s": "flow", "rows_s": "heat_and_rows",
                  "summary_s": "summary", "writers_s": "writers"}


def _usage() -> tuple:
    """This process's wall clock, CPU time of all its threads and minor page
    faults so far, the last two with those of its reaped children (the row
    pool's workers, ``RUSAGE_CHILDREN``), so a stage counts the workers
    reaped within it; about 3 us a reading.  Without ``resource`` the CPU
    time is this process's alone and the faults None."""
    wall, cpu = time.perf_counter(), time.process_time()
    if resource is None:
        return wall, cpu, None
    own, children = map(resource.getrusage,
                        (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return (wall, cpu + children.ru_utime + children.ru_stime,
            own.ru_minflt + children.ru_minflt)


@contextmanager
def _charged(blocks: dict | None, stage: str, within: str | None = None):
    """Add the block's wall time, CPU time and minor faults, from a
    ``_usage`` reading at each end, to ``stage`` of the ``timings``,
    ``cpu_s`` and ``minor_faults`` blocks and, given ``within`` (the stage
    the block runs in), take them out of that one; no reading is taken when
    ``blocks`` is None."""
    if blocks is None:
        yield
        return
    since = _usage()
    try:
        yield
    finally:
        for name, start, now in zip(("timings", "cpu_s", "minor_faults"),
                                    since, _usage()):
            if now is not None:
                blocks[name][stage] += now - start
                if within is not None:
                    blocks[name][within] -= now - start


@contextmanager
def _timed(blocks: dict, stage: str, out: Path, logged=()):
    """Charge the block's usage to ``stage`` (``_charged``) and, once the
    block completes, record its peak resident set at its end in the
    ``peak_rss_mb`` block; then log the usage of the stage, with that peak,
    and of the ``logged`` stages, each with its ``_step_counts``."""
    peaks, entry = blocks["peak_rss_mb"], _MEMORY_STAGES[stage]
    try:
        with _charged(blocks, stage):
            yield
        peaks[entry] = _peak_rss_mb()
    finally:
        for name in (stage, *logged):
            peak = peaks[entry] if name == stage else None
            faults = blocks["minor_faults"][name]
            log.info("%s: %s %.3f s, cpu %.3f s, %s minor faults%s%s", out,
                     name, blocks["timings"][name], blocks["cpu_s"][name],
                     "unknown" if faults is None else faults,
                     "" if peak is None else f", peak RSS {peak:.1f} MiB",
                     _step_counts(name, blocks["steps"]))


def _step_counts(stage: str, steps: dict) -> str:
    """How the stage's stepper behaved, from the manifest's ``steps`` block:
    the flow's step count and largest dt / stability_dt beside flow_s, the
    heat solve's step count beside heat_s; empty before they are known."""
    if stage == "flow_s" and steps["flow"] is not None:
        return (f", {steps['flow']} steps, max dt/stability_dt "
                f"{steps['max_dt_over_stability_dt']:.3g}")
    if stage == "heat_s" and steps["heat"] is not None:
        return f", {steps['heat']} steps"
    return ""


def _heat_chunks(chunks, blocks: dict):
    """The heat stream's chunks, their solve's usage in heat_s;
    ``steps["heat"]`` is set once the stream completes."""
    rows = 0
    while True:
        with _charged(blocks, "heat_s", within="rows_s"):
            chunk = next(chunks, None)
        if chunk is None:
            blocks["steps"]["heat"] = rows - 1
            return
        rows += len(chunk.times)
        yield chunk


def _metric_grid(m0: MetricState) -> list[int] | None:
    """The shape of the phi ``components`` gives, the grid the torus flow
    steps; None on the spheres."""
    if not isinstance(m0.backend, ConformalTorus2D):
        return None
    (phi,) = m0.backend.components(m0.params)
    return list(phi.shape)


def _numeric_environment() -> dict:
    """numpy's version and the SIMD targets its dispatch takes on this CPU
    (``__cpu_dispatch__`` filtered by ``__cpu_features__``).  Output bytes
    are reproducible only within one of these: the AVX-512 and AVX2 paths
    of ``np.exp`` and ``np.log`` differ in the last bit for some inputs."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    features = umath.__cpu_features__
    return {"numpy_version": np.__version__,
            "numpy_simd_dispatch": [name for name in umath.__cpu_dispatch__
                                    if features.get(name)]}


_NUMERIC_ENVIRONMENT = _numeric_environment()


def _write_manifest(out: Path, manifest: dict) -> None:
    """Write manifest.json through a temporary file renamed into place."""
    tmp = out / ".manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    os.replace(tmp, out / "manifest.json")


def run(validated: ValidatedRun, out_dir) -> RunResult:
    """Execute the pipeline and persist artifacts.

    Numerical failures produce exit code 3 with partial artifacts and a
    status marker in the manifest; the artifact set is the same for passed
    and failed runs.  Any other exception (an interrupt too) is recorded in
    the manifest as status ``internal_error`` (exit code 1, the error as
    "Type: message") and re-raised; the CSVs this run did not write are
    removed, so a reused directory keeps no earlier run's.  The manifest
    (with ``workers``, the processes that ran row blocks) is written on
    every exit path.  The heat solve streams its rows into
    ``evaluate_tables`` chunk by chunk, stepping each into the row pool's
    chunk array; a heat failure ends the run as a row failure would, but
    before any table exists, so both CSVs are header-only.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out.dir: cannot create directory {out}: "
                          f"{exc.strerror}") from None
    cfg = validated.cfg
    started = time.perf_counter()
    steps = {"flow": None, "heat": None, "max_dt_over_stability_dt": None}
    # The manifest's timings, cpu_s, minor_faults (null without
    # ``resource``), peak_rss_mb and steps blocks.
    blocks = {"timings": dict.fromkeys(_STAGES, 0.0),
              "cpu_s": dict.fromkeys(_STAGES, 0.0),
              "minor_faults": dict.fromkeys(_STAGES,
                                            None if resource is None else 0),
              "steps": steps,
              "peak_rss_mb": dict.fromkeys(_MEMORY_STAGES.values()),
              "workers": 1, "workers_peak_rss_mb": None}
    status, error, tables, summary = "ok", None, None, None
    written = set()
    try:
        try:
            with _timed(blocks, "flow_s", out):
                traj = integrate_forward(validated.m0, validated.T,
                                         validated.dt / 2.0)
                steps["flow"] = traj.num_steps
                steps["max_dt_over_stability_dt"] = traj.max_step_ratio
            with _timed(blocks, "rows_s", out, ("heat_s", "lambda0_s")):
                with _charged(blocks, "heat_s", within="rows_s"):
                    v_T = terminal_datum(cfg.datum, traj.final_state(),
                                         **_datum_params(cfg))
                tables, row_error = evaluate_tables(
                    traj, lambda buffer: _heat_chunks(stream_backward(
                        traj, v_T, mass_tol=cfg.tol_mass, out=buffer), blocks),
                    cfg.a_values, blocks)
            if row_error is not None:
                raise row_error
            with _timed(blocks, "summary_s", out):
                summary = _summary(tables, cfg)
        except NumericalError as exc:
            status = type(exc).__name__
            error = str(exc)
        with _timed(blocks, "writers_s", out):
            for name, header, columns in _artifact_csvs(cfg.a_values, tables):
                _write_csv(out / name, header, columns)
                written.add(name)
    except BaseException as exc:  # recorded, then re-raised
        status, error = "internal_error", f"{type(exc).__name__}: {exc}"
        for name in set(_CSV_FILES) - written:
            (out / name).unlink(missing_ok=True)
        raise
    finally:
        exit_code = {"ok": 0, "internal_error": 1}.get(status, 3)
        log.info("%s: workers %d%s", out, blocks["workers"],
                 "" if blocks["workers_peak_rss_mb"] is None else
                 f", worker peak RSS {blocks['workers_peak_rss_mb']:.1f} MiB")
        _write_manifest(out, {
            "config": cfg.raw,
            "resolved": {
                "backend": cfg.backend_kind,
                "T": validated.T,
                "dt": validated.dt,
                "rows": validated.num_rows,
                "flow_dt": validated.dt / 2.0,
                "metric_grid": _metric_grid(validated.m0),
            },
            "version": _VERSION,
            **_NUMERIC_ENVIRONMENT,
            "lambda0_g0": validated.lambda0_g0,
            "admissibility": validated.admissibility,
            "status": status,
            "error": error,
            "exit_code": exit_code,
            "summary": summary,
            "lambda0": None if tables is None else _lambda0_diagnostics(tables),
            **blocks,
            "wall_clock_s": time.perf_counter() - started,
        })
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
    split-form residual per level and observed orders per refinement.

    Every level is built and validated before the output directory is
    created, so an invalid level leaves no artifacts.  A level whose run
    fails raises NumericalError."""
    if cfg.backend_kind != "conformal_torus":
        raise ConfigError("convergence study requires the conformal_torus backend")
    if levels < 3:
        raise ConfigError(f"levels: need at least 3, got {levels}")
    if cfg.dt == "auto":
        raise ConfigError("flow.dt: convergence study needs an explicit base dt")

    validated_levels = [
        validate_config(make_config(
            cfg.raw | {"backend.N": cfg.N * 2**level,
                       "flow.dt": float(cfg.dt) / 4.0**level}))
        for level in range(levels)
    ]
    out = Path(out_dir)
    rows = []
    for level, validated in enumerate(validated_levels):
        result = run(validated, out / f"level_{level}")
        if result.exit_code != 0:
            raise NumericalError(
                f"study level {level} failed with status {result.status}"
            )
        rows.append(
            {
                "level": level,
                "N": validated.cfg.N,
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
        # The order into a level with no residual left is inf, the order
        # out of one -inf (as when e0 / e1 underflows to 0).
        ratio = e0 / e1 if e1 > 0 else math.inf
        orders.append(-math.inf if ratio == 0 else math.log2(ratio))

    lines = ["level,N,dt,max_res_thm_interior,order_vs_prev"]
    for i, row in enumerate(rows):
        order = "" if i == 0 else _fmt(orders[i - 1])
        lines.append(
            f'{row["level"]},{row["N"]},{_fmt(row["dt"])},'
            f'{_fmt(row["max_res_thm_interior"])},{order}'
        )
    (out / "study.csv").write_bytes(("\n".join(lines) + "\n").encode("ascii"))
    return StudyResult(rows, orders, out)
