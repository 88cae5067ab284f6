"""Command-line interface.

Subcommands: ``run <config>`` executes the pipeline and writes artifacts,
``converge <config> --levels k`` drives a refinement study, ``check
<config>`` validates only (``harness.check_config``: ``validate_config``
and the flow step against g(0)'s stability bound, which ``run`` leaves to
the flow).  ``converge`` runs the lower levels in a forked child process
while this process runs the top level, where the row pool may fork
(``parallel.may_fork``; ``harness.convergence_study``); a failed study still reports its lowest
failing level, but the top level's directory may then exist beside it,
where the serial loop stopped at the first failure.  ``--out`` overrides
out.dir; the environment
variable RICCILAB_OUT supplies the default output root for relative paths;
``--verbose`` (run, converge) logs each run's stage timings, with the peak
resident set at the end of each stage and the flow's and heat solve's step
counts beside theirs, each density chunk's rows with how many of them the
row pool's workers evaluated, and the processes that ran row blocks, with
the largest worker peak resident set, to stderr.
Exit codes: 0 success, 2 configuration/admissibility error (any
``InputError``; ``converge`` validates every level, level 0 included, once,
before it writes anything), 3 numerical failure (any ``NumericalError``,
also a failed ``converge`` level).
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .errors import InputError, NumericalError
from .harness import (
    check_config,
    convergence_study,
    make_config,
    parse_config_file,
    resolve_out_dir,
    run,
    validate_config,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riccilab",
        description="Coupled curvature-flow laboratory: run, verify, converge.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured run")
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.add_argument("--out", default=None, help="override out.dir")

    p_conv = sub.add_parser("converge", help="run a (N, dt) -> (2N, dt/4) study")
    p_conv.add_argument("config")
    p_conv.add_argument("--levels", type=int, default=3)
    p_conv.add_argument("--out", default=None)

    for p in (p_run, p_conv):
        p.add_argument("--verbose", action="store_true",
                       help="log stage timings, step counts, peak RSS and the "
                            "processes that ran row blocks to stderr")

    p_check = sub.add_parser("check", help="validate a config without running")
    p_check.add_argument("config")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    log = logging.getLogger("riccilab")
    handler, level = logging.StreamHandler(), log.level
    if getattr(args, "verbose", False):
        handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
        log.addHandler(handler)
        log.setLevel(logging.INFO)
    try:
        return _dispatch(args)
    except (InputError, NumericalError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 3
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def _dispatch(args) -> int:
    cfg = make_config(parse_config_file(args.config))
    default_name = Path(args.config).stem
    if args.command == "converge":
        # convergence_study validates every level, level 0 included.
        study = convergence_study(cfg, args.levels,
                                  resolve_out_dir(cfg, args.out, default_name))
        print(f"study ok -> {study.out_dir}")
        for i, row in enumerate(study.levels):
            order = "-" if i == 0 else f"{study.orders_thm[i - 1]:.2f}"
            print(
                f"  level {row['level']}: N={row['N']:4d} dt={row['dt']:.3e} "
                f"max_res_thm={row['max_res_thm_interior']:.3e} order={order}"
            )
        return 0

    if args.command == "check":
        validated = check_config(cfg)
        print(f"config ok: backend={cfg.backend_kind}")
        print(f"resolved T={validated.T:g} dt={validated.dt:g} rows={validated.num_rows}")
        print(f"lambda0(g(0)) = {validated.lambda0_g0:.12g}")
        for chk in validated.admissibility:
            print(f"  a={chk['a']:g}: admissible (a > {0.0 - chk['lambda0_g0']:g})")
        return 0

    result = run(validate_config(cfg),
                 resolve_out_dir(cfg, args.out, default_name))
    if result.exit_code == 0:
        s = result.summary
        print(f"run ok: {s['rows']} rows -> {result.out_dir}")
        print(
            "  max interior |dY/dt - rhs| = "
            f"{s['max_res_thm_interior']:.3e}, "
            f"max |rhs_thm - rhs_ye| = {s['max_res_equiv']:.3e}"
        )
        print(
            f"  monotonicity violations = {s['monotonicity_violations']}, "
            f"mass drift = {s['max_mass_drift']:.3e}"
        )
    else:
        print(
            f"run failed ({result.status}): {result.error} "
            f"[partial artifacts in {result.out_dir}]",
            file=sys.stderr,
        )
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
