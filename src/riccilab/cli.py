"""Command-line interface.

Subcommands: ``run <config>`` executes the pipeline and writes artifacts,
``converge <config> --levels k`` drives a refinement study, ``check
<config>`` validates only.  ``--out`` overrides out.dir; the environment
variable RICCILAB_OUT supplies the default output root for relative paths.
Exit codes: 0 success, 2 configuration/admissibility error (any
``InputError``, also at a later ``converge`` level), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import InputError
from .harness import (
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

    p_check = sub.add_parser("check", help="validate a config without running")
    p_check.add_argument("config")
    return parser


def _load(path: str):
    cfg = make_config(parse_config_file(path))
    return cfg, validate_config(cfg)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except InputError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    cfg, validated = _load(args.config)
    if args.command == "check":
        print(f"config ok: backend={cfg.backend_kind}")
        print(f"resolved T={validated.T:g} dt={validated.dt:g} rows={validated.num_rows}")
        print(f"lambda0(g(0)) = {validated.lambda0_g0:.12g}")
        for chk in validated.admissibility:
            print(f"  a={chk['a']:g}: admissible (a > {-chk['lambda0_g0']:g})")
        return 0

    default_name = Path(args.config).stem
    out = resolve_out_dir(cfg, args.out, default_name)

    if args.command == "run":
        result = run(validated, out)
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

    try:
        study = convergence_study(cfg, args.levels, out)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(f"study ok -> {study.out_dir}")
    for i, row in enumerate(study.levels):
        order = "-" if i == 0 else f"{study.orders_thm[i - 1]:.2f}"
        print(
            f"  level {row['level']}: N={row['N']:4d} dt={row['dt']:.3e} "
            f"max_res_thm={row['max_res_thm_interior']:.3e} order={order}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
