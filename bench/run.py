"""riccilab benchmark: time to a verified run, and a traced per-layer run.

Usage, from the repository root:

    python3 bench/run.py --workload torus_ladder --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` next to this directory; nothing needs
to be installed.  ``--trace 0`` times the workload's set-up several times
before and after the workload (the median is ``setup_s``), repeats the
workload until ``--seconds`` have passed, at least once, and reports medians
of drift-corrected timings (see ``measure``).  ``--trace 1`` makes one
untraced and one traced pass, then the layer microbenchmarks of
``layers.py``.  Every pass is verified by the gates of ``workloads.py``.

Every metric is printed as ``name = value unit``, then one JSON line with
provenance, spreads, failures and reference status, and as the last line
the result: ``{"correct", "attempted", "failed", "metrics"}``.  Metric names
and units are those of ``BENCHMARK.json``.  Artifacts go to ``.bench_out/``
and are deleted when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
SETUP_SAMPLE_S = 0.1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap() -> None:
    """Pin native thread pools to one thread and import riccilab from ./src.

    One thread, not nproc: a second BLAS thread left the ladder's wall time
    unchanged and nearly doubled its CPU time, which on a shared machine
    only adds noise.

    Exits (status 1, nothing on stdout) when the checkout holds no package
    source or when riccilab would be imported from somewhere else.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "riccilab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {src / 'riccilab'}")
    sys.path.insert(0, str(src))
    import riccilab

    if Path(riccilab.__file__).resolve().parent != (src / "riccilab").resolve():
        raise SystemExit(f"bench: riccilab imported from {riccilab.__file__}, "
                         f"not from {src}")


def spread(values: list[float]) -> dict:
    out = {"n": len(values), "median": statistics.median(values),
           "min": min(values), "max": max(values)}
    if len(values) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    return out


def warm_setup(wl, seed: int):
    """Two set-up passes that fill lazy caches, and a repeat count that makes
    one timed sample last about SETUP_SAMPLE_S."""
    from workloads import setup

    setup(wl, seed)
    start = perf_counter()
    validated = setup(wl, seed)
    inner = max(1, min(1000, round(SETUP_SAMPLE_S / (perf_counter() - start))))
    return validated, inner


def setup_samples(wl, seed: int, inner: int) -> list[float]:
    """SETUP_SAMPLES timings of one set-up pass, each averaged over inner passes."""
    from workloads import setup

    samples = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        for _ in range(inner):
            setup(wl, seed)
        samples.append((perf_counter() - start) / inner)
    return samples


def measure(wl, seed: int, seconds: float, reference) -> tuple[dict, dict]:
    """Untraced run: end-to-end metrics and the details behind them.

    Every timed block, a set-up block or one workload pass, sits between two
    machine probes.  Its time is divided by the machine's speed factor, the
    mean of those two probes over ``machine.PROBE_REF_S``, so the timings
    read in seconds at the reference machine speed.  On a shared host the
    speed drifts by more than the metrics' bounds within minutes; the raw
    timings and the probes are in the details line.
    """
    import machine
    import workloads

    deadline = perf_counter() + seconds
    validated, inner = warm_setup(wl, seed)
    probes = [machine.probe()]
    setup_blocks = [setup_samples(wl, seed, inner)]
    probes.append(machine.probe())
    walls, rows, verdicts = [], [], []
    while True:
        rep_dir = OUT / wl.name / f"rep{len(walls)}"
        start = perf_counter()
        ex = workloads.execute(wl, seed, validated, rep_dir)
        wall = perf_counter() - start
        verdict = workloads.verify(wl, ex, reference)
        shutil.rmtree(rep_dir)
        probes.append(machine.probe())
        walls.append(wall)
        rows.append(verdict.rows)
        verdicts.append(verdict)
        if perf_counter() + wall > deadline:
            break
    setup_blocks.append(setup_samples(wl, seed, inner))
    probes.append(machine.probe())

    # Block i ran between probes i and i + 1: set-up, the passes, set-up.
    speed = [(a + b) / (2.0 * machine.PROBE_REF_S) for a, b in zip(probes, probes[1:])]
    ref_walls = [w / f for w, f in zip(walls, speed[1:-1])]
    setups = ([t / speed[0] for t in setup_blocks[0]]
              + [t / speed[-1] for t in setup_blocks[1]])
    metrics = {
        "wall_s": statistics.median(ref_walls),
        "rows_per_s": statistics.median([r / w for r, w in zip(rows, ref_walls)]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = _outcome(wl, verdicts, {"timings": {
        "wall_s": spread(ref_walls), "setup_s": spread(setups),
        "raw_wall_s": spread(walls),
        "raw_setup_s": spread(setup_blocks[0] + setup_blocks[1]),
        "machine.probe_s": spread(probes),
        "probe_ref_s": machine.PROBE_REF_S}})
    metrics["pass_frac"] = 1.0 - details["fail_frac"]
    return metrics, details


def measure_traced(wl, seed: int, reference) -> tuple[dict, dict]:
    """One untraced and one traced pass, then the layer microbenchmarks."""
    import layers
    import machine
    import workloads
    from tracer import Tracer

    validated = workloads.setup(wl, seed)
    probe = machine.probe()
    rep_dir = OUT / wl.name / "untraced"
    start = perf_counter()
    ex = workloads.execute(wl, seed, validated, rep_dir)
    untraced_s = perf_counter() - start
    verdicts = [workloads.verify(wl, ex, reference)]
    shutil.rmtree(rep_dir)

    tracer = Tracer()
    rep_dir = OUT / wl.name / "traced"
    with tracer.installed():
        validated = workloads.setup(wl, seed)
        start = perf_counter()
        ex = workloads.execute(wl, seed, validated, rep_dir)
        traced_s = perf_counter() - start
    written = workloads.bytes_written(rep_dir)
    verdicts.append(workloads.verify(wl, ex, reference))
    shutil.rmtree(rep_dir)

    st = tracer.stat
    lam = st("functionals.lambda0")
    fwd = st("flow.integrate_forward")
    back = st("heat.solve_backward")
    metrics = {
        "functionals.lambda0.busy_s": lam.total_s,
        "functionals.lambda0.calls": lam.calls,
        "functionals.lambda0.ms": 1e3 * lam.total_s / max(lam.calls, 1),
        "functionals.self_s": tracer.layer_self_s(
            "functionals", exclude={"functionals.lambda0"}),
        "functionals.f_functional.calls": st("functionals.f_functional").calls,
        "variation.busy_s": tracer.busy_s["variation"],
        "variation.self_s": tracer.layer_self_s("variation"),
        "variation.matrix_quantity.calls": st("variation.matrix_quantity").calls,
        "variation.rate.calls": (st("variation.rhs_split").calls
                                 + st("variation.rhs_combined").calls),
        "variation.rhs_split.calls": st("variation.rhs_split").calls,
        "variation.rhs_combined.calls": st("variation.rhs_combined").calls,
        "flow.busy_s": tracer.busy_s["flow"],
        "flow.steps": fwd.units,
        "flow.step_ms": 1e3 * fwd.total_s / max(fwd.units, 1),
        "heat.busy_s": tracer.busy_s["heat"],
        "heat.steps": back.units,
        "heat.step_ms": 1e3 * back.total_s / max(back.units, 1),
        "harness.self_s": tracer.layer_self_s("harness"),
        "harness.bytes_written": written,
        "harness.rows": verdicts[-1].rows,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "machine.probe_s": probe,
    }
    metrics.update(layers.measure(seed))
    shares = {
        "functionals.lambda0": lam.total_s,
        "variation+functionals self": (metrics["variation.self_s"]
                                       + metrics["functionals.self_s"]),
        "flow": metrics["flow.busy_s"],
        "heat": metrics["heat.busy_s"],
        "harness self": metrics["harness.self_s"],
    }
    details = {
        "timings": {"untraced_wall_s": untraced_s, "traced_wall_s": traced_s},
        "share_of_traced_wall": {k: v / traced_s for k, v in shares.items()},
    }
    return metrics, _outcome(wl, verdicts, details)


def _outcome(wl, verdicts, details: dict) -> dict:
    attempted = len(wl.runs) * len(verdicts)
    failed = sum(len(v.failures) for v in verdicts)
    details.update({
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "failures": [v.failures for v in verdicts if v.failures],
        "sub_identity_violations": verdicts[-1].sub_identity_violations,
        "byte_identical_to_reference": [v.byte_identical for v in verdicts],
    })
    return details


def _declared(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    declared = _declared(bool(args.trace))

    bootstrap()
    import machine
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference(wl, args.seed)
    shutil.rmtree(OUT / wl.name, ignore_errors=True)
    try:
        if args.trace:
            metrics, details = measure_traced(wl, args.seed, reference)
        else:
            metrics, details = measure(wl, args.seed, args.seconds, reference)
    finally:
        shutil.rmtree(OUT / wl.name, ignore_errors=True)
        try:
            OUT.rmdir()
        except OSError:  # another workload's run still uses it
            pass
    if set(metrics) != set(declared):
        raise SystemExit(f"bench: measured {sorted(set(metrics) ^ set(declared))} "
                         f"do not match BENCHMARK.json")

    for name, unit in declared.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    details.update(workload=wl.name, trace=args.trace,
                   reference_applies=reference is not None,
                   provenance=machine.provenance(ROOT, args.seed))
    details["provenance"]["tracing_overhead_frac"] = metrics.get("trace.overhead_frac")
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": details["failed"] == 0,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
