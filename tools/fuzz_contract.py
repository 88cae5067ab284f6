"""Run-contract fuzzer: does every config that ``check`` accepts run to the end?

One generator, ``draw_raw``, draws a raw config over every key that a
``RunConfig`` field declares (``harness._declared()``), by the key's kind:

- floats: a log-uniform magnitude (over 1e-4 .. 1e4, or a key's own span
  in ``SPANS``, and 1 draw in 10 each end out to the whole float range) or,
  with the share ``EDGE``, one of 0, 1 and 2 with its neighbouring floats,
  which are the edges of every declared rule (``tests/test_contract.py``
  checks that each numeric rule accepts some of them and rejects others);
  negative with the share ``NEGATIVE``;
- ints: the same from a magnitude of 1 (up to 1e20), rounded, with 0, 1 and
  2 and their neighbours -1 and 3 as the edges;
- ``entropy.a``: one to three such floats, or with the share ``EMPTY`` none;
- ``flow.dt``: ``auto``, a float as above (``DT_FLOAT``), or ``flow.T`` over
  a log-uniform row count (``DT_ROWS``), of either sign: from 4 up to
  ``MAX_ROWS``, or with the share ``FEW_ROWS`` from 0.1 up to 4;
- ``backend.kind`` and ``heat.datum``: one of their kinds, or with the share
  ``WRONG`` a wrong name.

The required keys and ``flow.dt`` are always drawn, ``entropy.a`` 9 times
in 10, every other ``backend.*`` key 1 time in 3 and the rest 1 in 8
(``SHARES``), and ``heat.center_y`` with ``heat.center_x``, which are set
together.  The shares lean the draws toward configs that run, and no draw
is filtered out or drawn again.  Sizes are capped so that one run takes at
most about 0.1 s: ``backend.N`` and ``heat.cutoff`` draw their magnitudes
up to ``CAPS``, and an accepted config of more than ``MAX_ROWS`` rows is
counted, not run.  ``out.dir`` is never drawn: the fuzzer chooses where
each run writes.

``outcome`` runs one config in process as the CLI would, with every warning
an error: ``make_config``, ``check_config`` (``riccilab check``), then
``run`` into a fresh directory, and sorts it into one class:

- ``rejected`` (exit 2 from ``check``);
- ``check exit 3: <error>``;
- ``not run: rows > MAX_ROWS`` (accepted, over the size cap);
- ``ok`` (the run exits 0);
- ``accepted, then exit 3: <backend> <status>``, with ``at t=0`` for a
  flow step over its bound at g(0);
- ``traceback: <error>``: an exception outside the two error families, a
  warning, a run status ``internal_error`` or a run that leaves no manifest.

Run it from the repository root, outside the tier-1 suite:

    python tools/fuzz_contract.py --seed 0 --count 1500

It prints the count of each class, with no config filtered out or drawn
again, and the smallest config of each class (fewest keys, then fewest
characters), and exits 1 if any config ended in a traceback.  On a 2-core
Xeon 1500 configs take 20 to 40 s, about a fifth of them running to exit 0.
``tests/test_contract.py`` runs the same generator under Hypothesis.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import shutil
import sys
import tempfile
import time
import traceback
import warnings
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from riccilab import harness  # noqa: E402
from riccilab.errors import InputError, NumericalError  # noqa: E402
from riccilab.heat import DATUM_KINDS  # noqa: E402

MAX_ROWS = 3000
# Largest magnitude drawn for the keys that set a run's size.
CAPS = {"backend.N": 24, "heat.cutoff": 30}
# The log10 span of a float's common magnitudes (0 .. 4 for ints), and each
# key's own span where it differs: a sphere caps flow.T at half its
# extinction time (0.25 on the unit 2-sphere), flow.safety lies in (0, 1],
# and a sphere's scales set its horizon and, on the Berger sphere, the sign
# of lambda0 that entropy.a must exceed.
SPAN = (-4.0, 4.0)
SPANS = {"flow.T": (-4.0, 0.0), "flow.safety": (-2.0, 0.0),
         **dict.fromkeys(("backend.c0", "backend.A0", "backend.B0",
                          "backend.C0"), (-1.0, 1.0))}
# The shares of the draws that are an edge value, a negative number, a wrong
# name and an empty entropy.a list.
EDGE, NEGATIVE, WRONG, EMPTY = 0.15, 0.05, 0.02, 0.05
# flow.dt: the shares of a float draw and of flow.T over a row count (the
# rest is auto), and the share of those row counts that are under 4.
DT_FLOAT, DT_ROWS, FEW_ROWS = 0.15, 0.7, 0.1
# How often an optional key is drawn: flow.dt and entropy.a as given, the
# other backend.* keys 1 time in 3, the rest 1 in 8.
SHARES = {"flow.dt": 1.0, "entropy.a": 0.9}
BACKEND_KEY, OTHER_KEY = 1 / 3, 1 / 8
# The edges of every declared rule: floats at these values or their
# neighbouring floats, ints at these.
EDGES = (0.0, 1.0, 2.0)
INT_EDGES = (-1, 0, 1, 2, 3)
CHOICES = {"backend.kind": (harness._BACKEND_KINDS, "klein_bottle"),
           "heat.datum": (DATUM_KINDS, "gaussian")}
UNDRAWN = {"out.dir"}


def _magnitude(rng: random.Random, span: tuple, floor: float,
               cap: float) -> float:
    """A log-uniform magnitude over the log10 ``span``, its lower end one
    draw in ten down to 10^floor and its upper end one in ten up to the
    largest float; never above ``cap``."""
    lo, hi = span
    lo = lo if rng.random() < 0.9 else floor
    hi = hi if rng.random() < 0.9 else 308.0
    return 10.0 ** rng.uniform(lo, min(hi, math.log10(cap)))


def edge_floats() -> tuple:
    """Each of ``EDGES`` and its two neighbouring floats."""
    return tuple(v for x in EDGES for v in (
        math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)))


def _float(rng: random.Random, span: tuple = SPAN) -> float:
    if rng.random() < EDGE:
        x = rng.choice(edge_floats())
    else:
        x = _magnitude(rng, span, -323.0, math.inf)
    return -x if rng.random() < NEGATIVE else x


def _int(rng: random.Random, cap: float) -> int:
    if rng.random() < EDGE:
        return rng.choice(INT_EDGES)
    n = round(_magnitude(rng, (0.0, 4.0), 0.0, min(cap, 1e20)))
    return -n if rng.random() < NEGATIVE else n


def _drawn(rng: random.Random, key: str, required) -> bool:
    if key in UNDRAWN:
        return False
    if key in required:
        return True
    share = SHARES.get(key, BACKEND_KEY if key.startswith("backend.")
                       else OTHER_KEY)
    return rng.random() < share


def draw_raw(rng: random.Random) -> dict:
    """One raw config (key -> text), drawn over every declared key."""
    declared, required, _ = harness._declared()
    raw = {}
    for key, f in declared.items():
        if key == "heat.center_y":
            if "heat.center_x" not in raw:
                continue
        elif not _drawn(rng, key, required):
            continue
        kind = f.metadata["kind"]
        if key in CHOICES:
            kinds, wrong = CHOICES[key]
            raw[key] = wrong if rng.random() < WRONG else rng.choice(kinds)
        elif kind is int:
            raw[key] = str(_int(rng, CAPS.get(key, math.inf)))
        elif kind is float:
            raw[key] = repr(_float(rng, SPANS.get(key, SPAN)))
        elif kind == "float_list":
            count = 0 if rng.random() < EMPTY else rng.randint(1, 3)
            raw[key] = ", ".join(repr(_float(rng)) for _ in range(count))
        elif kind == "dt":
            raw[key] = "auto"  # set below, from flow.T
        else:
            raise ValueError(f"{key}: no generator for kind {kind!r}")
    if "flow.dt" in raw:
        r = rng.random()
        if r < DT_FLOAT:
            raw["flow.dt"] = repr(_float(rng))
        elif r < DT_FLOAT + DT_ROWS:
            T = float(raw["flow.T"])
            lo, hi = (-1.0, math.log10(4.0)) if rng.random() < FEW_ROWS else (
                math.log10(4.0), math.log10(MAX_ROWS))
            dt = T / 10.0 ** rng.uniform(lo, hi)
            raw["flow.dt"] = repr(-dt if rng.random() < NEGATIVE else dt)
    return raw


def outcome(raw: dict, out: Path) -> tuple[str, str]:
    """The class of one config (see the module docstring) and its error
    message ("" for ``ok``); a run writes into ``out``."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                validated = harness.check_config(harness.make_config(raw))
            except InputError as exc:
                return "rejected", str(exc)
            except NumericalError as exc:
                return f"check exit 3: {type(exc).__name__}", str(exc)
            if validated.num_rows > MAX_ROWS:
                return (f"not run: rows > {MAX_ROWS}",
                        f"{validated.num_rows} rows")
            result = harness.run(validated, out)
        manifest = json.loads((out / "manifest.json").read_text())
    except Exception as exc:  # the class this tool looks for
        return f"traceback: {type(exc).__name__}", traceback.format_exc()
    if manifest["exit_code"] != result.exit_code:
        return "traceback: manifest exit code differs", str(manifest)
    if result.exit_code == 0:
        return "ok", ""
    at_0 = " at t=0" if result.status == "StepTooLarge" and (
        result.error.endswith("at t=0")) else ""
    return (f"accepted, then exit {result.exit_code}: "
            f"{validated.cfg.backend_kind} {result.status}{at_0}",
            result.error)


def _text(raw: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in raw.items())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=1500)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    counts, smallest = Counter(), {}
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(args.count):
            raw = draw_raw(rng)
            out = Path(tmp) / f"run_{i}"
            cls, detail = outcome(raw, out)
            shutil.rmtree(out, ignore_errors=True)
            counts[cls] += 1
            size = (len(raw), len(_text(raw)))
            if cls not in smallest or size < smallest[cls][0]:
                smallest[cls] = (size, raw, detail)
    print(f"fuzz_contract: seed {args.seed}, {args.count} configs, "
          f"{time.perf_counter() - started:.1f} s")
    for cls, n in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"  {n:6d}  {cls}")
    for cls, (_, raw, detail) in sorted(smallest.items()):
        print(f"\n[{cls}] smallest repro:\n{_text(raw)}", end="")
        for line in detail.splitlines():
            print(f"# {line}")
    return 1 if any(cls.startswith("traceback") for cls in counts) else 0


if __name__ == "__main__":
    sys.exit(main())
