"""The run contract: a config that ``check`` accepts runs to the end.

Configs come from ``tools/fuzz_contract.py``'s generator, which draws every
declared config key by its kind, out to the edges of every key's rule, and
each runs in process as the CLI would, every warning an error:
``make_config``, ``check_config``, then ``run``.
"""

import importlib.util
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

_SPEC = importlib.util.spec_from_file_location(
    "fuzz_contract",
    Path(__file__).resolve().parent.parent / "tools" / "fuzz_contract.py")
fuzz = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fuzz)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_drawn_configs_end_in_exit_0_2_or_3(seed):
    # No traceback and no warning: every config is rejected (exit 2), fails
    # check numerically (exit 3), is over the fuzzer's size cap, or runs to
    # exit 0 or 3 with a manifest that records that exit code.  The seed
    # drives the fuzzer's own draws, so the examples follow its distribution.
    raw = fuzz.draw_raw(random.Random(seed))
    with tempfile.TemporaryDirectory() as tmp:
        cls, detail = fuzz.outcome(raw, Path(tmp) / "run")
    assert cls in ("rejected", "ok", f"not run: rows > {fuzz.MAX_ROWS}") or (
        cls.startswith(("check exit 3: ", "accepted, then exit 3: "))), (
        cls, detail, raw)


def test_edges_reach_both_verdicts_of_every_numeric_rule():
    # The generator's edge values (0, 1 and 2 with their neighbouring
    # floats; -1 to 3 for ints) are the edges of every declared rule on a
    # number: each rule accepts some of them and rejects others.
    declared, _, rules = fuzz.harness._declared()
    checked = 0
    for key, _, (ok, _), _ in rules:
        kind = declared[key].metadata["kind"]
        if kind is int:
            values = fuzz.INT_EDGES
        elif kind in (float, "dt"):
            values = fuzz.edge_floats()
        else:
            continue
        assert {bool(ok(v)) for v in values} == {True, False}, key
        checked += 1
    assert checked == 14
