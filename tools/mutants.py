"""Mutation check: does the test suite notice small, wrong edits of src/?

Each entry of ``MUTANTS`` is a one-place edit of a file under src/riccilab:
the exact old string, which must occur once in the file, and its new
string, with the tests that should catch it: test files, and test node IDs
(``file::test``) of a file's test that kills the mutant but runs late in
it.  For each mutant the runner copies src/, tests/, bench/ and README.md
(which tests read) and pyproject.toml (the pytest settings, warnings as
errors among them) into a temporary directory, applies the edit there and
runs ``python -m pytest -x -q -p no:cacheprovider`` on the named node IDs
first and then, if they pass, on the named files without those node IDs,
so no test runs twice.  Hypothesis runs its tests' own examples but stops
at the first failure: a plugin in the copy loads a profile without the
shrink and explain phases, which would only refine a failure already found
(explaining one row-kernel failure took 85 of the 88 s its test ran).  A
failing run kills the mutant, and the runner names the first test that
failed; a passing run lets it survive.  First the same tests run once on
the unmutated copy, which must pass, so a broken checkout cannot pass for
kills.

Run it from anywhere, outside the tier-1 suite:

    python tools/mutants.py            # every mutant
    python tools/mutants.py NAME ...   # the named mutants only

It prints one line per mutant and the total time, and exits 1 if any
mutant survived (2 if the baseline fails or an old string does not occur
exactly once).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ROW_BLOCKS_TEST = (
    "tests/test_harness.py::test_row_blocks_match_public_functionals_bitwise")

CHUNK_ARRAY_TEST = (
    "tests/test_harness.py::"
    "test_kernel_reads_each_chunk_where_the_heat_solve_stepped_it")

FLOWING_HEAT_TEST = (
    "tests/test_heat.py::"
    "test_flowing_solve_bytes_do_not_depend_on_block_or_chunk_size")

# (name, file under src/riccilab, old string, new string, tests)
MUTANTS = [
    # RK4 stage offsets: the snapshot or the stage a later stage reads.  The
    # torus flow's rate ignores the offset, so only the heat solve sees it.
    ("heat-rk4-stage-2-snapshot", "geometry.py",
     "k2 = rate(1, w + half * k1)", "k2 = rate(0, w + half * k1)",
     ["tests/test_heat.py"]),
    ("flow-torus-rk4-stage-3", "geometry.py",
     "k3 = rate(1, w + half * k2)", "k3 = rate(1, w + half * k1)",
     ["tests/test_flow.py", "tests/test_heat.py"]),
    ("flow-berger-rk4-stage-4", "geometry.py",
     "X, Y, Z = A + dt * a3,", "X, Y, Z = A + dt * a2,",
     ["tests/test_flow.py"]),
    # The Berger loop on (A, B) when B = C: a stage's coefficient, and C's
    # states copied from B's.
    ("flow-berger-bc-stage-4-half", "geometry.py",
     "X, Y = A + dt * a3, B + dt * b3\n                s = (Y - X) ** 2",
     "X, Y = A + dt * a3, B + half * b3\n                s = (Y - X) ** 2",
     ["tests/test_flow.py"]),
    ("flow-berger-bc-c-from-a", "geometry.py",
     "Cs = Bs", "Cs = As",
     ["tests/test_flow.py"]),
    # The spheres' heat steps on floats: a stage's coefficient.
    ("heat-float-step-stage-4-half", "heat.py",
     "k4 = 0.0 - r2 * (v + step * k3)", "k4 = 0.0 - r2 * (v + half * k3)",
     ["tests/test_heat.py"]),
    # The round sphere's states as one accumulate: the first entry is c0,
    # every later one the step's increment.
    ("flow-round-accumulate-first-entry", "geometry.py",
     "out[1:] = (dt / 6.0)", "out[:] = (dt / 6.0)",
     ["tests/test_flow.py"]),
    ("flow-round-increment-stage", "geometry.py",
     "(r + 2.0 * r + 2.0 * r + r)", "(r + 2.0 * r + r + r)",
     ["tests/test_flow.py"]),
    # _pow's math.pow map: where math.pow raises ValueError, the per-entry
    # fallback raises what ** raises.
    ("pow-value-error-fallback-off", "geometry.py",
     "except (OverflowError, ValueError):", "except OverflowError:",
     ["tests/test_geometry.py"]),
    # The Berger loops' float squares: an overflow must redo the step with
    # _pow's inf squares, not escape the flow, on three axes and on two.
    ("flow-berger-overflow-fallback-off", "geometry.py",
     "except OverflowError:\n                a1, b1, c1 = _berger_rates(A, B, C)",
     "except MemoryError:\n                a1, b1, c1 = _berger_rates(A, B, C)",
     ["tests/test_flow.py"]),
    ("flow-berger-bc-overflow-fallback-off", "geometry.py",
     "except OverflowError:\n                a1, b1, _ = _berger_rates(A, B, B)",
     "except MemoryError:\n                a1, b1, _ = _berger_rates(A, B, B)",
     ["tests/test_flow.py"]),
    # Tolerances.
    ("heat-mass-tol-times-10", "heat.py",
     "np.abs(masses - 1.0) > mass_tol]",
     "np.abs(masses - 1.0) > 10.0 * mass_tol]",
     ["tests/test_heat.py"]),
    # The heat row check: its event order, its row order, every row of a
    # block, each row's own snapshot's weight, and no numpy warning from the
    # steps past a failing row.  The flowing-metric test reads every
    # snapshot: a block stack or slice one row off shows in the bytes.
    ("heat-mass-before-positivity", "heat.py",
     "fails = np.stack([~(geometry._finite_min(v) > POSITIVITY_FLOOR),\n"
     "                      np.abs(masses - 1.0) > mass_tol], axis=1)[::-1]\n"
     "    if fails.any():\n"
     "        k, event = divmod(int(fails.argmax()), 2)\n"
     "        t, mass = times[-1 - k], masses[-1 - k]\n"
     "        if event == 0:",
     "fails = np.stack([np.abs(masses - 1.0) > mass_tol,\n"
     "                      ~(geometry._finite_min(v) > POSITIVITY_FLOOR)],"
     " axis=1)[::-1]\n"
     "    if fails.any():\n"
     "        k, event = divmod(int(fails.argmax()), 2)\n"
     "        t, mass = times[-1 - k], masses[-1 - k]\n"
     "        if event == 1:",
     ["tests/test_heat.py"]),
    ("heat-rows-bottom-up", "heat.py",
     "mass_tol], axis=1)[::-1]\n"
     "    if fails.any():\n"
     "        k, event = divmod(int(fails.argmax()), 2)\n"
     "        t, mass = times[-1 - k], masses[-1 - k]",
     "mass_tol], axis=1)\n"
     "    if fails.any():\n"
     "        k, event = divmod(int(fails.argmax()), 2)\n"
     "        t, mass = times[k], masses[k]",
     ["tests/test_heat.py"]),
    ("heat-block-last-row-unchecked", "heat.py",
     "mass_tol], axis=1)[::-1]", "mass_tol], axis=1)[:0:-1]",
     ["tests/test_heat.py"]),
    ("heat-stepping-warns", "heat.py",
     'with np.errstate(all="ignore"):  # the check reports what overflows',
     "with np.errstate():",
     ["tests/test_heat.py"]),
    ("heat-check-half-step-weights", "heat.py",
     "traj.stack[2 * lo:2 * hi:2]", "traj.stack[2 * lo + 1:2 * hi:2]",
     [FLOWING_HEAT_TEST, "tests/test_heat.py"]),
    ("heat-block-stack-one-row-late", "heat.py",
     "traj.stack[2 * lo:2 * hi + 1]", "traj.stack[2 * lo + 2:2 * hi + 1]",
     [FLOWING_HEAT_TEST, "tests/test_heat.py"]),
    # The density chunks: a run's chunk array holds every row's density.
    ("heat-stream-one-chunk", "harness.py",
     "chunk_rows = min(K, max(1, geometry.CHUNK_CELLS // backend.cells))",
     "chunk_rows = K",
     ["tests/test_harness.py::"
      "test_run_holds_one_density_chunk_not_the_history"]),
    # The chunk array: the heat solve steps into it, the kernel reads its
    # rows at their own times, and it is made before the pool forks.
    ("heat-stream-ignores-out", "heat.py",
     "    if out is None:\n        out = np.empty(",
     "    if True:\n        out = np.empty(",
     [CHUNK_ARRAY_TEST]),
    ("chunk-outside-the-array-accepted", "harness.py",
     "if chunk.v.__array_interface__ != out[:n].__array_interface__:",
     "if False:",
     [CHUNK_ARRAY_TEST]),
    ("kernel-times-one-row-off", "harness.py",
     "row_values(g, out[rows], times[at], a_values)",
     "row_values(g, out[rows], times[at.start + 1:at.stop + 1], a_values)",
     [ROW_BLOCKS_TEST, "tests/test_harness.py"]),
    ("chunk-array-after-ground-states", "harness.py",
     "            out = pool.array((chunk_rows,) + backend.field_shape)\n"
     "            with _charged(blocks, \"lambda0_s\"):\n"
     "                ground = ground_states(traj.stack[::2], pool)\n",
     "            with _charged(blocks, \"lambda0_s\"):\n"
     "                ground = ground_states(traj.stack[::2], pool)\n"
     "            out = pool.array((chunk_rows,) + backend.field_shape)\n",
     [CHUNK_ARRAY_TEST]),
    ("pool-array-after-fork-accepted", "geometry.py",
     "if self._workers is not None:\n"
     "            raise RuntimeError(\"row-pool array made after",
     "if False:\n"
     "            raise RuntimeError(\"row-pool array made after",
     ["tests/test_geometry.py::"
      "test_row_pool_arrays_are_made_before_the_fork"]),
    ("row-slices-drop-last-row", "geometry.py",
     "slice(lo, min(lo + size, stop))", "slice(lo, min(lo + size, stop) - 1)",
     [FLOWING_HEAT_TEST, "tests/test_heat.py"]),
    # The ground state's arithmetic past the float range: no numpy warning.
    ("lopcg-warns", "functionals.py",
     'with np.errstate(all="ignore"):', "with np.errstate():",
     ["tests/test_harness.py::"
      "test_cli_check_of_a_tiny_torus_period_is_one_error_line"]),
    ("monotonicity-tol-times-10", "variation.py",
     "drops = y[1:] < y[:-1] - tol", "drops = y[1:] < y[:-1] - 10.0 * tol",
     ["tests/test_variation.py", "tests/test_harness.py"]),
    # The row-failure rule: its check order and the masked logarithm.
    ("row-failure-without-lambda0", "variation.py",
     "fails = np.stack([~ground.converged,",
     "fails = np.stack([np.zeros_like(ground.converged),",
     ["tests/test_variation.py", "tests/test_harness.py"]),
    ("row-failure-finite-before-omega", "variation.py",
     "                      ~np.all(a_series[1] > 0.0, axis=1),\n"
     "                      ~np.all(finite, axis=(1, 2))], axis=1)",
     "                      ~np.all(finite, axis=(1, 2)),\n"
     "                      ~np.all(a_series[1] > 0.0, axis=1)], axis=1)",
     ["tests/test_variation.py", "tests/test_harness.py"]),
    ("row-kernel-log-of-raw-omega", "variation.py",
     "np.where(om > 0.0, om, np.nan)", "om",
     ["tests/test_variation.py", "tests/test_harness.py"]),
    # The required-key rule, the declared key rules, the flow step checked
    # at g(0), and the guards of inputs at the edge of the float range, each
    # naming its key.
    ("required-keys-reversed", "harness.py",
     "for key in required:", "for key in reversed(required):",
     ["tests/test_harness.py"]),
    ("key-rules-ignore-backend", "harness.py",
     "if key in raw and backend in (None, cfg.backend_kind) and not ok(value):",
     "if key in raw and not ok(value):",
     ["tests/test_harness.py"]),
    ("positive-rule-accepts-0", "harness.py",
     "_POSITIVE = (lambda x: x > 0,", "_POSITIVE = (lambda x: x >= 0,",
     ["tests/test_harness.py"]),
    ("check-flow-step-bound-off", "harness.py",
     "if validated.dt / 2.0 > step_limit(bound):", "if False:",
     ["tests/test_harness.py"]),
    # g(0)'s scale against the flow's floor: the flow's own >= (a Berger
    # metric exactly at the floor passes check and fails its first step).
    ("g0-floor-check-strict", "harness.py",
     "if not scale >= flow.PARAM_FLOOR:", "if not scale > flow.PARAM_FLOOR:",
     ["tests/test_harness.py"]),
    ("g0-floor-check-off", "harness.py",
     "if not scale >= flow.PARAM_FLOOR:", "if False:",
     ["tests/test_harness.py"]),
    ("flow-floor-strict", "flow.py",
     "fails[:, 0] = ~(scale >= PARAM_FLOOR)",
     "fails[:, 0] = ~(scale > PARAM_FLOOR)",
     ["tests/test_flow.py", "tests/test_harness.py"]),
    ("positivity-floor-0", "heat.py",
     "POSITIVITY_FLOOR = 1e-10", "POSITIVITY_FLOOR = 0.0",
     ["tests/test_heat.py", "tests/test_harness.py"]),
    # The failure order: lambda0 raised before the heat solve's failures.
    ("lambda0-failure-before-heat", "harness.py",
     "                ground = ground_states(traj.stack[::2], pool)\n",
     "                ground = ground_states(traj.stack[::2], pool)\n"
     "                ground.value(int(np.argmin(ground.converged)))\n",
     ["tests/test_harness.py::test_heat_failure_comes_before_lambda0",
      "tests/test_harness.py"]),
    ("torus-volume-overflow-blames-n", "harness.py",
     'key = "backend.n" if cfg.backend_kind == "round_sphere" else "backend.L"',
     'key = "backend.n"',
     ["tests/test_harness.py"]),
    ("torus-mode-overflow-unhandled", "harness.py",
     "except OverflowError:  # an int past the float range",
     "except ZeroDivisionError:  # an int past the float range",
     ["tests/test_harness.py"]),
    ("torus-phase-guard-off", "harness.py",
     "if not np.isfinite(phase).all():", "if False:",
     ["tests/test_harness.py"]),
    ("torus-phase-blames-L", "harness.py",
     'key = "backend.phi_mode" if abs(k) > cfg.L else "backend.L"',
     'key = "backend.L"',
     ["tests/test_harness.py"]),
    ("torus-stencil-underflow-blames-amplitude", "harness.py",
     'key = "backend.phi_amplitude" if backend.h * backend.h > 0 else "backend.L"',
     'key = "backend.phi_amplitude"',
     ["tests/test_harness.py"]),
    ("bump-center-guard-off", "harness.py",
     "if not (np.isfinite(px).all() and np.isfinite(py).all()):", "if False:",
     ["tests/test_harness.py"]),
    ("mode-cells-cap-off", "harness.py",
     "if modes * max(cfg.N * cfg.N, _MODE_CELLS_FLOOR) > _MAX_MODE_CELLS:",
     "if False:",
     ["tests/test_harness.py"]),
    ("bump-width-guard-off", "harness.py",
     "if not scale < math.inf:", "if False:",
     ["tests/test_harness.py"]),
    ("bump-exponent-overflow-warns", "heat.py",
     'with np.errstate(over="ignore"):  # an exponent of -inf gives 0',
     'with np.errstate():',
     ["tests/test_heat.py"]),
    # The torus stencils: the full-grid 5-point Laplacian's centre weight,
    # the Hessian's cross difference and the shift that makes the backward
    # differences from the forward ones.
    ("lap5-centre-weight", "geometry.py",
     "out -= np.multiply(4.0, w, out=s)", "out -= np.multiply(3.9, w, out=s)",
     ["tests/test_geometry.py"]),
    ("hessian-cross-difference-halved", "geometry.py",
     "hxy /= 4.0 * h * h", "hxy /= 2.0 * h * h",
     ["tests/test_geometry.py::test_hessian_flat_cross_derivative",
      "tests/test_geometry.py", "tests/test_variation.py"]),
    ("backward-difference-shifted-up", "geometry.py",
     "_roll(px, 1, 0)", "_roll(px, -1, 0)",
     ["tests/test_geometry.py"]),
    # Finite-difference stencils and the interior mask.
    ("fd-near-edge-stencil", "variation.py",
     "d[1] = (-3.0 * y[0] - 10.0 * y[1] + 18.0 * y[2] - 6.0 * y[3] + y[4])",
     "d[1] = (-3.0 * y[0] - 10.0 * y[1] + 18.0 * y[2] - 6.0 * y[3] + y[3])",
     ["tests/test_variation.py"]),
    ("last-endpoint-interior", "variation.py",
     "interior[0] = interior[-1] = False", "interior[0] = False",
     ["tests/test_variation.py", "tests/test_harness.py"]),
    # Relative errors in the quantities the identities compare.
    ("split-rate-adjustment-1e-10", "variation.py",
     "return split + 4.0 * a * a / w, combined",
     "return split + 4.0 * a * a / w * (1.0 + 1e-10), combined",
     ["tests/test_variation.py", "tests/test_harness.py"]),
    # Only the row kernel's comparison with the per-state functions kills
    # these two, and it runs late in its file: it is named to run first.
    ("dF-rhs-1e-10", "variation.py",
     "dF_rhs = 2.0 * g.integrate(g.tensor_norm_sq(T, cross) * u2)",
     "dF_rhs = 2.0 * g.integrate(g.tensor_norm_sq(T, cross) * u2) * (1.0 + 1e-10)",
     [ROW_BLOCKS_TEST, "tests/test_variation.py", "tests/test_harness.py"]),
    ("sub-rhs-1e-7", "variation.py",
     "sub_rhs = g.integrate(g.gradient_inner(df, df) * v)",
     "sub_rhs = g.integrate(g.gradient_inner(df, df) * v) * (1.0 + 1e-7)",
     [ROW_BLOCKS_TEST, "tests/test_variation.py", "tests/test_harness.py"]),
    ("entropy-1e-11", "functionals.py",
     "return g.integrate(u2 * np.log(u2))",
     "return g.integrate(u2 * np.log(u2)) * (1.0 + 1e-11)",
     ["tests/test_functionals.py", "tests/test_harness.py"]),
    ("Y-4at-shift-1e-9", "functionals.py",
     "+ 4.0 * a * t", "+ 4.0 * a * (t + 1e-9)",
     ["tests/test_functionals.py", "tests/test_harness.py"]),
    # Summary fields, the study and the adjustment-value tag.
    ("equivalence-violations-count-sub-identity", "harness.py",
     '"equivalence_violations": int(np.sum(~main_ok)),',
     '"equivalence_violations": int(np.sum(~sub_ok)),',
     ["tests/test_harness.py"]),
    ("monotonicity-violations-count-flags", "harness.py",
     "a_tag(a): int(len(monotonicity_check(y, cfg.tol_mono)))",
     "a_tag(a): int(len(monotonicity_check(y, cfg.tol_mono)) > 0)",
     ["tests/test_harness.py"]),
    ("max-res-equiv-interior-only", "harness.py",
     '"max_res_equiv": float(np.max(tables.res_equiv)),',
     '"max_res_equiv": float(np.max(tables.res_equiv[interior])),',
     ["tests/test_harness.py"]),
    ("study-order-1e-7", "harness.py",
     "else math.log2(ratio))", "else math.log2(ratio) * (1.0 + 1e-7))",
     ["tests/test_harness.py"]),
    ("study-order-zero-residual-sign", "harness.py",
     "orders.append(-math.inf if ratio == 0", "orders.append(math.inf if ratio == 0",
     ["tests/test_harness.py"]),
    ("a-tag-str", "variation.py",
     'return format(a, "g")', "return str(a)",
     ["tests/test_harness.py"]),
    # The CSV text writer: its digits, its tie rule and its %g layouts.
    ("csv-16-digits", "csvtext.py",
     "last = np.maximum(np.arange(18), max(k + 1, 1)) - 1",
     "last = np.maximum(np.minimum(np.arange(18), 16), max(k + 1, 1)) - 1",
     ["tests/test_csvtext.py"]),
    ("csv-tie-margin-collapsed", "csvtext.py",
     "d = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)\n"
     "    return d, np.abs(frac - 0.5) < TIE_MARGIN",
     "d = p.astype(np.int64) + whole.astype(np.int64) + (frac >= 0.5)\n"
     "    return d, np.abs(frac - 0.5) < 0.0",
     ["tests/test_csvtext.py"]),
    ("csv-scientific-from-k-18", "csvtext.py",
     "if k < -4 or k >= 17 else k + 4", "if k < -4 or k > 17 else k + 4",
     ["tests/test_csvtext.py"]),
    ("csv-minus-zero-unsigned", "csvtext.py",
     "negative = np.signbit(x)", "negative = x < 0.0",
     ["tests/test_csvtext.py"]),
    ("csv-pack-column-order", "csvtext.py",
     "text = keep.tobytes()", "text = keep.T.tobytes()",
     ["tests/test_csvtext.py"]),
    # The slot field: fixed notation at k = 16 has no point among D's
    # digits, a group is the remainder of the 1000 split, and the pack keeps
    # only the masked bytes.
    ("csv-point-slot-k16", "csvtext.py",
     "*((k + 4, k) for k in range(16))]:\n"
     "        points[(k + 2) // 3, layout] = (k + 2) % 3 * 1000",
     "*((k + 4, k) for k in range(17))]:\n"
     "        points[min((k + 2) // 3, 5), layout] = (k + 2) % 3 * 1000",
     ["tests/test_csvtext.py"]),
    ("csv-split-remainder", "csvtext.py",
     "np.subtract(rest, group[1] * 1000, out=group[2])",
     "np.remainder(rest, 100, out=group[2])",
     ["tests/test_csvtext.py"]),
    ("csv-pack-unmasked", "csvtext.py",
     "np.multiply(keep, field, out=keep)", "np.copyto(keep, field)",
     ["tests/test_csvtext.py"]),
    ("csv-nan-signed", "csvtext.py",
     "negative &= ~np.isnan(x)  # nan prints unsigned", "pass",
     ["tests/test_csvtext.py"]),
    # The stage clock and the peak-RSS reader.
    ("heat-usage-left-in-rows", "harness.py",
     'with _charged(blocks, "heat_s", within="rows_s"):\n'
     '            chunk = next(chunks, None)',
     'with _charged(blocks, "heat_s"):\n'
     '            chunk = next(chunks, None)',
     ["tests/test_harness.py"]),
    ("lambda0-charged-to-none", "harness.py",
     'with _charged(blocks, "lambda0_s"):', 'with _charged(None, "lambda0_s"):',
     ["tests/test_harness.py"]),
    ("peak-rss-at-stage-start", "harness.py",
     "            yield\n        peaks[entry] = _peak_rss_mb()",
     "            peaks[entry] = _peak_rss_mb()\n            yield",
     ["tests/test_harness.py"]),
    ("peak-rss-from-ru-maxrss", "geometry.py",
     'open("/proc/self/status", "rb")', 'open("/proc/self/no-status", "rb")',
     ["tests/test_harness.py"]),
    ("workers-usage-dropped", "harness.py",
     "    return (wall, cpu + children.ru_utime + children.ru_stime,\n"
     "            own.ru_minflt + children.ru_minflt)",
     "    return wall, cpu, own.ru_minflt",
     ["tests/test_harness.py::test_workers_usage_is_counted_in_rows_s",
      "tests/test_harness.py"]),
    # The row pool: each process's share, the failure order, cancelling on
    # a failure, reaping and the live-thread guard.
    ("pool-worker-runs-callers-share", "geometry.py",
     "pickle.dumps((index, lo, blocks[lo:hi], args))",
     "pickle.dumps((index, 0, blocks[:hi], args))",
     ["tests/test_geometry.py", "tests/test_harness.py"]),
    ("pool-last-failure-wins", "geometry.py",
     "for worker in workers[:n - 1]:",
     "for worker in reversed(workers[:n - 1]):",
     ["tests/test_geometry.py", "tests/test_harness.py"]),
    ("pool-worker-runs-on-after-failure", "geometry.py",
     "                    failure = (k, exc)\n                    break",
     "                    failure = (k, exc)",
     ["tests/test_geometry.py"]),
    ("pool-failure-waits-for-every-share", "geometry.py",
     "self.close(kill=True)  # no block of the call starts after this",
     "self.close()",
     ["tests/test_geometry.py"]),
    ("pool-worker-unreaped", "geometry.py",
     "        for pid, _, _ in workers:\n            os.waitpid(pid, 0)",
     "        for pid, _, _ in workers:\n            pass",
     ["tests/test_geometry.py", "tests/test_harness.py"]),
    ("pool-forks-beside-a-thread", "geometry.py",
     "or threading.active_count() > 1):",
     "or threading.active_count() > 99):",
     ["tests/test_geometry.py"]),
]


# A pytest plugin, written into each copy: Hypothesis tests keep their own
# settings but stop at their first failing example.
_PLUGIN = "mutants_hypothesis"
_PLUGIN_SOURCE = """from hypothesis import Phase, settings

settings.register_profile(
    "mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate))
settings.load_profile("mutants")
"""


def _pytest(copy: Path, tests) -> subprocess.CompletedProcess:
    """Run the named node IDs, then, if they pass, the named files without
    them; the result of the last run."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join((str(copy / "src"), str(copy)))}
    ids = [t for t in tests if "::" in t]
    files = [t for t in tests if "::" not in t]
    for named, args in ((ids, ids),
                        (files, files + [f"--deselect={t}" for t in ids])):
        if not named:
            continue
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", "-p", _PLUGIN, *args],
            cwd=copy, env=env, capture_output=True, text=True)
        if result.returncode != 0:
            break
    return result


def _copy(into: Path) -> Path:
    copy = into / "repo"
    for name in ("src", "tests", "bench"):
        shutil.copytree(ROOT / name, copy / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, copy / name)
    (copy / f"{_PLUGIN}.py").write_text(_PLUGIN_SOURCE)
    return copy


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    unknown = set(argv) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    for name, path, old, _, _ in chosen:
        found = (ROOT / "src" / "riccilab" / path).read_text().count(old)
        if found != 1:
            print(f"{name}: the old string occurs {found} times in {path}")
            return 2
    started = time.perf_counter()
    tests = sorted({t for m in chosen for t in m[4]})
    with tempfile.TemporaryDirectory() as tmp:
        baseline = _pytest(_copy(Path(tmp)), tests)
    if baseline.returncode != 0:
        print(f"baseline fails on {' '.join(tests)}:\n{baseline.stdout[-2000:]}")
        return 2
    survived = []
    for name, path, old, new, tests in chosen:
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            copy = _copy(Path(tmp))
            target = copy / "src" / "riccilab" / path
            target.write_text(target.read_text().replace(old, new))
            result = _pytest(copy, tests)
        if result.returncode == 0:
            survived.append(name)
            verdict = "survived"
        else:
            verdict = "killed  " + next(
                (line.split(" - ")[0] for line in result.stdout.splitlines()
                 if line.startswith(("FAILED ", "ERROR "))), "")
        print(f"{name}  ({time.perf_counter() - t0:.1f} s)  {verdict}",
              flush=True)
    print(f"{len(chosen) - len(survived)} of {len(chosen)} killed in "
          f"{time.perf_counter() - started:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
