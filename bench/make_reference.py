"""Record the reference outputs that ``run.py`` compares every run against.

Usage, from the repository root:

    python3 bench/make_reference.py

Runs each workload once at ``workloads.REFERENCE_SEED``, checks it with every
gate except the reference itself, and writes ``reference/index.json`` (the
sha256 of each ``data.csv``, for the byte-identity report) and one ``.npz``
per pipeline run holding the gated columns.  Re-record only when a change to
the program is meant to change its outputs, and say so where the change is
described.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

from run import OUT, ROOT, bootstrap


def main() -> int:
    bootstrap()
    import numpy as np

    import machine
    import workloads

    ref_dir = workloads.REFERENCE_DIR
    ref_dir.mkdir(exist_ok=True)
    index = {"seed": workloads.REFERENCE_SEED,
             "provenance": machine.provenance(ROOT, workloads.REFERENCE_SEED),
             "workloads": {}}
    for wl in workloads.WORKLOADS.values():
        seed = workloads.REFERENCE_SEED
        out = OUT / "reference" / wl.name
        try:
            ex = workloads.execute(wl, seed, workloads.setup(wl, seed), out)
            verdict = workloads.verify(wl, ex, reference=None)
            if verdict.failures:
                raise SystemExit(f"{wl.name}: gates failed: {verdict.failures}")
            entries = {}
            for key, d in workloads.run_dirs(wl, out):
                data = d / "data.csv"
                name = f"{wl.name}.{key.replace('/', '.')}.npz"
                cols = workloads.reference_columns(workloads.read_data_csv(data))
                np.savez_compressed(ref_dir / name, **cols)
                entries[key] = {"file": name,
                                "sha256": hashlib.sha256(data.read_bytes()).hexdigest()}
            index["workloads"][wl.name] = entries
        finally:
            shutil.rmtree(out, ignore_errors=True)
        print(f"{wl.name}: recorded {len(entries)} runs", flush=True)
    (ref_dir / "index.json").write_text(
        json.dumps(index, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    shutil.rmtree(OUT / "reference", ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
