"""Machine-drift probe and provenance.

The probe times a fixed pure-Python loop and a fixed numpy loop, about 0.1 s
in all.  It runs between the timed blocks of a run.  It touches no riccilab
code, so a change to the program leaves it alone and a change in its reading
is machine drift.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

# Median probe on the 2-vCPU Xeon (KVM) host where the benchmark was defined.
# Untraced timings are scaled to a machine whose probe reads this.
PROBE_REF_S = 0.08
_PY_ITERS = 1_000_000
_NP_ITERS = 600
_NP_GRID = np.linspace(0.0, 1.0, 128 * 128).reshape(128, 128)


def probe() -> float:
    """Seconds for the fixed Python loop plus the fixed numpy loop."""
    start = perf_counter()
    acc = 0
    for i in range(_PY_ITERS):
        acc += i & 7
    w = _NP_GRID
    for _ in range(_NP_ITERS):
        w = 0.5 * (np.roll(w, 1, axis=0) + w)
    return perf_counter() - start


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes() -> dict[str, str]:
    """Cache sizes of cpu0 as the kernel lists them, e.g. {"L1d": "48K"}."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[f"L{level}{suffix}"] = size
    return out


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_sha256(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path, seed: int) -> dict:
    import scipy

    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "cache_bytes": _cache_sizes(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "source_sha256": _source_sha256(root / "src" / "riccilab"),
        "seed": seed,
    }
