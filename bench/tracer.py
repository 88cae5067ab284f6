"""Span tracer that wraps riccilab's public functions from outside the package.

``Tracer.installed()`` replaces each traced function in every riccilab module
namespace that binds it (``harness.lambda0`` and ``functionals.lambda0`` are
the same object, so both are replaced), and restores the originals on exit.
Each call is one span.  Spans nest through a stack; a span's self time is
its duration minus the time covered by its child spans.  A layer is busy
while any span of that layer is open, counted once for nested spans of the
same layer.  Only aggregates are kept: per function calls, total time, self
time and units of work; per layer busy time.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

from riccilab import flow, functionals, harness, heat, variation

_MODULES = (flow, heat, functionals, variation, harness)

# (layer module, function name, units of work done by one call, from its result)
TRACED = (
    (flow, "integrate_forward", lambda traj: traj.num_steps),
    (heat, "terminal_datum", None),
    (heat, "solve_backward", lambda hist: len(hist.times) - 1),
    (functionals, "f_functional", None),
    (functionals, "shannon_entropy", None),
    (functionals, "log_entropy", None),
    (functionals, "lambda0", None),
    (variation, "matrix_quantity", None),
    (variation, "rhs_split", None),
    (variation, "rhs_combined", None),
    (variation, "fd_time_derivative", None),
    (variation, "proof_chain_check", None),
    (harness, "make_config", None),
    (harness, "validate_config", None),
    (harness, "run", None),
    (harness, "convergence_study", None),
    (harness, "evaluate_tables", None),
)


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


@dataclass
class FunctionStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    units: int = 0


class Tracer:
    """Aggregated spans of the traced functions, keyed ``layer.name``."""

    def __init__(self):
        self.functions: dict[str, FunctionStats] = defaultdict(FunctionStats)
        self.busy_s: dict[str, float] = defaultdict(float)
        self._open: list[list[float]] = []  # child time of each open span
        self._depth: dict[str, list[int]] = {}

    def _wrap(self, layer: str, name: str, fn, units):
        stats = self.functions[f"{layer}.{name}"]
        depth = self._depth.setdefault(layer, [0])
        busy = self.busy_s
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            open_spans.append(children)
            depth[0] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                open_spans.pop()
                depth[0] -= 1
                if open_spans:
                    open_spans[-1][0] += span
                if depth[0] == 0:
                    busy[layer] += span
                stats.calls += 1
                stats.total_s += span
                stats.self_s += span - children[0]
            if units is not None:
                stats.units += units(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Trace every function in ``TRACED`` for the duration of the block."""
        patched = []
        try:
            for module, name, units in TRACED:
                original = getattr(module, name)
                wrapper = self._wrap(_layer(module), name, original, units)
                for ns in _MODULES:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            patched.append((ns, attr, original))
            yield self
        finally:
            for ns, attr, original in reversed(patched):
                setattr(ns, attr, original)

    def stat(self, key: str) -> FunctionStats:
        return self.functions.get(key, FunctionStats())

    def layer_self_s(self, layer: str, exclude=()) -> float:
        return sum(s.self_s for key, s in self.functions.items()
                   if key.split(".", 1)[0] == layer and key not in exclude)
