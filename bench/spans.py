"""Spans recorded from the benchmark's side of each layer boundary.

`Tracer.install` replaces, for the duration of a traced pass, the module
attributes through which one spinhall module calls into another (for
example the `reflection_pair` that `spinhall.sweep` calls) with wrappers
that record a span.  Spans stay in memory as tuples and are reduced when the
pass ends.  Traced passes run single-threaded, so one stack gives parents.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

# (module whose attribute is replaced, attribute, span name).  The span name
# is "<layer>.<function>", the layer being the module that does the work.
BOUNDARIES = (
    ("spinhall.cli", "main", "cli.main"),
    ("spinhall.cli", "write_csv", "cli.write_csv"),
    ("spinhall.cli", "run_sweep", "sweep.run_sweep"),
    ("spinhall.cli", "find_resonance", "sweep.find_resonance"),
    ("spinhall.cli", "susceptibility", "qw_medium.susceptibility"),
    ("spinhall.cli", "preset", "config.preset"),
    ("spinhall.cli", "config_from_scenario", "config.config_from_scenario"),
    ("spinhall.cli", "validate_config", "config.validate_config"),
    ("spinhall.cli", "scenario_from_config", "config.scenario_from_config"),
    ("spinhall.sweep", "run_sweep", "sweep.run_sweep"),
    ("spinhall.sweep", "find_resonance", "sweep.find_resonance"),
    ("spinhall.sweep", "susceptibility", "qw_medium.susceptibility"),
    ("spinhall.sweep", "reflection_pair", "strata.reflection_pair"),
    ("spinhall.sweep", "transverse_shifts", "shifts.transverse_shifts"),
    ("spinhall.shifts", "centroid_shift_oracle", "shifts.centroid_shift_oracle"),
    ("spinhall.shifts", "reflection_pair", "strata.reflection_pair"),
)

LAYERS = ("config", "qw_medium", "strata", "shifts", "sweep", "cli")


class Tracer:
    def __init__(self, hooks=None):
        # span: (name, start, end, parent index or -1, operation id)
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.op_kinds: list[str] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        # name -> fn(tracer, args, kwargs, result, op) for counts at a boundary
        self._hooks = hooks or {}

    def begin_op(self, kind: str) -> None:
        """Attribute the spans that follow to a new operation of this kind."""
        self.op_kinds.append(kind)

    def _wrap(self, fn, name):
        spans, stack, hook = self.spans, self._stack, self._hooks.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                op = len(self.op_kinds) - 1
                spans[index] = (name, start, end, stack[-1] if stack else -1, op)
            if hook is not None:
                hook(self, args, kwargs, result, op)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def reduce(self, wall_s: float) -> dict:
        """Per span name: calls, total and self time; calls per operation and
        per (parent, child) pair; self time per layer; and the share of wall_s
        that no root span covers."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        by_name = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        calls_by_op = defaultdict(Counter)
        child_calls = Counter()
        roots = 0.0
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            entry = by_name[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            calls_by_op[op][name] += 1
            if parent < 0:
                roots += end - start
            else:
                child_calls[(self.spans[parent][0], name)] += 1
        layers = {layer: sum(v["self_s"] for k, v in by_name.items() if k.split(".")[0] == layer)
                  for layer in LAYERS}
        return {
            "spans": dict(by_name),
            "calls_by_op": calls_by_op,
            "child_calls": child_calls,
            "layer_self_s": layers,
            "uncovered_frac": max(0.0, wall_s - roots) / wall_s if wall_s > 0 else 0.0,
        }
