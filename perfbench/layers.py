"""Per-layer tracing from outside the package.

The traced run wraps the public functions of each ``jointlab`` layer in a
span recorder.  A wrapper is installed in every ``jointlab.*`` module
namespace that holds the function, so calls between modules and calls
within one module (through its globals) are both recorded.  No file of the
package changes; ``uninstall`` restores every original.

A span is ``(name, start, end, parent, job)``: ``parent`` is the index of the
enclosing span in the same list, or -1.  Spans stay in memory until the run
ends.  A layer's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

def _matrix_cells(matrix) -> int:
    rows = list(matrix)
    return len(rows) * len(rows[0]) if rows else 0


def _count_nullspace(counts, args, result):
    matrix = args[0]
    counts["exact.nullspace_vector.cells"] += _matrix_cells(matrix)
    counts["exact.nullspace_vector.in_bits"] += sum(
        v.numerator.bit_length() + v.denominator.bit_length()
        for row in matrix
        for v in row
    )


def _count_rank(counts, args, result):
    counts["exact.rank.cells"] += _matrix_cells(args[0])


def _count_hit(name):
    def hook(counts, args, result):
        if result is not None and result is not False:
            counts[name] += 1

    return hook


def _count_joints(counts, args, result):
    counts["geometry.joints"] += len(result)


def _count_prune(counts, args, result):
    counts["pipeline.prune.removed_lines"] += len(result.removed_lines)


def _count_cascade(counts, args, result):
    counts["pipeline.cascade.order"] = max(counts["pipeline.cascade.order"], result)


def _count_fit(counts, args, result):
    counts["polynomial.fit.degree"] = max(counts["polynomial.fit.degree"], result.degree())
    counts["polynomial.fit.terms"] += len(result.terms)


# Span name -> hook(counts, args, result) adding work counters, or None.
# Hooks run after the span ends; their cost lands in the caller's self time.
MEASURED = {
    "exact.nullspace_vector": _count_nullspace,
    "exact.rank": _count_rank,
    "geometry.line_line_intersection": _count_hit("geometry.line_line_intersection.hits"),
    "geometry.incident": _count_hit("geometry.incident.hits"),
    "geometry.is_joint": None,
    "geometry.direction_rank": None,
    "geometry.find_joints": _count_joints,
    "geometry.load_configuration": None,
    "pipeline.prune": _count_prune,
    "pipeline.trace": None,
    "pipeline.cascade": _count_cascade,
    "polynomial.restrict_to_line": None,
    "polynomial.fit_vanishing": _count_fit,
    "harness.sweep_random": None,
    "constructions.random_config": None,
    "cli.main": None,
}

# Counters that take the maximum over a pass start at -1: "never returned".
_MAX_COUNTERS = ("pipeline.cascade.order", "polynomial.fit.degree")


@dataclass
class PassSummary:
    """What one traced pass over a job list measured."""

    seconds: dict[str, float]  # span name -> summed duration
    self_seconds: dict[str, float]  # span name -> summed self time
    counts: dict[str, int]  # deterministic work counters, calls included
    spans: list = field(repr=False)


class Tracer:
    """Installs span-recording wrappers into the jointlab modules."""

    def __init__(self):
        self.spans: list = []
        self.job = 0
        self._stack: list[int] = []
        self._counts: Counter = Counter()
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self._counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace each measured function in every jointlab module holding it."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, hook in MEASURED.items():
            module_name, attr = name.rsplit(".", 1)
            fn = getattr(importlib.import_module(f"jointlab.{module_name}"), attr)
            wrappers[id(fn)] = self._wrap(name, fn, hook)
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".")[0] != "jointlab":
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(module, attr, wrapper)
                    self._installed.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def begin_pass(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self._counts.clear()
        for name in _MAX_COUNTERS:
            self._counts[name] = -1

    def end_pass(self, factors: list[float]) -> PassSummary:
        """Sum durations, self times and call counts over the pass's spans.

        Durations of job i's spans are multiplied by factors[i], which
        rescales them to the reference speed."""
        spans = list(self.spans)
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _job in spans:
            if parent >= 0:
                child_time[parent] += end - start
        seconds: dict[str, float] = dict.fromkeys(MEASURED, 0.0)
        self_seconds: dict[str, float] = dict.fromkeys(MEASURED, 0.0)
        counts = Counter(self._counts)
        for index, (name, start, end, _parent, job) in enumerate(spans):
            seconds[name] += (end - start) * factors[job]
            self_seconds[name] += (end - start - child_time[index]) * factors[job]
            counts[f"{name}.calls"] += 1
        return PassSummary(seconds, self_seconds, dict(counts), spans)


# ---------------------------------------------------------------------------
# per-layer metrics: (name, unit); every name is also in BENCHMARK.json

PER_LAYER = (
    ("exact.nullspace_vector.s", "s"),
    ("exact.nullspace_vector.calls", "count"),
    ("exact.nullspace_vector.cells", "count"),
    ("exact.nullspace_vector.in_bits", "bits"),
    ("exact.rank.s", "s"),
    ("exact.rank.calls", "count"),
    ("exact.rank.cells", "count"),
    ("geometry.line_line_intersection.s", "s"),
    ("geometry.line_line_intersection.calls", "count"),
    ("geometry.pair_hit_ratio", "ratio"),
    ("geometry.incident.s", "s"),
    ("geometry.incident.calls", "count"),
    ("geometry.incident_hit_ratio", "ratio"),
    ("geometry.is_joint.calls", "count"),
    ("geometry.direction_rank.calls", "count"),
    ("geometry.find_joints.s", "s"),
    ("geometry.find_joints.self_s", "s"),
    ("geometry.joints", "count"),
    ("geometry.load_configuration.s", "s"),
    ("pipeline.prune.s", "s"),
    ("pipeline.prune.self_s", "s"),
    ("pipeline.prune.removed_lines", "count"),
    ("pipeline.trace.s", "s"),
    ("pipeline.trace.self_s", "s"),
    ("pipeline.cascade.s", "s"),
    ("pipeline.cascade.order", "count"),
    ("polynomial.restrict_to_line.s", "s"),
    ("polynomial.restrict_to_line.calls", "count"),
    ("polynomial.fit_vanishing.s", "s"),
    ("polynomial.fit_vanishing.self_s", "s"),
    ("polynomial.fit.degree", "count"),
    ("polynomial.fit.terms", "count"),
    ("harness.sweep_random.s", "s"),
    ("harness.sweep_random.self_s", "s"),
    ("constructions.random_config.s", "s"),
    ("cli.main.s", "s"),
    ("cli.import.s", "s"),
    ("cli.output_bytes", "bytes"),
    ("bench.trace_overhead_frac", "ratio"),
)


def _ratio(hits: int, calls: int) -> float:
    return hits / calls if calls else 0.0


def per_layer_metrics(
    passes: list[PassSummary],
    import_seconds: list[float],
    output_bytes: int,
    overhead_frac: float,
) -> dict[str, float]:
    """Times are medians over the passes of per-pass sums; counters come from
    the first pass (the caller checks that every pass repeats them)."""
    counts = passes[0].counts
    values: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        span, _, suffix = name.rpartition(".")
        if span in MEASURED and suffix == "s":
            values[name] = statistics.median(p.seconds[span] for p in passes)
        elif span in MEASURED and suffix == "self_s":
            values[name] = statistics.median(p.self_seconds[span] for p in passes)
        else:
            values[name] = counts.get(name, 0)
    values["geometry.pair_hit_ratio"] = _ratio(
        counts.get("geometry.line_line_intersection.hits", 0),
        counts.get("geometry.line_line_intersection.calls", 0),
    )
    values["geometry.incident_hit_ratio"] = _ratio(
        counts.get("geometry.incident.hits", 0), counts.get("geometry.incident.calls", 0)
    )
    values["cli.import.s"] = statistics.median(import_seconds)
    values["cli.output_bytes"] = output_bytes
    values["bench.trace_overhead_frac"] = overhead_frac
    return values
