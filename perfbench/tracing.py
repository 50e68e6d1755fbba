"""Spans and call counts recorded from the benchmark's side of each layer.

The tracer wraps the module-level functions that ``harness`` calls, for the
duration of one ``with tracer.installed():`` block, and puts the originals
back afterwards. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import time
from collections import Counter

# (module, attribute, span name). Attributes are patched where the caller
# looks them up: harness imports detect_spacegroup by name, and detect
# imports signature_index by name.
SPAN_POINTS = (
    ("crysalign.harness", "run_evaluation", "harness.run_evaluation"),
    ("crysalign.harness", "emit_report", "harness.emit_report"),
    ("crysalign.harness", "_load_reference", "ciflite.load_reference"),
    ("crysalign.ciflite", "load_samples", "ciflite.load_samples"),
    ("crysalign.ciflite", "parse_prompt", "ciflite.parse_prompt"),
    ("crysalign.ciflite", "extract_response_parts", "ciflite.extract_response_parts"),
    ("crysalign.ciflite", "parse_ciflite", "ciflite.parse_ciflite"),
    ("crysalign.validity", "build_report", "validity.build_report"),
    ("crysalign.harness", "detect_spacegroup", "symmetry.detect_spacegroup"),
    ("crysalign.symmetry.detect", "signature_index", "symmetry.signature_index"),
    ("crysalign.traces", "parse_trace", "traces.parse_trace"),
    ("crysalign.traces", "trace_consistency", "traces.trace_consistency"),
    ("crysalign.energetics", "relax_positions", "energetics.relax_positions"),
    ("crysalign.energetics", "formation_energy", "energetics.formation_energy"),
    ("crysalign.energetics", "energy_above_hull", "energetics.energy_above_hull"),
    ("crysalign.rewards", "combined_reward", "rewards.combined_reward"),
    ("crysalign.metrics", "uniqueness", "metrics.uniqueness"),
    ("crysalign.metrics", "novelty", "metrics.novelty"),
    ("crysalign.metrics", "sun_ratio", "metrics.sun_ratio"),
)

# Inner calls that are only counted: a span each would cost more than they do.
COUNT_POINTS = (
    ("crysalign.metrics", "structures_match", "metrics.match_calls"),
    ("crysalign.energetics.PairPotentialBackend", "energy_per_atom", "energetics.energy_calls"),
    ("crysalign.energetics.PairPotentialBackend", "forces", "energetics.force_calls"),
)

# Per-layer self time: the spans whose self times add up to each metric.
LAYER_TIMES = {
    "ciflite.load_s": ("ciflite.load_samples", "ciflite.load_reference"),
    "ciflite.parse_s": ("ciflite.parse_prompt", "ciflite.extract_response_parts",
                        "ciflite.parse_ciflite"),
    "validity.report_s": ("validity.build_report",),
    "symmetry.detect_s": ("symmetry.detect_spacegroup",),
    "traces.check_s": ("traces.parse_trace", "traces.trace_consistency"),
    "energetics.relax_s": ("energetics.relax_positions",),
    "energetics.formation_s": ("energetics.formation_energy",),
    "energetics.hull_s": ("energetics.energy_above_hull",),
    "rewards.combine_s": ("rewards.combined_reward",),
    "metrics.uniqueness_s": ("metrics.uniqueness",),
    "metrics.novelty_s": ("metrics.novelty",),
    "metrics.sun_s": ("metrics.sun_ratio",),
    "harness.self_s": ("harness.run_evaluation",),
    "harness.emit_s": ("harness.emit_report",),
}


def _resolve(path: str):
    """Import ``a.b.C`` as module ``a.b`` attribute ``C`` when needed."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent, raised]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _span(self, name, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else -1, False]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            except Exception:
                span[4] = True
                raise
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
        return traced

    def _count(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for points, wrap in ((SPAN_POINTS, self._span), (COUNT_POINTS, self._count)):
                for path, attr, name in points:
                    owner = _resolve(path)
                    original = getattr(owner, attr)
                    saved.append((owner, attr, original))
                    setattr(owner, attr, wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def mark(self) -> int:
        return len(self.spans)

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "raised")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def self_times(spans) -> list[float]:
    """Span duration minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_summary(spans, first: int, last: int) -> dict[str, float]:
    """Per-layer self times and counts for the spans of one repetition,
    which are ``spans[first:last]`` (parents index into ``spans``)."""
    own = self_times(spans)
    totals: Counter = Counter()
    for i in range(first, last):
        totals[spans[i][0]] += own[i]
    out = {metric: sum(totals[n] for n in names) for metric, names in LAYER_TIMES.items()}
    names = [spans[i][0] for i in range(first, last)]
    out["ciflite.parse_calls"] = names.count("ciflite.parse_ciflite")
    out["symmetry.detect_calls"] = names.count("symmetry.detect_spacegroup")
    out["symmetry.detect_errors"] = sum(
        spans[i][4] for i in range(first, last) if spans[i][0] == "symmetry.detect_spacegroup")
    out["symmetry.signature_index_s"] = totals["symmetry.signature_index"]
    return out


def covered(spans, first: int, last: int) -> float:
    """Wall time inside named layers: direct children of run_evaluation
    plus the emit_report span."""
    roots = {i for i in range(first, last) if spans[i][3] < 0}
    return sum(spans[i][2] - spans[i][1] for i in range(first, last)
               if spans[i][3] in roots or spans[i][0] == "harness.emit_report")


def durations(spans, name: str, first: int = 0) -> list[float]:
    return [s[2] - s[1] for s in spans[first:] if s[0] == name]


def percentile(values, q: int) -> float:
    """q-th percentile (1..99) by Python's exclusive quantile method."""
    return statistics.quantiles(values, n=100)[q - 1]
