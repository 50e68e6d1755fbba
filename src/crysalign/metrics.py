"""Batch discovery metrics: matching, uniqueness, novelty, S.U.N., aggregation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ciflite import write_ciflite
from .energetics import is_stable
from .structcore import CrystalStructure


@dataclass(frozen=True)
class MatchConfig:
    length_tol: float = 0.05   # relative, on Niggli-reduced cell lengths
    angle_tol: float = 5.0     # degrees, on Niggli-reduced cell angles
    site_tol: float = 0.03     # fractional, per coordinate

    def __post_init__(self):
        if min(self.length_tol, self.angle_tol, self.site_tol) <= 0:
            raise ValueError("matching tolerances must be positive")


@dataclass(frozen=True)
class MetricValue:
    name: str
    value: float
    standard_error: float
    count: int
    low_count: bool = False

    def __post_init__(self):
        if self.standard_error < 0:
            raise ValueError("standard_error must be >= 0")


@dataclass(frozen=True)
class MetricReport:
    entries: tuple[MetricValue, ...]

    def to_csv(self) -> str:
        lines = ["metric,value,standard_error,count"]
        for e in self.entries:
            lines.append(f"{e.name},{e.value!r},{e.standard_error!r},{e.count}")
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        lines = [
            "| metric | value | std. error | n |",
            "| --- | --- | --- | --- |",
        ]
        for e in self.entries:
            lines.append(
                f"| {e.name} | {e.value:.4f} | {e.standard_error:.4f} | {e.count} |"
            )
        return "\n".join(lines) + "\n"


def _lattices_agree(a: CrystalStructure, b: CrystalStructure,
                    cfg: MatchConfig) -> bool:
    la = a.niggli_lattice
    lb = b.niggli_lattice
    for x, y in zip(la.lengths, lb.lengths):
        if abs(x - y) > cfg.length_tol * max(x, y):
            return False
    for x, y in zip(la.angles, lb.angles):
        if abs(x - y) > cfg.angle_tol:
            return False
    return True


def _sites_assign(a: CrystalStructure, b: CrystalStructure,
                  cfg: MatchConfig) -> bool:
    """Greedy element-preserving assignment after a translation search."""
    fa = a.frac_array()
    fb = b.frac_array()
    ea, eb = a.elements(), b.elements()
    if sorted(ea) != sorted(eb):
        return False

    def wrap(d):
        return d - np.round(d)

    anchor = 0
    candidates = [j for j, el in enumerate(eb) if el == ea[anchor]]
    for j in candidates:
        shift = fb[j] - fa[anchor]
        used = set()
        ok = True
        for i in range(len(ea)):
            best, best_cost = None, None
            for k in range(len(eb)):
                if k in used or eb[k] != ea[i]:
                    continue
                cost = float(np.abs(wrap(fa[i] + shift - fb[k])).max())
                if best_cost is None or cost < best_cost:
                    best, best_cost = k, cost
            # A NaN cost compares False both ways: it must not pass as a match.
            if best is None or not best_cost <= cfg.site_tol:
                ok = False
                break
            used.add(best)
        if ok:
            return True
    return False


def structures_match(a: CrystalStructure, b: CrystalStructure,
                     cfg: MatchConfig = MatchConfig()) -> bool:
    """Same reduced formula, compatible reduced cells, and matchable sites."""
    if a.formula != b.formula:
        return False
    if a.num_sites != b.num_sites:
        return False
    if not _lattices_agree(a, b, cfg):
        return False
    return _sites_assign(a, b, cfg)


def _canonical_order(batch: list[CrystalStructure]) -> list[int]:
    keys = [write_ciflite(s) for s in batch]
    return sorted(range(len(batch)), key=lambda i: keys[i])


def cluster_indices(batch: list[CrystalStructure],
                    cfg: MatchConfig = MatchConfig()) -> list[int]:
    """Cluster id per structure; ids index the cluster representative.

    Structures are visited in canonical serialized order, so the clustering
    does not depend on batch order or worker schedule.
    """
    order = _canonical_order(batch)
    reps: list[int] = []
    assignment = [-1] * len(batch)
    for i in order:
        for rep in reps:
            if structures_match(batch[i], batch[rep], cfg):
                assignment[i] = rep
                break
        else:
            reps.append(i)
            assignment[i] = i
    return assignment


def uniqueness(batch: list[CrystalStructure],
               cfg: MatchConfig = MatchConfig(), *,
               assignment: list[int] | None = None) -> float:
    """Clusters per structure. ``assignment`` is ``cluster_indices(batch,
    cfg)`` when the caller already has it."""
    if not batch:
        raise ValueError("batch must be non-empty")
    if assignment is None:
        assignment = cluster_indices(batch, cfg)
    return len(set(assignment)) / len(batch)


def novelty(batch: list[CrystalStructure],
            reference: list[CrystalStructure],
            cfg: MatchConfig = MatchConfig()) -> float:
    if not batch:
        raise ValueError("batch must be non-empty")
    return sum(is_novel(s, reference, cfg) for s in batch) / len(batch)


def is_novel(s: CrystalStructure, reference: list[CrystalStructure],
             cfg: MatchConfig = MatchConfig()) -> bool:
    for r in reference:
        if r.formula != s.formula:
            continue
        if structures_match(s, r, cfg):
            return False
    return True


def sun_ratio(batch: list[CrystalStructure],
              e_hulls: list[float | None],
              reference: list[CrystalStructure],
              cfg: MatchConfig = MatchConfig(), *,
              assignment: list[int] | None = None) -> float:
    """Fraction simultaneously stable, unique (cluster representative), novel.
    ``assignment`` is ``cluster_indices(batch, cfg)`` when the caller already
    has it."""
    if len(batch) != len(e_hulls):
        raise ValueError("one e_hull entry per structure required")
    if not batch:
        raise ValueError("batch must be non-empty")
    if assignment is None:
        assignment = cluster_indices(batch, cfg)
    qualifying = 0
    for i, s in enumerate(batch):
        if e_hulls[i] is None or not is_stable(e_hulls[i]):
            continue
        if assignment[i] != i:
            continue
        if not is_novel(s, reference, cfg):
            continue
        qualifying += 1
    return qualifying / len(batch)


def aggregate(values) -> MetricValue:
    """Mean and standard error; proportion SE for boolean-valued inputs."""
    seq = list(values)
    if not seq:
        raise ValueError("need at least one value")
    n = len(seq)
    if all(isinstance(v, (bool, np.bool_)) for v in seq):
        p = sum(bool(v) for v in seq) / n
        se = math.sqrt(p * (1.0 - p) / n)
        return MetricValue("", p, se, n, low_count=(n == 1))
    arr = np.asarray(seq, dtype=float)
    se = float(arr.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return MetricValue("", float(arr.mean()), se, n, low_count=(n == 1))


def named(metric: MetricValue, name: str) -> MetricValue:
    return MetricValue(name, metric.value, metric.standard_error,
                       metric.count, metric.low_count)
