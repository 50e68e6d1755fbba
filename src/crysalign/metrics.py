"""Batch discovery metrics: matching, uniqueness, novelty, S.U.N., aggregation.

Matching maps one structure's sites onto another's, each in the cell it is
written in, with detection's site mapper at ``site_tol`` mean site spacings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ciflite import write_ciflite
from .energetics import is_stable
from .structcore import CrystalStructure, SiteMapper


@dataclass(frozen=True)
class MatchConfig:
    length_tol: float = 0.05   # relative, on Niggli-reduced cell lengths
    angle_tol: float = 5.0     # degrees, on Niggli-reduced cell angles
    site_tol: float = 0.1      # a length, in mean site spacings (V / n)^(1/3)

    def __post_init__(self):
        for name in ("length_tol", "angle_tol", "site_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite number")


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


def structures_match(a: CrystalStructure, b: CrystalStructure,
                     cfg: MatchConfig = MatchConfig()) -> bool:
    """Same reduced formula and site count, compatible reduced cells, and a
    translation taking a's first site of b's rarest element onto a b site
    of that element that puts each site of a, in b's cell, nearest to a
    distinct same-element site of b (the first on a tie), closer than
    ``site_tol`` mean site spacings of b, (V / n)^(1/3)."""
    if a.formula != b.formula or a.num_sites != b.num_sites:
        return False
    if not _lattices_agree(a, b, cfg):
        return False
    tol = cfg.site_tol * (b.volume() / b.num_sites) ** (1.0 / 3.0)
    mapper = SiteMapper(b.lattice.matrix(), b.frac_array(), b.elements(), tol)
    return len(mapper.anchored_fits(np.eye(3, dtype=int)[None], a)[0]) > 0


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


def discovery_rates(batch: list[CrystalStructure],
                    e_hulls: list[float | None],
                    reference: list[CrystalStructure],
                    cfg: MatchConfig = MatchConfig()) -> tuple[float, float, float]:
    """Uniqueness, novelty and S.U.N. of one batch, from one clustering pass
    and one novelty test per structure.

    Uniqueness is clusters per structure; novelty the share matching no
    reference structure; S.U.N. the share that is at once stable, its
    cluster's representative and novel.
    """
    if len(batch) != len(e_hulls):
        raise ValueError("one e_hull entry per structure required")
    if not batch:
        raise ValueError("batch must be non-empty")
    assignment = cluster_indices(batch, cfg)
    novel = [is_novel(s, reference, cfg) for s in batch]
    sun = sum(1 for i, e in enumerate(e_hulls)
              if e is not None and is_stable(e) and assignment[i] == i and novel[i])
    n = len(batch)
    return len(set(assignment)) / n, sum(novel) / n, sun / n


def uniqueness(batch: list[CrystalStructure],
               cfg: MatchConfig = MatchConfig()) -> float:
    """Clusters per structure."""
    return discovery_rates(batch, [None] * len(batch), [], cfg)[0]


def novelty(batch: list[CrystalStructure],
            reference: list[CrystalStructure],
            cfg: MatchConfig = MatchConfig()) -> float:
    if not batch:
        raise ValueError("batch must be non-empty")
    return sum(is_novel(s, reference, cfg) for s in batch) / len(batch)


def is_novel(s: CrystalStructure, reference: list[CrystalStructure],
             cfg: MatchConfig = MatchConfig()) -> bool:
    return not any(structures_match(s, r, cfg) for r in reference)


def sun_ratio(batch: list[CrystalStructure],
              e_hulls: list[float | None],
              reference: list[CrystalStructure],
              cfg: MatchConfig = MatchConfig()) -> float:
    """Fraction simultaneously stable, unique (cluster representative), novel."""
    return discovery_rates(batch, e_hulls, reference, cfg)[2]


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
