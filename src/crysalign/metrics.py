"""Batch discovery metrics: match records, matching, uniqueness, novelty,
S.U.N., aggregation.

Each structure becomes one ``MatchRecord`` where its row is checked, and the
batch metrics read records only. A record holds its sites in one form, the
detection's site mapper, built with the record; matching maps one record's
sites onto another's with the target's mapper, each in the cell it is
written in, at ``site_tol`` mean site spacings of the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ciflite import write_ciflite
from .energetics import is_stable
from .structcore import CrystalStructure, SiteMapper, niggli_reduce


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


@dataclass(frozen=True, eq=False)
class MatchRecord:
    """What the batch metrics read of one structure: its formula, the six
    numbers of its Niggli cell, its sites as the mapper that matches other
    records onto it, the mean site spacing (V / n)^(1/3), and its CIF text,
    the key that orders a batch."""

    formula: str
    niggli: tuple[float, float, float, float, float, float]
    sites: SiteMapper
    spacing: float
    key: str

    @classmethod
    def from_structure(cls, s: CrystalStructure) -> "MatchRecord":
        sites = SiteMapper(s.lattice.matrix(), s.frac_array(), s.elements())
        return cls(s.formula, niggli_reduce(s.lattice), sites,
                   (s.volume() / s.num_sites) ** (1.0 / 3.0), write_ciflite(s))


def _lattices_agree(la: tuple, lb: tuple, cfg: MatchConfig) -> bool:
    for x, y in zip(la[:3], lb[:3]):
        if abs(x - y) > cfg.length_tol * max(x, y):
            return False
    for x, y in zip(la[3:], lb[3:]):
        if abs(x - y) > cfg.angle_tol:
            return False
    return True


def structures_match(a: MatchRecord, b: MatchRecord,
                     cfg: MatchConfig = MatchConfig()) -> bool:
    """Same reduced formula and site count, compatible reduced cells, and a
    translation taking a's first site of b's rarest element onto a b site
    of that element that puts each site of a, in b's cell, nearest to a
    distinct same-element site of b (the first on a tie), closer than
    ``site_tol`` mean site spacings of b."""
    if a.formula != b.formula or len(a.sites.frac) != len(b.sites.frac):
        return False
    if not _lattices_agree(a.niggli, b.niggli, cfg):
        return False
    fits = b.sites.anchored_fits(np.eye(3, dtype=int)[None], cfg.site_tol * b.spacing, a.sites)
    return len(fits[0]) > 0


def cluster_indices(batch: list[MatchRecord],
                    cfg: MatchConfig = MatchConfig()) -> list[int]:
    """Cluster id per record; ids index the cluster representative.

    Records are visited in the order of their keys, so the clustering does
    not depend on batch order or worker schedule.
    """
    reps: list[int] = []
    assignment = [-1] * len(batch)
    for i in sorted(range(len(batch)), key=lambda i: batch[i].key):
        for rep in reps:
            if structures_match(batch[i], batch[rep], cfg):
                assignment[i] = rep
                break
        else:
            reps.append(i)
            assignment[i] = i
    return assignment


def discovery_rates(batch: list[MatchRecord],
                    e_hulls: list[float | None],
                    reference: list[MatchRecord],
                    cfg: MatchConfig = MatchConfig()) -> tuple[float, float, float]:
    """Uniqueness, novelty and S.U.N. of one batch, from one clustering pass
    and one novelty test per record.

    Uniqueness is clusters per record; novelty the share matching no
    reference record; S.U.N. the share that is at once stable, its
    cluster's representative and novel. All three are 0 for an empty batch.
    """
    if len(batch) != len(e_hulls):
        raise ValueError("one e_hull entry per structure required")
    if not batch:
        return 0.0, 0.0, 0.0
    assignment = cluster_indices(batch, cfg)
    novel = [is_novel(r, reference, cfg) for r in batch]
    sun = sum(1 for i, e in enumerate(e_hulls)
              if e is not None and is_stable(e) and assignment[i] == i and novel[i])
    n = len(batch)
    return len(set(assignment)) / n, sum(novel) / n, sun / n


def uniqueness(batch: list[MatchRecord],
               cfg: MatchConfig = MatchConfig()) -> float:
    """Clusters per record."""
    return discovery_rates(batch, [None] * len(batch), [], cfg)[0]


def novelty(batch: list[MatchRecord],
            reference: list[MatchRecord],
            cfg: MatchConfig = MatchConfig()) -> float:
    """Share of records that match no reference record."""
    return discovery_rates(batch, [None] * len(batch), reference, cfg)[1]


def is_novel(r: MatchRecord, reference: list[MatchRecord],
             cfg: MatchConfig = MatchConfig()) -> bool:
    """No reference record matches ``r``."""
    return not any(structures_match(r, ref, cfg) for ref in reference)


def sun_ratio(batch: list[MatchRecord],
              e_hulls: list[float | None],
              reference: list[MatchRecord],
              cfg: MatchConfig = MatchConfig()) -> float:
    """Fraction simultaneously stable, unique (cluster representative), novel."""
    return discovery_rates(batch, e_hulls, reference, cfg)[2]


def aggregate(name: str, values) -> MetricValue:
    """The entry ``name``: mean and standard error, the proportion's SE for
    boolean-valued inputs; 0 with count 0 for no values."""
    seq = list(values)
    if not seq:
        return MetricValue(name, 0.0, 0.0, 0)
    n = len(seq)
    if all(isinstance(v, (bool, np.bool_)) for v in seq):
        p = sum(bool(v) for v in seq) / n
        se = math.sqrt(p * (1.0 - p) / n)
        return MetricValue(name, p, se, n)
    arr = np.asarray(seq, dtype=float)
    se = float(arr.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return MetricValue(name, float(arr.mean()), se, n)
