"""Batch discovery metrics: match records, matching, uniqueness, novelty,
S.U.N., aggregation.

Each structure becomes one ``MatchRecord`` where its row is checked, and the
batch metrics read records only. Matching maps one record's sites onto
another's, each in the cell it is written in, with detection's site mapper
at ``site_tol`` mean site spacings; each target's mapper is built once per
batch (``site_mapper``), not once per comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ciflite import write_ciflite
from .energetics import is_stable
from .structcore import CrystalStructure, Lattice, SiteMapper, niggli_reduce


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


@dataclass(frozen=True, eq=False)
class MatchRecord:
    """What the batch metrics read of one structure: its formula, site
    count and Niggli cell, the site mapper's inputs (row-vector cell matrix,
    fractional sites, element per site; read-only), the mean site spacing
    (V / n)^(1/3), and its CIF text, the key that orders a batch."""

    formula: str
    num_sites: int
    niggli: Lattice
    cell: np.ndarray
    frac: np.ndarray
    species: np.ndarray
    spacing: float
    key: str

    @classmethod
    def from_structure(cls, s: CrystalStructure) -> "MatchRecord":
        arrays = (s.lattice.matrix(), s.frac_array(), np.array(s.elements()))
        for array in arrays:
            array.setflags(write=False)
        return cls(s.formula, s.num_sites, niggli_reduce(s.lattice), *arrays,
                   (s.volume() / s.num_sites) ** (1.0 / 3.0), write_ciflite(s))


def site_mapper(r: MatchRecord, cfg: MatchConfig = MatchConfig()) -> SiteMapper:
    """The mapper that matches other records onto ``r``: its sites, each
    within ``site_tol`` of its mean site spacings."""
    return SiteMapper(r.cell, r.frac, tuple(r.species.tolist()), cfg.site_tol * r.spacing)


def _lattices_agree(la: Lattice, lb: Lattice, cfg: MatchConfig) -> bool:
    for x, y in zip(la.lengths, lb.lengths):
        if abs(x - y) > cfg.length_tol * max(x, y):
            return False
    for x, y in zip(la.angles, lb.angles):
        if abs(x - y) > cfg.angle_tol:
            return False
    return True


def structures_match(a: MatchRecord, b: MatchRecord, b_sites: SiteMapper,
                     cfg: MatchConfig = MatchConfig()) -> bool:
    """Same reduced formula and site count, compatible reduced cells, and a
    translation taking a's first site of b's rarest element onto a b site
    of that element that puts each site of a, in b's cell, nearest to a
    distinct same-element site of b (the first on a tie), closer than
    ``site_tol`` mean site spacings of b. ``b_sites`` is
    ``site_mapper(b, cfg)``."""
    if a.formula != b.formula or a.num_sites != b.num_sites:
        return False
    if not _lattices_agree(a.niggli, b.niggli, cfg):
        return False
    return len(b_sites.anchored_fits(np.eye(3, dtype=int)[None], (a.frac, a.species))[0]) > 0


def cluster_indices(batch: list[MatchRecord],
                    cfg: MatchConfig = MatchConfig()) -> list[int]:
    """Cluster id per record; ids index the cluster representative.

    Records are visited in the order of their keys, so the clustering does
    not depend on batch order or worker schedule. Each representative's
    mapper is built once, when it founds its cluster.
    """
    reps: list[tuple[int, SiteMapper]] = []
    assignment = [-1] * len(batch)
    for i in sorted(range(len(batch)), key=lambda i: batch[i].key):
        for rep, sites in reps:
            if structures_match(batch[i], batch[rep], sites, cfg):
                assignment[i] = rep
                break
        else:
            reps.append((i, site_mapper(batch[i], cfg)))
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
    cluster's representative and novel.
    """
    if len(batch) != len(e_hulls):
        raise ValueError("one e_hull entry per structure required")
    if not batch:
        raise ValueError("batch must be non-empty")
    assignment = cluster_indices(batch, cfg)
    targets = [(r, site_mapper(r, cfg)) for r in reference]
    novel = [is_novel(r, targets, cfg) for r in batch]
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


def is_novel(r: MatchRecord, reference: list[tuple[MatchRecord, SiteMapper]],
             cfg: MatchConfig = MatchConfig()) -> bool:
    """No reference record matches ``r``; ``reference`` pairs each record
    with its ``site_mapper``."""
    return not any(structures_match(r, ref, sites, cfg) for ref, sites in reference)


def sun_ratio(batch: list[MatchRecord],
              e_hulls: list[float | None],
              reference: list[MatchRecord],
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
