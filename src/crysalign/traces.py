"""Rule-based thinking-trace synthesis, parsing, and consistency checks.

A trace is a three-segment material report: symmetry and charge balance,
local coordination with bond lengths, then cell-level physical properties.
Synthesis and parsing share one sentence-template library so round-trips
are lossless at the rendered precision.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .ciflite import PromptConstraints
from .structcore import CrystalStructure, neighbour_shells

METAL_GAP = 0.05          # eV, below: metal
INSULATOR_GAP = 3.0       # eV, at or above: insulator
ON_HULL_TOL = 1e-6        # eV/atom on the prompt's hull target

GEOMETRY_LABELS = {
    2: "linear",
    3: "trigonal-planar",
    4: "tetrahedral",
    6: "octahedral",
    8: "cubic",
    12: "cuboctahedral",
}


def _integer(digits: str) -> int:
    """``int(digits)``, or a ValueError naming the length past int's digit limit."""
    try:
        return int(digits)
    except ValueError:
        count = len(digits.lstrip("+-"))
        raise ValueError(f"trace integer of {count} digits is too long") from None


@dataclass(frozen=True)
class TraceRecord:
    spacegroup_number: int | None = None
    spacegroup_symbol: str | None = None
    site_counts: dict[str, int] = field(default_factory=dict)
    orbit_counts: dict[str, int] = field(default_factory=dict)
    oxidation_states: dict[str, int] = field(default_factory=dict)
    charge_equation: str | None = None
    coordination: dict[str, tuple[str, int, str]] = field(default_factory=dict)
    bond_lengths: dict[tuple[str, str], float] = field(default_factory=dict)
    volume: float | None = None
    band_gap: float | None = None
    band_gap_class: str | None = None
    on_hull: bool | None = None
    formation_energy: float | None = None
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.charge_equation is not None:
            terms = [(_integer(num), _integer(state)) for num, state in
                     re.findall(r"(\d+)\*\(([+-]\d+)\)", self.charge_equation)]
            if sum(num * state for num, state in terms) != 0:
                raise ValueError("charge equation does not sum to zero as written")
            eq_counts = sorted(num for num, _ in terms)
            if self.site_counts and eq_counts != sorted(self.site_counts.values()):
                raise ValueError("charge equation counts disagree with site counts")


@dataclass(frozen=True)
class TraceConsistency:
    site_match: bool
    volume_rel_diff: float
    bond_rel_diff: float

    def __post_init__(self):
        for name in ("volume_rel_diff", "bond_rel_diff"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and non-negative")


def band_gap_class(gap: float) -> str:
    if gap < METAL_GAP:
        return "metal"
    if gap < INSULATOR_GAP:
        return "semiconductor"
    return "insulator"


def bond_statistics(s: CrystalStructure):
    """Coordination summary per element and mean bond length per element pair.

    Coordination is taken from each element's first site (deterministic);
    bond means pool every nearest-neighbor-shell contact of the pair.
    """
    i, j, d = neighbour_shells(s)
    elems = s.elements()
    coordination: dict[str, tuple[str, int, str]] = {}
    pair_dists: dict[tuple[str, str], list[float]] = {}
    for a, b, dist in zip(i.tolist(), j.tolist(), d.tolist()):
        pair_dists.setdefault(tuple(sorted((elems[a], elems[b]))), []).append(dist)
    for site, el in enumerate(elems):
        if el in coordination:
            continue
        neigh_els = [elems[b] for b in j[i == site].tolist()]
        if not neigh_els:
            continue
        counts: dict[str, int] = {}
        for ne in neigh_els:
            counts[ne] = counts.get(ne, 0) + 1
        main = max(sorted(counts), key=lambda k: counts[k])
        n = len(neigh_els)
        label = GEOMETRY_LABELS.get(n, f"{n}-fold coordinated")
        coordination[el] = (main, n, label)
    bond_lengths = {k: float(np.mean(v)) for k, v in sorted(pair_dists.items())}
    return coordination, bond_lengths


def _charge_equation(site_counts: dict[str, int],
                     oxidation: dict[str, int]) -> str:
    parts = [f"{site_counts[el]}*({oxidation[el]:+d})" for el in sorted(site_counts)]
    return "+".join(parts) + "=0"


def _orbit_counts(s: CrystalStructure, sym) -> dict[str, int]:
    """Symmetry orbits per element, sorted by element."""
    return dict(sorted(Counter(s.sites[orbit[0]].element for orbit in sym.orbits).items()))


def synthesize_trace(
    s: CrystalStructure,
    props: PromptConstraints,
    sym,
    oxidation: dict[str, int] | None,
) -> tuple[TraceRecord, str]:
    """Render the three-segment report; deterministic for identical inputs."""
    site_counts = dict(sorted(s.composition().counts.items()))
    orbit_counts = _orbit_counts(s, sym)

    flags: tuple[str, ...] = ()
    equation = None
    states = dict(oxidation or {})
    if oxidation is not None and set(oxidation) >= set(site_counts):
        equation = _charge_equation(site_counts, oxidation)
    else:
        flags = ("no_oxidation_assignment",)
        states = {}

    coordination, bond_lengths = bond_statistics(s)
    bond_lengths = {k: round(v, 2) for k, v in bond_lengths.items()}
    volume = round(s.volume(), 2)
    gap = props.band_gap
    gap_class = band_gap_class(gap) if gap is not None else None
    on_hull = None
    if props.e_hull_target is not None:
        on_hull = props.e_hull_target <= ON_HULL_TOL
    formation = props.formation_energy_per_atom
    if formation is not None:
        formation = round(formation, 4)

    record = TraceRecord(
        spacegroup_number=sym.number,
        spacegroup_symbol=sym.symbol,
        site_counts=site_counts,
        orbit_counts=orbit_counts,
        oxidation_states=states,
        charge_equation=equation,
        coordination=coordination,
        bond_lengths=bond_lengths,
        volume=volume,
        band_gap=round(gap, 4) if gap is not None else None,
        band_gap_class=gap_class,
        on_hull=on_hull,
        formation_energy=formation,
        flags=flags,
    )
    return record, render_trace(record)


def render_trace(record: TraceRecord) -> str:
    lines = ["Material Report"]

    seg1 = ["First, consider the symmetry."]
    if record.spacegroup_number is not None:
        seg1.append(
            f"The structure has space group {record.spacegroup_symbol} "
            f"(id {record.spacegroup_number})."
        )
    for el, count in record.site_counts.items():
        orbits = record.orbit_counts.get(el)
        orbit_part = ""
        if orbits is not None:
            noun = "orbit" if orbits == 1 else "orbits"
            orbit_part = f" in {orbits} {noun}"
        state_part = ""
        if el in record.oxidation_states:
            state_part = f" with oxidation state {record.oxidation_states[el]:+d}"
        noun = "atom" if count == 1 else "atoms"
        seg1.append(f"There are {count} {el} {noun}{orbit_part}{state_part}.")
    if record.charge_equation is not None:
        seg1.append(f"The charge balance is {record.charge_equation}.")
    lines.append(" ".join(seg1))

    seg2 = ["Second, consider the local environment."]
    for el, (neigh, n, label) in sorted(record.coordination.items()):
        noun = "atom" if n == 1 else "atoms"
        seg2.append(
            f"Each {el} atom is coordinated by {n} {neigh} {noun} "
            f"in a {label} geometry."
        )
    for (a, b), d in sorted(record.bond_lengths.items()):
        seg2.append(f"All {a}-{b} bond lengths are {d:.2f} A.")
    lines.append(" ".join(seg2))

    seg3 = ["Third, consider the physical properties."]
    if record.volume is not None:
        seg3.append(f"The cell volume is {record.volume:.2f} A^3.")
    seg3.append(
        "All bond lengths are greater than 0.5 and the cell volume is "
        "larger than 0.1, so the structure is valid."
    )
    if record.band_gap is not None:
        suffix = {
            "metal": "it is a metal",
            "semiconductor": "it is a semiconductor",
            "insulator": "it is an insulator (wide band gap)",
        }[record.band_gap_class]
        seg3.append(f"The band gap is {record.band_gap:.4f} eV, so {suffix}.")
    if record.on_hull is not None:
        status = "on the hull" if record.on_hull else "above the hull"
        seg3.append(f"The structure is {status}.")
    if record.formation_energy is not None:
        seg3.append(
            f"The formation energy per atom is {record.formation_energy:.4f}."
        )
    lines.append(" ".join(seg3))
    return "\n".join(lines) + "\n"


_SG_RE = re.compile(r"space group (\S+) \(id (\d+)\)")
_SITE_RE = re.compile(
    r"There are (\d+) ([A-Z][a-z]?) atoms?(?: in (\d+) orbits?)?"
    r"(?: with oxidation state ([+-]\d+))?\."
)
_EQ_RE = re.compile(r"The charge balance is ([^.]*=0)\.")
_COORD_RE = re.compile(
    r"Each ([A-Z][a-z]?) atom is coordinated by (\d+) ([A-Z][a-z]?) atoms? "
    r"in a (\S+(?: \S+)*?) geometry\."
)
_BOND_RE = re.compile(
    r"All ([A-Z][a-z]?)-([A-Z][a-z]?) bond lengths are ([0-9.]+) A\."
)
_VOL_RE = re.compile(r"The cell volume is (-?[0-9.]+) A\^3\.")
_GAP_RE = re.compile(
    r"The band gap is (-?[0-9.]+) eV, so it is an? (metal|semiconductor|insulator)"
)
_HULL_RE = re.compile(r"The structure is (on|above) the hull\.")
_FORM_RE = re.compile(r"The formation energy per atom is (-?[0-9.]+)\.")


def parse_trace(text: str) -> TraceRecord:
    """Extract whatever fields are present; missing fields stay absent."""
    sg_num = sg_sym = None
    m = _SG_RE.search(text)
    if m:
        sg_sym, sg_num = m.group(1), _integer(m.group(2))
    site_counts: dict[str, int] = {}
    orbit_counts: dict[str, int] = {}
    states: dict[str, int] = {}
    for count, el, orbits, state in _SITE_RE.findall(text):
        site_counts[el] = _integer(count)
        if orbits:
            orbit_counts[el] = _integer(orbits)
        if state:
            states[el] = _integer(state)
    m = _EQ_RE.search(text)
    equation = m.group(1) if m else None
    coordination = {
        el: (neigh, _integer(n), label)
        for el, n, neigh, label in _COORD_RE.findall(text)
    }
    bonds = {
        tuple(sorted((a, b))): float(d) for a, b, d in _BOND_RE.findall(text)
    }
    m = _VOL_RE.search(text)
    volume = float(m.group(1)) if m else None
    gap = gap_class = None
    m = _GAP_RE.search(text)
    if m:
        gap, gap_class = float(m.group(1)), m.group(2)
    m = _HULL_RE.search(text)
    on_hull = (m.group(1) == "on") if m else None
    m = _FORM_RE.search(text)
    formation = float(m.group(1)) if m else None
    return TraceRecord(
        spacegroup_number=sg_num,
        spacegroup_symbol=sg_sym,
        site_counts=site_counts,
        orbit_counts=orbit_counts,
        oxidation_states=states,
        charge_equation=equation,
        coordination=coordination,
        bond_lengths=bonds,
        volume=volume,
        band_gap=gap,
        band_gap_class=gap_class,
        on_hull=on_hull,
        formation_energy=formation,
    )


def trace_consistency(
    trace: TraceRecord, s: CrystalStructure, sym
) -> TraceConsistency:
    """Score a trace against the structure it claims to describe."""
    actual_counts = dict(s.composition().counts)
    site_match = bool(trace.site_counts) and trace.site_counts == actual_counts
    if trace.orbit_counts:
        site_match = site_match and trace.orbit_counts == _orbit_counts(s, sym)

    # Claims are rendered at fixed precision (2 decimals), so the measured
    # side is rounded the same way; a trace that restates its own structure
    # then scores exactly zero.
    if trace.volume is not None:
        volume_rel = abs(trace.volume - round(s.volume(), 2)) / s.volume()
    else:
        volume_rel = 0.0

    _, measured = bond_statistics(s)
    diffs = []
    for pair, claimed in trace.bond_lengths.items():
        if pair in measured and measured[pair] > 0:
            diffs.append(abs(claimed - round(measured[pair], 2)) / measured[pair])
    bond_rel = float(np.mean(diffs)) if diffs else 0.0
    return TraceConsistency(
        site_match=site_match,
        volume_rel_diff=volume_rel,
        bond_rel_diff=bond_rel,
    )
