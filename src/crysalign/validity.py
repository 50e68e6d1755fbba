"""Structural validity, chemical (oxidation-state) validity, and
instruction-following checks: the binary reward primitives.

All checks report rather than throw; configuration problems (e.g. an element
missing from the oxidation table) raise instead of being conflated with an
invalid structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

from .structcore import (
    Composition,
    CrystalStructure,
    all_pair_min_distance,
    reduced_formula,
)


class ConfigurationError(RuntimeError):
    """Missing or inconsistent check configuration (not an invalid structure)."""


# Structural validity: every inequality is strict.
MIN_PAIR_DISTANCE = 2.0          # A
MIN_VOLUME = 4.0                 # A^3
MIN_LENGTH = 1.1                 # A
ANGLE_RANGE = (20.0, 160.0)      # degrees


@dataclass(frozen=True)
class OxidationTable:
    states: dict[str, tuple[int, ...]] = field(hash=False)

    def __post_init__(self):
        object.__setattr__(self, "states", dict(self.states))

    @classmethod
    @lru_cache(maxsize=1)
    def load_default(cls) -> "OxidationTable":
        path = resources.files("crysalign.data") / "oxidation_states.txt"
        return cls.from_text(path.read_text(encoding="utf-8"))

    @classmethod
    def from_text(cls, text: str) -> "OxidationTable":
        states: dict[str, tuple[int, ...]] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            symbol, _, raw = line.partition(":")
            raw = raw.strip()
            vals = tuple(int(x) for x in raw.split(",")) if raw else ()
            states[symbol.strip()] = vals
        return cls(states)


@dataclass(frozen=True)
class ValidityReport:
    structural: bool
    chemical: bool
    composition_match: bool
    failed_checks: tuple[str, ...] = ()

    def __post_init__(self):
        any_false = not (self.structural and self.chemical and self.composition_match)
        if any_false != bool(self.failed_checks):
            raise ValueError("failed_checks must be non-empty iff a check failed")


def check_structural(s: CrystalStructure) -> tuple[bool, list[str]]:
    """Geometric validity: strict inequalities at every threshold."""
    reasons = []
    if not all_pair_min_distance(s) > MIN_PAIR_DISTANCE:
        reasons.append("pair_distance")
    if not s.volume() > MIN_VOLUME:
        reasons.append("volume")
    if not all(x > MIN_LENGTH for x in s.lattice.lengths):
        reasons.append("length")
    lo, hi = ANGLE_RANGE
    if not all(lo < ang < hi for ang in s.lattice.angles):
        reasons.append("angle")
    return (not reasons, reasons)


def _neutral_assignment(counts: dict[str, int], state_lists) -> tuple[int, ...] | None:
    """The first combination in ``itertools.product`` order, one state per
    element, whose weighted sum is zero, or None.

    ``reach[i]`` holds every sum the elements from ``i`` on can make, each
    state times its element's count. Walking the elements in order and
    taking, for each, its first state whose remainder the next suffix can
    reach gives the product's first neutral combination. The sets span at
    most the range of the sums, so the work grows with the element count
    and the counts, not with the number of combinations.
    """
    elements = list(counts)
    reach = [{0}]
    for el in reversed(elements):
        reach.append({counts[el] * st + rest
                      for st in state_lists[el] for rest in reach[-1]})
    reach.reverse()
    if 0 not in reach[0]:
        return None
    need = 0
    combo = []
    for el, rest in zip(elements, reach[1:]):
        st = next(st for st in state_lists[el] if need - counts[el] * st in rest)
        combo.append(st)
        need -= counts[el] * st
    return tuple(combo)


def find_oxidation_assignment(
    c: Composition, table: OxidationTable
) -> dict[str, int] | None:
    """Charge-neutral oxidation assignment over the reduced composition."""
    counts = c.reduced()
    for el in counts:
        if el not in table.states:
            raise ConfigurationError(f"element {el} absent from oxidation table")
    combo = _neutral_assignment(counts, table.states)
    if combo is None:
        return None
    return dict(zip(counts, combo))


def check_chemical(c: Composition, table: OxidationTable) -> bool:
    return find_oxidation_assignment(c, table) is not None


def check_composition_match(generated: Composition, target: Composition) -> bool:
    return reduced_formula(generated) == reduced_formula(target)


def build_report(
    s: CrystalStructure,
    target: Composition | None,
    table: OxidationTable,
) -> ValidityReport:
    """Full validity report for one parsed structure."""
    structural, reasons = check_structural(s)
    chemical = check_chemical(s.composition(), table)
    comp_ok = target is None or check_composition_match(s.composition(), target)
    failed = list(reasons)
    if not chemical:
        failed.append("chemical")
    if not comp_ok:
        failed.append("composition")
    return ValidityReport(structural, chemical, comp_ok, tuple(failed))
