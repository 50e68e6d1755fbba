"""Per-sample and batch-level checks of the program's output.

Expectations come from the oracles and from how each workload was built,
never from an earlier run of the program.
"""

from __future__ import annotations

from dataclasses import dataclass

import oracles
from workloads import Case, Workload

TOL = 1e-8


@dataclass(frozen=True)
class Expected:
    """Oracle view of one parseable sample."""

    structural: bool
    chemical: bool
    composition: bool
    e_hull: float | None          # single-point value; None when not structural
    formula: str
    volume_rel_diff: float | None = None
    bond_rel_diff: float | None = None
    site_match: bool | None = None


def expectations(workload: Workload, tables: oracles.Tables) -> list[Expected | None]:
    out: list[Expected | None] = []
    for case in workload.cases:
        if case.cell is None:
            out.append(None)
            continue
        cell = case.cell
        vectors, frac, elements = cell.vectors(), cell.frac(), cell.elements
        counts = oracles.count_elements(elements)
        structural = oracles.structurally_valid(vectors, frac, cell.lengths, cell.angles)
        composition = (case.formula_target is None or oracles.reduced_formula(
            oracles.parse_formula(case.formula_target)) == cell.formula())
        e_hull = oracles.e_hull(tables, vectors, frac, elements) if structural else None
        trace = {}
        if case.trace is not None:
            volume = oracles.cell_volume(vectors)
            measured = oracles.neighbour_bonds(vectors, frac, elements)
            diffs = [abs(claim - round(measured[pair], 2)) / measured[pair]
                     for pair, claim in case.trace.bonds.items() if pair in measured]
            trace = dict(volume_rel_diff=abs(case.trace.volume - round(volume, 2)) / volume,
                         bond_rel_diff=sum(diffs) / len(diffs) if diffs else 0.0,
                         # Orbit claims are always the prototype's true orbits.
                         site_match=case.trace.site_counts == counts)
        out.append(Expected(structural, oracles.charge_neutral(tables, counts),
                            composition, e_hull, cell.formula(), **trace))
    return out


def _close(a, b) -> bool:
    return a is not None and b is not None and abs(a - b) <= TOL * max(1.0, abs(b))


def row_problems(case: Case, exp: Expected | None, row, relaxed: bool) -> list[str]:
    """Every way ``row`` differs from the correct evaluation of ``case``."""
    if case.expect in ("missing_cif", "parse_error", "F2"):
        # A response without a finite, well-formed cell must be rejected.
        want = "parse_error" if case.expect == "F2" else case.expect
        problems = []
        if row.parse_status != want:
            problems.append(f"parse_status {row.parse_status!r}, expected {want!r}")
        if row.r_target != 0.0:
            problems.append(f"r_target {row.r_target} for a rejected response")
        return problems
    problems = []
    if row.parse_status != "ok" or row.error:
        problems.append(f"parse_status {row.parse_status!r}, error {row.error!r}")
    for field, want in (("structural", exp.structural), ("chemical", exp.chemical),
                        ("composition_match", exp.composition)):
        if getattr(row, field) != int(want):
            problems.append(f"{field} {getattr(row, field)}, expected {int(want)}")
    if row.formula != exp.formula:
        problems.append(f"formula {row.formula!r}, expected {exp.formula!r}")
    if row.spacegroup_detected != case.spacegroup:
        problems.append(f"space group {row.spacegroup_detected}, expected {case.spacegroup}")
    want_match = (None if case.spacegroup_target is None
                  else int(case.spacegroup == case.spacegroup_target))
    if row.spacegroup_match != want_match:
        problems.append(f"spacegroup_match {row.spacegroup_match}, expected {want_match}")
    if exp.e_hull is None:
        if row.e_hull is not None:
            problems.append(f"e_hull {row.e_hull} for a structure that failed the gate")
    elif row.e_hull is None:
        problems.append("missing e_hull")
    elif relaxed:
        # Descent never raises the energy, and the reported value is clamped.
        if not 0.0 <= row.e_hull <= exp.e_hull + TOL:
            problems.append(f"relaxed e_hull {row.e_hull} outside [0, {exp.e_hull}]")
    elif not _close(row.e_hull, exp.e_hull):
        problems.append(f"e_hull {row.e_hull}, expected {exp.e_hull}")
    want_r = oracles.combined_reward(exp.structural, exp.chemical, exp.composition,
                                     row.e_hull)
    if not _close(row.r_target, want_r):
        problems.append(f"r_target {row.r_target}, expected {want_r}")
    if exp.site_match is None:
        if (row.site_match, row.volume_rel_diff, row.bond_rel_diff) != (None, None, None):
            problems.append("trace scores for a sample without a trace")
    else:
        if row.site_match != int(exp.site_match):
            problems.append(f"site_match {row.site_match}, expected {int(exp.site_match)}")
        for field in ("volume_rel_diff", "bond_rel_diff"):
            got, want = getattr(row, field), getattr(exp, field)
            if got is None or abs(got - want) > 1e-9:
                problems.append(f"{field} {got}, expected {want}")
    return problems


def batch_problems(workload: Workload, rows, report) -> list[str]:
    """Batch metrics against the rows and the counts known by construction."""
    problems = []
    values = {e.name: e for e in report.entries}
    n = len(rows)

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    hulls = [r.e_hull for r in rows if r.e_hull is not None]
    sg = [r.spacegroup_match for r in rows if r.spacegroup_match is not None]
    for name, want in (
            ("structural_validity", mean([r.structural for r in rows])),
            ("chemical_validity", mean([r.chemical for r in rows])),
            ("composition_match", mean([r.composition_match for r in rows])),
            ("spacegroup_match", mean(sg)),
            ("mean_e_hull", mean(hulls)),
            ("stability_rate", mean([_stable(r) for r in rows])),
            ("mean_r_target", mean([r.r_target for r in rows]))):
        if name not in values or abs(values[name].value - want) > 1e-9:
            problems.append(f"{name} {values.get(name)}, expected {want} over {n} rows")

    # The program clusters every sample it parsed; a faulty sample that it
    # accepted is its own cluster (its formula is used by no other sample).
    kept = [(c, r) for c, r in zip(workload.cases, rows) if r.parse_status == "ok"]
    clusters: dict[str, list] = {}
    for c, r in kept:
        clusters.setdefault(c.cluster or c.prompt_id, []).append((c, r))
    novel = sum(not c.in_reference for c, _ in kept)
    sun = sum(all(_stable(r) and not c.in_reference for c, r in members)
              for members in clusters.values())
    m = len(kept)
    for name, count in (("uniqueness", len(clusters)), ("novelty", novel),
                        ("sun_ratio", sun)):
        got = values[name]
        if workload.reference_text() is None and name == "novelty":
            count = m
        if got.count != m or abs(got.value * m - count) > 1e-6:
            problems.append(f"{name} {got.value} over {got.count}, expected {count}/{m}")
    return problems


def _stable(row) -> bool:
    return row.e_hull is not None and row.e_hull < oracles.STABLE_BELOW
