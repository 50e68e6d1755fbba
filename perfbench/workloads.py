"""Seeded workload generators.

Each workload is a batch of evaluation samples (prompt and response text,
exactly what a generator would emit) plus, per sample, what the benchmark
knows about it by construction: the cell as written, the literature space
group, which samples are copies of one another and which appear in the
reference set. The program only ever receives the rendered text.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

import oracles

# ---------------------------------------------------------------------------
# cells and prototypes


@dataclass(frozen=True)
class Cell:
    """A cell exactly as rendered: lengths to 6, angles to 4 and fractional
    coordinates to 8 decimals, so oracles see the values the parser reads."""

    lengths: tuple[float, float, float]
    angles: tuple[float, float, float]
    sites: tuple[tuple[str, tuple[float, float, float]], ...]

    @classmethod
    def make(cls, lengths, angles, sites) -> "Cell":
        return cls(tuple(round(float(x), 6) for x in lengths),
                   tuple(round(float(x), 4) for x in angles),
                   tuple((el, tuple(round(float(x) % 1.0, 8) % 1.0 for x in xyz))
                         for el, xyz in sites))

    @property
    def elements(self) -> tuple[str, ...]:
        return tuple(el for el, _ in self.sites)

    def vectors(self) -> np.ndarray:
        return oracles.cell_vectors(*self.lengths, *self.angles)

    def frac(self) -> np.ndarray:
        return np.array([xyz for _, xyz in self.sites])

    def formula(self) -> str:
        return oracles.reduced_formula(oracles.count_elements(self.elements))

    def render(self) -> str:
        lines = ["<CIF>P1",
                 " ".join(f"{x:.6f}" for x in self.lengths),
                 " ".join(f"{x:.4f}" for x in self.angles)]
        lines += [f"{el} 1 " + " ".join(f"{x:.8f}" for x in xyz)
                  for el, xyz in self.sites]
        return "\n".join(lines) + "</CIF>"

    def shifted(self, shift) -> "Cell":
        return Cell.make(self.lengths, self.angles,
                         [(el, np.add(xyz, shift)) for el, xyz in self.sites])


FCC = ((0, 0, 0), (0, 0.5, 0.5), (0.5, 0, 0.5), (0.5, 0.5, 0))
RIGHT = (90.0, 90.0, 90.0)
HEXAGONAL = (90.0, 90.0, 120.0)


def _fcc(el, base):
    return [(el, np.add(base, t)) for t in FCC]


def _cubic(a):
    return (a, a, a), RIGHT


@dataclass(frozen=True)
class Prototype:
    """Literature structure type: space-group number, nominal lattice
    constants per formula, site builder and orbits per element."""

    spacegroup: int
    build: Callable                   # (params, elements) -> (lengths, angles, sites)
    orbits: tuple[int, ...]           # orbit count per element, in element order
    nominal: dict                     # formula elements -> params


PROTOTYPES = {
    "rock-salt": Prototype(
        225,
        lambda p, e: (*_cubic(p[0]), _fcc(e[0], (0, 0, 0)) + _fcc(e[1], (0.5, 0.5, 0.5))),
        (1, 1), {("Na", "Cl"): (5.64,), ("K", "Cl"): (6.29,),
                 ("Mg", "O"): (4.21,), ("Ca", "O"): (4.81,)}),
    "cscl": Prototype(
        221,
        lambda p, e: (*_cubic(p[0]), [(e[0], (0, 0, 0)), (e[1], (0.5, 0.5, 0.5))]),
        (1, 1), {("Cs", "Cl"): (4.12,)}),
    "diamond": Prototype(
        227,
        lambda p, e: (*_cubic(p[0]), _fcc(e[0], (0, 0, 0)) + _fcc(e[0], (0.25, 0.25, 0.25))),
        (1,), {("C",): (3.567,), ("Si",): (5.43,)}),
    # Close-packed elements at the pair potential's minimum, so they are stable.
    "fcc": Prototype(
        225,
        lambda p, e: (*_cubic(p[0]), _fcc(e[0], (0, 0, 0))),
        (1,), {("Cu",): (3.175,), ("Al",): (3.492,)}),
    "hcp": Prototype(
        194,
        lambda p, e: ((p[0], p[0], p[1]), HEXAGONAL,
                      [(e[0], (1 / 3, 2 / 3, 0.25)), (e[0], (2 / 3, 1 / 3, 0.75))]),
        (1,), {("Mg",): (2.357, 3.849), ("Zn",): (2.301, 3.758)}),
    "calcite": Prototype(
        167,
        lambda p, e: ((p[0],) * 3, (46.3714,) * 3,
                      [(e[0], (0, 0, 0)), (e[0], (0.5, 0.5, 0.5)),
                       (e[1], (0.25, 0.25, 0.25)), (e[1], (0.75, 0.75, 0.75))]
                      + [(e[2], xyz) for xyz in _calcite_oxygens(0.00783229)]),
        (1, 1, 1), {("Ca", "C", "O"): (6.358447,)}),
    "perovskite": Prototype(
        221,
        lambda p, e: (*_cubic(p[0]),
                      [(e[0], (0, 0, 0)), (e[1], (0.5, 0.5, 0.5)), (e[2], (0.5, 0.5, 0)),
                       (e[2], (0.5, 0, 0.5)), (e[2], (0, 0.5, 0.5))]),
        (1, 1, 1), {("Ca", "Ti", "O"): (3.84,), ("Cs", "Ca", "F"): (4.52,)}),
    "fluorite": Prototype(
        225,
        lambda p, e: (*_cubic(p[0]), _fcc(e[0], (0, 0, 0)) + _fcc(e[1], (0.25, 0.25, 0.25))
                      + _fcc(e[1], (0.75, 0.75, 0.75))),
        (1, 1), {("Ca", "F"): (5.46,)}),
    "zinc-blende": Prototype(
        216,
        lambda p, e: (*_cubic(p[0]), _fcc(e[0], (0, 0, 0)) + _fcc(e[1], (0.25, 0.25, 0.25))),
        (1, 1), {("Zn", "S"): (5.41,)}),
    "rutile": Prototype(
        136,
        lambda p, e: ((p[0], p[0], p[1]), RIGHT,
                      [(e[0], (0, 0, 0)), (e[0], (0.5, 0.5, 0.5)),
                       (e[1], (0.305, 0.305, 0)), (e[1], (0.695, 0.695, 0)),
                       (e[1], (0.805, 0.195, 0.5)), (e[1], (0.195, 0.805, 0.5))]),
        (1, 1), {("Ti", "O"): (4.45, 2.87)}),
    "wurtzite": Prototype(
        186,
        lambda p, e: ((p[0], p[0], p[1]), HEXAGONAL,
                      [(e[0], (1 / 3, 2 / 3, 0)), (e[0], (2 / 3, 1 / 3, 0.5)),
                       (e[1], (1 / 3, 2 / 3, 0.382)), (e[1], (2 / 3, 1 / 3, 0.882))]),
        (1, 1), {("Zn", "S"): (3.82, 6.26)}),
}


def _calcite_oxygens(d):
    return [(0.75, 0.5 - d, d), (d, 0.75, 0.5 - d), (0.5 + d, 1 - d, 0.25),
            (0.25, 0.5 + d, 1 - d), (1 - d, 0.25, 0.5 + d), (0.5 - d, d, 0.75)]


def prototype_cell(proto: Prototype, elements, scale: float = 1.0) -> Cell:
    params = tuple(x * scale for x in proto.nominal[elements])
    lengths, angles, sites = proto.build(params, elements)
    return Cell.make(lengths, angles, sites)


def supercell(cell: Cell, n: int) -> Cell:
    sites = [(el, (np.array(xyz) + (i, j, k)) / n)
             for i in range(n) for j in range(n) for k in range(n)
             for el, xyz in cell.sites]
    return Cell.make(tuple(n * x for x in cell.lengths), cell.angles, sites)


def jittered(cell: Cell, rng, sigma: float) -> Cell:
    """Random Cartesian displacements (A), drawn per site and clipped at 2 sigma."""
    inv = np.linalg.inv(cell.vectors())
    disp = np.clip(rng.normal(0.0, sigma, (len(cell.sites), 3)), -2 * sigma, 2 * sigma)
    return Cell.make(cell.lengths, cell.angles,
                     [(el, np.add(xyz, d @ inv)) for (el, xyz), d in zip(cell.sites, disp)])


def displaced_pair(cell: Cell, rng) -> Cell:
    """A two-site cubic cell with its second site moved by a displacement
    whose components are nonzero and differ pairwise in size by at least
    0.01 A, so no mirror or axis of the cubic lattice maps it onto itself
    and the cell is P1 at the detector's 1e-3 A tolerance. (Independent
    clipped draws on both sites can tie and leave a mirror, as in Cm.)"""
    size = rng.permutation(rng.uniform((0.015, 0.035, 0.055), (0.025, 0.045, 0.065)))
    disp = size * rng.choice((-1.0, 1.0), 3)
    (el0, xyz0), (el1, xyz1) = cell.sites
    return Cell.make(cell.lengths, cell.angles,
                     [(el0, xyz0), (el1, np.add(xyz1, disp @ np.linalg.inv(cell.vectors())))])


# ---------------------------------------------------------------------------
# samples


@dataclass(frozen=True)
class TraceClaims:
    """What a trace states; orbit counts are left out when ``None``."""

    site_counts: dict[str, int]
    orbit_counts: dict[str, int] | None
    bonds: dict[tuple[str, str], float]
    volume: float

    def render(self) -> str:
        seg1 = ["First, consider the symmetry."]
        for el, n in self.site_counts.items():
            orbits = ""
            if self.orbit_counts is not None:
                k = self.orbit_counts[el]
                orbits = f" in {k} orbit" + ("" if k == 1 else "s")
            seg1.append(f"There are {n} {el} atom" + ("" if n == 1 else "s") + f"{orbits}.")
        seg2 = ["Second, consider the local environment."]
        seg2 += [f"All {a}-{b} bond lengths are {d:.2f} A." for (a, b), d in self.bonds.items()]
        seg3 = ["Third, consider the physical properties.",
                f"The cell volume is {self.volume:.2f} A^3."]
        return "\n".join(["Material Report", " ".join(seg1), " ".join(seg2), " ".join(seg3)])


@dataclass(frozen=True)
class Case:
    prompt_id: str
    prompt_text: str
    response_text: str
    expect: str                        # ok, missing_cif, parse_error, F1 or F2
    cell: Cell | None = None
    formula_target: str | None = None
    spacegroup_target: int | None = None
    spacegroup: int | None = None      # literature number for ok and F1 samples
    trace: TraceClaims | None = None
    cluster: str | None = None         # samples sharing a key are copies
    in_reference: bool = False

    def record(self) -> dict:
        return {"prompt_id": self.prompt_id, "prompt_text": self.prompt_text,
                "response_text": self.response_text}


@dataclass
class Workload:
    name: str
    cases: list[Case]
    worker_count: int
    relax: bool
    timeout_s: float = 30.0
    reference: list[Cell] = field(default_factory=list)

    def reference_text(self) -> str | None:
        if not self.reference:
            return None
        return "\n".join(c.render() for c in self.reference) + "\n"


def _prompt(formula: str | None, spacegroup: int | None) -> str:
    text = "Generate a crystal structure."
    if formula:
        text += f" The chemical formula is {formula}."
    if spacegroup is not None:
        text += f" The space-group number is {spacegroup}."
    return text


def _claims(cell: Cell, tables: oracles.Tables, orbits: dict[str, int] | None,
            rng, wrong: bool) -> TraceClaims:
    """A trace restating the cell at rendered precision; a wrong one
    misstates one count, one bond length and the volume."""
    counts = oracles.count_elements(cell.elements)
    bonds = oracles.neighbour_bonds(cell.vectors(), cell.frac(), cell.elements)
    volume = oracles.cell_volume(cell.vectors())
    if wrong:
        counts = dict(counts)
        el = sorted(counts)[int(rng.integers(len(counts)))]
        counts[el] += 1
        key = sorted(bonds)[int(rng.integers(len(bonds)))]
        bonds = dict(bonds)
        bonds[key] *= 1.0 + rng.uniform(0.03, 0.08)
        volume *= 1.0 + rng.uniform(0.02, 0.06)
    return TraceClaims(counts, orbits, {k: round(v, 2) for k, v in bonds.items()},
                       round(volume, 2))


def _sample(pid, cell: Cell, rng, tables, *, spacegroup, orbits=None, cluster=None,
            trace_share=0.0, formula_share=0.85, spacegroup_share=0.0) -> Case:
    """A well-formed sample; prompt constraints and trace are drawn by share.
    A wrong formula constraint names MgAl2O4, which no sample has."""
    formula = cell.formula()
    target = None
    if rng.random() < formula_share:
        target = formula if rng.random() < 0.85 else "MgAl2O4"
    sg_target = None
    if rng.random() < spacegroup_share:
        sg_target = spacegroup if rng.random() < 0.8 else int(rng.integers(1, 231))
    trace = None
    if rng.random() < trace_share:
        trace = _claims(cell, tables, orbits, rng, wrong=rng.random() < 0.3)
    response = (trace.render() + "\n" if trace else "") + cell.render()
    return Case(pid, _prompt(target, sg_target), response, "ok", cell, target,
                sg_target, spacegroup, trace, cluster or pid)


# Faults reproduced on every run with fixed inputs (see README).
def _fault_cases() -> list[Case]:
    x, y, z = 0.11, 0.23, 0.37
    i222 = [(x, y, z), (-x, -y, z), (-x, y, -z), (x, -y, -z)]
    i23 = [p for q in i222 for p in (q, (q[2], q[0], q[1]), (q[1], q[2], q[0]))]

    def body_centred(el, points):
        return [(el, p) for p in points] + [(el, np.add(p, 0.5)) for p in points]

    f1 = [("f1-i222", Cell.make((5.1, 6.3, 7.4), RIGHT, body_centred("Ti", i222)), 23),
          ("f1-i23", Cell.make((6.2, 6.2, 6.2), RIGHT, body_centred("Fe", i23)), 197)]
    cases = [Case(pid, _prompt(cell.formula(), sg), cell.render(), "F1", cell,
                  cell.formula(), sg, sg, None, pid) for pid, cell, sg in f1]
    # Non-finite coordinates; each formula is used by no other sample.
    for pid, formula, body in (
            ("f2-nan", "KF", "K 1 0.0 0.0 0.0\nF 1 nan 0.5 0.5"),
            ("f2-inf", "LiCl", "Li 1 0.0 0.0 0.0\nCl 1 0.5 inf 0.5")):
        response = f"<CIF>P1\n4.200000 4.200000 4.200000\n90.0000 90.0000 90.0000\n{body}</CIF>"
        cases.append(Case(pid, _prompt(formula, None), response, "F2"))
    return cases


def _malformed(pid: str, kind: int, cell: Cell) -> Case:
    text = cell.render()
    lines = text.split("\n")
    site = lines[3].split()
    if kind == 0:
        return Case(pid, _prompt(None, None), "Material Report\nNo structure given.",
                    "missing_cif")
    if kind == 1:
        return Case(pid, _prompt(None, None), "", "missing_cif")
    if kind == 2:
        lines[3] = " ".join(["Xx"] + site[1:])
    elif kind == 3:
        lines[3] = " ".join(site[:-1])
    elif kind == 4:
        lines[3] = " ".join(site[:-1] + [site[-1] + "x"])
    elif kind == 5:
        lines[0] = "<CIF>P2"
    elif kind == 6:
        lines.append(text)
    elif kind == 7:
        lines[-1] = lines[-1].replace("</CIF>", "")
    return Case(pid, _prompt(cell.formula(), None), "\n".join(lines), "parse_error")


def _scattered(lengths, angles, elements, rng, valid: bool) -> Cell:
    """Random positions, placed one at a time so that the closest pair
    ends up above 2.2 A (``valid``) or below 1.8 A."""
    while True:
        sites = []
        for el in elements:
            for _ in range(100):
                trial = Cell.make(lengths, angles, sites + [(el, rng.random(3))])
                d = oracles.min_pair_distance(trial.vectors(), trial.frac())
                if d > 2.2 or not valid:
                    sites = list(trial.sites)
                    break
            else:
                break
        else:
            d = oracles.min_pair_distance(trial.vectors(), trial.frac())
            if (d > 2.2) if valid else (d < 1.8):
                return trial


def screen(seed: int, tables: oracles.Tables) -> Workload:
    """Mixed generator batch: prototypes, origin-shifted copies, many
    same-formula P1 cells, traces, constraints, malformed responses.

    The seed moves lattice constants, coordinates and prompt wording but
    not how many samples take each path (gate passed or failed, traced,
    copied), so the work per batch hardly depends on it.
    """
    rng = np.random.default_rng(seed)
    protos = []
    for name, proto in PROTOTYPES.items():
        for elements in proto.nominal:
            # +-3 % keeps every prototype on one side of the 2 A gate.
            cell = prototype_cell(proto, elements, rng.uniform(0.97, 1.03))
            orbits = dict(zip(elements, proto.orbits))
            protos.append(_sample(f"{name}-{''.join(elements)}", cell, rng, tables,
                                  spacegroup=proto.spacegroup, orbits=orbits,
                                  trace_share=0.6 if cell.angles == RIGHT else 0.0,
                                  spacegroup_share=0.6))
    # Distinct P1 cells of one formula: each has its own sorted length
    # triple on a 7 % grid, so no two share a reduced cell. The roomier half
    # pass the distance gate with margin and the rest clearly fail it.
    grid = [4.0 * 1.07 ** k for k in range(7)]
    triples = [(a, b, c) for i, a in enumerate(grid) for j, b in enumerate(grid[i:], i)
               for c in grid[j:]]
    chosen = sorted((triples[k] for k in rng.choice(len(triples), size=30, replace=False)),
                    key=math.prod)
    lowsym = []
    for k, lengths in enumerate(chosen):
        angles = rng.uniform(84.0, 96.0, 3)
        cell = _scattered(rng.permutation(lengths), angles, ("Na", "Al", "O", "O"), rng,
                          valid=k >= len(chosen) // 2)
        lowsym.append(_sample(f"p1-{k}", cell, rng, tables, spacegroup=1))
    # Origin-shifted copies of three of each, and a reference set holding
    # copies of two prototypes plus two structures the batch lacks.
    sources = ([protos[i] for i in rng.choice(len(protos), size=3, replace=False)]
               + [lowsym[i] for i in rng.choice(len(lowsym), size=3, replace=False)])
    copies = [_sample(f"copy-{i}", orig.cell.shifted(rng.random(3)), rng, tables,
                      spacegroup=orig.spacegroup, cluster=orig.cluster)
              for i, orig in enumerate(sources)]
    in_ref = sorted(rng.choice(len(protos), size=2, replace=False))
    reference = [protos[i].cell.shifted(rng.random(3)) for i in in_ref]
    reference += [Cell.make(*PROTOTYPES["rock-salt"].build((4.03,), ("Li", "F"))),
                  Cell.make(*PROTOTYPES["cscl"].build((3.2,), ("Na", "F")))]
    refs = {protos[i].cluster for i in in_ref}
    malformed = [_malformed(f"bad-{k}", k, protos[i].cell)
                 for k, i in enumerate(rng.choice(len(protos), size=8))]
    # Each kind spread evenly through the batch, in the same order for every
    # seed, so the pool's chunks carry similar work whatever the seed.
    groups = (protos, lowsym, copies, malformed, _fault_cases())
    spread = sorted((k / len(g), gi, c) for gi, g in enumerate(groups)
                    for k, c in enumerate(g))
    cases = [replace(c, in_reference=True) if c.cluster in refs else c
             for _, _, c in spread]
    return Workload("screen", cases, worker_count=2, relax=False, reference=reference)


# Relaxation inputs, all inside the validity gate even after displacement.
# Each either converges in a few dozen steps or runs to the step cap.
RELAX_CELLS = (
    ("cscl", ("Cs", "Cl"), 1), ("cscl", ("Cs", "Cl"), 2), ("rock-salt", ("K", "Cl"), 1),
    ("diamond", ("Si",), 1), ("zinc-blende", ("Zn", "S"), 1), ("wurtzite", ("Zn", "S"), 1),
    ("perovskite", ("Cs", "Ca", "F"), 1),
)


def relax(seed: int, tables: oracles.Tables) -> Workload:
    """Small cells (2 to 16 atoms) a few hundredths of an angstrom off
    their symmetric positions.

    Each cell's displacement is fixed (drawn from a generator of its own),
    because the number of descent steps swings with it; the seed moves each
    cell's origin and the order of its sites, which leave the descent the
    same, so every seed asks for the same relaxation work.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for k, (name, elements, n) in enumerate(RELAX_CELLS):
        fixed = np.random.default_rng(k)
        cell = supercell(prototype_cell(PROTOTYPES[name], elements), n)
        cell = displaced_pair(cell, fixed) if len(cell.sites) == 2 else jittered(cell, fixed, 0.03)
        cell = cell.shifted(rng.random(3))
        cell = Cell.make(cell.lengths, cell.angles,
                         [cell.sites[i] for i in rng.permutation(len(cell.sites))])
        cases.append(_sample(f"{name}-{''.join(elements)}-{len(cell.sites)}", cell, rng,
                             tables, spacegroup=1, formula_share=1.0))
    return Workload("relax", cases, worker_count=1, relax=True, timeout_s=600.0)


LARGE_CELLS = (
    ("rock-salt", ("Na", "Cl"), 2), ("rock-salt", ("K", "Cl"), 2),
    ("rock-salt", ("Ca", "O"), 2), ("diamond", ("Si",), 2),
    ("rock-salt", ("Na", "Cl"), 3), ("rock-salt", ("Ca", "O"), 3),
)


def large_cells(seed: int, tables: oracles.Tables) -> Workload:
    """Jittered 64- and 216-atom supercells, traces on half of them."""
    rng = np.random.default_rng(seed)
    cases = []
    for k, (name, elements, n) in enumerate(LARGE_CELLS):
        proto = PROTOTYPES[name]
        cell = jittered(supercell(prototype_cell(proto, elements, rng.uniform(0.98, 1.02)),
                                  n), rng, 0.03)
        cases.append(_sample(f"{name}-{''.join(elements)}-{len(cell.sites)}", cell, rng,
                             tables, spacegroup=1, formula_share=1.0,
                             trace_share=1.0 if k % 2 == 0 else 0.0))
    return Workload("large-cells", cases, worker_count=1, relax=False)


WORKLOADS = {"screen": screen, "relax": relax, "large-cells": large_cells}
