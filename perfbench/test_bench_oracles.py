"""Fast checks of the benchmark's own oracles, generators and span maths.

Run with ``python3 -m pytest -q perfbench``; the repository's test command
collects them too.
"""

import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DATA = Path(__file__).resolve().parent.parent / "src" / "crysalign" / "data"


@pytest.fixture(scope="module")
def tables():
    return oracles.Tables.load(DATA)


def _cell(proto, elements, scale=1.0):
    return workloads.prototype_cell(workloads.PROTOTYPES[proto], elements, scale)


def test_cell_vectors_reproduce_lengths_and_angles():
    m = oracles.cell_vectors(3.0, 4.0, 5.0, 80.0, 95.0, 110.0)
    lengths = np.linalg.norm(m, axis=1)
    assert np.allclose(lengths, (3.0, 4.0, 5.0))
    cos = [m[1] @ m[2] / 20.0, m[0] @ m[2] / 15.0, m[0] @ m[1] / 12.0]
    assert np.allclose(np.degrees(np.arccos(cos)), (80.0, 95.0, 110.0))


def test_min_distance_of_known_cells():
    rs = _cell("rock-salt", ("Na", "Cl"))
    assert oracles.min_pair_distance(rs.vectors(), rs.frac()) == pytest.approx(5.64 / 2)
    cscl = _cell("cscl", ("Cs", "Cl"))
    assert oracles.min_pair_distance(cscl.vectors(), cscl.frac()) == pytest.approx(
        4.12 * math.sqrt(3) / 2)


def test_min_distance_reaches_beyond_the_first_shell():
    # b - a is the shortest lattice vector of this sheared cell, 1.005 A long;
    # a search over neighbouring images only finds the self-image at 5 A.
    b = math.hypot(4.9, 1.0)
    gamma = math.degrees(math.acos(4.9 / b))
    m = oracles.cell_vectors(5.0, b, 6.0, 90.0, 90.0, gamma)
    assert oracles.min_pair_distance(m, np.zeros((1, 3))) == pytest.approx(math.hypot(0.1, 1.0))


def test_lj_sum_of_simple_cubic_matches_hand_count(tables):
    eps, sig = tables.lj["Cu"]

    def phi(r):
        return 4 * eps * ((sig / r) ** 12 - (sig / r) ** 6)

    shifted = [phi(r) - phi(oracles.LJ_CUTOFF) for r in (4.0, 4.0 * math.sqrt(2))]
    # 6 neighbours at a, 12 at a*sqrt(2); a*sqrt(3) lies beyond the cutoff.
    want = 0.5 * (6 * shifted[0] + 12 * shifted[1])
    m = oracles.cell_vectors(4.0, 4.0, 4.0, 90, 90, 90)
    got = oracles.lj_energy_per_atom(tables, m, np.zeros((1, 3)), ("Cu",))
    assert got == pytest.approx(want, abs=1e-12)


def test_lj_sum_is_translation_and_supercell_invariant(tables):
    cell = _cell("rock-salt", ("K", "Cl"))
    e = oracles.lj_energy_per_atom(tables, cell.vectors(), cell.frac(), cell.elements)
    moved = cell.shifted((0.13, 0.71, 0.29))
    big = workloads.supercell(cell, 2)
    for other in (moved, big):
        assert oracles.lj_energy_per_atom(tables, other.vectors(), other.frac(),
                                          other.elements) == pytest.approx(e, abs=1e-10)


def test_hull_by_enumeration(tables):
    assert oracles.hull_energy(tables, {"Cu": 4}) == 0.0
    assert oracles.hull_energy(tables, {"Na": 1, "Cl": 1}) == pytest.approx(-2.10)
    # Na3Cl: half NaCl and half Na by atom fraction.
    assert oracles.hull_energy(tables, {"Na": 3, "Cl": 1}) == pytest.approx(-1.05)
    # CaCO3 sits on its own ternary entry, below CaO + CO2.
    assert oracles.hull_energy(tables, {"Ca": 1, "C": 1, "O": 3}) == pytest.approx(-2.69)


def test_close_packed_elements_at_the_potential_minimum_are_stable(tables):
    for proto, el in (("fcc", "Cu"), ("fcc", "Al"), ("hcp", "Mg"), ("hcp", "Zn")):
        cell = _cell(proto, (el,))
        assert oracles.e_hull(tables, cell.vectors(), cell.frac(), cell.elements) == 0.0


def test_charge_neutrality_by_brute_force(tables):
    assert oracles.charge_neutral(tables, {"Na": 1, "Cl": 1})
    assert oracles.charge_neutral(tables, {"Ca": 2, "C": 2, "O": 6})
    assert oracles.charge_neutral(tables, {"Fe": 2, "O": 3})
    assert not oracles.charge_neutral(tables, {"Na": 1, "Cl": 2})
    assert not oracles.charge_neutral(tables, {"Ti": 8})
    assert not oracles.charge_neutral(tables, {"He": 1})


def test_combined_reward_closed_form():
    assert oracles.combined_reward(True, True, False, 0.0) == 2.0
    assert oracles.combined_reward(True, True, True, None) == 3.0
    assert oracles.combined_reward(True, True, True, 0.0) == 13.0
    assert oracles.combined_reward(True, True, True, 0.5) == pytest.approx(3 + 7.5)
    assert oracles.combined_reward(True, True, True, 2.0) == pytest.approx(3 + 2.5)


def test_neighbour_bonds_of_known_cells():
    rs = _cell("rock-salt", ("Na", "Cl"), 1.02)
    assert oracles.neighbour_bonds(rs.vectors(), rs.frac(), rs.elements) == {
        ("Cl", "Na"): pytest.approx(5.64 * 1.02 / 2)}
    cscl = _cell("cscl", ("Cs", "Cl"))
    assert oracles.neighbour_bonds(cscl.vectors(), cscl.frac(), cscl.elements) == {
        ("Cl", "Cs"): pytest.approx(4.12 * math.sqrt(3) / 2)}


def test_formulas():
    assert oracles.reduced_formula(oracles.parse_formula("Ca2C2O6")) == "CCaO3"
    assert oracles.reduced_formula({"Ti": 8}) == "Ti"


def test_fault_cells_are_closed_under_their_standard_operations():
    """The F1 orbits are built from hand-written standard-setting
    operations of I222 (No. 23) and I23 (No. 197)."""
    cases = {c.prompt_id: c for c in workloads._fault_cases()}
    i222 = [lambda p: p, lambda p: (-p[0], -p[1], p[2]),
            lambda p: (-p[0], p[1], -p[2]), lambda p: (p[0], -p[1], -p[2])]
    i23 = [lambda p, op=op, k=k: op(p[k:] + p[:k]) for op in i222 for k in range(3)]
    for pid, ops in (("f1-i222", i222), ("f1-i23", i23)):
        points = np.array([xyz for _, xyz in cases[pid].cell.sites])
        for op, centre in itertools.product(ops, (0.0, 0.5)):
            image = (np.array([op(tuple(p)) for p in points]) + centre) % 1.0
            d = np.abs(image[:, None, :] - points[None, :, :])
            assert np.all(np.min(np.max(np.minimum(d, 1 - d), axis=2), axis=1) < 1e-7)


def test_displaced_pair_leaves_no_cubic_mirror():
    """The relative displacement, as rendered, has nonzero components of
    pairwise distinct size, so no {100} or {110} mirror fixes it."""
    base = _cell("cscl", ("Cs", "Cl"))
    for seed in range(50):
        cell = workloads.displaced_pair(base, np.random.default_rng(seed))
        frac = cell.frac()
        rel = (frac[1] - frac[0]) % 1.0 - 0.5
        size = np.sort(np.abs(rel @ cell.vectors()))
        assert size[0] > 0.014 and np.all(np.diff(size) > 0.009)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_are_seeded(tables, name):
    make = workloads.WORKLOADS[name]
    a, b, c = make(3, tables), make(3, tables), make(4, tables)
    assert [x.record() for x in a.cases] == [x.record() for x in b.cases]
    assert [x.record() for x in a.cases] != [x.record() for x in c.cases]


def test_screen_makeup_is_fixed(tables):
    for seed in (1, 2):
        wl = workloads.screen(seed, tables)
        kinds = [c.expect for c in wl.cases]
        assert kinds.count("F1") == 2 and kinds.count("F2") == 2
        assert kinds.count("missing_cif") + kinds.count("parse_error") == 8
        faults = sorted((c.prompt_id, c.response_text) for c in wl.cases
                        if c.expect in ("F1", "F2"))
        assert faults == sorted((c.prompt_id, c.response_text)
                                for c in workloads._fault_cases())
        copies = [c for c in wl.cases if c.prompt_id.startswith("copy-")]
        assert len(copies) == 6
        assert all(sum(x.cluster == c.cluster for x in wl.cases) == 2 for c in copies)


def test_program_parses_the_cells_the_oracles_see(tables):
    ciflite = pytest.importorskip("crysalign.ciflite")
    wl = workloads.screen(5, tables)
    for case in wl.cases:
        if case.expect != "ok":
            continue
        s = ciflite.parse_ciflite(case.response_text)
        assert s.lattice.lengths == case.cell.lengths
        assert s.lattice.angles == case.cell.angles
        assert [(x.element, x.frac_coords) for x in s.sites] == list(case.cell.sites)


def test_span_self_times_and_layers():
    spans = [
        ["harness.run_evaluation", 0.0, 10.0, -1, False],
        ["validity.build_report", 1.0, 3.0, 0, False],
        ["symmetry.detect_spacegroup", 3.0, 7.0, 0, True],
        ["symmetry.signature_index", 3.5, 5.5, 2, False],
        ["harness.emit_report", 10.0, 11.0, -1, False],
    ]
    assert tracing.self_times(spans) == [4.0, 2.0, 2.0, 2.0, 1.0]
    layers = tracing.layer_summary(spans, 0, len(spans))
    assert layers["harness.self_s"] == 4.0
    assert layers["symmetry.detect_s"] == 2.0
    assert layers["symmetry.signature_index_s"] == 2.0
    assert layers["symmetry.detect_errors"] == 1
    assert tracing.covered(spans, 0, len(spans)) == 2.0 + 4.0 + 1.0
