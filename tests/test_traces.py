import itertools
from collections import Counter

import numpy as np
import pytest

from crysalign.ciflite import PromptConstraints
from crysalign.structcore import CrystalStructure, Lattice, Site
from crysalign.symmetry import detect_spacegroup
from crysalign.traces import (
    TraceRecord,
    band_gap_class,
    bond_statistics,
    parse_trace,
    synthesize_trace,
    trace_consistency,
)
from crysalign.validity import find_oxidation_assignment

from conftest import make_structure, seeded_skewed_cells


@pytest.fixture(scope="module")
def calcite_sym(calcite):
    return detect_spacegroup(calcite)


@pytest.fixture(scope="module")
def calcite_trace(calcite, calcite_sym, oxidation_table):
    oxi = find_oxidation_assignment(calcite.composition(), oxidation_table)
    props = PromptConstraints(band_gap=4.9995, e_hull_target=0.0,
                              formation_energy_per_atom=-2.5)
    return synthesize_trace(calcite, props, calcite_sym, oxi)


class TestBandGapClass:
    def test_thresholds(self):
        assert band_gap_class(0.0) == "metal"
        assert band_gap_class(0.049) == "metal"
        assert band_gap_class(0.05) == "semiconductor"
        assert band_gap_class(2.999) == "semiconductor"
        assert band_gap_class(3.0) == "insulator"
        assert band_gap_class(4.9995) == "insulator"


class TestBondStatistics:
    def test_calcite_bonds(self, calcite):
        coordination, bonds = bond_statistics(calcite)
        assert bonds[("C", "O")] == pytest.approx(1.28, abs=0.02)
        assert coordination["C"][1] == 3

    def test_rocksalt_octahedral(self, rocksalt):
        coordination, bonds = bond_statistics(rocksalt)
        neighbor, n, label = coordination["Na"]
        assert (neighbor, n, label) == ("Cl", 6, "octahedral")
        assert bonds[("Cl", "Na")] == pytest.approx(2.82, abs=1e-9)


def _brute_bond_statistics(s, factor=1.1):
    """``bond_statistics`` by a full search over a wide cube of images."""
    m = s.lattice.matrix()
    cart = s.frac_array() @ m
    elems = s.elements()
    # Every shell lies within factor * (shortest cell edge) of its site, so
    # it lies inside this many perpendicular widths, plus one for the
    # position inside the cell.
    widths = abs(np.linalg.det(m)) / np.linalg.norm(
        np.cross(m[[1, 2, 0]], m[[2, 0, 1]]), axis=1)
    reach = int(np.ceil(factor * min(s.lattice.lengths) / widths.min())) + 2
    shifts = np.array(list(itertools.product(range(-reach, reach + 1), repeat=3))) @ m
    coordination, pooled = {}, {}
    for i, el in enumerate(elems):
        d = np.linalg.norm(cart[None, :, :] + shifts[:, None, :] - cart[i], axis=-1)
        nearest = d[d > 1e-9].min()
        _, js = np.nonzero((d > 1e-9) & (d <= nearest * factor + 1e-9))
        for j, dist in zip(js, d[(d > 1e-9) & (d <= nearest * factor + 1e-9)]):
            pooled.setdefault(tuple(sorted((el, elems[j]))), []).append(dist)
        if el not in coordination:
            counts = Counter(elems[j] for j in js)
            main = min(counts, key=lambda e: (-counts[e], e))
            coordination[el] = (main, len(js))
    return coordination, {k: float(np.mean(v)) for k, v in pooled.items()}


def _shell_oracle_cells():
    yield from seeded_skewed_cells()
    # A one-site cell where a fixed 2-shell image range finds four images at
    # 2.31 A and misses the two at 1.16 A.
    yield CrystalStructure(Lattice(2.24, 3.44, 7.93, 78.9, 36.2, 43.4),
                           (Site("Na", (0.0, 0.0, 0.0)),))
    # A 1 A cube of Na and one Cl far from it: the Cl shell lies beyond the
    # first search radius (cell edge 10 A), or holds no site at all inside
    # it (edge 14 A), so the search must widen.
    for edge in (10.0, 14.0):
        corners = [("Na", tuple(1.0 / edge * np.array(x)))
                   for x in itertools.product((0, 1), repeat=3)]
        yield make_structure((edge, edge, edge, 90, 90, 90),
                             corners + [("Cl", (0.5, 0.5, 0.5))])
    rocksalt = [("Na", (0, 0, 0)), ("Na", (0.5, 0.5, 0)), ("Na", (0.5, 0, 0.5)),
                ("Na", (0, 0.5, 0.5)), ("Cl", (0.5, 0.5, 0.5)), ("Cl", (0, 0, 0.5)),
                ("Cl", (0, 0.5, 0)), ("Cl", (0.5, 0, 0))]
    yield make_structure((5.64, 5.64, 5.64, 90, 90, 90), rocksalt)
    rng = np.random.default_rng(3)
    yield make_structure(
        (11.28, 11.28, 11.28, 90, 90, 90),
        [(el, (np.array(x) + n) / 2 + rng.normal(0, 0.004, 3))
         for n in itertools.product((0, 1), repeat=3) for el, x in rocksalt])
    yield make_structure(
        (9.1, 8.3, 10.2, 77, 101, 95),
        [(rng.choice(["Na", "Cl", "K"]), rng.random(3)) for _ in range(30)])


class TestBondStatisticsOracle:
    def test_matches_brute_force_shells(self):
        cells = list(_shell_oracle_cells())
        assert len(cells) == 46 and cells[-2].num_sites == 64
        for s in cells:
            want_coordination, want_bonds = _brute_bond_statistics(s)
            coordination, bonds = bond_statistics(s)
            assert {el: c[:2] for el, c in coordination.items()} == want_coordination
            assert bonds.keys() == want_bonds.keys()
            for pair, mean in want_bonds.items():
                assert bonds[pair] == pytest.approx(mean, rel=1e-12, abs=0)


class TestSynthesize:
    def test_segment_one_contents(self, calcite_trace):
        record, text = calcite_trace
        assert "space group R-3c (id 167)" in text
        squeezed = text.replace(" ", "")
        for term in ("2*(+2)", "2*(+4)", "6*(-2)", "=0"):
            assert term in squeezed

    def test_insulator_sentence(self, calcite_trace):
        _, text = calcite_trace
        assert "insulator" in text

    def test_validity_sentence_verbatim(self, calcite_trace):
        _, text = calcite_trace
        assert ("All bond lengths are greater than 0.5 and the cell volume "
                "is larger than 0.1, so the structure is valid.") in text

    def test_metal_sentence(self, rocksalt, oxidation_table):
        sym = detect_spacegroup(rocksalt)
        oxi = find_oxidation_assignment(rocksalt.composition(),
                                        oxidation_table)
        _, text = synthesize_trace(
            rocksalt, PromptConstraints(band_gap=0.0), sym, oxi)
        assert "metal" in text

    def test_missing_oxidation_flagged(self, rocksalt):
        sym = detect_spacegroup(rocksalt)
        record, text = synthesize_trace(rocksalt, PromptConstraints(),
                                        sym, None)
        assert "no_oxidation_assignment" in record.flags
        assert "=0" not in text

    def test_deterministic(self, calcite, calcite_sym, oxidation_table):
        oxi = find_oxidation_assignment(calcite.composition(),
                                        oxidation_table)
        props = PromptConstraints(band_gap=1.0)
        _, a = synthesize_trace(calcite, props, calcite_sym, oxi)
        _, b = synthesize_trace(calcite, props, calcite_sym, oxi)
        assert a == b


class TestParse:
    def test_round_trip_fields(self, calcite_trace):
        record, text = calcite_trace
        parsed = parse_trace(text)
        assert parsed.spacegroup_number == 167
        assert parsed.volume == pytest.approx(122.95, abs=0.01)
        assert parsed.band_gap == pytest.approx(4.9995)
        assert parsed.bond_lengths[("C", "O")] == pytest.approx(1.29, abs=0.01)
        assert parsed.bond_lengths[("Ca", "O")] == pytest.approx(2.36, abs=0.01)
        assert parsed.site_counts == record.site_counts

    def test_garbage_gives_empty_record(self):
        parsed = parse_trace("nothing structured here at all")
        assert parsed.spacegroup_number is None
        assert parsed.volume is None
        assert not parsed.bond_lengths

    def test_partial_trace(self, calcite_trace):
        _, text = calcite_trace
        # Drop the coordination segment; bond fields become absent.
        lines = [ln for ln in text.splitlines()
                 if not ln.startswith("Second, consider")]
        parsed = parse_trace("\n".join(lines))
        assert not parsed.bond_lengths
        assert parsed.volume is not None


class TestRecordValidation:
    def test_unbalanced_equation_rejected(self):
        with pytest.raises(ValueError):
            TraceRecord(site_counts={"Na": 1, "Cl": 1},
                        oxidation_states={"Na": 1, "Cl": 1},
                        charge_equation="1*(+1)+1*(+1)=0")

    def test_equation_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TraceRecord(site_counts={"Na": 2, "Cl": 2},
                        oxidation_states={"Na": 1, "Cl": -1},
                        charge_equation="1*(+1)+1*(-1)=0")


class TestConsistency:
    def test_self_consistency_exact(self, calcite, calcite_sym, calcite_trace):
        record, text = calcite_trace
        result = trace_consistency(parse_trace(text), calcite, calcite_sym)
        assert result.site_match
        assert result.volume_rel_diff <= 1e-6
        assert result.bond_rel_diff <= 1e-6

    def test_wrong_volume_detected(self, calcite, calcite_sym, calcite_trace):
        _, text = calcite_trace
        parsed = parse_trace(text.replace("122.95", "150.00"))
        result = trace_consistency(parsed, calcite, calcite_sym)
        assert result.volume_rel_diff > 0.1

    def test_wrong_orbits_detected(self, calcite, calcite_sym, calcite_trace):
        record, _ = calcite_trace
        from dataclasses import replace
        wrong = replace(record, orbit_counts={"Ca": 2, "C": 2, "O": 2})
        result = trace_consistency(wrong, calcite, calcite_sym)
        assert not result.site_match
