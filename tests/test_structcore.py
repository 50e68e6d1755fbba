import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crysalign.structcore import (
    Composition,
    CrystalStructure,
    GeometryError,
    Lattice,
    Site,
    all_pair_min_distance,
    cell_matrix,
    min_image_distance,
    niggli_reduce,
    reduced_formula,
)


def _try_lattice(params):
    try:
        return Lattice(*params)
    except GeometryError:
        return None


def lattice_strategy():
    length = st.floats(2.0, 15.0)
    angle = st.floats(50.0, 130.0)
    cells = st.tuples(length, length, length, angle, angle, angle)
    return cells.map(_try_lattice).filter(lambda lat: lat is not None)


class TestLattice:
    def test_cubic_volume(self):
        lat = Lattice(5.64, 5.64, 5.64, 90, 90, 90)
        assert lat.volume() == pytest.approx(5.64 ** 3, rel=1e-12)

    def test_hexagonal_volume(self):
        lat = Lattice(3.0, 3.0, 5.0, 90, 90, 120)
        expected = 3.0 * 3.0 * 5.0 * math.sin(math.radians(120))
        assert lat.volume() == pytest.approx(expected, rel=1e-12)

    def test_degenerate_angles_rejected(self):
        # alpha + beta + gamma over 360 has no real cell.
        with pytest.raises(GeometryError):
            Lattice(3, 3, 3, 130, 130, 130)

    def test_nonpositive_length_rejected(self):
        with pytest.raises(GeometryError):
            Lattice(0.0, 3, 3, 90, 90, 90)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_parameters_rejected(self, bad):
        for k in range(6):
            params = [3.0, 3.0, 3.0, 90.0, 90.0, 90.0]
            params[k] = bad
            with pytest.raises(GeometryError):
                Lattice(*params)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_site_rejected(self, bad):
        with pytest.raises(GeometryError):
            Site("Na", (0.0, bad, 0.5))

    def test_cell_matrix_row_lengths(self):
        lat = Lattice(4.0, 5.0, 6.0, 80, 95, 100)
        m = cell_matrix(lat)
        assert np.linalg.norm(m[0]) == pytest.approx(4.0, rel=1e-10)
        assert np.linalg.norm(m[1]) == pytest.approx(5.0, rel=1e-10)
        assert np.linalg.norm(m[2]) == pytest.approx(6.0, rel=1e-10)

    def test_cell_matrix_angles(self):
        lat = Lattice(4.0, 5.0, 6.0, 80, 95, 100)
        m = cell_matrix(lat)
        cos_alpha = m[1] @ m[2] / (5.0 * 6.0)
        assert math.degrees(math.acos(cos_alpha)) == pytest.approx(80, abs=1e-8)


class TestDistances:
    def test_rocksalt_nearest_neighbor(self, rocksalt):
        # Na-Cl contact along a cell edge half-diagonal: a/2.
        d = min_image_distance(rocksalt, 0, 5)
        assert d == pytest.approx(5.64 / 2, rel=1e-10)

    def test_all_pair_min(self, rocksalt):
        assert all_pair_min_distance(rocksalt) == pytest.approx(2.82, rel=1e-10)

    def test_min_image_uses_periodic_copy(self):
        s = CrystalStructure(
            Lattice(10, 10, 10, 90, 90, 90),
            (Site("Na", (0.05, 0.0, 0.0)), Site("Cl", (0.95, 0.0, 0.0))))
        assert min_image_distance(s, 0, 1) == pytest.approx(1.0, rel=1e-10)


class TestNiggli:
    def test_idempotent(self):
        lat = Lattice(4.0, 6.0, 5.0, 70, 100, 85)
        red = niggli_reduce(lat)
        red2 = niggli_reduce(red)
        assert red.lengths == pytest.approx(red2.lengths, rel=1e-8)
        assert red.angles == pytest.approx(red2.angles, abs=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(lattice_strategy())
    def test_volume_preserved(self, lat):
        red = niggli_reduce(lat)
        assert red.volume() == pytest.approx(lat.volume(), rel=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(lattice_strategy())
    def test_sorted_lengths(self, lat):
        red = niggli_reduce(lat)
        a, b, c = red.lengths
        assert a <= b * (1 + 1e-8) and b <= c * (1 + 1e-8)

    def test_equivalent_cells_reduce_identically(self):
        # The same fcc lattice described by two different primitive choices.
        lat1 = Lattice(3.99, 3.99, 3.99, 60, 60, 60)
        m = cell_matrix(lat1)
        m2 = np.array([m[0], m[1], m[2] + m[0]])
        lengths = np.linalg.norm(m2, axis=1)
        cos = lambda i, j: m2[i] @ m2[j] / (lengths[i] * lengths[j])
        lat2 = Lattice(*lengths,
                       math.degrees(math.acos(cos(1, 2))),
                       math.degrees(math.acos(cos(0, 2))),
                       math.degrees(math.acos(cos(0, 1))))
        r1, r2 = niggli_reduce(lat1), niggli_reduce(lat2)
        assert r1.lengths == pytest.approx(r2.lengths, rel=1e-8)
        assert r1.angles == pytest.approx(r2.angles, abs=1e-6)


class TestComposition:
    def test_from_formula(self):
        c = Composition.from_formula("CaCO3")
        assert c.counts == {"Ca": 1, "C": 1, "O": 3}

    def test_reduced_formula_collapses_multiples(self):
        assert reduced_formula(Composition({"Na": 4, "Cl": 4})) == \
            reduced_formula(Composition({"Na": 1, "Cl": 1}))

    def test_bad_symbol_rejected(self):
        with pytest.raises(ValueError):
            Composition.from_formula("Xx2O")


class TestStructure:
    def test_num_sites_and_composition(self, rocksalt):
        assert rocksalt.num_sites == 8
        assert rocksalt.composition().counts == {"Na": 4, "Cl": 4}

    def test_frac_coords_wrapped(self):
        s = CrystalStructure(
            Lattice(4, 4, 4, 90, 90, 90),
            (Site("Na", (1.25, -0.25, 2.0)),))
        x, y, z = s.sites[0].frac_coords
        assert (x, y, z) == pytest.approx((0.25, 0.75, 0.0), abs=1e-12)
