import itertools
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crysalign import structcore
from crysalign.structcore import (
    FLAT_CELL_RATIO,
    Composition,
    CrystalStructure,
    GeometryError,
    Lattice,
    Site,
    all_pair_min_distance,
    cell_matrix,
    neighbour_pairs,
    niggli_reduce,
    reduced_basis,
    reduced_formula,
)

from conftest import seeded_skewed_cells


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

    def test_numerically_flat_cell_rejected(self):
        # V/(abc) = 1.3e-8: the angle discriminant is 1.7e-16, so the volume
        # is rounding noise and the Niggli cell comes out 4 % off in volume.
        params = (2, 2, 2, 101, 129, 130)
        with pytest.raises(GeometryError):
            Lattice(*params)
        # The bound is on V/(abc) alone: the same angles at any lengths.
        with pytest.raises(GeometryError):
            Lattice(20, 3, 7, 101, 129, 130)
        # V/(abc) = 8.2e-3 stays accepted.
        lat = Lattice(10, 10, 10, 119.999, 119.999, 119.999)
        assert lat.volume() / 1000 > FLAT_CELL_RATIO

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
    def test_all_pair_min(self, rocksalt):
        assert all_pair_min_distance(rocksalt) == pytest.approx(2.82, rel=1e-10)

    def test_min_image_uses_periodic_copy(self):
        s = CrystalStructure(
            Lattice(10, 10, 10, 90, 90, 90),
            (Site("Na", (0.05, 0.0, 0.0)), Site("Cl", (0.95, 0.0, 0.0))))
        assert all_pair_min_distance(s) == pytest.approx(1.0, rel=1e-10)

    def test_min_distance_of_seeded_skewed_cells(self):
        """Random cells inside the validity thresholds, against a brute force.

        Among these 40 cells, a fixed image shell chosen by angle overestimates
        the minimum of two, by up to 1.97x.
        """
        for s in seeded_skewed_cells():
            want = _brute_min_distance(s)
            assert all_pair_min_distance(s) == pytest.approx(want, rel=1e-9)

    def test_nearly_flat_cell_stays_small(self):
        # Long, nearly coplanar cell vectors: one lattice vector, a + b + c,
        # is 0.095 A long. Over the given basis the image range out to a
        # pair-potential radius of 6.5 A would hold millions of shifts;
        # over the reduced basis it holds a few thousand.
        s = CrystalStructure(
            Lattice(10, 10, 10, 119.999, 119.999, 119.999),
            (Site("Na", (0.0, 0.0, 0.0)), Site("Cl", (0.5, 0.5, 0.5))))
        m = s.lattice.matrix()
        basis = reduced_basis(m) @ m
        short = np.linalg.norm(basis, axis=1).min()
        assert short == pytest.approx(np.linalg.norm(m.sum(axis=0)), rel=1e-9)

        def shifts(cell):
            reach = 6.5 * np.linalg.norm(np.linalg.inv(cell), axis=0)
            return np.prod(2 * np.ceil(reach) + 3)

        assert shifts(m) > 1e6
        assert shifts(basis) < 5000
        assert all_pair_min_distance(s) == pytest.approx(short / 2, rel=1e-9)

    def test_min_distance_of_a_large_random_cell(self):
        s = _random_nacl(2000, seed=11)
        assert all_pair_min_distance(s) == pytest.approx(_chunked_min_distance(s), rel=1e-12)

    def test_min_distance_at_the_packing_bound(self):
        """fcc spacing a / sqrt(2) is the packing bound itself: in the
        primitive cell it is also the shortest lattice vector, in the
        4-site conventional cell the bound alone sets the search radius."""
        a = 4.05
        primitive = CrystalStructure(Lattice(*[a / math.sqrt(2)] * 3, 60, 60, 60),
                                     (Site("Al", (0.0, 0.0, 0.0)),))
        conventional = CrystalStructure(Lattice(a, a, a, 90, 90, 90), tuple(
            Site("Al", f) for f in ((0, 0, 0), (0, 0.5, 0.5), (0.5, 0, 0.5), (0.5, 0.5, 0))))
        for s in (primitive, conventional):
            assert all_pair_min_distance(s) == pytest.approx(a / math.sqrt(2), rel=1e-12)

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmRSS and VmHWM")
    def test_min_distance_memory_is_not_quadratic(self):
        here = Path(__file__).resolve().parent
        done = subprocess.run([sys.executable, "-c", _MIN_DISTANCE_PEAK,
                               str(here.parent / "src"), str(here)],
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) < 100.0


def _random_nacl(n, seed):
    """n random Na/Cl sites in a cube of 20 A^3 per site."""
    rng = np.random.default_rng(seed)
    a = (20.0 * n) ** (1.0 / 3.0)
    return CrystalStructure(Lattice(a, a, a, 90, 90, 90), tuple(
        Site("Na" if k % 2 else "Cl", tuple(f)) for k, f in enumerate(rng.random((n, 3)).tolist())))


def _chunked_min_distance(s, chunk=200):
    """Minimum-image distance over every pair of an orthogonal cell, a block
    of rows at a time, and the shortest self-image."""
    m = s.lattice.matrix()
    frac = s.frac_array()
    best = min(s.lattice.lengths)
    for lo in range(0, len(frac), chunk):
        d = frac[None, :, :] - frac[lo:lo + chunk, None, :]
        d -= np.round(d)
        norm = np.linalg.norm(d @ m, axis=-1)
        norm[np.arange(len(norm)), lo + np.arange(len(norm))] = math.inf
        best = min(best, float(norm.min()))
    return best


# Peak-RSS rise, in MB, of the minimum distance of a 2,000-site random cell.
# Address space is capped 1 GiB above the warm process, so a search that
# grows with n * n fails here instead of taking the machine's memory.
_MIN_DISTANCE_PEAK = """
import resource, sys
sys.path[:0] = sys.argv[1:3]
from crysalign.structcore import CrystalStructure, Lattice, Site, all_pair_min_distance
from test_structcore import _random_nacl

def status_kb(key):
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith(key + ":"))

s = _random_nacl(2000, seed=11)
all_pair_min_distance(CrystalStructure(Lattice(4, 4, 4, 90, 90, 90), (Site("Na", (0, 0, 0)),)))
cap = status_kb("VmSize") * 1024 + 2**30
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard))
before = status_kb("VmRSS")
all_pair_min_distance(s)
print((status_kb("VmHWM") - before) / 1024)
"""


def _brute_min_distance(s):
    """Minimum over every image shift that a perpendicular-width bound allows."""
    m = s.lattice.matrix()
    cart = s.frac_array() @ m
    widths = abs(np.linalg.det(m)) / np.linalg.norm(
        np.cross(m[[1, 2, 0]], m[[2, 0, 1]]), axis=1)
    reach = np.ceil(min(s.lattice.lengths) / widths).astype(int) + 1
    best = math.inf
    for n in itertools.product(*(range(-r, r + 1) for r in reach)):
        d = np.linalg.norm(cart[None, :, :] - cart[:, None, :] + np.array(n) @ m, axis=-1)
        d = d[d > 1e-12]
        if d.size:
            best = min(best, float(d.min()))
    return best


class TestNeighbourPairs:
    # A one-float chunk bound puts every site in a chunk of its own.
    @pytest.mark.parametrize("chunk", [structcore.CHUNK, 1])
    def test_pairs_match_brute_force_for_positions_outside_the_cell(self, monkeypatch, chunk):
        monkeypatch.setattr(structcore, "CHUNK", chunk)
        rng = np.random.default_rng(5)
        lattice = Lattice(4.2, 5.1, 6.3, 70, 105, 80)
        m = lattice.matrix()
        cart = rng.uniform(-1.5, 2.5, size=(5, 3)) @ m
        radius = 6.0
        i, j, offset = neighbour_pairs(lattice, cart, radius)
        got = sorted(
            (a, b, *np.round(np.linalg.solve(m.T, o)).astype(int))
            for a, b, o in zip(i.tolist(), j.tolist(), offset))
        want = []
        for a, b in itertools.product(range(5), repeat=2):
            for n in itertools.product(range(-8, 9), repeat=3):
                if np.linalg.norm(cart[b] + np.array(n) @ m - cart[a]) <= radius:
                    want.append((a, b, *n))
        assert got == sorted(want)
        # offsets are lattice vectors to rounding
        frac = np.linalg.solve(m.T, offset.T).T
        assert np.abs(frac - np.round(frac)).max() < 1e-9

    def test_rows_run_by_site_then_image_then_partner(self):
        """Rows come by i, then by the integer shift of j's image in the
        reduced basis (counted from the cell that holds j, compared
        lexicographically), then by j."""
        rng = np.random.default_rng(8)
        lattice = Lattice(4.2, 5.1, 6.3, 70, 105, 80)
        inv = np.linalg.inv(lattice.reduced_matrix)
        cart = rng.uniform(-1.5, 2.5, size=(6, 3)) @ lattice.matrix()
        i, j, offset = neighbour_pairs(lattice, cart, 6.0)
        whole = np.floor(cart @ inv)
        shift = np.round(offset @ inv) - whole[i] + whole[j]
        keys = [(a, *m, b) for a, m, b in zip(i.tolist(), shift.astype(int).tolist(), j.tolist())]
        assert len(keys) > 100
        assert keys == sorted(set(keys))


def _image_array_neighbour_pairs(lattice, cart, radius):
    """Reference: the pair search as it was when it formed every image of
    every site in a (mesh * n, 3) array and filtered it with ``.all``.
    ``neighbour_pairs`` keeps the same near images in the same order, so the
    two must agree to the bit."""
    basis = lattice.reduced_matrix
    inv = np.linalg.inv(basis)
    frac = cart @ inv
    whole = np.floor(frac)
    frac -= whole
    reach = radius * np.linalg.norm(inv, axis=0)
    counts = np.ceil(reach).astype(int) + 1
    mesh = np.indices(2 * counts + 1).reshape(3, -1).T - counts
    image_frac = (mesh[:, None, :] + frac[None, :, :]).reshape(-1, 3)
    near = np.flatnonzero((np.abs(image_frac - 0.5) <= 0.5 + reach).all(axis=1))
    sites, images = frac @ basis, (image_frac.take(near, axis=0) @ basis).T.copy()
    step = max(1, structcore.CHUNK // (3 * len(near)))
    rows, cols = [], []
    for lo in range(0, len(sites), step):
        part = sites[lo:lo + step]
        sq = sum((images[k] - part[:, k, None]) ** 2 for k in range(3))
        row, col = np.nonzero(sq <= radius * radius)
        rows.append(row + lo)
        cols.append(col)
    i = np.concatenate(rows)
    k, j = np.divmod(near.take(np.concatenate(cols)), len(cart))
    offset = (mesh.take(k, axis=0) + whole.take(i, axis=0) - whole.take(j, axis=0)) @ basis
    return i, j, offset


class TestNeighbourPairsMatchImageArray:
    @staticmethod
    def assert_same(lattice, cart, radius):
        got = neighbour_pairs(lattice, cart, radius)
        want = _image_array_neighbour_pairs(lattice, cart, radius)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        return got

    @pytest.mark.parametrize("chunk", [structcore.CHUNK, 1])
    def test_seeded_cells(self, monkeypatch, chunk):
        monkeypatch.setattr(structcore, "CHUNK", chunk)
        rng = np.random.default_rng(12)
        for s in seeded_skewed_cells(20):
            cart = s.frac_array() @ s.lattice.matrix()
            for radius in (0.5, 3.0, 6.5):
                self.assert_same(s.lattice, cart, radius)
            # sites up to two cells outside the cell
            outside = rng.uniform(-2.0, 3.0, size=(4, 3)) @ s.lattice.matrix()
            self.assert_same(s.lattice, outside, 6.5)

    def test_radius_below_the_shortest_lattice_vector(self):
        for s in seeded_skewed_cells(20):
            cart = s.frac_array() @ s.lattice.matrix()
            shortest = float(np.linalg.norm(s.lattice.reduced_matrix, axis=1).min())
            i, j, offset = self.assert_same(s.lattice, cart, 0.999 * shortest)
            # no self-image reaches that far, so a site pairs only with itself
            assert not offset[i == j].any()

    @pytest.mark.parametrize("chunk", [structcore.CHUNK, 1])
    def test_one_site_cells(self, monkeypatch, chunk):
        monkeypatch.setattr(structcore, "CHUNK", chunk)
        for params in ((3.3, 3.5, 3.9, 75, 82, 68), (2.1, 7.9, 3.0, 120, 100, 95)):
            lattice = Lattice(*params)
            cart = np.array([[0.3, 0.6, 0.1]]) @ lattice.matrix()
            for radius in (1.0, 6.0):
                i, j, _ = self.assert_same(lattice, cart, radius)
                assert (i == 0).all() and (j == 0).all()


def _gram_schmidt(b):
    """Orthogonalised rows and the coefficients mu[r, q] of ``b``."""
    ortho = b.astype(float).copy()
    mu = np.zeros((3, 3))
    for r in range(3):
        for q in range(r):
            mu[r, q] = (b[r] @ ortho[q]) / (ortho[q] @ ortho[q])
            ortho[r] -= mu[r, q] * ortho[q]
    return ortho, mu


class TestReducedBasis:
    def test_lll_conditions_on_seeded_cells(self):
        rng = np.random.default_rng(11)
        cells = [Lattice(10, 10, 10, 119.999, 119.999, 119.999).matrix()]
        cells += [s.lattice.matrix() for s in seeded_skewed_cells()]
        # long, skewed bases of random lattices: unimodular products of
        # row additions and swaps
        for _ in range(40):
            u = np.eye(3, dtype=int)
            for _ in range(6):
                a, b = rng.choice(3, size=2, replace=False)
                u[a] += rng.integers(-3, 4) * u[b]
                u[[a, b]] = u[[b, a]]
            cells.append(u @ Lattice(*rng.uniform(2, 9, 3),
                                     *rng.uniform(60, 120, 3)).matrix())
        for cell in cells:
            t = reduced_basis(cell)
            assert t.dtype.kind == "i"
            assert round(abs(np.linalg.det(t))) == 1
            ortho, mu = _gram_schmidt(t @ cell)
            assert np.abs(mu).max() <= 0.5 + 1e-9
            for k in (1, 2):
                assert ortho[k] @ ortho[k] >= (
                    (0.75 - mu[k, k - 1] ** 2) * (ortho[k - 1] @ ortho[k - 1])
                    * (1 - 1e-12))


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

    def test_cart_is_cached_read_only_positions(self):
        """``cart`` is ``frac_array() @ lattice.matrix()`` to the bit, built
        once per structure and read-only; a ``with_coords`` copy builds its
        own."""
        for s in list(seeded_skewed_cells(10)) + [_random_nacl(50, 3)]:
            cart = s.cart
            assert np.array_equal(cart, s.frac_array() @ s.lattice.matrix())
            assert s.cart is cart
            with pytest.raises(ValueError):
                cart[0, 0] = 1.0
            moved = s.with_coords((s.frac_array() + 0.25) % 1.0)
            assert moved.cart is not cart
            assert np.array_equal(moved.cart, moved.frac_array() @ moved.lattice.matrix())
