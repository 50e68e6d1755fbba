import importlib.util
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from crysalign.structcore import CrystalStructure, Lattice, Site
from crysalign.symmetry import (
    DetectionError,
    SymmetryOp,
    crystal_system,
    detect_spacegroup,
    group_order,
    site_orbits,
)
from crysalign.symmetry import detect, groups

from conftest import make_structure

ROOT = Path(__file__).resolve().parent.parent


def _table_script():
    path = ROOT / "scripts" / "gen_spacegroup_table.py"
    spec = importlib.util.spec_from_file_location("gen_spacegroup_table", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Space-group numbers below are literature values for these prototype
# cells, frozen here as the oracle.
class TestKnownGroups:
    def test_rocksalt(self, rocksalt):
        assert detect_spacegroup(rocksalt).number == 225

    def test_cscl(self, cscl):
        assert detect_spacegroup(cscl).number == 221

    def test_diamond(self, diamond):
        assert detect_spacegroup(diamond).number == 227

    def test_hcp(self, hcp_mg):
        assert detect_spacegroup(hcp_mg).number == 194

    def test_calcite(self, calcite):
        res = detect_spacegroup(calcite)
        assert res.number == 167
        assert res.symbol == "R-3c"
        assert res.crystal_system == "trigonal"

    def test_simple_cubic(self):
        s = make_structure((3.35, 3.35, 3.35, 90, 90, 90),
                           [("Po", (0.0, 0.0, 0.0))])
        assert detect_spacegroup(s).number == 221

    def test_bcc(self):
        s = make_structure((2.87, 2.87, 2.87, 90, 90, 90),
                           [("Fe", (0.0, 0.0, 0.0)), ("Fe", (0.5, 0.5, 0.5))])
        assert detect_spacegroup(s).number == 229

    def test_rutile(self):
        s = make_structure(
            (4.59, 4.59, 2.96, 90, 90, 90),
            [("Ti", (0.0, 0.0, 0.0)), ("Ti", (0.5, 0.5, 0.5)),
             ("O", (0.305, 0.305, 0.0)), ("O", (0.695, 0.695, 0.0)),
             ("O", (0.805, 0.195, 0.5)), ("O", (0.195, 0.805, 0.5))])
        assert detect_spacegroup(s).number == 136

    def test_perovskite(self):
        s = make_structure(
            (3.905, 3.905, 3.905, 90, 90, 90),
            [("Sr", (0.0, 0.0, 0.0)), ("Ti", (0.5, 0.5, 0.5)),
             ("O", (0.5, 0.5, 0.0)), ("O", (0.5, 0.0, 0.5)),
             ("O", (0.0, 0.5, 0.5))])
        assert detect_spacegroup(s).number == 221

    def test_wurtzite(self):
        s = make_structure(
            (3.25, 3.25, 5.21, 90, 90, 120),
            [("Zn", (1 / 3, 2 / 3, 0.0)), ("Zn", (2 / 3, 1 / 3, 0.5)),
             ("O", (1 / 3, 2 / 3, 0.382)), ("O", (2 / 3, 1 / 3, 0.882))])
        assert detect_spacegroup(s).number == 186

    def test_triclinic_perturbation(self):
        s = make_structure(
            (5.1, 5.7, 6.3, 84.0, 97.0, 103.0),
            [("Na", (0.013, 0.27, 0.41)), ("Cl", (0.62, 0.79, 0.08))])
        assert detect_spacegroup(s).number == 1


class TestTolerance:
    @pytest.mark.parametrize("tol", [1e-2, 1e-3, 1e-4])
    def test_stable_across_tolerances(self, rocksalt, cscl, diamond,
                                      hcp_mg, calcite, tol):
        expected = [(rocksalt, 225), (cscl, 221), (diamond, 227),
                    (hcp_mg, 194), (calcite, 167)]
        for s, num in expected:
            assert detect_spacegroup(s, tol=tol).number == num

    def test_small_distortion_breaks_symmetry(self, cscl):
        distorted = make_structure(
            (4.11, 4.11, 4.30, 90, 90, 90),
            [("Cs", (0.0, 0.0, 0.0)), ("Cl", (0.5, 0.5, 0.5))])
        assert detect_spacegroup(distorted).number == 123


class TestInvariance:
    def test_supercell_same_group(self, cscl):
        doubled = make_structure(
            (8.22, 4.11, 4.11, 90, 90, 90),
            [("Cs", (0.0, 0.0, 0.0)), ("Cl", (0.25, 0.5, 0.5)),
             ("Cs", (0.5, 0.0, 0.0)), ("Cl", (0.75, 0.5, 0.5))])
        assert detect_spacegroup(doubled).number == 221

    def test_rigid_translation_same_group(self, rocksalt):
        shift = np.array([0.13, 0.29, 0.41])
        sites = tuple(
            Site(site.element, tuple((np.array(site.frac_coords) + shift) % 1))
            for site in rocksalt.sites)
        shifted = CrystalStructure(rocksalt.lattice, sites)
        assert detect_spacegroup(shifted).number == 225

    def test_site_order_irrelevant(self, rocksalt):
        reordered = CrystalStructure(rocksalt.lattice, rocksalt.sites[::-1])
        assert detect_spacegroup(reordered).number == 225


class TestOperations:
    def test_operation_count_consistent(self, cscl):
        res = detect_spacegroup(cscl)
        # Pm-3m on a 1-formula-unit cell carries the full 48 coset reps.
        assert len(res.operations) == 48

    def test_operations_map_structure_to_itself(self, rocksalt):
        res = detect_spacegroup(rocksalt)
        frac = np.array([s.frac_coords for s in rocksalt.sites])
        elems = [s.element for s in rocksalt.sites]
        for op in res.operations:
            for i in range(len(frac)):
                image = np.array(op.apply(frac[i])) % 1.0
                diffs = (frac - image + 0.5) % 1.0 - 0.5
                hits = [j for j in range(len(frac))
                        if elems[j] == elems[i]
                        and np.max(np.abs(diffs[j])) < 1e-6]
                assert hits

    def test_identity_present(self, hcp_mg):
        res = detect_spacegroup(hcp_mg)
        eye = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
        assert any(op.rotation == eye
                   and max(abs(t) for t in op.translation) < 1e-9
                   for op in res.operations)


class TestOrbits:
    def test_calcite_orbits(self, calcite):
        res = detect_spacegroup(calcite)
        sizes = sorted(len(o) for o in res.orbits)
        assert sizes == [2, 2, 6]

    def test_rocksalt_orbits(self, rocksalt):
        res = detect_spacegroup(rocksalt)
        assert sorted(len(o) for o in res.orbits) == [4, 4]

    def test_site_orbits_standalone(self, cscl):
        res = detect_spacegroup(cscl)
        orbits = site_orbits(cscl, res.operations)
        assert sorted(len(o) for o in orbits) == [1, 1]


class TestHelpers:
    def test_crystal_system_ranges(self):
        assert crystal_system(1) == "triclinic"
        assert crystal_system(15) == "monoclinic"
        assert crystal_system(74) == "orthorhombic"
        assert crystal_system(142) == "tetragonal"
        assert crystal_system(167) == "trigonal"
        assert crystal_system(194) == "hexagonal"
        assert crystal_system(230) == "cubic"

    def test_group_orders(self):
        assert group_order(1) == 1
        assert group_order(2) == 2
        assert group_order(221) == 48
        assert group_order(225) == 192
        assert group_order(227) == 192

    def test_symmetry_op_apply(self):
        op = SymmetryOp(rotation=((0, -1, 0), (1, 0, 0), (0, 0, 1)),
                        translation=(0.0, 0.0, 0.5))
        assert op.apply((0.25, 0.0, 0.0)) == pytest.approx((0.0, 0.25, 0.5))


def _op_codes(w, t12):
    """One integer per op: rotation entries in {-1, 0, 1}, translations in
    twelfths."""
    digits = np.concatenate([w.reshape(len(w), 9) + 1, t12], axis=1)
    bases = np.array([3] * 9 + [12] * 3)
    return (digits * np.cumprod(np.concatenate([[1], bases[:-1]]))).sum(axis=1)


class TestGroupTable:
    @pytest.fixture(scope="class")
    def closed(self):
        return {num: groups.close_ops(gens)
                for num, (_, gens) in groups.load_group_table().items()}

    def test_every_group_is_a_group(self, closed):
        ident = _op_codes(np.eye(3, dtype=int)[None], np.zeros((1, 3), dtype=int))[0]
        for num, ops in closed.items():
            w = np.array([op[0] for op in ops])
            t12 = np.array([[int(x * 12) for x in op[1]] for op in ops])
            assert np.abs(w).max() <= 1
            codes = _op_codes(w, t12)
            assert len(set(codes.tolist())) == len(ops), num
            assert ident in codes, num
            # All products g_i g_j at once: W_i W_j, W_i t_j + t_i (mod 1).
            wp = np.einsum("iab,jbc->ijac", w, w).reshape(-1, 3, 3)
            assert np.abs(wp).max() <= 1, f"group {num} not closed"
            tp = (np.einsum("iab,jb->ija", w, t12) + t12[:, None, :]) % 12
            products = _op_codes(wp, tp.reshape(-1, 3)).reshape(len(ops), len(ops))
            assert np.isin(products, codes).all(), f"group {num} not closed"
            assert (products == ident).any(axis=1).all(), f"group {num} lacks an inverse"

    def test_literature_orders(self, closed):
        known = _table_script().KNOWN_ORDERS
        assert {num: len(closed[num]) for num in known} == known
        assert known[225] == 192 and known[166] == 36

    def test_centrosymmetric_count(self, closed):
        minus_i = tuple(tuple(-x for x in row) for row in groups.I3)
        assert sum(any(w == minus_i for w, _ in ops) for ops in closed.values()) == 92

    def test_translations_in_unit_interval(self, closed):
        for ops in closed.values():
            assert all(isinstance(x, Fraction) and 0 <= x < 1
                       for _, t in ops for x in t)

    def test_signature_index_shares(self):
        index = groups.signature_index()
        assert len(index) == 210
        shared = sorted(nums for nums in index.values() if len(nums) > 1)
        assert shared == [
            (23, 24), (27, 32), (35, 38), (37, 41), (39, 40), (55, 57), (56, 60),
            (76, 78), (91, 95), (92, 96), (116, 117), (144, 145), (151, 153),
            (152, 154), (169, 170), (171, 172), (178, 179), (180, 181),
            (197, 199), (212, 213)]
        assert sorted(n for nums in index.values() for n in nums) == list(range(1, 231))

    def test_committed_table_is_generated(self):
        text, n_groups, n_centro = _table_script().build_table()
        committed = ROOT / "src" / "crysalign" / "data" / "spacegroup_generators.txt"
        assert (n_groups, n_centro) == (230, 92)
        assert text == committed.read_text(encoding="utf-8")


# Reference loops: one lattice vector or one site at a time, as the
# detector computed them before the searches were vectorized.
def _int_vectors_loop(rng):
    r = range(-rng, rng + 1)
    return [np.array(v) for v in
            ((i, j, k) for i in r for j in r for k in r) if any(v)]


def _shortest_along_loop(cell, direction):
    best = None
    dn = direction / np.linalg.norm(direction)
    for u in _int_vectors_loop(4):
        v = u @ cell
        norm = np.linalg.norm(v)
        if np.linalg.norm(np.cross(v / norm, dn)) < 1e-4 and v @ dn > 0:
            if best is None or norm < best[1] - 1e-9:
                best = (u, norm)
    return None if best is None else best[0]


def _shortest_perp_loop(cell, direction, tol):
    out = []
    dn = direction / np.linalg.norm(direction)
    for u in _int_vectors_loop(4):
        v = u @ cell
        norm = np.linalg.norm(v)
        if abs(v @ dn) < 1e-4 * norm + tol:
            out.append((u, norm))
    out.sort(key=lambda p: p[1])
    return [u for u, _ in out]


def _permutation_loop(cell, frac, elems, tol, w, t):
    perm = []
    for i in range(len(frac)):
        idx = np.array([k for k, e in enumerate(elems) if e == elems[i]])
        d = frac[idx] - (w @ frac[i] + t)
        d -= np.round(d)
        dist = np.linalg.norm(d @ cell, axis=1)
        j = int(np.argmin(dist))
        if not dist[j] < tol:
            return None
        perm.append(int(idx[j]))
    return perm if len(set(perm)) == len(perm) else None


# (lattice, a space group whose standard setting fits it)
def _random_cells(rng):
    for _ in range(3):
        a = rng.uniform(3.0, 8.0)
        yield Lattice(a, a, a, 90, 90, 90), 200
        yield Lattice(a, a, rng.uniform(3.0, 8.0), 90, 90, 120), 175
        yield Lattice(a, rng.uniform(3.0, 8.0), rng.uniform(3.0, 8.0),
                      90, rng.uniform(92.0, 120.0), 90), 10


def _orbit_structure(lattice, number, rng):
    """Two generic orbits (elements interleaved) of the group's operations."""
    ops = groups.close_ops(groups.load_group_table()[number][1])
    sites = []
    for el in ("Na", "Cl"):
        x = rng.random(3)
        for w, t in ops:
            sites.append((el, (np.array(w) @ x + np.array(t, dtype=float)) % 1.0))
    order = rng.permutation(len(sites))
    return CrystalStructure(lattice, tuple(Site(*sites[k]) for k in order))


class TestVectorizedSearch:
    def test_lattice_vector_searches_match_loops(self):
        rng = np.random.default_rng(7)
        axes = [(0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0),
                (1, 1, 1), (2, 1, 0)]
        for lattice, _ in _random_cells(rng):
            cell = lattice.matrix()
            for direction in [np.array(a, dtype=float) @ cell for a in axes] + [
                    rng.normal(size=3)]:
                want = _shortest_along_loop(cell, direction)
                if want is None:
                    with pytest.raises(DetectionError):
                        detect._shortest_along(cell, direction, 1e-3)
                else:
                    assert np.array_equal(detect._shortest_along(cell, direction, 1e-3), want)
                for tol in (1e-3, 1e-1):
                    want = _shortest_perp_loop(cell, direction, tol)
                    if not want:
                        with pytest.raises(DetectionError):
                            detect._shortest_perp(cell, direction, tol)
                    else:
                        assert np.array_equal(detect._shortest_perp(cell, direction, tol),
                                              np.array(want))

    def test_permutation_matches_loop(self):
        rng = np.random.default_rng(11)
        tol = 1e-3
        matched = unmatched = 0
        for lattice, number in _random_cells(rng):
            s = _orbit_structure(lattice, number, rng)
            cell, frac, elems = lattice.matrix(), s.frac_array(), s.elements()
            jittered = frac.copy()
            jittered[0] += 2e-3 / lattice.a
            for f in (frac, jittered):
                mapper = detect._Mapper(cell, f, elems, tol)
                for w in detect._candidate_rotations(cell, tol):
                    for j in (0, 1, 5):
                        t = (f[j] - w @ f[0]) % 1.0
                        want = _permutation_loop(cell, f, elems, tol, w, t)
                        assert mapper.permutation(w, t) == want
                        matched += want is not None
                        unmatched += want is None
        assert matched and unmatched


# Reference loops: one candidate column and one centre at a time, as the
# detector computed them before these searches ran on whole arrays.
def _candidate_rotations_loop(cell, tol):
    g = cell @ cell.T
    lmax = np.sqrt(max(g[i, i] for i in range(3)))
    atol = 4.0 * tol * lmax
    vecs = _int_vectors_loop(2)
    col_cands = [[v for v in vecs if abs(v @ g @ v - g[j, j]) < atol] for j in range(3)]
    out = []
    for c0 in col_cands[0]:
        for c1 in col_cands[1]:
            if abs(c0 @ g @ c1 - g[0, 1]) > atol:
                continue
            for c2 in col_cands[2]:
                if abs(c0 @ g @ c2 - g[0, 2]) > atol:
                    continue
                if abs(c1 @ g @ c2 - g[1, 2]) > atol:
                    continue
                w = np.stack([c0, c1, c2], axis=1)
                if round(abs(np.linalg.det(w * 1.0))) == 1:
                    out.append(w)
    return out


def _centering_loop(ut_inv):
    seen = []
    for z in [np.zeros(3, dtype=int), *_int_vectors_loop(2)]:
        x_c = (ut_inv @ z) % 1.0
        if any(np.linalg.norm((x_c - c) - np.round(x_c - c)) < 1e-6 for c in seen):
            continue
        seen.append(x_c)
    return seen


def _reduced_cells(rng):
    """LLL-reduced cubic, hexagonal, monoclinic and triclinic cells, plus
    the primitive cells of F and I cubic lattices (many equal lengths)."""
    a = rng.uniform(3.0, 8.0)
    cells = [lat.matrix() for lat, _ in _random_cells(rng)]
    for _ in range(3):
        cells.append(Lattice(*rng.uniform(3.0, 8.0, size=3),
                             *rng.uniform(70.0, 110.0, size=3)).matrix())
    cells.append(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]]) * a / 2)
    cells.append(np.array([[-1, 1, 1], [1, -1, 1], [1, 1, -1]]) * a / 2)
    return [detect._lll_reduce(c) @ c for c in cells]


# Conventional-from-primitive row matrices of the P, C, I, F and R settings.
_SETTINGS = (
    np.eye(3, dtype=int),
    np.array([[1, -1, 0], [1, 1, 0], [0, 0, 1]]),
    np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
    np.array([[-1, 1, 1], [1, -1, 1], [1, 1, -1]]),
    np.array([[1, -1, 0], [0, 1, -1], [1, 1, 1]]),
)


class TestArraySearches:
    def test_candidate_rotations_match_loop(self):
        rng = np.random.default_rng(13)
        found = 0
        for cell in _reduced_cells(rng):
            for tol in (1e-3, 1e-1):
                want = _candidate_rotations_loop(cell, tol)
                got = detect._candidate_rotations(cell, tol)
                assert len(got) == len(want)
                assert all(np.array_equal(x, y) for x, y in zip(got, want))
                found += len(want)
        assert found

    def test_centering_vectors_match_loop(self):
        rng = np.random.default_rng(17)
        us = list(_SETTINGS)
        # Settings with up to 24 centres.
        while len(us) < 60:
            u = rng.integers(-3, 4, size=(3, 3))
            if 1 <= abs(round(np.linalg.det(u))) <= 24:
                us.append(u)
        for u in us:
            ut_inv = np.linalg.inv(u.T * 1.0)
            want = np.array(_centering_loop(ut_inv))
            assert np.array_equal(detect._centering_vectors(ut_inv, 125), want)
            m = round(abs(np.linalg.det(u)))
            assert len(want) == m
            # Stopping once past ``limit`` keeps the found centres' order.
            for limit in (m - 1, m):
                got = detect._centering_vectors(ut_inv, limit)
                assert np.array_equal(got, want[:limit + 1])


class TestRotationInvariants:
    @pytest.fixture(scope="class")
    def rotations(self):
        table = groups.load_group_table()
        return sorted({w for num in table for w, _ in groups.close_ops(table[num][1])})

    def test_memoized_invariants_match_uncached(self, rotations):
        assert len(rotations) == 64
        for w in rotations:
            for fn in (groups.op_order, groups.rotation_axis, groups.axis_class):
                assert fn(w) == fn.__wrapped__(w) == fn(w)
            assert np.array_equal(groups._projector(w), groups._projector.__wrapped__(w))

    def test_cached_projector_is_read_only(self):
        proj = groups._projector(((0, -1, 0), (1, 0, 0), (0, 0, 1)))
        with pytest.raises(ValueError):
            proj[0, 0] = 1.0
        assert np.array_equal(proj, np.diag([0.0, 0.0, 1.0]))
