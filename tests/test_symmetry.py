import importlib.util
import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from crysalign import ciflite, structcore, traces
from crysalign.structcore import CrystalStructure, Lattice, Site, SiteMapper, reduced_basis
from crysalign.symmetry import DetectionError, crystal_system, detect_spacegroup
from crysalign.symmetry import detect, groups

from conftest import make_structure
from orbit_cells import generic_orbit_cells, group_order, lattice_for, orbit_structure

ROOT = Path(__file__).resolve().parent.parent


def _apply(x, w, t):
    """The operation (w, t) on fractional coordinates ``x`` (one site a
    row): x' = w x + t, wrapped into the cell."""
    return (x @ w.T + t) % 1.0


def _op_arrays(ops):
    """(rotation, translation) pairs as ``groups.signature`` takes them: one
    int array of rotations and one float array of translations."""
    return np.array([w for w, _ in ops]), np.array([t for _, t in ops], dtype=float)


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

    @pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf"), -float("inf")])
    def test_non_positive_or_non_finite_tolerance_rejected(self, cscl, tol):
        with pytest.raises(DetectionError, match="tolerance"):
            detect_spacegroup(cscl, tol=tol)

    def test_rotation_of_no_finite_order_is_detection_error(self):
        """The seed-1 ``screen`` cell ``fcc-Cu`` of the benchmark at tol 0.3:
        the metric test admits an integer rotation of no finite order."""
        with pytest.raises(DetectionError, match="no finite order"):
            detect_spacegroup(ciflite.parse_ciflite(FCC_CU), 0.3)

    def test_singular_conventional_basis_is_skipped(self):
        """The seed-2 ``relax`` cell ``diamond-Si-8`` of the benchmark at tol
        0.1 offers a singular conventional basis; it is skipped like any
        other rejected candidate, and the cell falls back to P1."""
        res = detect_spacegroup(ciflite.parse_ciflite(JITTERED_DIAMOND_8), 0.1)
        assert (res.number, res.ambiguous) == (1, True)


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
        ws, ts = res.op_arrays
        assert ws.shape == (48, 3, 3) and ts.shape == (48, 3)

    def test_operations_map_structure_to_itself(self, rocksalt):
        res = detect_spacegroup(rocksalt)
        frac = np.array([s.frac_coords for s in rocksalt.sites])
        elems = [s.element for s in rocksalt.sites]
        for w, t in zip(*res.op_arrays):
            for i in range(len(frac)):
                image = _apply(frac[i], w, t)
                diffs = (frac - image + 0.5) % 1.0 - 0.5
                hits = [j for j in range(len(frac))
                        if elems[j] == elems[i]
                        and np.max(np.abs(diffs[j])) < 1e-6]
                assert hits

    def test_identity_present(self, hcp_mg):
        res = detect_spacegroup(hcp_mg)
        ws, ts = res.op_arrays
        assert ((ws == np.eye(3, dtype=int)).all(axis=(1, 2))
                & (np.abs(ts) < 1e-9).all(axis=1)).any()


class TestOrbits:
    def test_calcite_orbits(self, calcite):
        res = detect_spacegroup(calcite)
        sizes = sorted(len(o) for o in res.orbits)
        assert sizes == [2, 2, 6]

    def test_rocksalt_orbits(self, rocksalt):
        res = detect_spacegroup(rocksalt)
        assert sorted(len(o) for o in res.orbits) == [4, 4]

    def test_lift_orbits_standalone(self, cscl):
        res = detect_spacegroup(cscl)
        mapped, orbits = _lift(cscl, res)
        assert len(mapped) == 48 and mapped.all()
        assert orbits == res.orbits
        assert sorted(len(o) for o in orbits) == [1, 1]

    def test_operations_add_no_mapper_call(self, monkeypatch):
        rocksalt = make_structure(
            (5.64, 5.64, 5.64, 90, 90, 90),
            [(el, xyz) for el, shift in (("Na", 0.0), ("Cl", 0.5))
             for xyz in ((shift, shift, shift), (shift, 0.5 + shift, 0.5 + shift),
                         (0.5 + shift, shift, 0.5 + shift),
                         (0.5 + shift, 0.5 + shift, shift))])
        sizes = []
        real = SiteMapper.permutations
        monkeypatch.setattr(SiteMapper, "permutations",
                            lambda self, ws, ts, source=None:
                            sizes.append(len(ts)) or real(self, ws, ts, source))
        res = detect_spacegroup(rocksalt)
        # The pure-translation search and the primitive rotation search.
        assert len(sizes) == 2
        ws, _ = res.op_arrays
        assert len(ws) == 192 and res.number == 225
        # 48 rotations, each followed by the 4 pure translations.
        assert np.array_equal(ws, np.repeat(ws[::4], 4, axis=0))
        assert len(np.unique(ws, axis=0)) == 48

    @pytest.mark.parametrize("seed", [0, 2])
    def test_orbits_are_the_lifts_in_order(self, seed):
        """Every operation maps the cell onto itself, and the orbits
        expanded from the primitive cell equal, order included, those of
        the operations' permutations (seed 1 in ``TestGenericOrbits``)."""
        for num, s in generic_orbit_cells(seed):
            res = detect_spacegroup(s)
            mapped, orbits = _lift(s, res)
            assert mapped.all() and res.orbits == orbits, num

    def test_orbits_hold_the_lifts_on_jittered_supercells(self):
        """At a tolerance near the jitter, mapping the input cell at that
        tolerance may keep fewer operations than the primitive search
        accepted. The orbits still partition the sites, each orbit of the
        kept operations lies inside one of them, and where every operation
        is kept the two are equal."""
        rng = np.random.default_rng(3)
        base = [("Cs", (0.0, 0.0, 0.0)), ("Cl", (0.5, 0.5, 0.5))]
        full = []
        for n in (2, 3):
            sites = [(el, (np.array(xyz) + shift) / n) for el, xyz in base
                     for shift in itertools.product(range(n), repeat=3)]
            for _ in range(3):
                a = 4.11 * n
                s = make_structure((a, a, a, 90, 90, 90),
                                   [(el, x + rng.normal(0, 0.03, 3) / a) for el, x in sites])
                for tol in (1e-3, 0.1, 0.3):
                    try:
                        res = detect_spacegroup(s, tol)
                    except DetectionError:
                        continue
                    assert sorted(i for o in res.orbits for i in o) == list(range(s.num_sites))
                    mapped, lifted = _lift(s, res, tol)
                    _assert_within(lifted, res.orbits)
                    full.append(mapped.all())
                    if full[-1]:
                        assert res.orbits == lifted, (n, tol)
        assert any(full) and not all(full)

    def test_jittered_cscl_orbits_are_the_primitive_ones(self):
        """The seed-3 ``relax`` cell ``cscl-CsCl-16`` of the benchmark at tol
        0.1: mapping the input cell at that tolerance keeps only 4 of the 28
        operations and leaves 6 orbits; the primitive orbits give one Cs and
        two Cl orbits."""
        s = ciflite.parse_ciflite(JITTERED_CSCL_16)
        res = detect_spacegroup(s, 0.1)
        assert traces._orbit_counts(s, res) == {"Cl": 2, "Cs": 1}
        mapped, lifted = _lift(s, res, 0.1)
        assert (len(mapped), mapped.sum(), len(lifted)) == (28, 4, 6)
        _assert_within(lifted, res.orbits)

    def test_orbits_sorted_in_least_index_order(self):
        for num, s in generic_orbit_cells(0):
            orbits = detect_spacegroup(s).orbits
            assert all(list(o) == sorted(o) for o in orbits), num
            assert [o[0] for o in orbits] == sorted(o[0] for o in orbits), num


def _lift(s, res, tol=1e-3):
    """The input-cell oracle: maps each of the operations ``res.op_arrays``
    on the sites of ``s`` with the detection mapper at ``tol``. Returns which
    operations map the cell onto itself, and the orbits of their
    permutations."""
    ws, ts = res.op_arrays
    mapper = SiteMapper(s.lattice.matrix(), s.frac_array(), s.elements(), tol)
    fit, perms = mapper.permutations(ws.astype(float), ts)
    mapped = np.isin(np.arange(len(ws)), fit)
    return mapped, detect._orbits(s.num_sites, perms)


def _assert_within(inner, outer):
    """Every orbit of ``inner`` lies inside one orbit of ``outer``."""
    owner = {i: k for k, o in enumerate(outer) for i in o}
    assert all(len({owner[i] for i in o}) == 1 for o in inner)


JITTERED_CSCL_16 = """<CIF>P1
8.240000 8.240000 8.240000
90.0000 90.0000 90.0000
Cl 1 0.98675742 0.86381664 0.64016342
Cs 1 0.73262222 0.11578774 0.89255552
Cl 1 0.98564802 0.36377550 0.14321865
Cs 1 0.24185870 0.10962340 0.88985341
Cs 1 0.73173040 0.61273564 0.89125783
Cs 1 0.73189589 0.61307890 0.38947290
Cs 1 0.23431486 0.61023239 0.89087041
Cl 1 0.98357374 0.86838342 0.14489345
Cl 1 0.49185870 0.36602652 0.14364226
Cl 1 0.48492478 0.86380158 0.13938490
Cl 1 0.97983265 0.36696822 0.64285334
Cs 1 0.23270577 0.60767175 0.39183789
Cs 1 0.73583534 0.11666335 0.39243124
Cs 1 0.22729560 0.10679454 0.39059188
Cl 1 0.48497405 0.85920351 0.63874071
Cl 1 0.48304005 0.36444985 0.64201941</CIF>"""


FCC_CU = """<CIF>P1
3.223202 3.223202 3.223202
90.0000 90.0000 90.0000
Cu 1 0.00000000 0.00000000 0.00000000
Cu 1 0.00000000 0.50000000 0.50000000
Cu 1 0.50000000 0.00000000 0.50000000
Cu 1 0.50000000 0.50000000 0.00000000</CIF>"""


JITTERED_DIAMOND_8 = """<CIF>P1
5.430000 5.430000 5.430000
90.0000 90.0000 90.0000
Si 1 0.89549268 0.51529680 0.08866334
Si 1 0.16508285 0.26958982 0.84065220
Si 1 0.65438328 0.26924087 0.34212554
Si 1 0.65498833 0.76288733 0.83761396
Si 1 0.41759212 0.50552847 0.59575346
Si 1 0.40340555 0.01407737 0.09225238
Si 1 0.16183388 0.76547431 0.34357755
Si 1 0.91759212 0.01782563 0.59149528</CIF>"""


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
        """``close_ops`` closes each table group's generators to its full
        operation set, translations taken modulo the cell."""
        table = groups.load_group_table()
        sizes = {num: len(groups.close_ops(table[num][1])) for num in (1, 2, 221, 225, 227)}
        assert sizes == {1: 1, 2: 2, 221: 48, 225: 192, 227: 192}

    def test_symmetry_op_apply(self):
        w = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
        t = np.array([0.0, 0.0, 0.5])
        assert _apply(np.array([0.25, 0.0, 0.0]), w, t) == pytest.approx((0.0, 0.25, 0.5))
        # A row per site, wrapped into the cell.
        frac = np.array([[0.25, 0.0, 0.0], [0.5, 0.75, 0.75]])
        want = np.array([[0.0, 0.25, 0.5], [0.25, 0.5, 0.25]])
        assert _apply(frac, w, t) == pytest.approx(want)


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
                for num, (_, gens, _) in groups.load_group_table().items()}

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

    def test_stored_signatures_match_the_closed_groups(self, closed):
        index: dict[tuple, list[int]] = {}
        for num, ops in closed.items():
            index.setdefault(groups.signature(*_op_arrays(ops)), []).append(num)
        assert groups.signature_index() == {sig: tuple(nums) for sig, nums in index.items()}

    def test_setup_closes_no_group(self):
        # The benchmark's cold start (tables plus signature index), with
        # every call of close_ops counted.
        code = """
import sys
sys.path.insert(0, sys.argv[1])
from crysalign import energetics, harness, validity
from crysalign.symmetry import groups
calls = []
close_ops = groups.close_ops
groups.close_ops = lambda *a, **k: calls.append(1) or close_ops(*a, **k)
validity.OxidationTable.load_default()
energetics.PairPotentialBackend.load_default()
energetics.load_reference_phases()
groups.signature_index()
harness._pool_map(len, ["a", "b"], 2)
print(len(calls))
"""
        out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "0"

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


def _permutation_loop(cell, frac, elems, tol, w, t, seen=None):
    perm = []
    for i in range(len(frac)):
        idx = np.array([k for k, e in enumerate(elems) if e == elems[i]])
        d = frac[idx] - (w @ frac[i] + t)
        d -= np.round(d)
        dist = np.linalg.norm(d @ cell, axis=1)
        j = int(np.argmin(dist))
        if not dist[j] < tol:
            return None
        if seen is not None and (dist == dist[j]).sum() > 1:
            seen["tie"] += 1
        perm.append(int(idx[j]))
    if len(set(perm)) != len(perm):
        if seen is not None:
            seen["non_injective"] += 1
        return None
    return perm


def _fitting_rows(cell, frac, elems, tol, ws, ts, seen=None):
    """The loop's result as ``SiteMapper.permutations`` returns it: the fitting
    candidates, ascending, and their permutation rows."""
    rows = [_permutation_loop(cell, frac, elems, tol, w, t, seen) for w, t in zip(ws, ts)]
    fit = [k for k, p in enumerate(rows) if p is not None]
    return np.array(fit, dtype=int), np.array([rows[k] for k in fit]).reshape(len(fit), len(frac))


def _assert_same_fits(got, want):
    assert np.array_equal(got[0], want[0])
    assert got[1].shape == want[1].shape and np.array_equal(got[1], want[1])


# (lattice, a space group whose standard setting fits it)
def _random_cells(rng):
    for _ in range(3):
        a = rng.uniform(3.0, 8.0)
        yield Lattice(a, a, a, 90, 90, 90), 200
        yield Lattice(a, a, rng.uniform(3.0, 8.0), 90, 90, 120), 175
        yield Lattice(a, rng.uniform(3.0, 8.0), rng.uniform(3.0, 8.0),
                      90, rng.uniform(92.0, 120.0), 90), 10


@pytest.fixture(scope="module")
def reduced_cells():
    """Every reduced primitive cell detection searches for a third of the
    seed-0 generic-orbit cells."""
    cells = []
    real = detect._candidate_rotations

    def recording(cell, tol):
        cells.append(cell)
        return real(cell, tol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detect, "_candidate_rotations", recording)
        for _, s in itertools.islice(generic_orbit_cells(0), 0, None, 3):
            detect_spacegroup(s)
    return cells


class TestVectorizedSearch:
    def test_rotation_axes_and_planes_match_loops(self, reduced_cells):
        """On each cell, every proper rotation but I that keeps its metric at
        tol 1e-3 has for axis the loop's shortest lattice vector along it.
        Where it keeps the metric to 1e-6 (a near-rotation of a nearly
        symmetric metric turns a plane the Cartesian test misses), its plane
        holds the loop's perpendicular rows, each a meets its b = R^k a at
        90 or 120 degrees, and every conventional candidate is right-handed."""
        def proper(cell, tol):
            return [tuple(map(tuple, w.tolist())) for w in detect._candidate_rotations(cell, tol)
                    if round(np.linalg.det(w)) == 1 and not (w == np.eye(3)).all()]

        rng = np.random.default_rng(7)
        cells = [lattice.matrix() for lattice, _ in _random_cells(rng)] + reduced_cells
        orders = set()
        for cell in cells:
            assert np.linalg.det(cell) > 0
            exact = proper(cell, 1e-6)
            loops = {}                      # the loops' results for each axis
            for w in proper(cell, 1e-3):
                order, axis, _, _ = groups.rotation_info(w)
                if axis not in loops:
                    direction = np.array(axis) @ cell
                    loops[axis] = (_shortest_along_loop(cell, direction),
                                   _shortest_perp_loop(cell, direction, 1e-3))
                along, perp = loops[axis]
                assert np.array_equal(along, axis)
                if w not in exact:
                    continue
                orders.add(order)
                plane = detect._in_plane(cell, w)
                assert np.array_equal(plane, perp)
                for ua in plane[:6] if order > 2 else ():
                    for k in detect._B_POWERS[order]:
                        va = ua @ cell
                        vb = np.linalg.matrix_power(np.array(w), k) @ ua @ cell
                        cos = va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb))
                        assert cos == pytest.approx(0.0 if order == 4 else -0.5, abs=1e-9)
            axes = detect._axes_summary(np.array(exact))
            candidates = detect._conventional_candidates(cell, axes, detect._classify_system(axes))
            assert candidates
            for u in candidates:
                assert np.linalg.det(u @ cell) > 0
        assert orders == {2, 3, 4, 6}

    def test_permutation_matches_loop(self):
        rng = np.random.default_rng(11)
        tol = 1e-3
        matched = unmatched = 0
        for lattice, number in _random_cells(rng):
            s = orbit_structure(lattice, number, rng)
            cell, frac, elems = lattice.matrix(), s.frac_array(), s.elements()
            jittered = frac.copy()
            jittered[0] += 2e-3 / lattice.a
            for f in (frac, jittered):
                ws = np.array([w for w in detect._candidate_rotations(cell, tol)
                               for _ in (0, 1, 5)])
                ts = np.array([(f[j] - w @ f[0]) % 1.0 for w in ws[::3]
                               for j in (0, 1, 5)])
                want = _fitting_rows(cell, f, elems, tol, ws, ts)
                _assert_same_fits(SiteMapper(cell, f, elems, tol).permutations(ws, ts), want)
                matched += len(want[0])
                unmatched += len(ws) - len(want[0])
        assert matched and unmatched

    def test_large_cell_screens_in_few_chunks(self, monkeypatch):
        # 200 sites of one element: a full block is 120,000 floats per
        # candidate, the one-site screen only 600.
        rng = np.random.default_rng(0)
        s = CrystalStructure(Lattice(15, 15, 15, 90, 90, 90),
                             tuple(Site("Si", tuple(p)) for p in rng.random((200, 3))))
        calls = []
        distances = SiteMapper._distances
        monkeypatch.setattr(SiteMapper, "_distances",
                            lambda self, *a: calls.append(1) or distances(self, *a))
        res = detect_spacegroup(s)
        assert len(calls) <= 100
        # 7 candidates per chunk and 1 per block: a step that divides
        # neither stage's candidate count.
        monkeypatch.setattr(structcore, "CHUNK", 3 * 200 * 7)
        assert detect_spacegroup(s) == res
        assert res.number == 1 and len(res.orbits) == 200

    @pytest.mark.parametrize("chunk", [1, 200, 1000, structcore.CHUNK])
    def test_permutations_match_loop_on_edge_cases(self, monkeypatch, chunk):
        """Ties, duplicate and NaN sites, non-injective maps and large
        tolerances, in chunks that do not divide the candidate count."""
        monkeypatch.setattr(structcore, "CHUNK", chunk)
        rng = np.random.default_rng(19)
        cell = np.diag([4.0, 4.0, 4.0])
        # Dyadic coordinates in a cell of exact lengths: images half-way
        # between two sites are at exactly equal distances (a tie).
        line = np.array([[0.0, 0.0, 0.0], [0.25, 0.0, 0.0], [0.5, 0.0, 0.0],
                         [0.75, 0.0, 0.0], [0.0, 0.5, 0.5], [0.5, 0.5, 0.5]])
        doubled = np.concatenate([line, line[:1]])
        nan_site = line.copy()
        nan_site[2, 1] = np.nan
        cases = [
            (line, ("Na", "Na", "Na", "Na", "Cl", "Cl"), 1e-3),
            (line, ("Na", "Na", "Na", "Na", "Cl", "Cl"), 1.5),
            # Images exactly 1.0 A from their nearest site: not within tol.
            (line, ("Na", "Na", "Na", "Na", "Cl", "Cl"), 1.0),
            (line, ("Cl", "Na", "Cl", "Na", "Cl", "Na"), 2.5),
            (line, ("Na", "Na", "Na", "Na", "Cl", "K"), 1.5),
            (doubled, ("Na", "Na", "Na", "Na", "Cl", "Cl", "Na"), 1e-3),
            (nan_site, ("Na", "Na", "Na", "Na", "Cl", "Cl"), 1e-3),
            (nan_site, ("Na",) * 6, 3.0),
        ]
        rots = detect._candidate_rotations(cell, 1e-3)
        seen = {"mapped": 0, "rejected": 0, "tie": 0, "non_injective": 0}
        for frac, elems, tol in cases:
            ws = np.array([rots[k] for k in rng.integers(0, len(rots), 37)])
            ts = np.concatenate([rng.integers(0, 8, (30, 3)) / 8.0, rng.random((7, 3))])
            want = _fitting_rows(cell, frac, elems, tol, ws, ts, seen)
            _assert_same_fits(SiteMapper(cell, frac, elems, tol).permutations(ws, ts), want)
            seen["mapped"] += len(want[0])
            seen["rejected"] += 37 - len(want[0])
        assert all(seen.values()), seen

    def test_no_candidates(self):
        mapper = SiteMapper(np.eye(3), np.zeros((2, 3)), ("Na", "Cl"), 1e-3)
        fit, rows = mapper.permutations(np.zeros((0, 3, 3)), np.zeros((0, 3)))
        assert fit.shape == (0,) and rows.shape == (0, 2)

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs VmHWM")
    def test_large_cell_peak_memory(self):
        """The mapper holds rows only for the operations that fit: on a
        1,000-site random cubic cell the rotation search tries 48 rotations
        times 500 anchor sites, and a row for each would be 96 MB."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run([sys.executable, "-c", _DETECT_PEAK_RISE], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        number, rise_mb = done.stdout.split()
        assert number == "1"
        assert float(rise_mb) < 60


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
    return [reduced_basis(c) @ c for c in cells]


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


# The rotation invariants as computed before ``groups.rotation_info``, one
# power loop each and uncached: the oracles for it and for
# ``_signature_fractions``.
def _op_order(w):
    p = w
    for n in range(1, 13):
        if p == groups.I3:
            return n
        p = groups._matmul(p, w)
    raise ValueError("rotation part has no finite order <= 12")


def _rotation_axis(w):
    """Primitive integer axis direction of a proper rotation (None for I)."""
    if w == groups.I3:
        return None
    n = _op_order(w)
    acc = np.zeros((3, 3), dtype=int)
    p = np.array(groups.I3)
    wm = np.array(w)
    for _ in range(n):
        acc += p
        p = p @ wm
    for j in range(3):
        col = acc[:, j]
        if np.any(col):
            g = np.gcd.reduce(np.abs(col[col != 0]))
            v = tuple(int(x) for x in col // g)
            for x in v:
                if x:
                    return v if x > 0 else tuple(-y for y in v)
    return None


def _proper_part(w):
    return w if groups._det(w) > 0 else tuple(tuple(-x for x in row) for row in w)


def _axis_class(w):
    wp = _proper_part(w)
    if wp == groups.I3:
        return "-"
    key = tuple(sorted(abs(x) for x in _rotation_axis(wp)))
    return {(0, 0, 1): "p", (0, 1, 1): "f", (1, 1, 1): "d"}.get(key, "o")


def _projector(w):
    n = _op_order(w)
    wm = np.array(w)
    proj = np.zeros((3, 3))
    p = np.eye(3)
    for _ in range(n):
        proj += p
        p = p @ wm
    proj /= n
    return proj


def _assert_rotation_info(w):
    """``rotation_info(w)`` equals the oracles, the projector to the bit, or
    raises as the order oracle does."""
    try:
        order = _op_order(w)
    except ValueError:
        with pytest.raises(ValueError, match="no finite order"):
            groups.rotation_info(w)
        return False
    got_order, axis, cls, proj = groups.rotation_info(w)
    assert (got_order, axis, cls) == (order, _rotation_axis(_proper_part(w)), _axis_class(w)), w
    assert np.array_equal(proj, _projector(w)), w
    assert groups.rotation_info(w)[3] is proj
    return True


class TestRotationInvariants:
    @pytest.fixture(scope="class")
    def rotations(self):
        table = groups.load_group_table()
        return sorted({w for num in table for w, _ in groups.close_ops(table[num][1])})

    def test_memoized_invariants_match_uncached(self, rotations):
        assert len(rotations) == 64
        for w in rotations:
            assert _assert_rotation_info(w)

    def test_candidate_rotations_match_uncached(self, rotations, reduced_cells):
        """Every candidate rotation of the reduced cells, proper and improper,
        at the default tolerance and at a loose one that admits integer
        matrices of no finite order."""
        seen = {}
        for cell in reduced_cells:
            for tol in (1e-3, 0.3):
                for w in detect._candidate_rotations(cell, tol):
                    w = tuple(map(tuple, w.tolist()))
                    if w not in seen:
                        seen[w] = _assert_rotation_info(w)
        finite = [w for w, ok in seen.items() if ok]
        assert set(finite) - set(rotations)
        assert len(finite) < len(seen)
        assert {groups._det(w) for w in finite} == {-1, 1}

    def test_cached_projector_is_read_only(self):
        proj = groups.rotation_info(((0, -1, 0), (1, 0, 0), (0, 0, 1)))[3]
        with pytest.raises(ValueError):
            proj[0, 0] = 1.0
        assert np.array_equal(proj, np.diag([0.0, 0.0, 1.0]))


# Detects a Pc cell with two generic orbits of equal size and prints the
# full result; run in fresh interpreters with different string-hash seeds.
_DETECT_EQUAL_COUNTS = """
import sys
import numpy as np
from orbit_cells import lattice_for, orbit_structure
from crysalign.symmetry import detect_spacegroup
rng = np.random.default_rng(0)
res = detect_spacegroup(orbit_structure(lattice_for(7, rng), 7, rng))
print(res.number, res.op_arrays[0].tolist(), res.op_arrays[1].tolist(), repr(res.orbits))
"""


class TestReducedPrimitiveBasis:
    def test_detection_basis_is_right_handed(self):
        """Detection reduces the primitive cell with the shared LLL (a
        primitive input through its lattice's cached basis), which may
        return a left-handed basis; the basis it searches has det +1."""
        real_mapper = SiteMapper
        primitive, reduced, signs = [], [], []

        def reducing(real_reduce):
            def reduce(cell):
                u = real_reduce(cell)
                primitive.append(cell)
                signs.append(round(np.linalg.det(u)))
                return u
            return reduce

        class Recording(real_mapper):
            def __init__(self, cell, *args):
                if len(reduced) < len(primitive):
                    reduced.append(cell)
                super().__init__(cell, *args)

        with pytest.MonkeyPatch.context() as mp:
            for module in (structcore, detect):
                mp.setattr(module, "reduced_basis", reducing(module.reduced_basis))
            mp.setattr(detect, "SiteMapper", Recording)
            for _, s in itertools.islice(generic_orbit_cells(0), 0, None, 3):
                detect_spacegroup(s)
        assert len(reduced) == len(primitive) == 76
        assert signs.count(-1) >= 5
        for cell_p, cell_r in zip(primitive, reduced):
            u = cell_r @ np.linalg.inv(cell_p)
            assert np.abs(u - np.round(u)).max() < 1e-9
            assert round(np.linalg.det(np.round(u))) == 1


class _NoAxes(dict):
    """An axis summary that enters the conventional-candidate loop even when
    it is empty: the signature route that a set of I and -I skips."""

    def __bool__(self):
        return True


def _inversion_cells():
    """(number, tol, cell): seeded P1 and P-1 cells of two generic orbits,
    at a tight and a loose tolerance."""
    rng = np.random.default_rng(5)
    for _ in range(8):
        for number in (1, 2):
            s = orbit_structure(lattice_for(number, rng), number, rng)
            for tol in (1e-3, 0.1):
                yield number, tol, s


class TestRepeatedWorkSkipped:
    def test_inversion_short_circuit_matches_signature_route(self):
        """A set of I and -I skips the signature; it gets the number,
        ``ambiguous``, orbits and operations the signature route gives."""
        real_axes, real_signature = detect._axes_summary, detect.signature
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detect, "signature", lambda *a: calls.append(1) or real_signature(*a))
            short = [(number, detect_spacegroup(s, tol))
                     for number, tol, s in _inversion_cells()]
            assert not calls
            mp.setattr(detect, "_axes_summary", lambda rots: _NoAxes(real_axes(rots)))
            routed = [detect_spacegroup(s, tol) for _, tol, s in _inversion_cells()]
            assert len(calls) == len(routed)
        assert len(short) == 32
        for (number, a), b in zip(short, routed):
            assert a.number == b.number == number and not a.ambiguous and not b.ambiguous
            assert a == b
            assert all(np.array_equal(x, y) for x, y in zip(a.op_arrays, b.op_arrays))

    def test_stacked_translations_equal_products_one_at_a_time(self):
        """Every translation set detection maps between bases, on seeded
        cells and on seeded random and rational matrices, equals the
        per-operation ``(mat @ t) % 1.0`` to the bit."""
        real = detect._images_mod1
        seen = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detect, "_images_mod1",
                       lambda mat, ts: seen.append((mat, ts)) or real(mat, ts))
            for _, s in itertools.islice(generic_orbit_cells(0), 0, None, 3):
                detect_spacegroup(s)
        # One set in the input basis for each of the 76 cells, and one for
        # each of the 77 conventional signatures taken.
        assert len(seen) == 76 + 77
        rng = np.random.default_rng(3)
        for k in range(200):
            if k % 2:
                u = rng.integers(-2, 3, size=(3, 3))
                mat = np.linalg.inv(u.T * 1.0) if round(np.linalg.det(u)) else np.eye(3)
            else:
                mat = rng.normal(size=(3, 3)) * 10.0 ** rng.integers(-3, 4)
            seen.append((mat, rng.random((k % 40, 3))))
        for mat, ts in seen:
            want = np.array([(mat @ t) % 1.0 for t in ts]).reshape(-1, 3)
            assert np.array_equal(real(mat, ts), want)


# Prints the detected number and the rise in peak resident memory (MB) that
# detecting a seeded 1,000-site random Na/Cl cell in a cubic box causes.
_DETECT_PEAK_RISE = """
import numpy as np
from crysalign.structcore import CrystalStructure, Lattice, Site
from crysalign.symmetry import detect_spacegroup

def peak_kb():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM"))

rng = np.random.default_rng(0)
s = CrystalStructure(Lattice(25, 25, 25, 90, 90, 90),
                     tuple(Site(("Cl", "Na")[i % 2], tuple(p))
                           for i, p in enumerate(rng.random((1000, 3)))))
before = peak_kb()
number = detect_spacegroup(s).number
print(number, (peak_kb() - before) / 1024)
"""


class TestDeterminism:
    def test_equal_counts_detect_alike_across_hash_seeds(self):
        path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
        outs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed)
            done = subprocess.run([sys.executable, "-c", _DETECT_EQUAL_COUNTS],
                                  env=env, capture_output=True, text=True,
                                  timeout=120, check=True)
            outs.append(done.stdout)
        assert outs[0].startswith("7 ")
        assert outs[0] == outs[1]


def _signature_fractions(ops):
    """The signature as computed before it used integer twelfths: one
    representative at a time, canonical translations as Fractions."""
    ops = [(tuple(tuple(int(x) for x in row) for row in w),
            tuple(float(t) for t in tr)) for w, tr in ops]
    centerings = [np.array(tr) for w, tr in ops
                  if w == groups.I3 and any(abs(t) > 1e-6 for t in tr)]
    m = len(centerings) + 1
    if m == 2:
        halves = sum(1 for t in centerings[0] if abs(t - 0.5) < 1e-6)
        cclass = "I" if halves == 3 else "S"
    else:
        cclass = {1: "P", 3: "R", 4: "F"}.get(m, f"?{m}")
    base = np.array(list(np.ndindex(5, 5, 5)), dtype=float) - 2.0
    lattice_pts = np.concatenate([base] + [base + c for c in centerings])
    reps = {}
    for w, tr in ops:
        reps.setdefault(w, tr)
    items = []
    for w, tr in reps.items():
        proj = _projector(w)
        w_int = proj @ np.array(tr)
        residues = w_int[None, :] - lattice_pts @ proj.T
        best = residues[np.argmin(np.einsum("ij,ij->i", residues, residues))]
        canon = tuple(sorted(min(f, 1 - f) for f in
                             (Fraction(round((float(x) % 1.0) * 12), 12) % 1 for x in best)))
        items.append((groups._det(w), groups._trace(w), _axis_class(w), canon))
    return (cclass, m, tuple(sorted(items)))


class TestGenericOrbits:
    """Two generic orbits of each of the 226 table groups of order <= 96.

    Seed 1: the seed-0 draw puts the two P3m1 layers 3e-4 A apart along c,
    within tolerance of the higher symmetry P-6m2, which detection rightly
    reports.
    """

    @pytest.fixture(scope="class")
    def detected(self):
        """(number, result) per cell, and every conventional operation set
        detection passed to ``signature``, as (rotation, translation) pairs."""
        op_sets = []
        real = detect.signature

        def recording(rotations, translations):
            op_sets.append(list(zip(rotations, translations)))
            return real(rotations, translations)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detect, "signature", recording)
            results = [(num, detect_spacegroup(s)) for num, s in generic_orbit_cells(1)]
        return results, op_sets

    def test_every_operation_found(self, detected):
        results, _ = detected
        index = groups.signature_index()
        partners = {n: nums for nums in index.values() for n in nums}
        assert len(results) == 226
        for num, res in results:
            assert len(res.op_arrays[0]) == group_order(num), num
            assert res.number in partners[num], num
            assert res.ambiguous == (len(partners[num]) > 1), num
        # Known fault F1: the lower member of a shared-signature pair comes
        # back as the higher one (flagged ambiguous above). This list empties
        # once detection tells the pair apart.
        relabelled = sorted(num for num, res in results if res.number != num)
        assert relabelled == sorted(nums[0] for nums in index.values() if len(nums) > 1)

    def test_orbits_are_the_lifts_in_order(self, detected):
        results, _ = detected
        for (num, res), (_, s) in zip(results, generic_orbit_cells(1)):
            mapped, orbits = _lift(s, res)
            assert mapped.all() and res.orbits == orbits, num

    def test_integer_signature_partitions_like_fractions(self, detected):
        _, op_sets = detected
        closed = [groups.close_ops(gens) for _, gens, _ in groups.load_group_table().values()]
        forward, backward = {}, {}
        for ops in closed + op_sets:
            old, new = _signature_fractions(ops), groups.signature(*_op_arrays(ops))
            assert forward.setdefault(old, new) == new
            assert backward.setdefault(new, old) == old
        # The P1 and P-1 cells no longer reach ``signature``.
        assert len(op_sets) >= 224 and len(forward) >= 210
