import math
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crysalign import metrics, structcore
from crysalign.metrics import (
    MatchConfig,
    MatchRecord,
    MetricReport,
    MetricValue,
    aggregate,
    cluster_indices,
    discovery_rates,
    is_novel,
    novelty,
    site_mapper,
    structures_match,
    sun_ratio,
    uniqueness,
)
from crysalign.structcore import CrystalStructure, Lattice, Site

from conftest import make_structure


def records(structures):
    return [MatchRecord.from_structure(s) for s in structures]


def match(a, b, cfg=MatchConfig()):
    """``structures_match`` on two structures, each made a record and b's
    mapper built for this one call."""
    ra, rb = records([a, b])
    return structures_match(ra, rb, site_mapper(rb, cfg), cfg)


def targets(reference, cfg=MatchConfig()):
    """The reference form ``is_novel`` reads: each record with its mapper."""
    return [(r, site_mapper(r, cfg)) for r in reference]


def shifted(s, delta):
    sites = tuple(
        Site(site.element,
             tuple((c + d) % 1.0 for c, d in zip(site.frac_coords, delta)))
        for site in s.sites)
    return CrystalStructure(s.lattice, sites)


def rescaled(s, factor):
    lat = s.lattice
    return CrystalStructure(
        Lattice(lat.a * factor, lat.b * factor, lat.c * factor,
                lat.alpha, lat.beta, lat.gamma), s.sites)


def random_structure(rng):
    n = rng.randint(1, 4)
    elements = ["Na", "Cl", "Ca", "O", "Ti"]
    return make_structure(
        (rng.uniform(3, 9), rng.uniform(3, 9), rng.uniform(3, 9),
         rng.uniform(75, 105), rng.uniform(75, 105), rng.uniform(75, 105)),
        [(rng.choice(elements),
          (rng.random(), rng.random(), rng.random())) for _ in range(n)])


class TestStructuresMatch:
    def test_reflexive(self, rocksalt):
        assert match(rocksalt, rocksalt)

    def test_symmetric_on_random_pairs(self):
        rng = random.Random(2)
        for _ in range(30):
            a, b = random_structure(rng), random_structure(rng)
            assert match(a, b) == match(b, a)

    def test_rescale_differs(self, rocksalt):
        assert not match(rocksalt, rescaled(rocksalt, 2.0))

    def test_translation_invariant(self, rocksalt):
        assert match(rocksalt, shifted(rocksalt, (0.25, 0.25, 0.25)))

    def test_site_permutation_invariant(self, rocksalt):
        permuted = CrystalStructure(rocksalt.lattice, rocksalt.sites[::-1])
        assert match(rocksalt, permuted)

    def test_small_perturbation_matches(self, cscl):
        nudged = make_structure(
            (4.11, 4.11, 4.11, 90, 90, 90),
            [("Cs", (0.005, 0.0, 0.0)), ("Cl", (0.5, 0.5, 0.5))])
        assert match(cscl, nudged)

    def test_large_perturbation_differs(self, cscl):
        moved = make_structure(
            (4.11, 4.11, 4.11, 90, 90, 90),
            [("Cs", (0.2, 0.0, 0.0)), ("Cl", (0.5, 0.5, 0.5))])
        assert not match(cscl, moved)

    def test_different_formulas_differ(self, cscl, rocksalt):
        assert not match(cscl, rocksalt)

    def test_nan_coordinate_never_matches(self):
        lattice = Lattice(5.35, 5.35, 5.35, 90, 90, 90)
        valid = CrystalStructure(lattice, (Site("K", (0.0, 0.0, 0.0)),
                                           Site("F", (0.5, 0.5, 0.5))))
        # Site rejects non-finite coordinates; set one past that check to
        # test the matcher's own guard.
        f_nan = Site("F", (0.5, 0.5, 0.5))
        object.__setattr__(f_nan, "frac_coords", (math.nan, 0.5, 0.5))
        broken = CrystalStructure(lattice, (Site("K", (0.0, 0.0, 0.0)), f_nan))
        assert not match(broken, valid)
        assert not match(valid, broken)
        assert not match(broken, broken)

    def test_element_identity_matters(self, cscl):
        swapped = make_structure(
            (4.11, 4.11, 4.11, 90, 90, 90),
            [("Cl", (0.0, 0.0, 0.0)), ("Cs", (0.5, 0.5, 0.5))])
        # Same composition and geometry; Cl now on the corner site.
        assert match(cscl, swapped) == match(swapped, cscl)


def supercell(s, n):
    """The n x n x n supercell of s."""
    lat = s.lattice
    return CrystalStructure(
        Lattice(n * lat.a, n * lat.b, n * lat.c, lat.alpha, lat.beta, lat.gamma),
        tuple(Site(site.element, tuple((c + k) / n for c, k in zip(site.frac_coords, shift)))
              for site in s.sites for shift in np.ndindex(n, n, n)))


class TestMatchScale:
    @pytest.mark.parametrize("n, scale", [(1, 1.0), (2, 1.0), (3, 1.0), (1, 1.5)])
    @pytest.mark.parametrize("direction", [(1, 0, 0), (1, 1, 1)])
    def test_tolerance_is_a_length(self, rocksalt, n, scale, direction):
        """One Na moved by 0.9 tol matches its cell and by 1.1 tol does not,
        with tol ``site_tol`` mean site spacings: the same length in the 8-,
        64- and 216-atom rock-salt cells, and 1.5 times it in rock salt
        expanded 1.5 times."""
        s = supercell(rescaled(rocksalt, scale), n)
        tol = MatchConfig().site_tol * (s.volume() / s.num_sites) ** (1.0 / 3.0)
        assert tol == pytest.approx(0.1 * scale * 5.64 / 2)
        unit = np.array(direction) / np.linalg.norm(direction)
        for factor, want in ((0.9, True), (1.1, False)):
            frac = s.frac_array()
            frac[0] += factor * tol * unit @ np.linalg.inv(s.lattice.matrix())
            assert s.sites[0].element == "Na"
            moved = s.with_coords(frac)
            assert match(moved, s) is want
            assert match(s, moved) is want

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmSize")
    def test_large_pair_decides_in_bounded_time(self):
        """Two different 1,000-site cells with one lattice decide in under
        1 s, with the address space capped 1 GiB above the warm process."""
        here = Path(__file__).resolve().parent
        done = subprocess.run([sys.executable, "-c", _LARGE_PAIR_MATCH,
                               str(here.parent / "src"), str(here)],
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        matched, seconds = done.stdout.split()
        assert matched == "False"
        assert float(seconds) < 1.0


# Decision and seconds of one match of two random 1,000-site Na/Cl cells of
# one lattice, b's mapper built in the timed span, after a warm-up match,
# under an address-space cap.
_LARGE_PAIR_MATCH = """
import resource, sys, time
sys.path[:0] = sys.argv[1:3]
from crysalign.metrics import MatchRecord, site_mapper, structures_match
from test_structcore import _random_nacl

def status_kb(key):
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith(key + ":"))

a, b, small = (MatchRecord.from_structure(_random_nacl(n, seed=seed))
                for n, seed in ((1000, 1), (1000, 2), (4, 3)))
structures_match(small, small, site_mapper(small))
cap = status_kb("VmSize") * 1024 + 2**30
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard))
start = time.perf_counter()
matched = structures_match(a, b, site_mapper(b))
print(matched, time.perf_counter() - start)
"""


class TestUniqueness:
    def test_two_identical_pairs(self, cscl, rocksalt):
        batch = [cscl, shifted(cscl, (0.1, 0.1, 0.1)),
                 rocksalt, shifted(rocksalt, (0.25, 0.0, 0.0))]
        assert uniqueness(records(batch)) == pytest.approx(0.5)

    def test_all_distinct(self, cscl, rocksalt, diamond):
        assert uniqueness(records([cscl, rocksalt, diamond])) == pytest.approx(1.0)

    def test_all_identical(self, cscl):
        assert uniqueness(records([cscl] * 5)) == pytest.approx(1 / 5)

    def test_batch_order_invariant(self, cscl, rocksalt, diamond):
        batch = records([cscl, rocksalt, diamond, shifted(cscl, (0.3, 0.0, 0.0))])
        for perm in ([0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2]):
            assert uniqueness([batch[i] for i in perm]) == pytest.approx(0.75)

    def test_duplicate_never_increases_clusters(self, cscl, rocksalt):
        base = records([cscl, rocksalt])
        more = base + records([cscl])
        n_base = len(set(cluster_indices(base)))
        n_more = len(set(cluster_indices(more)))
        assert n_more == n_base

    def test_each_cell_reduced_once(self, monkeypatch):
        calls = []
        real = structcore.niggli_reduce

        def counting(lattice, *args, **kwargs):
            calls.append(lattice)
            return real(lattice, *args, **kwargs)

        monkeypatch.setattr(structcore, "niggli_reduce", counting)
        monkeypatch.setattr(metrics, "niggli_reduce", counting, raising=False)
        # One formula and site count, cells too far apart to match: every
        # pair reaches the lattice comparison.
        batch = [make_structure((4.0 + 0.5 * k, 4.0, 4.0, 90, 90, 90),
                                [("Cs", (0.0, 0.0, 0.0)), ("Cl", (0.5, 0.5, 0.5))])
                 for k in range(8)]
        assert len(set(cluster_indices(records(batch)))) == len(batch)
        assert len(calls) == len(batch)


    def test_each_formula_reduced_once(self, monkeypatch):
        calls = []
        real = structcore.reduced_formula

        def counting(composition):
            calls.append(composition)
            return real(composition)

        monkeypatch.setattr(structcore, "reduced_formula", counting)
        monkeypatch.setattr(metrics, "reduced_formula", counting, raising=False)
        # One formula and site count, cells too far apart to match: every
        # pair compares formulas.
        batch = [make_structure((4.0 + 0.5 * k, 4.0, 4.0, 90, 90, 90),
                                [("Cs", (0.0, 0.0, 0.0)), ("Cl", (0.5, 0.5, 0.5))])
                 for k in range(8)]
        assert len(set(cluster_indices(records(batch)))) == len(batch)
        assert len(calls) == len(batch)

    def test_formula_is_reduced_composition(self, cscl, rocksalt, diamond, calcite):
        rng = random.Random(5)
        for s in [cscl, rocksalt, diamond, calcite] + [random_structure(rng)
                                                       for _ in range(20)]:
            assert s.formula == structcore.reduced_formula(s.composition())


class TestSharedAssignment:
    def test_same_values_with_assignment(self, cscl, rocksalt, diamond):
        """``discovery_rates`` against the three definitions written out
        from one ``cluster_indices`` pass and ``is_novel``."""
        rng = random.Random(11)
        pool = records([cscl, rocksalt, diamond, shifted(cscl, (0.1, 0.1, 0.1)),
                        shifted(diamond, (0.25, 0.25, 0.25)), random_structure(rng)])
        for _ in range(40):
            batch = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
            e_hulls = [rng.choice([0.0, 0.02, None]) for _ in batch]
            reference = rng.choice([[], [pool[1]], [pool[0], pool[2]]])
            assignment = cluster_indices(batch)
            novel = [is_novel(r, targets(reference)) for r in batch]
            sun = [e is not None and e < 0.016 and assignment[i] == i and novel[i]
                   for i, e in enumerate(e_hulls)]
            n = len(batch)
            want = (len(set(assignment)) / n, sum(novel) / n, sum(sun) / n)
            assert discovery_rates(batch, e_hulls, reference) == want
            assert uniqueness(batch) == want[0]
            assert novelty(batch, reference) == want[1]
            assert sun_ratio(batch, e_hulls, reference) == want[2]

    def test_rejects_empty_and_mismatched(self, cscl):
        with pytest.raises(ValueError):
            discovery_rates([], [], [])
        with pytest.raises(ValueError):
            discovery_rates(records([cscl]), [0.0, 0.0], [])


def spacing_tol(b, cfg):
    """``cfg.site_tol`` in Angstrom: that many mean site spacings of b."""
    return cfg.site_tol * (b.volume() / b.num_sites) ** (1.0 / 3.0)


def loop_sites_assign(a, b, cfg):
    """The matcher's site rule as a per-site loop: the reference for
    ``structures_match`` on two structures with one lattice."""
    ea, eb = a.elements(), b.elements()
    if sorted(ea) != sorted(eb):
        return False
    fa, fb = a.frac_array(), b.frac_array()
    m = b.lattice.matrix()
    tol = spacing_tol(b, cfg)
    anchor = min(set(eb), key=lambda el: (eb.count(el), el))
    first = ea.index(anchor)
    for j in [j for j, el in enumerate(eb) if el == anchor]:
        shift = (fb[j] - fa[first]) % 1.0
        used = set()
        for i in range(len(ea)):
            best, best_dist = None, None
            for k in range(len(eb)):
                if eb[k] != ea[i]:
                    continue
                d = fb[k] - (fa[i] + shift)
                d -= np.round(d)
                x = d @ m
                dist = math.sqrt((x * x).sum())
                if math.isnan(dist):         # no match for this site
                    best_dist = dist
                    break
                if best_dist is None or dist < best_dist:   # first on a tie
                    best, best_dist = k, dist
            if not best_dist < tol or best in used:
                break
            used.add(best)
        else:
            return True
    return False


def fractional_sites_assign(a, b, site_tol):
    """The previous site rule, as a per-site loop: for each translation
    taking a's first site onto a same-element site of b, a's sites in order
    each take the nearest unused same-element site of b (the first on a
    tie), at a wrapped fractional difference of at most ``site_tol`` on
    every axis."""
    fa = a.frac_array()
    fb = b.frac_array()
    ea, eb = a.elements(), b.elements()
    if sorted(ea) != sorted(eb):
        return False

    def wrap(d):
        return d - np.round(d)

    for j in [j for j, el in enumerate(eb) if el == ea[0]]:
        shift = fb[j] - fa[0]
        used = set()
        ok = True
        for i in range(len(ea)):
            best, best_cost = None, None
            for k in range(len(eb)):
                if k in used or eb[k] != ea[i]:
                    continue
                cost = float(np.abs(wrap(fa[i] + shift - fb[k])).max())
                if best_cost is None or cost < best_cost:
                    best, best_cost = k, cost
            if best is None or not best_cost <= site_tol:
                ok = False
                break
            used.add(best)
        if ok:
            return True
    return False


class TestSitesAssignOracle:
    @staticmethod
    def grid_structure(rng, elements, n):
        """Sites on an eighth grid, some listed twice: many equal distances."""
        sites = [(rng.choice(elements), tuple(rng.randrange(8) / 8 for _ in range(3)))
                 for _ in range(n)]
        sites += [rng.choice(sites) for _ in range(rng.randint(0, 2))]
        return make_structure((5.0, 5.0, 5.0, 90, 90, 90), sites)

    @staticmethod
    def moved(rng, s, step):
        """Same sites shuffled, translated and nudged by up to ``step``."""
        delta = [rng.randrange(8) / 8 for _ in range(3)]
        sites = [Site(site.element,
                      tuple((c + d + rng.uniform(-step, step)) % 1.0
                            for c, d in zip(site.frac_coords, delta)))
                 for site in s.sites]
        rng.shuffle(sites)
        return CrystalStructure(s.lattice, tuple(sites))

    def test_matches_loop_on_seeded_batches(self):
        rng = random.Random(17)
        outcomes = set()
        for _ in range(300):
            a = self.grid_structure(rng, ["Na", "Cl", "O"], rng.randint(1, 6))
            b = rng.choice([self.moved(rng, a, rng.choice([0.0, 0.01, 0.05])),
                            self.grid_structure(rng, ["Na", "Cl", "O"], a.num_sites)])
            cfg = MatchConfig(site_tol=rng.choice([0.03, 0.1, 0.2, 0.4]))
            want = loop_sites_assign(a, b, cfg)
            assert match(a, b, cfg) == want
            assert match(b, a, cfg) == loop_sites_assign(b, a, cfg)
            outcomes.add(want)
        assert outcomes == {True, False}

    def test_first_minimum_wins_a_tie(self):
        # The Na at 0.5 is 0.625 A from both Na of b, and goes to the first.
        # When b lists 0.625 first, the Na at 0.625 goes there too: no two
        # sites onto one, so no match, where the previous greedy rule gave
        # the second Na the far site instead.
        a = make_structure((5.0, 5.0, 5.0, 90, 90, 90),
                           [("Cl", (0, 0, 0)), ("Na", (0.5, 0, 0)), ("Na", (0.625, 0, 0))])
        cfg = MatchConfig(site_tol=0.4)
        assert spacing_tol(a, cfg) > 5.0 * 0.25
        for order, want in (((0.375, 0.625), True), ((0.625, 0.375), False)):
            b = make_structure((5.0, 5.0, 5.0, 90, 90, 90),
                               [("Cl", (0, 0, 0))] + [("Na", (x, 0, 0)) for x in order])
            assert loop_sites_assign(a, b, cfg) is want
            assert match(a, b, cfg) is want
            assert fractional_sites_assign(a, b, 0.25)

    def test_matches_loop_with_nan_sites(self):
        rng = random.Random(19)
        for _ in range(100):
            a = self.grid_structure(rng, ["Na", "Cl"], rng.randint(2, 5))
            b = self.moved(rng, a, 0.0)
            site = rng.choice(b.sites)
            coords = list(site.frac_coords)
            coords[rng.randrange(3)] = math.nan
            # Site rejects non-finite coordinates; set one past that check.
            object.__setattr__(site, "frac_coords", tuple(coords))
            for x, y in ((a, b), (b, a), (b, b)):
                assert not loop_sites_assign(x, y, MatchConfig())
                assert not match(x, y)

    def test_duplicated_site_matches_nothing(self, rocksalt):
        """Two sites of one element at one point both go to the first of
        them, so the cell matches neither itself nor a shifted copy."""
        doubled = CrystalStructure(rocksalt.lattice, rocksalt.sites + rocksalt.sites[:1])
        for other in (doubled, shifted(doubled, (0.25, 0.0, 0.0))):
            assert not match(doubled, other)
            assert not match(other, doubled)
            assert not loop_sites_assign(doubled, other, MatchConfig())

    @staticmethod
    def valid_structure(rng, like=None):
        """A random cell of 2 to 8 Na, Cl and O sites, every two at least
        2 A apart (images included); with ``like``, in its lattice and of
        its elements."""
        while True:
            if like is None:
                s = make_structure(
                    (rng.uniform(4, 8), rng.uniform(4, 8), rng.uniform(4, 8),
                     rng.uniform(80, 100), rng.uniform(80, 100), rng.uniform(80, 100)),
                    [(rng.choice(["Na", "Cl", "O"]), (rng.random(), rng.random(), rng.random()))
                     for _ in range(rng.randint(2, 8))])
            else:
                s = CrystalStructure(like.lattice, tuple(
                    Site(el, (rng.random(), rng.random(), rng.random()))
                    for el in like.elements()))
            if structcore.all_pair_min_distance(s) >= 2.0:
                return s

    @staticmethod
    def displaced(rng, s, radii):
        """s shifted and shuffled, site i moved by ``radii[i]`` A in a random
        direction."""
        m = s.lattice.matrix()
        delta = np.array([rng.random() for _ in range(3)])
        sites = []
        for site, r in zip(s.sites, radii):
            v = np.array([rng.gauss(0, 1) for _ in range(3)])
            step = r * v / np.linalg.norm(v) @ np.linalg.inv(m)
            sites.append(Site(site.element, tuple(np.array(site.frac_coords) + delta + step)))
        rng.shuffle(sites)
        return CrystalStructure(s.lattice, tuple(sites))

    def test_agrees_with_fractional_rule_away_from_both_tolerances(self):
        """On structurally valid pairs, the Cartesian rule at ``site_tol``
        0.1 and the previous fractional rule at 0.02 per axis decide alike
        when each site moves well inside both tolerances, or one site well
        outside both."""
        rng = random.Random(23)
        cfg = MatchConfig()
        frac_tol = 0.02
        seen = {True: 0, False: 0}
        for _ in range(150):
            a = self.valid_structure(rng)
            m = a.lattice.matrix()
            # Cartesian radii that the per-axis rule holds within, and beyond
            # which it fails: the cell's perpendicular widths and its edges.
            widths = 1.0 / np.linalg.norm(np.linalg.inv(m), axis=0)
            inner = min(spacing_tol(a, cfg), frac_tol * widths.min())
            outer = max(spacing_tol(a, cfg), frac_tol * sum(a.lattice.lengths))
            # The moved site's other same-element sites stay beyond both.
            assert 3.0 * outer < 2.0
            kind = rng.choice(["inside", "outside", "stranger"])
            if kind == "inside":
                b = self.displaced(rng, a, [rng.uniform(0, inner / 4) for _ in a.sites])
            elif kind == "outside":
                radii = [0.0] * a.num_sites
                radii[rng.randrange(a.num_sites)] = 2.0 * outer
                b = self.displaced(rng, a, radii)
            else:
                b = self.valid_structure(rng, like=a)
            want = {"inside": True, "outside": False}.get(kind)
            for x, y in ((a, b), (b, a)):
                got = match(x, y, cfg)
                assert got == fractional_sites_assign(x, y, frac_tol) == loop_sites_assign(x, y, cfg)
                if want is not None:
                    assert got is want
                seen[got] += 1
        assert all(seen.values())


class TestNovelty:
    def test_subset_of_reference(self, cscl, rocksalt):
        assert novelty(records([cscl, rocksalt]), records([cscl, rocksalt])) == 0.0

    def test_disjoint_compositions(self, cscl, diamond, rocksalt):
        assert novelty(records([cscl, diamond]), records([rocksalt])) == 1.0

    def test_half_in_reference(self, cscl, rocksalt):
        assert novelty(records([cscl, rocksalt]), records([rocksalt])) == pytest.approx(0.5)

    def test_is_novel_prunes_by_formula(self, cscl, rocksalt):
        (r,) = records([cscl])
        assert is_novel(r, targets(records([rocksalt])))
        assert not is_novel(r, targets(records([shifted(cscl, (0.1, 0.2, 0.3))])))


class TestSun:
    def test_duplicates_of_one_novel_stable(self, cscl, rocksalt):
        batch = [cscl, shifted(cscl, (0.1, 0.0, 0.0)), shifted(cscl, (0.2, 0.0, 0.0))]
        got = sun_ratio(records(batch), [0.0, 0.0, 0.0], records([rocksalt]))
        assert got == pytest.approx(1 / 3)

    def test_none_stable(self, cscl, rocksalt):
        assert sun_ratio(records([cscl]), [0.5], records([rocksalt])) == 0.0

    def test_missing_e_hull_not_stable(self, cscl, rocksalt):
        assert sun_ratio(records([cscl]), [None], records([rocksalt])) == 0.0

    def test_constructed_counts(self, cscl, rocksalt, diamond):
        # diamond duplicated (one representative), cscl unstable,
        # rocksalt in the reference: exactly one qualifying structure.
        batch = [diamond, shifted(diamond, (0.25, 0.25, 0.25)), cscl, rocksalt]
        got = sun_ratio(records(batch), [0.0, 0.0, 0.1, 0.0], records([rocksalt]))
        assert got == pytest.approx(1 / 4)

    def test_bounded_by_component_rates(self, cscl, rocksalt, diamond):
        rng = random.Random(7)
        pool = records([cscl, rocksalt, diamond,
                        shifted(cscl, (0.1, 0.1, 0.1)), random_structure(rng)])
        reference = [pool[1]]
        for _ in range(100):
            batch = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
            e_hulls = [rng.choice([0.0, 0.02, None]) for _ in batch]
            stable_rate = sum(
                1 for e in e_hulls if e is not None and e < 0.016) / len(batch)
            s = sun_ratio(batch, e_hulls, reference)
            assert s <= uniqueness(batch) + 1e-12
            assert s <= novelty(batch, reference) + 1e-12
            assert s <= stable_rate + 1e-12


class TestAggregate:
    def test_boolean_proportion(self):
        values = [True] * 5000 + [False] * 5000
        m = aggregate(values)
        assert m.value == pytest.approx(0.5)
        assert m.standard_error == pytest.approx(0.005, abs=1e-12)

    def test_constant_values(self):
        m = aggregate([2.0, 2.0, 2.0])
        assert m.value == 2.0 and m.standard_error == 0.0

    def test_single_value_low_count(self):
        m = aggregate([1.5])
        assert m.standard_error == 0.0 and m.low_count

    def test_matches_brute_force(self):
        rng = random.Random(13)
        values = [rng.uniform(-2, 5) for _ in range(40)]
        m = aggregate(values)
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        assert m.value == pytest.approx(mean, abs=1e-12)
        assert m.standard_error == \
            pytest.approx(math.sqrt(var / len(values)), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestReport:
    def test_csv_and_markdown(self):
        report = MetricReport(entries=(
            MetricValue("uniqueness", 0.75, 0.05, 4, False),
            MetricValue("novelty", 1.0, 0.0, 4, False)))
        csv_text = report.to_csv()
        assert csv_text.splitlines()[0] == "metric,value,standard_error,count"
        assert "uniqueness" in csv_text
        md = report.to_markdown()
        assert "|" in md and "novelty" in md


class TestMatchConfig:
    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(ValueError):
            MatchConfig(length_tol=0.0)

    @pytest.mark.parametrize("name", ["length_tol", "angle_tol", "site_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_tolerance_rejected(self, name, value):
        """A NaN tolerance never fails a comparison and an infinite one
        matches any two cells: both are refused."""
        with pytest.raises(ValueError, match=f"{name} must be a positive finite number"):
            MatchConfig(**{name: value})
