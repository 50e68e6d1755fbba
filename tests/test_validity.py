import itertools
import random
import time

from crysalign.structcore import Composition, CrystalStructure, Lattice, Site
from crysalign.validity import (
    build_report,
    check_chemical,
    check_composition_match,
    check_structural,
    find_oxidation_assignment,
)


def brute_force_neutral(c, table):
    """Exhaustive oracle: any combination of listed states summing to zero."""
    elements = sorted(c.counts)
    pools = [table.states.get(el, ()) for el in elements]
    if any(not p for p in pools):
        return False
    for combo in itertools.product(*pools):
        if sum(s * c.counts[el] for s, el in zip(combo, elements)) == 0:
            return True
    return False


def first_neutral(c, table):
    """Product-order oracle: the first combination of the reduced
    composition's states, in ``itertools.product`` order, that sums to zero."""
    counts = c.reduced()
    combos = itertools.product(*(table.states[el] for el in counts))
    combo = next((combo for combo in combos
                  if sum(counts[el] * st for el, st in zip(counts, combo)) == 0), None)
    return None if combo is None else dict(zip(counts, combo))


class TestStructural:
    def test_good_cell_passes(self, rocksalt):
        ok, failed = check_structural(rocksalt)
        assert ok and failed == []

    def test_close_contact_fails(self):
        s = CrystalStructure(
            Lattice(4, 4, 4, 90, 90, 90),
            (Site("Na", (0.0, 0.0, 0.0)), Site("Cl", (0.05, 0.0, 0.0))))
        ok, failed = check_structural(s)
        assert not ok
        assert any("distance" in f for f in failed)

    def test_coincident_sites_fail(self):
        # Rock salt with every site listed twice: each copy is 0 A from its twin.
        s = CrystalStructure(
            Lattice(5.64, 5.64, 5.64, 90, 90, 90),
            (Site("Na", (0.0, 0.0, 0.0)), Site("Na", (0.0, 0.0, 0.0)),
             Site("Cl", (0.5, 0.5, 0.5)), Site("Cl", (0.5, 0.5, 0.5))))
        assert check_structural(s) == (False, ["pair_distance"])

    def test_tiny_cell_fails(self):
        s = CrystalStructure(
            Lattice(1.2, 1.2, 1.2, 90, 90, 90),
            (Site("H", (0.0, 0.0, 0.0)),))
        ok, failed = check_structural(s)
        assert not ok

    def test_extreme_angle_fails(self):
        s = CrystalStructure(
            Lattice(6, 6, 6, 15, 90, 90),
            (Site("Na", (0.0, 0.0, 0.0)),))
        ok, failed = check_structural(s)
        assert not ok
        assert any("angle" in f for f in failed)


class TestChemical:
    def test_caco3_neutral(self, oxidation_table):
        assert check_chemical(Composition.from_formula("CaCO3"),
                              oxidation_table)

    def test_caco3_assignment(self, oxidation_table):
        got = find_oxidation_assignment(Composition.from_formula("CaCO3"),
                                        oxidation_table)
        assert got == {"Ca": 2, "C": 4, "O": -2}

    def test_nacl_assignment(self, oxidation_table):
        got = find_oxidation_assignment(Composition.from_formula("NaCl"),
                                        oxidation_table)
        assert got == {"Na": 1, "Cl": -1}

    def test_unbalanceable_composition(self, oxidation_table):
        # Two alkali cations with no anion present.
        assert not check_chemical(Composition({"Na": 1, "K": 1}),
                                  oxidation_table)

    def test_matches_brute_force_oracle(self, oxidation_table):
        rng = random.Random(11)
        elements = sorted(el for el, v in oxidation_table.states.items() if v)
        for _ in range(100):
            k = rng.randint(1, 4)
            chosen = rng.sample(elements, k)
            c = Composition({el: rng.randint(1, 4) for el in chosen})
            assert check_chemical(c, oxidation_table) == \
                brute_force_neutral(c, oxidation_table)

    def test_first_neutral_in_product_order(self, oxidation_table):
        rng = random.Random(12)
        elements = sorted(el for el, v in oxidation_table.states.items() if v)
        for _ in range(2000):
            chosen = rng.sample(elements, rng.randint(1, 6))
            c = Composition({el: rng.randint(1, 4) for el in chosen})
            assert find_oxidation_assignment(c, oxidation_table) == \
                first_neutral(c, oxidation_table)

    def test_first_neutral_beyond_ten_million_combinations(self, oxidation_table):
        # 16,588,800 combinations; the earliest states win at every size.
        c = Composition.from_formula("Br2Cr3N3Os3Re5S2Sb5Se5SnTe5Ti5V2")
        got = find_oxidation_assignment(c, oxidation_table)
        assert got == first_neutral(c, oxidation_table)
        assert {el: got[el] for el in ("Cr", "Os", "Sn", "Ti", "V")} == \
            {"Cr": 3, "Os": 4, "Sn": -4, "Ti": 2, "V": 4}

    def test_large_unbalanceable_composition_is_fast(self, oxidation_table):
        # One atom each of twelve multivalent elements: 9,216,000
        # combinations, none of them neutral.
        c = Composition({el: 1 for el in ("Mn", "Mo", "Os", "V", "Ru", "Re",
                                          "U", "Np", "Pu", "Ti", "Cr", "Fe")})
        start = time.perf_counter()
        assert find_oxidation_assignment(c, oxidation_table) is None
        assert time.perf_counter() - start < 2.0

    def test_twenty_four_unbalanceable_elements_are_fast(self, oxidation_table):
        # One atom each of 24 multivalent elements: 84,934,656,000
        # combinations, none of them neutral.
        c = Composition({el: 1 for el in (
            "Au", "Bi", "Ce", "Co", "Cr", "Cu", "Eu", "Fe", "Hg", "In", "Ir", "Md",
            "Mn", "Mo", "Np", "Os", "Pu", "Re", "Ru", "Ti", "U", "V", "W", "Xe")})
        start = time.perf_counter()
        assert find_oxidation_assignment(c, oxidation_table) is None
        assert time.perf_counter() - start < 0.05


class TestCompositionMatch:
    def test_reduced_formula_equality(self):
        assert check_composition_match(Composition({"Na": 4, "Cl": 4}),
                                       Composition({"Na": 1, "Cl": 1}))

    def test_different_stoichiometry(self):
        assert not check_composition_match(Composition({"Ti": 1, "O": 2}),
                                           Composition({"Ti": 1, "O": 1}))


class TestReport:
    def test_all_pass(self, rocksalt, oxidation_table):
        r = build_report(rocksalt, Composition({"Na": 1, "Cl": 1}),
                         oxidation_table)
        assert (r.structural, r.chemical, r.composition_match) == (True, True, True)
        assert not r.failed_checks

    def test_no_target_composition(self, rocksalt, oxidation_table):
        # Unconstrained prompts count the composition check as satisfied.
        r = build_report(rocksalt, None, oxidation_table)
        assert r.composition_match

    def test_wrong_composition(self, rocksalt, oxidation_table):
        r = build_report(rocksalt, Composition({"Ca": 1, "O": 1}),
                         oxidation_table)
        assert r.structural and not r.composition_match


class TestTable:
    def test_default_has_common_elements(self, oxidation_table):
        for el in ("Na", "Cl", "Ca", "C", "O", "Fe"):
            assert oxidation_table.states.get(el, ())

    def test_most_common_state_listed_first(self, oxidation_table):
        assert oxidation_table.states["O"][0] == -2
        assert oxidation_table.states["Na"][0] == 1
        assert oxidation_table.states["C"][0] == 4
