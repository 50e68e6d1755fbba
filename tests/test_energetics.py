import math
import random
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from crysalign import energetics
from crysalign.energetics import (
    CUTOFF,
    MAX_PIVOTS,
    SKIN,
    ConfigurationError,
    CoverageError,
    PairKernel,
    PairPotentialBackend,
    PhaseEntry,
    RelaxationError,
    STABILITY_THRESHOLD,
    energy_above_hull,
    formation_energy,
    is_stable,
    load_reference_phases,
    relax_positions,
)
from crysalign.structcore import Composition, neighbour_pairs

from conftest import make_structure


@pytest.fixture(scope="module")
def backend():
    return PairPotentialBackend.load_default()


def isolated_pair(element, r):
    """Two atoms far from all periodic images: energy is one LJ contact."""
    box = 4 * CUTOFF
    return make_structure(
        (box, box, box, 90, 90, 90),
        [(element, (0.0, 0.0, 0.0)), (element, (r / box, 0.0, 0.0))])


def lj_pair_energy(backend, element, r):
    eps, sigma = backend.pair_parameters(element, element)
    phi = lambda d: 4 * eps * ((sigma / d) ** 12 - (sigma / d) ** 6)
    return phi(r) - phi(CUTOFF)


class TestPairEnergy:
    def test_dimer_energy_exact(self, backend):
        r = 3.1
        s = isolated_pair("Na", r)
        expected = lj_pair_energy(backend, "Na", r) / 2
        assert backend.energy_per_atom(s) == pytest.approx(expected, rel=1e-12)

    def test_dimer_minimum_location(self, backend):
        eps, sigma = backend.pair_parameters("Na", "Na")
        r_star = 2 ** (1 / 6) * sigma
        e_star = backend.energy_per_atom(isolated_pair("Na", r_star))
        for dr in (-0.01, 0.01):
            assert backend.energy_per_atom(
                isolated_pair("Na", r_star + dr)) > e_star

    def test_beyond_cutoff_is_zero(self, backend):
        s = isolated_pair("Na", CUTOFF * 1.5)
        assert backend.energy_per_atom(s) == 0.0

    def test_lorentz_berthelot_mixing(self, backend):
        ea, sa = backend.pair_parameters("Na", "Na")
        eb, sb = backend.pair_parameters("Cl", "Cl")
        em, sm = backend.pair_parameters("Na", "Cl")
        assert em == pytest.approx(math.sqrt(ea * eb), rel=1e-12)
        assert sm == pytest.approx((sa + sb) / 2, rel=1e-12)

    def test_supercell_invariance(self, backend, rocksalt):
        e1 = backend.energy_per_atom(rocksalt)
        doubled = make_structure(
            (11.28, 5.64, 5.64, 90, 90, 90),
            [(site.element,
              ((site.frac_coords[0] + sx) / 2,
               site.frac_coords[1], site.frac_coords[2]))
             for sx in (0, 1) for site in rocksalt.sites])
        e2 = backend.energy_per_atom(doubled)
        assert e2 == pytest.approx(e1, abs=1e-12)

    def test_unknown_element_rejected(self, backend):
        s = make_structure((8, 8, 8, 90, 90, 90), [("Xe", (0, 0, 0))])
        with pytest.raises(ConfigurationError):
            backend.energy_per_atom(s)


def split_pair_parameters(pair_params, a, b):
    """Reference pair lookup: self pairs and cross pairs kept in two dicts,
    each key spelling sorted into one of them by hand."""
    self_pairs, cross_pairs = {}, {}
    for key, params in pair_params.items():
        if isinstance(key, str):
            self_pairs[key] = params
        elif len(key) == 1:
            self_pairs[key[0]] = params
        elif key[0] == key[1]:
            self_pairs[key[0]] = params
        else:
            cross_pairs[frozenset(key)] = params
    if a == b and a in self_pairs:
        return self_pairs[a]
    if frozenset((a, b)) in cross_pairs:
        return cross_pairs[frozenset((a, b))]
    (ea, sa), (eb, sb) = self_pairs[a], self_pairs[b]
    return math.sqrt(ea * eb), 0.5 * (sa + sb)


class TestPairTable:
    def test_shipped_table_matches_split_lookup(self, backend):
        text = (resources.files("crysalign.data") / "pair_potentials.txt").read_text()
        params = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if line:
                key, _, values = line.partition(":")
                elems = key.split()
                eps, sigma = (float(x) for x in values.split())
                params[elems[0] if len(elems) == 1 else tuple(elems)] = (eps, sigma)
        elements = sorted({el for key in params for el in
                           ([key] if isinstance(key, str) else key)})
        assert len(elements) > 30
        for a in elements:
            for b in elements:
                assert backend.pair_parameters(a, b) == \
                    split_pair_parameters(params, a, b), (a, b)

    def test_every_key_spelling_accepted(self):
        params = {"Na": (0.21, 2.3), ("Cl",): (0.17, 2.25), ("Mg", "Mg"): (0.24, 2.1),
                  ("Na", "Cl"): (0.5, 2.6), ("Mg", "Na"): (0.3, 2.2)}
        backend = PairPotentialBackend(params)
        for a in ("Na", "Cl", "Mg"):
            for b in ("Na", "Cl", "Mg"):
                assert backend.pair_parameters(a, b) == \
                    split_pair_parameters(params, a, b), (a, b)

    @pytest.mark.parametrize("key", [("Na", "Cl", "Mg"), ("Na", "Na", "Na"), ()])
    def test_key_of_other_length_rejected(self, key):
        with pytest.raises(ConfigurationError):
            PairPotentialBackend({"Na": (0.21, 2.3), key: (0.5, 2.6)})

    def test_three_element_line_in_text_rejected(self):
        with pytest.raises(ConfigurationError):
            PairPotentialBackend.from_text("Na: 0.21 2.3\nNa Cl Mg: 0.5 2.6\n")

    def test_sigma_beyond_half_the_cutoff_rejected(self):
        with pytest.raises(ConfigurationError, match="2\\*sigma"):
            PairPotentialBackend({"Na": (0.21, 0.5 * CUTOFF + 0.1)})


class TestForces:
    def test_matches_finite_difference(self, backend):
        rng = random.Random(3)
        coords = [(rng.random(), rng.random(), rng.random())
                  for _ in range(4)]
        s = make_structure((6.5, 6.5, 6.5, 90, 90, 90),
                           [("Na" if i % 2 else "Cl", c)
                            for i, c in enumerate(coords)])
        forces = backend.forces(s)
        n = s.num_sites
        h = 1e-6
        cell = 6.5
        for i in range(n):
            for k in range(3):
                def shifted(delta):
                    sites = []
                    for j, site in enumerate(s.sites):
                        fc = list(site.frac_coords)
                        if j == i:
                            fc[k] += delta / cell
                        sites.append((site.element, tuple(fc)))
                    return make_structure((6.5, 6.5, 6.5, 90, 90, 90), sites)
                de = (backend.energy_per_atom(shifted(h)) -
                      backend.energy_per_atom(shifted(-h))) * n / (2 * h)
                assert forces[i][k] == pytest.approx(-de, rel=1e-4, abs=1e-7)


def dense_energy_and_forces(backend, s):
    """Reference: the dense n x n x images evaluation the pair list replaced.

    Returns the energy per atom, the forces, and the scale each is compared
    at: the sum of the magnitudes of the pair terms it adds up.
    """
    elems = s.elements()
    n = len(elems)
    eps = np.zeros((n, n))
    sig = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            eps[i, j], sig[i, j] = backend.pair_parameters(elems[i], elems[j])
    cell = s.lattice.matrix()
    cart = s.frac_array() @ cell
    widths = 1.0 / np.linalg.norm(np.linalg.inv(cell), axis=0)
    counts = np.ceil(CUTOFF / widths).astype(int) + 1
    grids = [np.arange(-c, c + 1) for c in counts]
    shifts = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1).reshape(-1, 3) @ cell
    rel = cart[None, :, None, :] + shifts[None, None, :, :] - cart[:, None, None, :]
    dist = np.linalg.norm(rel, axis=-1)
    mask = (dist > 1e-12) & (dist < CUTOFF)
    d = np.where(mask, dist, 1.0)
    r6 = (sig[:, :, None] / d) ** 6
    at_cut = sig / CUTOFF
    shift = 4.0 * eps * (at_cut ** 12 - at_cut ** 6)
    e = np.where(mask, 4.0 * eps[:, :, None] * (r6 ** 2 - r6) - shift[:, :, None], 0.0)
    dphi = np.where(mask, 4.0 * eps[:, :, None] * (-12.0 * r6 ** 2 + 6.0 * r6) / d, 0.0)
    f = (dphi / d)[:, :, :, None] * rel
    energy = 0.5 * float(e.sum()) / n
    e_scale = 0.5 * float(np.abs(e).sum()) / n
    f_scale = float(np.abs(f).sum(axis=(1, 2)).max())
    return energy, f.sum(axis=(1, 2)), e_scale, f_scale


def assert_matches_dense(backend, s):
    energy, forces, e_scale, f_scale = dense_energy_and_forces(backend, s)
    assert e_scale > 0 and f_scale > 0
    assert abs(backend.energy_per_atom(s) - energy) <= 1e-12 * e_scale
    assert np.abs(backend.forces(s) - forces).max() <= 1e-12 * f_scale


def one_cell(kernel, s):
    """``kernel`` called on the one cell s: positions to (energy, forces)."""
    cell = kernel.add(s)

    def call(cart):
        (energy,), (forces,) = kernel([cell], [cart])
        return energy, forces
    return call


def jittered(s, seed, amount):
    rng = np.random.default_rng(seed)
    frac = s.frac_array() + rng.uniform(-amount, amount, size=(s.num_sites, 3))
    return s.with_coords(frac)


class TestPairListMatchesDense:
    def test_rocksalt(self, backend, rocksalt):
        assert_matches_dense(backend, rocksalt)
        assert_matches_dense(backend, jittered(rocksalt, 1, 0.03))

    def test_skewed_triclinic_cell(self, backend):
        rng = random.Random(11)
        s = make_structure((4.3, 5.2, 6.1, 62, 111, 77),
                           [(el, (rng.random(), rng.random(), rng.random()))
                            for el in ("Na", "Cl", "Na", "Cl")])
        assert_matches_dense(backend, s)

    def test_one_atom_cell_has_self_images_only(self, backend):
        s = make_structure((3.3, 3.5, 3.9, 75, 82, 68), [("Cu", (0.3, 0.6, 0.1))])
        energy, _, e_scale, _ = dense_energy_and_forces(backend, s)
        assert abs(backend.energy_per_atom(s) - energy) <= 1e-12 * e_scale
        # every self-image pair has its mirror, so the net force vanishes
        assert np.abs(backend.forces(s)).max() < 1e-12

    def test_pair_straddling_the_cutoff(self, backend):
        box = 4 * CUTOFF
        rc = CUTOFF
        s = make_structure((box, box, box, 90, 90, 90),
                           [("Na", (0.5, 0.5, 0.5)),
                            ("Na", (0.5 + (rc - 1e-6) / box, 0.5, 0.5)),
                            ("Na", (0.5, 0.5 + (rc + 1e-6) / box, 0.5))])
        assert_matches_dense(backend, s)
        # the inside pair pulls along x only; the outside one adds nothing,
        # also from a list whose skin holds it
        energy, _, e_scale, f_scale = dense_energy_and_forces(backend, s)
        for skin in (0.0, SKIN):
            e, f = one_cell(PairKernel(backend, skin), s)(s.frac_array() @ s.lattice.matrix())
            assert abs(e - energy) <= 1e-12 * e_scale
            assert f[0][0] > 0 and f[0][1] == 0.0 and f[2].tolist() == [0.0, 0.0, 0.0]

    def test_mixed_species_with_explicit_cross_pair(self):
        backend = PairPotentialBackend(
            {"Na": (0.21, 2.3), "Cl": (0.17, 2.25), "Mg": (0.24, 2.1),
             ("Na", "Cl"): (0.5, 2.6)})
        assert backend.pair_parameters("Cl", "Na") == (0.5, 2.6)
        rng = random.Random(4)
        s = make_structure((5.9, 6.3, 6.6, 84, 97, 103),
                           [(el, (rng.random(), rng.random(), rng.random()))
                            for el in ("Na", "Cl", "Mg", "Cl", "Na", "Mg")])
        assert_matches_dense(backend, s)


class TestVerletSkin:
    def test_reused_list_matches_a_fresh_one(self, backend, rocksalt, monkeypatch):
        builds = []
        build = energetics.neighbour_pairs
        monkeypatch.setattr(energetics, "neighbour_pairs",
                            lambda *a: builds.append(1) or build(*a))
        s = jittered(rocksalt, 2, 0.02)
        cart = s.frac_array() @ s.lattice.matrix()
        kernel = one_cell(PairKernel(backend, SKIN), s)
        rng = np.random.default_rng(7)
        rebuilds = 0
        for step in range(8):
            fresh = one_cell(PairKernel(backend, 0.0), s)(cart)
            before = len(builds)
            reused = kernel(cart)
            rebuilds += len(builds) - before
            assert reused[0] == pytest.approx(fresh[0], rel=1e-12, abs=1e-14)
            np.testing.assert_allclose(reused[1], fresh[1], rtol=1e-12, atol=1e-12)
            # each step moves every atom 0.3 SKIN: no single step passes the
            # half-skin rebuild distance, so a list is reused across steps
            # until the moves add up past it
            move = rng.normal(size=cart.shape)
            cart = cart + 0.3 * SKIN * move / np.linalg.norm(move, axis=1)[:, None]
        assert 1 <= rebuilds < 7

    def test_each_cell_rebuilds_on_its_own_drift(self, backend, rocksalt, monkeypatch):
        builds = []
        build = energetics.neighbour_pairs
        monkeypatch.setattr(energetics, "neighbour_pairs",
                            lambda *a: builds.append(a[0]) or build(*a))
        cells = [jittered(rocksalt, 3, 0.02), isolated_pair("Na", 3.4)]
        kernel = PairKernel(backend, SKIN)
        ids = [kernel.add(s) for s in cells]
        carts = [s.frac_array() @ s.lattice.matrix() for s in cells]
        assert len(builds) == 2
        # a move past half the skin for one atom of the first cell only
        carts[0] = carts[0].copy()
        carts[0][3] += [0.4 * SKIN, 0.2 * SKIN, 0.3 * SKIN]
        energies, forces = kernel(ids, carts)
        assert builds[2:] == [cells[0].lattice]
        for s, cart, energy, f in zip(cells, carts, energies, forces):
            fresh = one_cell(PairKernel(backend, 0.0), s)(cart)
            assert energy == pytest.approx(fresh[0], rel=1e-12, abs=1e-14)
            np.testing.assert_allclose(f, fresh[1], rtol=1e-12, atol=1e-12)


class FancyIndexCell:
    """Reference: the pair kernel of one cell as it was before its gathers
    moved to ``take`` and before cells shared a call, with fancy indexing,
    six boolean masks and one ``bincount`` per axis. ``PairKernel`` does
    the same arithmetic in the same order, so the two must agree to the
    bit."""

    def __init__(self, backend, s, skin):
        elements = s.elements()
        species = sorted(set(elements))
        table = np.array([[backend.pair_parameters(a, b) for b in species]
                          for a in species])
        self._eps, self._sig = table[..., 0], table[..., 1]
        at_cut = self._sig / CUTOFF
        self._shift = 4.0 * self._eps * (at_cut ** 12 - at_cut ** 6)
        self._kind = np.array([species.index(el) for el in elements])
        self._lattice = s.lattice
        self._skin = skin
        self._build(s.frac_array() @ s.lattice.matrix())

    def _build(self, cart):
        i, j, offset = neighbour_pairs(self._lattice, cart, CUTOFF + self._skin)
        a, b = self._kind[i], self._kind[j]
        self._pairs = (i, j, offset, self._eps[a, b], self._sig[a, b], self._shift[a, b])
        self._built_at = cart.copy()

    def __call__(self, cart):
        moved = cart - self._built_at
        if np.einsum("ij,ij->i", moved, moved).max() > (0.5 * self._skin) ** 2:
            self._build(cart)
        i, j, offset, eps, sig, shift = self._pairs
        rel = cart[j] + offset - cart[i]
        dist = np.sqrt(np.einsum("ij,ij->i", rel, rel))
        inside = (dist > 1e-12) & (dist < CUTOFF)
        i, rel, dist = i[inside], rel[inside], dist[inside]
        eps, sig, shift = eps[inside], sig[inside], shift[inside]
        r6 = (sig / dist) ** 6
        energy = 0.5 * float(np.sum(4.0 * eps * (r6 ** 2 - r6) - shift)) / len(cart)
        dphi = 4.0 * eps * (-12.0 * r6 ** 2 + 6.0 * r6) / dist
        forces = np.stack([np.bincount(i, dphi / dist * rel[:, k], minlength=len(cart))
                           for k in range(3)], axis=1)
        return energy, forces


class FancyIndexKernel:
    """``FancyIndexCell`` behind ``PairKernel``'s interface: a call
    evaluates each of its cells on its own."""

    def __init__(self, backend, skin):
        self._backend, self._skin, self._cells = backend, skin, []

    def add(self, s):
        self._cells.append(FancyIndexCell(self._backend, s, self._skin))
        return len(self._cells) - 1

    def release(self, cell):
        self._cells[cell] = None

    def __call__(self, cells, carts):
        results = [self._cells[k](cart) for k, cart in zip(cells, carts)]
        return [energy for energy, _ in results], [forces for _, forces in results]


def relax_alone(backend, s, max_steps=200, force_tol=1e-3):
    """Reference: one structure's descent as it ran before structures
    relaxed in lockstep, on its own ``FancyIndexCell``; raises where the
    lockstep descent returns the exception."""
    inv = np.linalg.inv(s.lattice.matrix())
    start = s.frac_array() @ s.lattice.matrix()
    cart = start
    kernel = FancyIndexCell(backend, s, SKIN)
    energy, f = kernel(cart)
    step = 0.05
    for _ in range(max_steps):
        if not np.all(np.isfinite(f)):
            raise RelaxationError("non-finite forces")
        fmax = float(np.abs(f).max())
        if fmax < force_tol:
            break
        if fmax > 1e6:
            raise RelaxationError("force explosion")
        for _ in range(30):
            trial_cart = cart + step * f
            trial_energy, trial_f = kernel(trial_cart)
            if trial_energy <= energy:
                cart, energy, f = trial_cart, trial_energy, trial_f
                step *= 1.2
                break
            step *= 0.5
        else:
            break
    return s if cart is start else s.with_coords(cart @ inv)


def assert_kernels_agree(backend, s, skin, steps=1, seed=0):
    """``PairKernel`` and ``FancyIndexKernel`` on the same positions, first at
    s and then after each of ``steps - 1`` random moves of 0.3 skin per
    atom: equal energies and equal force arrays at every call."""
    cart = s.frac_array() @ s.lattice.matrix()
    kernel = one_cell(PairKernel(backend, skin), s)
    reference = one_cell(FancyIndexKernel(backend, skin), s)
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        energy, forces = kernel(cart)
        want_energy, want_forces = reference(cart)
        assert energy == want_energy
        assert np.array_equal(forces, want_forces)
        move = rng.normal(size=cart.shape)
        cart = cart + 0.3 * SKIN * move / np.linalg.norm(move, axis=1)[:, None]
    return forces


def bench_workload(name, seed):
    """A benchmark workload, built as ``perfbench/run.py`` builds it."""
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    if str(bench) not in sys.path:
        sys.path.insert(0, str(bench))
    import oracles
    import workloads
    tables = oracles.Tables.load(resources.files("crysalign.data"))
    return workloads.WORKLOADS[name](seed, tables)


def relax_cells():
    """The structures of the ``relax`` benchmark workload, seeds 1 to 3."""
    for seed in (1, 2, 3):
        for case in bench_workload("relax", seed).cases:
            cell = case.cell
            yield f"{case.prompt_id}-{seed}", make_structure(
                (*cell.lengths, *cell.angles), cell.sites)


def screen_cells():
    """The structurally valid structures of the seed-1 ``screen`` workload,
    the cells an evaluation with relaxation relaxes."""
    from crysalign import ciflite, validity

    table = validity.OxidationTable.load_default()
    for case in bench_workload("screen", 1).cases:
        try:
            s = ciflite.parse_ciflite(ciflite.extract_response_parts(case.response_text)[1] or "")
        except ciflite.ParseError:
            continue
        if validity.build_report(s, None, table).structural:
            yield case.prompt_id, s


class TestKernelMatchesFancyIndexKernel:
    @pytest.mark.parametrize("skin", [0.0, SKIN])
    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_cells(self, backend, skin, seed):
        rng = np.random.default_rng(seed)
        lengths = rng.uniform(3.5, 7.5, size=3)
        angles = rng.uniform(70, 110, size=3)
        elements = rng.choice(["Na", "Cl", "Mg", "O"], size=int(rng.integers(1, 9)))
        s = make_structure((*lengths, *angles),
                           [(str(el), tuple(rng.random(3))) for el in elements])
        assert_kernels_agree(backend, s, skin, steps=6, seed=seed)

    @pytest.mark.parametrize("skin", [0.0, SKIN])
    def test_site_with_no_partner_inside_the_cutoff(self, backend, skin):
        box = 4 * CUTOFF
        s = make_structure((box, box, box, 90, 90, 90),
                           [("Na", (0.1, 0.1, 0.1)), ("Cl", (0.1 + 2.8 / box, 0.1, 0.1)),
                            ("Mg", (0.6, 0.6, 0.6))])
        forces = assert_kernels_agree(backend, s, skin)
        assert forces[2].tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("skin", [0.0, SKIN])
    def test_pair_straddling_the_cutoff(self, backend, skin):
        box = 4 * CUTOFF
        s = make_structure((box, box, box, 90, 90, 90),
                           [("Na", (0.5, 0.5, 0.5)),
                            ("Na", (0.5 + (CUTOFF - 1e-6) / box, 0.5, 0.5)),
                            ("Na", (0.5, 0.5 + (CUTOFF + 1e-6) / box, 0.5))])
        assert_kernels_agree(backend, s, skin)

    def test_calls_right_after_a_rebuild(self, backend, rocksalt, monkeypatch):
        builds = []
        build = energetics.neighbour_pairs
        monkeypatch.setattr(energetics, "neighbour_pairs",
                            lambda *a: builds.append(1) or build(*a))
        # 0.3 skin per step passes the half-skin rebuild distance every
        # second step, so calls run both on reused lists and on fresh ones.
        assert_kernels_agree(backend, jittered(rocksalt, 2, 0.02), SKIN, steps=8)
        assert len(builds) >= 3

    @pytest.mark.parametrize("skin", [0.0, SKIN])
    def test_cells_sharing_calls(self, backend, skin):
        """Seeded cells in one kernel, each step calling a shuffled subset
        of them at moved positions: every cell's energy and forces equal
        its reference kernel's, whichever cells share the call."""
        rng = np.random.default_rng(21)
        cells = []
        for _ in range(6):
            lengths = rng.uniform(3.5, 7.5, size=3)
            angles = rng.uniform(70, 110, size=3)
            elements = rng.choice(["Na", "Cl", "Mg", "O"], size=int(rng.integers(1, 9)))
            cells.append(make_structure((*lengths, *angles),
                                        [(str(el), tuple(rng.random(3))) for el in elements]))
        kernel, reference = PairKernel(backend, skin), FancyIndexKernel(backend, skin)
        assert [kernel.add(s) for s in cells] == [reference.add(s) for s in cells]
        carts = [s.frac_array() @ s.lattice.matrix() for s in cells]
        for _ in range(8):
            chosen = rng.permutation(len(cells))[:int(rng.integers(1, len(cells) + 1))].tolist()
            got = kernel(chosen, [carts[k] for k in chosen])
            want = reference(chosen, [carts[k] for k in chosen])
            assert got[0] == want[0]
            for f, g in zip(got[1], want[1]):
                assert np.array_equal(f, g)
            for k in chosen:
                move = rng.normal(size=carts[k].shape)
                carts[k] = carts[k] + 0.3 * SKIN * move / np.linalg.norm(move, axis=1)[:, None]

    def test_relaxation_of_the_relax_workload(self, backend, monkeypatch):
        names, cells = zip(*relax_cells())
        assert len(cells) == 21
        relaxed = relax_positions(backend, list(cells))
        monkeypatch.setattr(energetics, "PairKernel", FancyIndexKernel)
        for name, got, want in zip(names, relaxed, relax_positions(backend, list(cells))):
            assert np.array_equal(got.frac_array(), want.frac_array()), name


def same_outcome(a, b):
    """Two relaxation results are the same structure to the bit, or the
    same kind of exception with the same message."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return np.array_equal(a.frac_array(), b.frac_array()) and a.lattice == b.lattice


class TestLockstep:
    """A structure's relaxation does not depend on which structures relax
    beside it, and equals its descent alone on the reference kernel."""

    @pytest.fixture(scope="class")
    def cells(self):
        cells = list(relax_cells()) + list(screen_cells())
        assert len(cells) == 21 + 33
        return cells + [
            ("close-pair", isolated_pair("Na", 0.3)),
            ("no-pair-table", make_structure((5.0, 5.0, 5.0, 90, 90, 90),
                                             [("Xe", (0.0, 0.0, 0.0)),
                                              ("Na", (0.5, 0.5, 0.5))])),
        ]

    @pytest.fixture(scope="class")
    def alone(self, backend, cells):
        return [relax_positions(backend, [s])[0] for _, s in cells]

    def test_alone_matches_the_descent_of_one_structure(self, backend, cells, alone):
        for (name, s), got in zip(cells, alone):
            try:
                want = relax_alone(backend, s)
            except Exception as exc:
                want = exc
            assert same_outcome(got, want), name
        assert_relaxation_error(alone[-2], "force explosion")
        assert isinstance(alone[-1], ConfigurationError)

    def test_full_batch(self, backend, cells, alone):
        together = relax_positions(backend, [s for _, s in cells])
        for (name, _), got, want in zip(cells, together, alone):
            assert same_outcome(got, want), name

    def test_sites_in_descent_stay_within_the_bound(self, backend, cells, alone, monkeypatch):
        """With room for 20 sites, structures join as others leave, and
        each still gets its outcome alone."""
        monkeypatch.setattr(energetics, "LOCKSTEP_SITES", 20)
        called = []
        evaluate = PairKernel.__call__

        def counted(kernel, ids, carts):
            called.append(sum(map(len, carts)))
            return evaluate(kernel, ids, carts)

        monkeypatch.setattr(PairKernel, "__call__", counted)
        together = relax_positions(backend, [s for _, s in cells])
        for (name, _), got, want in zip(cells, together, alone):
            assert same_outcome(got, want), name
        assert max(s.num_sites for _, s in cells) < max(called) <= 20

    @pytest.mark.parametrize("seed", range(3))
    def test_shuffled_sub_batches(self, backend, cells, alone, seed):
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(cells)).tolist()
        while order:
            size = int(rng.integers(1, 12))
            batch, order = order[:size], order[size:]
            for k, got in zip(batch, relax_positions(backend, [cells[k][1] for k in batch])):
                assert same_outcome(got, alone[k]), cells[k][0]


def assert_relaxation_error(result, message):
    assert isinstance(result, RelaxationError)
    assert str(result) == message


class TestRelaxationErrors:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("other", [0.0, 1e7])
    def test_non_finite_forces(self, backend, monkeypatch, bad, other):
        """A non-finite force is reported as such, also beside a force past
        the explosion bound; the cell relaxing beside it is not touched."""
        healthy = isolated_pair("Na", 3.6)
        (alone,) = relax_positions(backend, [healthy])
        evaluate = PairKernel.__call__

        def broken(self, cells, carts):
            energies, forces = evaluate(self, cells, carts)
            if 0 in cells:
                at = cells.index(0)
                energies[at] = 0.0
                forces[at] = np.full(carts[at].shape, other)
                forces[at][-1, 1] = bad
            return energies, forces

        monkeypatch.setattr(PairKernel, "__call__", broken)
        failed, relaxed = relax_positions(backend, [isolated_pair("Na", 3.4), healthy])
        assert_relaxation_error(failed, "non-finite forces")
        assert np.array_equal(relaxed.frac_array(), alone.frac_array())

    def test_force_explosion(self, backend):
        (result,) = relax_positions(backend, [isolated_pair("Na", 0.3)])
        assert_relaxation_error(result, "force explosion")


class TestRelax:
    def test_dimer_relaxes_to_lj_minimum(self, backend, monkeypatch):
        eps, sigma = backend.pair_parameters("Na", "Na")
        s = isolated_pair("Na", 2 ** (1 / 6) * sigma + 0.3)
        monkeypatch.setattr(energetics, "MAX_STEPS", 500)
        monkeypatch.setattr(energetics, "FORCE_TOL", 1e-6)
        (relaxed,) = relax_positions(backend, [s])
        box = 4 * CUTOFF
        r = abs(relaxed.sites[1].frac_coords[0] -
                relaxed.sites[0].frac_coords[0]) * box
        assert r == pytest.approx(2 ** (1 / 6) * sigma, abs=1e-4)

    def test_energy_never_increases(self, backend, monkeypatch):
        s = isolated_pair("Na", 3.4)
        monkeypatch.setattr(energetics, "MAX_STEPS", 50)
        (relaxed,) = relax_positions(backend, [s])
        assert backend.energy_per_atom(relaxed) <= \
            backend.energy_per_atom(s) + 1e-12


class TestFormationEnergy:
    def test_subtracts_elemental_references(self, backend, rocksalt):
        e = backend.energy_per_atom(rocksalt)
        refs = backend.reference_energies
        expected = e - (refs["Na"] + refs["Cl"]) / 2
        assert formation_energy(backend, rocksalt) == \
            pytest.approx(expected, rel=1e-12)


def entry(formula, e):
    return PhaseEntry(Composition.from_formula(formula), e)


class TestHull:
    def test_on_hull_element(self):
        refs = [entry("Na", 0.0), entry("Cl", 0.0), entry("NaCl", -2.0)]
        assert energy_above_hull(entry("Na", 0.0), refs).e_hull == \
            pytest.approx(0.0, abs=1e-12)

    def test_above_hull_binary(self):
        refs = [entry("Na", 0.0), entry("Cl", 0.0), entry("NaCl", -2.0)]
        res = energy_above_hull(entry("NaCl", -1.9), refs)
        assert res.e_hull == pytest.approx(0.1, abs=1e-9)

    def test_decomposition_weights(self):
        refs = [entry("Na", 0.0), entry("Cl", 0.0), entry("NaCl", -2.0)]
        res = energy_above_hull(entry("Na3Cl", -0.5), refs)
        # x_Cl = 1/4 decomposes into 1/2 NaCl + 1/2 Na.
        labels = {reduced(r): w for r, w in res.decomposition}
        assert labels == pytest.approx({"ClNa": 0.5, "Na": 0.5})
        assert res.e_hull == pytest.approx(-0.5 - (-1.0), abs=1e-9)

    def test_below_hull_negative(self):
        refs = [entry("Na", 0.0), entry("Cl", 0.0)]
        res = energy_above_hull(entry("NaCl", -1.0), refs)
        assert res.e_hull == pytest.approx(-1.0, abs=1e-12)

    def test_missing_element_coverage(self):
        refs = [entry("Na", 0.0)]
        with pytest.raises(CoverageError):
            energy_above_hull(entry("NaCl", -1.0), refs)

    def test_uncovered_composition_raises_on_every_call(self):
        refs = [entry("Na", 0.0)]
        for _ in range(3):
            with pytest.raises(CoverageError):
                energy_above_hull(entry("NaCl", -1.0), refs)

    def test_hull_independent_of_irrelevant_phases(self):
        refs = [entry("Na", 0.0), entry("Cl", 0.0), entry("NaCl", -2.0)]
        extra = refs + [entry("FeO", -5.0), entry("Fe", 0.0)]
        a = energy_above_hull(entry("NaCl", -1.5), refs).e_hull
        b = energy_above_hull(entry("NaCl", -1.5), extra).e_hull
        assert a == pytest.approx(b, abs=1e-12)


def linprog_hull(fractions, refs):
    """The hull LP of ``hull_energy`` solved by scipy's HiGHS: its objective
    and the labels of the phases with weight above 1e-12."""
    elements = [e for e, _ in fractions]
    usable = [r for r in refs if set(r.composition.fractions()) <= set(elements)]
    a_eq = [[r.composition.fractions().get(e, 0.0) for r in usable] for e in elements]
    res = linprog([r.energy_per_atom for r in usable], A_eq=a_eq,
                  b_eq=[x for _, x in fractions], bounds=(0, None), method="highs")
    assert res.success
    return res.fun, [r.label for r, w in zip(usable, res.x) if w > 1e-12]


def simplex_hull(fractions, refs):
    fun, decomposition = energetics.hull_energy(fractions, tuple(refs))
    return fun, [r.label for r, _ in decomposition]


SHIPPED_ELEMENTS = sorted({e for r in load_reference_phases()
                           for e in r.composition.fractions()})
TWELVE = "Al Ba C Ca Cl Mg Na O Si Sr Ti Zn".split()


def seeded_fractions(count, seed):
    rng = random.Random(seed)
    elements = rng.sample(SHIPPED_ELEMENTS, count)
    return tuple(Composition({e: rng.randint(1, 12) for e in elements}).fractions().items())


class TestHullSimplex:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("count", range(1, len(SHIPPED_ELEMENTS) + 1))
    def test_matches_linprog_on_shipped_set(self, count, seed):
        rng = random.Random(100 * count + seed)
        self.assert_matches_linprog(rng.sample(SHIPPED_ELEMENTS, count), rng)

    @pytest.mark.parametrize("seed", range(5))
    def test_twelve_elements_match_linprog(self, seed):
        self.assert_matches_linprog(TWELVE, random.Random(seed))

    @staticmethod
    def assert_matches_linprog(elements, rng):
        fractions = tuple(Composition({e: rng.randint(1, 12) for e in elements})
                          .fractions().items())
        refs = load_reference_phases()
        fun, labels = simplex_hull(fractions, refs)
        oracle_fun, oracle_labels = linprog_hull(fractions, refs)
        assert labels == oracle_labels
        assert abs(fun - oracle_fun) <= 1e-12

    def test_composition_of_a_reference_phase(self):
        refs = load_reference_phases()
        fractions = tuple(Composition.from_formula("CaTiO3").fractions().items())
        fun, labels = simplex_hull(fractions, refs)
        assert labels == ["t-CaTiO3"] == linprog_hull(fractions, refs)[1]
        assert fun == pytest.approx(-3.56, abs=1e-12)

    @pytest.mark.parametrize("first", ["a", "b"])
    def test_tied_phases_take_the_lower_index(self, first):
        second = "b" if first == "a" else "a"
        refs = (entry("Na", 0.0), entry("Cl", 0.0),
                PhaseEntry(Composition.from_formula("NaCl"), -2.0, first),
                PhaseEntry(Composition.from_formula("Na2Cl2"), -2.0, second))
        fractions = tuple(Composition.from_formula("Na3Cl").fractions().items())
        for _ in range(3):
            fun, labels = simplex_hull(fractions, refs)
            assert sorted(labels) == sorted(["", first])
            assert fun == pytest.approx(-1.0, abs=1e-12)

    def test_redundant_element_row(self):
        # Cl's row is the sum of Na's and K's, so one row is dropped.
        refs = (PhaseEntry(Composition.from_formula("NaCl"), -2.10, "NaCl"),
                PhaseEntry(Composition.from_formula("KCl"), -2.25, "KCl"))
        fractions = tuple(Composition.from_formula("NaKCl2").fractions().items())
        fun, labels = simplex_hull(fractions, refs)
        assert labels == ["NaCl", "KCl"] == linprog_hull(fractions, refs)[1]
        assert fun == pytest.approx(-2.175, abs=1e-12)

    def test_artificial_left_at_zero_is_pivoted_out(self):
        # Phase I ends with Na's artificial basic at zero; Cl enters for it.
        # Dropping Na's row instead would let phase II move weight onto the
        # cheap Cl.
        refs = (PhaseEntry(Composition.from_formula("NaCl"), -2.0, "NaCl"),
                PhaseEntry(Composition.from_formula("Cl"), -5.0, "Cl"))
        fractions = tuple(Composition.from_formula("NaCl").fractions().items())
        fun, labels = simplex_hull(fractions, refs)
        assert labels == ["NaCl"] == linprog_hull(fractions, refs)[1]
        assert fun == -2.0

    def test_infeasible_system_raises_coverage_error(self):
        # Every element is covered, but no mix of Na and NaCl is 3/4 Cl.
        refs = (entry("Na", 0.0), entry("NaCl", -2.0))
        with pytest.raises(CoverageError, match="Cl, Na"):
            energy_above_hull(entry("NaCl3", -1.0), list(refs))

    def test_all_elements_stay_under_the_pivot_cap(self, monkeypatch):
        pivots = []
        real = energetics._pivot
        monkeypatch.setattr(energetics, "_pivot",
                            lambda *a: pivots.append(1) or real(*a))
        fractions = seeded_fractions(len(SHIPPED_ELEMENTS), 0)
        simplex_hull(fractions, load_reference_phases())
        assert 0 < len(pivots) < MAX_PIVOTS

    def test_pivot_cap_raises(self, monkeypatch):
        monkeypatch.setattr(energetics, "MAX_PIVOTS", 1)
        fractions = seeded_fractions(3, 0)
        with pytest.raises(RuntimeError, match="passed 1 pivots"):
            simplex_hull(fractions, load_reference_phases())


def reduced(r):
    from crysalign.structcore import reduced_formula
    return reduced_formula(r.composition)


class TestStability:
    def test_threshold_is_strict(self):
        assert is_stable(STABILITY_THRESHOLD - 1e-9)
        assert not is_stable(STABILITY_THRESHOLD)
        assert not is_stable(STABILITY_THRESHOLD + 1e-9)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            is_stable(float("nan"))


class TestData:
    def test_reference_phases_load(self):
        phases = load_reference_phases()
        assert len(phases) >= 40
        elementals = [p for p in phases if len(p.composition.counts) == 1]
        assert all(p.energy_per_atom == 0.0 for p in elementals)

    def test_cutoff_covers_largest_sigma(self, backend):
        sigmas = [backend.pair_parameters(el, el)[1]
                  for el in ("Na", "Cl", "Cs", "Ca", "O")]
        assert CUTOFF >= 2 * max(sigmas)
