"""Energy backend, local relaxation, formation energy, and hull distance.

The pair-potential backend is a cheap, force-consistent surrogate for a
machine-learned potential: a truncated Lennard-Jones sum, shifted so the
energy is continuous at the cutoff, with Lorentz-Berthelot mixing for pairs
that are not parameterized explicitly. Its one kernel evaluates several
cells per call, and ``relax_positions`` relaxes a list of structures in
lockstep, one call per descent iteration for all that still descend; each
structure gets the bits it would get alone. A structure's Cartesian
positions are built once, on the structure (``CrystalStructure.cart``):
its pair list, a single-point energy and its descent all start from them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import NamedTuple

import numpy as np

from .structcore import Composition, CrystalStructure, neighbour_pairs

STABILITY_THRESHOLD = 0.016  # eV/atom, strict upper bound for "stable"

# Verlet skin (A) of the pair list in relax_positions: wide enough that a
# short descent rarely rebuilds it, narrow enough to add few extra pairs.
# The rebuild schedule it sets is part of the e_hull bits: neighbour_pairs
# orders each site's rows by image shift, counted from the cell that holds
# j when the list is built, so a list rebuilt after an atom crosses a cell
# face sums the same kept terms in another order.
SKIN = 0.5

# Pair-potential cutoff (A); every sigma in the pair table must be at most
# half of it.
CUTOFF = 6.0

# Sites in descent at once in relax_positions, however many structures it
# is given. A kernel call on this many sites spends a few percent of its
# time on numpy's per-call cost; on 512 sites of rock-salt MgO the merged
# lists take 4 MB and a call 6 MB more.
LOCKSTEP_SITES = 512

# Hull simplex: a reduced cost or pivot entry within PIVOT_TOL of zero counts
# as zero, and phase I leaves a system infeasible when its artificials keep
# more than FEASIBILITY_TOL. Bland's rule cannot cycle, so MAX_PIVOTS (per
# phase) only bounds a solve that round-off keeps from ending; a solve over
# all 22 elements and 47 phases of the shipped set takes under 40 in all.
PIVOT_TOL = 1e-12
FEASIBILITY_TOL = 1e-9
MAX_PIVOTS = 1000


class ConfigurationError(ValueError):
    """Backend configuration is incomplete or inconsistent."""


class CoverageError(ValueError):
    """Reference phases do not span the candidate's elements."""

    def __init__(self, missing: tuple[str, ...]):
        self.missing = missing
        super().__init__(f"no reference coverage for elements: {', '.join(missing)}")


class RelaxationError(RuntimeError):
    """Relaxation diverged."""


@dataclass(frozen=True)
class PhaseEntry:
    composition: Composition
    energy_per_atom: float
    label: str = ""

    def __post_init__(self):
        if not math.isfinite(self.energy_per_atom):
            raise ValueError("phase energy must be finite")


@dataclass(frozen=True)
class HullResult:
    e_hull: float
    energy: float       # hull energy per atom; e_hull is the candidate's less this
    decomposition: tuple[tuple[PhaseEntry, float], ...]


class PairPotentialBackend:
    """Shifted truncated Lennard-Jones with Lorentz-Berthelot mixing.

    ``pair_params`` maps an element or a pair of elements (a string, or a
    tuple of one or two strings) to (epsilon eV, sigma A). Cross pairs that
    are not given are mixed from the self pairs.
    """

    def __init__(self, pair_params: dict, reference_energies: dict[str, float] | None = None):
        self._params: dict[frozenset, tuple[float, float]] = {}
        for key, (eps, sigma) in pair_params.items():
            names = [key] if isinstance(key, str) else list(key)
            if not 1 <= len(names) <= 2:
                raise ConfigurationError(f"pair key {key} must name one or two elements")
            if eps <= 0 or sigma <= 0:
                raise ConfigurationError(f"nonpositive LJ parameters for {key}")
            if CUTOFF < 2.0 * sigma:
                raise ConfigurationError(f"cutoff {CUTOFF} below 2*sigma for sigma={sigma}")
            self._params[frozenset(names)] = (float(eps), float(sigma))
        self.reference_energies = dict(reference_energies or {})

    @classmethod
    def from_text(cls, pair_text: str, ref_text: str = ""):
        params: dict = {}
        for raw in pair_text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key_part, _, val_part = line.partition(":")
            eps, sigma = (float(x) for x in val_part.split())
            params[tuple(key_part.split())] = (eps, sigma)
        refs: dict[str, float] = {}
        for raw in ref_text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            el, _, val = line.partition(":")
            refs[el.strip()] = float(val)
        return cls(params, reference_energies=refs)

    @classmethod
    @lru_cache(maxsize=1)
    def load_default(cls) -> "PairPotentialBackend":
        data = resources.files("crysalign.data")
        return cls.from_text(
            (data / "pair_potentials.txt").read_text(),
            (data / "reference_energies.txt").read_text(),
        )

    def pair_parameters(self, a: str, b: str) -> tuple[float, float]:
        params = self._params.get(frozenset((a, b)))
        if params is not None:
            return params
        try:
            ea, sa = self._params[frozenset((a,))]
            eb, sb = self._params[frozenset((b,))]
        except KeyError as exc:
            raise ConfigurationError(
                f"no pair parameters for ({a}, {b})"
            ) from exc
        return math.sqrt(ea * eb), 0.5 * (sa + sb)

    def energy_per_atom(self, s: CrystalStructure) -> float:
        return self._single_point(s)[0]

    def forces(self, s: CrystalStructure) -> np.ndarray:
        return self._single_point(s)[1]

    def _single_point(self, s: CrystalStructure) -> tuple[float, np.ndarray]:
        kernel = PairKernel(self, skin=0.0)
        (energy,), (forces,) = kernel([kernel.add(s)], [s.cart])
        return energy, forces


# The force slot of (site i, axis k) is 3 i + k.
_AXES = np.arange(3)


def _squared_norms(x: np.ndarray) -> np.ndarray:
    """Squared length of each row of ``x``, summed in a fixed order,
    (x0^2 + x2^2) + x1^2, that no numpy build or CPU can reorder."""
    s = x * x
    return (s[:, 0] + s[:, 2]) + s[:, 1]


class _Merged(NamedTuple):
    """The pair lists of the cells of a call, end to end: site indices
    count through the cells in call order, and cell k holds sites
    first[k]:first[k + 1] and pairs rows[k]:rows[k + 1]. ``params`` holds
    one row per parameter, so a gather of each is contiguous, and
    ``slots`` each pair's three force slots."""
    cells: tuple[int, ...]
    i: np.ndarray
    j: np.ndarray
    offset: np.ndarray
    params: np.ndarray
    slots: np.ndarray
    built_at: np.ndarray
    first: np.ndarray
    rows: np.ndarray


class PairKernel:
    """Energies and forces of several fixed cells in one evaluation, from
    one Verlet pair list per cell.

    A cell's list holds every (i, j, image) pair within cutoff + skin of the
    positions it was last built at, with each pair's [4 eps, sigma, shift]
    taken from the cell's species-pair table. While no atom of the cell
    has moved more than half the skin since, every pair now inside the
    cutoff is still on the list, so a list is rebuilt only when one of its
    own atoms has moved farther.

    A call evaluates any of the cells over their concatenated lists, since
    numpy's cost per call exceeds the arithmetic on a small cell. It
    gathers with ``take`` and selects the pairs inside the cutoff once.
    Each cell's energy is the ``sum`` of its own slice of the kept terms,
    and the forces come from one ``bincount`` over (site, axis) slots, which
    adds each slot's terms in pair order. So a cell's energy and forces have
    the same bits whichever cells share the call.
    """

    def __init__(self, backend: PairPotentialBackend, skin: float):
        self._backend = backend
        self._skin = skin
        # per cell: (site kinds, species count, pair table, lattice), its
        # list (i, j, offset, params) and the positions it was built at
        self._cells: list[tuple] = []
        self._lists: list[tuple] = []
        self._built_at: list[np.ndarray] = []
        self._merged: _Merged | None = None

    def add(self, s: CrystalStructure) -> int:
        """Take on s at its own positions and return its index for calls.
        Raises ``ConfigurationError`` when the backend lacks a pair of its
        species; the cells added before are kept."""
        elements = s.elements()
        species = sorted(set(elements))
        table = np.array([[self._backend.pair_parameters(a, b) for b in species]
                          for a in species]).reshape(-1, 2)
        eps, sig = table[:, 0], table[:, 1]
        at_cut = sig / CUTOFF
        # 4 eps is exact, so the kernel's eps4 * (r12 - r6) is
        # 4.0 * eps * (r6 ** 2 - r6) to the bit.
        table = np.stack([4.0 * eps, sig, 4.0 * eps * (at_cut ** 12 - at_cut ** 6)])
        cell = (np.array([species.index(el) for el in elements]), len(species), table, s.lattice)
        pairs = self._pair_list(cell, s.cart)
        self._cells.append(cell)
        self._lists.append(pairs)
        self._built_at.append(s.cart)
        return len(self._cells) - 1

    def release(self, cell: int) -> None:
        """Free a cell's pair list; the cell takes no further calls."""
        self._cells[cell] = self._lists[cell] = self._built_at[cell] = None

    def _pair_list(self, cell: tuple, cart: np.ndarray) -> tuple:
        kind, count, table, lattice = cell
        i, j, offset = neighbour_pairs(lattice, cart, CUTOFF + self._skin)
        return i, j, offset, table.take(kind.take(i) * count + kind.take(j), axis=1)

    def _merge(self, cells: tuple[int, ...]) -> _Merged:
        """The lists of ``cells`` end to end, each site index moved past the
        sites of the cells before it."""
        lists = [self._lists[k] for k in cells]
        sizes = [len(self._built_at[k]) for k in cells]
        first = np.cumsum([0] + sizes)
        rows = [len(pairs[0]) for pairs in lists]
        base = np.repeat(first[:-1], rows)
        i, j, offset, params = zip(*lists)
        i = np.concatenate(i) + base
        self._merged = _Merged(cells, i, np.concatenate(j) + base, np.concatenate(offset),
                               np.concatenate(params, axis=1), (3 * i)[:, None] + _AXES,
                               np.concatenate([self._built_at[k] for k in cells]),
                               first, np.cumsum([0] + rows))
        return self._merged

    def __call__(self, cells: list[int], carts: list[np.ndarray]
                 ) -> tuple[list[float], list[np.ndarray]]:
        """Energy per atom (eV) and per-site Cartesian forces (eV/A) of each
        cell in ``cells``, at its positions in ``carts``."""
        cells = tuple(cells)
        cart = np.concatenate(carts)
        merged = self._merged
        if merged is None or merged.cells != cells:
            merged = self._merge(cells)
        moved = cart - merged.built_at
        drift = np.maximum.reduceat(_squared_norms(moved), merged.first[:-1])
        stale = np.flatnonzero(drift > (0.5 * self._skin) ** 2).tolist()
        for p in stale:
            k = cells[p]
            self._lists[k] = self._pair_list(self._cells[k], carts[p])
            self._built_at[k] = carts[p].copy()
        if stale:
            merged = self._merge(cells)
        _, i, j, offset, params, slots, _, first, rows = merged
        rel = cart.take(j, axis=0)
        rel += offset
        rel -= cart.take(i, axis=0)
        dist = np.sqrt(_squared_norms(rel))
        keep = ((dist > 1e-12) & (dist < CUTOFF)).nonzero()[0]
        rel, dist = rel.take(keep, axis=0), dist.take(keep)
        eps4, sig, shift = params.take(keep, axis=1)
        r6 = (sig / dist) ** 6
        r12 = r6 ** 2
        terms = eps4 * (r12 - r6) - shift
        kept = keep.searchsorted(rows).tolist()
        first = first.tolist()
        energies = [0.5 * float(terms[lo:hi].sum()) / (end - begin)
                    for lo, hi, begin, end in zip(kept, kept[1:], first, first[1:])]
        # dphi/dr = 4 eps (-12 sig^12 / r^13 + 6 sig^6 / r^7); the force on i
        # from the pair is -dphi/dr * d r / d x_i = dphi/dr * rel / r.
        dphi = eps4 * (-12.0 * r12 + 6.0 * r6)
        rel *= (dphi / dist / dist)[:, None]
        forces = np.bincount(slots.take(keep, axis=0).ravel(), rel.ravel(),
                             minlength=3 * len(cart)).reshape(-1, 3)
        return energies, [forces[begin:end] for begin, end in zip(first, first[1:])]


def relax_positions(
    backend: PairPotentialBackend,
    structures: list[CrystalStructure],
    max_steps: int = 200,
    force_tol: float = 1e-3,
    budget_s: float | None = None,
) -> list[CrystalStructure | Exception]:
    """Positions-only descent with backtracking for each structure, in
    lockstep; the cells stay fixed.

    Each structure takes the steps ``_descent`` takes alone, but one kernel
    call per iteration serves every structure in descent. Structures join
    in order while the sites in descent stay within ``LOCKSTEP_SITES`` (one
    always joins), and each leaves when its descent ends. Returns per
    structure the relaxed structure, or the exception that ended its
    descent: a ``ConfigurationError`` from its pair table, a
    ``RelaxationError``, or a ``TimeoutError`` at the first descent step
    that starts once it has been charged ``budget_s`` seconds. A structure
    is charged the time of its own pair list and descent steps, and a share
    of each kernel call in proportion to its sites, so the budget holds per
    structure whichever structures share the calls.
    """
    kernel = PairKernel(backend, skin=SKIN)
    results: list = [None] * len(structures)
    spent = [0.0] * len(structures)
    waiting = list(range(len(structures)))[::-1]
    descents = {}                   # structure -> (kernel cell, descent)
    trials = {}                     # structure -> positions to evaluate next
    while True:
        while waiting and (not trials or sum(map(len, trials.values()))
                           + structures[waiting[-1]].num_sites <= LOCKSTEP_SITES):
            n = waiting.pop()
            begun = time.monotonic()
            try:
                descents[n] = (kernel.add(structures[n]),
                               _descent(structures[n], max_steps, force_tol))
                trials[n] = next(descents[n][1])
            except Exception as exc:
                results[n] = exc
            spent[n] += time.monotonic() - begun
        if not trials:
            return results
        active = list(trials)
        begun = time.monotonic()
        try:
            energies, forces = kernel([descents[n][0] for n in active],
                                      [trials[n] for n in active])
        except Exception as exc:
            for n in active:
                results[n] = exc
                del trials[n]
            continue
        now = time.monotonic()
        share = (now - begun) / sum(len(trials[n]) for n in active)
        for n, energy, f in zip(active, energies, forces):
            spent[n] += share * len(trials[n])
            expired = budget_s is not None and spent[n] >= budget_s
            try:
                trials[n] = descents[n][1].send((energy, f, expired))
            except StopIteration as stop:
                results[n] = stop.value
            except Exception as exc:
                results[n] = exc
            if results[n] is not None:
                del trials[n]
                kernel.release(descents[n][0])
            begun, now = now, time.monotonic()
            spent[n] += now - begun


def _descent(s: CrystalStructure, max_steps: int, force_tol: float):
    """One structure's descent as a generator: it yields the positions to
    evaluate next and is sent back their energy, forces and whether the
    structure's time budget is spent; it returns the relaxed structure."""
    inv = np.linalg.inv(s.lattice.matrix())
    start = s.cart
    cart = start
    energy, f, expired = yield cart
    step = 0.05
    for _ in range(max_steps):
        if expired:
            raise TimeoutError("relaxation passed its time budget")
        # max keeps an inf and propagates a NaN, so one read of fmax also
        # decides whether every force is finite.
        fmax = float(np.abs(f).max()) if f.size else 0.0
        if not math.isfinite(fmax):
            raise RelaxationError("non-finite forces")
        if fmax < force_tol:
            break
        if fmax > 1e6:
            raise RelaxationError("force explosion")
        for _ in range(30):
            trial_cart = cart + step * f
            trial_energy, trial_f, expired = yield trial_cart
            if trial_energy <= energy:
                cart, energy, f = trial_cart, trial_energy, trial_f
                step *= 1.2
                break
            step *= 0.5
        else:
            break
    return s if cart is start else s.with_coords(cart @ inv)


def formation_energy(backend: PairPotentialBackend, s: CrystalStructure) -> float:
    """energy_per_atom minus the composition-weighted elemental references."""
    fractions = s.composition().fractions()
    missing = sorted(e for e in fractions if e not in backend.reference_energies)
    if missing:
        raise ConfigurationError(
            f"no elemental reference energy for: {', '.join(missing)}"
        )
    ref = sum(x * backend.reference_energies[e] for e, x in fractions.items())
    return backend.energy_per_atom(s) - ref


def energy_above_hull(candidate: PhaseEntry,
                      refs: tuple[PhaseEntry, ...] | list[PhaseEntry]) -> HullResult:
    """Hull distance: the candidate's energy less the hull's at its composition."""
    fractions = tuple(candidate.composition.fractions().items())
    fun, decomposition = hull_energy(fractions, refs)
    return HullResult(e_hull=candidate.energy_per_atom - fun, energy=fun,
                      decomposition=decomposition)


def hull_energy(fractions: tuple[tuple[str, float], ...], refs: tuple[PhaseEntry, ...]
                ) -> tuple[float, tuple[tuple[PhaseEntry, float], ...]]:
    """Hull energy per atom at the atomic ``fractions`` (sorted by element)
    and its decomposition, by a simplex over convex combinations of ``refs``.

    minimize sum w_i E_i subject to sum w_i x_i,e = x_cand,e and w >= 0;
    the weights then sum to 1 automatically because atomic fractions do.
    """
    target = dict(fractions)
    elements = sorted(target)
    usable = [r for r in refs
              if set(r.composition.fractions()) <= set(elements)]
    covered = set()
    for r in usable:
        covered |= set(r.composition.fractions())
    missing = tuple(e for e in elements if e not in covered)
    if missing:
        raise CoverageError(missing)

    a_eq = np.array([
        [r.composition.fractions().get(e, 0.0) for r in usable]
        for e in elements
    ])
    b_eq = np.array([target[e] for e in elements])
    c = np.array([r.energy_per_atom for r in usable])
    x = simplex(a_eq, b_eq, c)
    if x is None:
        raise CoverageError(tuple(elements))
    decomposition = tuple(
        (r, float(w)) for r, w in zip(usable, x) if w > 1e-12
    )
    recon = np.zeros(len(elements))
    for r, w in decomposition:
        fr = r.composition.fractions()
        recon += w * np.array([fr.get(e, 0.0) for e in elements])
    if np.abs(recon - b_eq).max() > 1e-9:
        raise RuntimeError("hull decomposition does not reproduce composition")
    # A left-to-right sum in column order agrees to the bit with scipy's
    # linprog (the tests' oracle) more often than numpy's pairwise c @ x.
    return float(np.cumsum(c * x)[-1]), decomposition


def simplex(a_eq: np.ndarray, b_eq: np.ndarray, c: np.ndarray) -> np.ndarray | None:
    """A vertex x minimizing ``c @ x`` subject to ``a_eq @ x == b_eq`` and
    x >= 0, for ``b_eq`` >= 0; ``None`` when no x is feasible.

    Two-phase dense tableau simplex. Phase I starts from one artificial per
    row; an artificial left basic at zero is pivoted out, or its row, which
    then repeats the others, is dropped. Phase II runs on the columns of
    ``a_eq``. Bland's rule (lowest-index entering column, and among tied
    rows the lowest-index leaving variable) fixes every choice, so a
    degenerate or tied problem has one answer.
    """
    m, n = a_eq.shape
    # One row per constraint, then the reduced costs; the columns of a_eq,
    # the artificials, then the right-hand side (minus the objective in the
    # cost row).
    t = np.hstack([a_eq, np.eye(m), b_eq[:, None]])
    t = np.vstack([t, -t.sum(axis=0)])
    t[m, n:n + m] = 0.0
    basis = list(range(n, n + m))
    _bland(t, basis, n)
    if -t[m, -1] > FEASIBILITY_TOL:
        return None
    for row in range(m):
        if basis[row] >= n:
            cols = np.flatnonzero(np.abs(t[row, :n]) > PIVOT_TOL)
            if cols.size:
                _pivot(t, basis, row, cols[0])
    keep = [row for row in range(m) if basis[row] < n]
    t = t[keep + [m]]
    basis = [basis[row] for row in keep]
    t[-1] = 0.0
    t[-1, :n] = c
    t[-1] -= c[basis] @ t[:-1]
    _bland(t, basis, n)
    x = np.zeros(n)
    x[basis] = t[:-1, -1]
    return x


def _bland(t: np.ndarray, basis: list[int], n: int) -> None:
    """Pivot the tableau ``t`` to optimality over its first ``n`` columns by
    Bland's rule, in at most MAX_PIVOTS pivots."""
    for pivots in range(MAX_PIVOTS + 1):
        entering = np.flatnonzero(t[-1, :n] < -PIVOT_TOL)
        if not entering.size:
            return
        if pivots == MAX_PIVOTS:
            raise RuntimeError(f"hull simplex passed {MAX_PIVOTS} pivots")
        col = entering[0]
        rows = np.flatnonzero(t[:-1, col] > PIVOT_TOL)
        if not rows.size:
            raise RuntimeError("hull simplex is unbounded")
        ratios = t[rows, -1] / t[rows, col]
        tied = rows[ratios == ratios.min()]
        _pivot(t, basis, min(tied, key=basis.__getitem__), col)


def _pivot(t: np.ndarray, basis: list[int], row: int, col: int) -> None:
    t[row] /= t[row, col]
    factors = t[:, col].copy()
    factors[row] = 0.0
    t -= np.outer(factors, t[row])
    basis[row] = col


def is_stable(e_hull: float) -> bool:
    if not math.isfinite(e_hull):
        raise ValueError("e_hull must be finite")
    return e_hull < STABILITY_THRESHOLD


@lru_cache(maxsize=1)
def load_reference_phases() -> tuple[PhaseEntry, ...]:
    """Curated surrogate phase set: label, formula, energy per atom."""
    text = (resources.files("crysalign.data") / "reference_phases.txt").read_text()
    entries = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        label, formula, energy = line.split()
        entries.append(PhaseEntry(
            composition=Composition.from_formula(formula),
            energy_per_atom=float(energy),
            label=label,
        ))
    return tuple(entries)
