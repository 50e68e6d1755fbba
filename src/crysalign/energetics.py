"""Energy backend, local relaxation, formation energy, and hull distance.

The pair-potential backend is a cheap, force-consistent surrogate for a
machine-learned potential: a truncated Lennard-Jones sum, shifted so the
energy is continuous at the cutoff, with Lorentz-Berthelot mixing for pairs
that are not parameterized explicitly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from importlib import resources

import numpy as np

from .structcore import Composition, CrystalStructure, neighbour_pairs

STABILITY_THRESHOLD = 0.016  # eV/atom, strict upper bound for "stable"

# Verlet skin (A) of the pair list in relax_positions: wide enough that a
# short descent rarely rebuilds it, narrow enough to add few extra pairs.
SKIN = 0.5

# Pair-potential cutoff (A); every sigma in the pair table must be at most
# half of it.
CUTOFF = 6.0

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


class PhaseSet(tuple):
    """Reference phases as a tuple that hashes its members once.

    ``hull_energy`` is memoized on its reference set, so a plain tuple would
    rehash every phase on each call, a memo hit included.
    """

    @cached_property
    def _hash(self) -> int:
        return tuple.__hash__(self)

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class HullResult:
    e_hull: float
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
        return PairKernel(self, s, skin=0.0)(_cartesian(s))[0]

    def forces(self, s: CrystalStructure) -> np.ndarray:
        return PairKernel(self, s, skin=0.0)(_cartesian(s))[1]


def _cartesian(s: CrystalStructure) -> np.ndarray:
    return s.frac_array() @ s.lattice.matrix()


class PairKernel:
    """Energy and forces of one fixed cell from a Verlet pair list.

    The list holds every (i, j, image) pair within cutoff + skin of the
    positions it was last built at, with each pair's [4 eps, sigma, shift]
    row taken from a species-pair table. While no atom has moved more than
    half the skin since, every pair now inside the cutoff is still on the
    list, so the list is rebuilt only when some atom has moved farther.

    A call gathers with ``take`` and selects the pairs inside the cutoff
    once, since numpy's fancy indexing costs more per call than the
    arithmetic on a small cell. The forces come from one ``bincount`` over
    (site, axis) slots, which adds each slot's terms in pair order.
    """

    def __init__(self, backend: PairPotentialBackend, s: CrystalStructure, skin: float):
        elements = s.elements()
        species = sorted(set(elements))
        table = np.array([[backend.pair_parameters(a, b) for b in species]
                          for a in species]).reshape(-1, 2)
        eps, sig = table[:, 0], table[:, 1]
        at_cut = sig / CUTOFF
        # 4 eps is exact, so the kernel's eps4 * (r12 - r6) is
        # 4.0 * eps * (r6 ** 2 - r6) to the bit.
        self._table = np.stack([4.0 * eps, sig,
                                4.0 * eps * (at_cut ** 12 - at_cut ** 6)], axis=1)
        self._kind = np.array([species.index(el) for el in elements])
        self._species = len(species)
        self._lattice = s.lattice
        self._skin = skin
        self._build(_cartesian(s))

    def _build(self, cart: np.ndarray) -> None:
        i, j, offset = neighbour_pairs(self._lattice, cart, CUTOFF + self._skin)
        pair = self._kind.take(i) * self._species + self._kind.take(j)
        self._pairs = (i, j, offset, self._table.take(pair, axis=0))
        self._built_at = cart.copy()

    def __call__(self, cart: np.ndarray) -> tuple[float, np.ndarray]:
        """Energy per atom (eV) and per-site Cartesian forces (eV/A) at cart."""
        moved = cart - self._built_at
        if np.einsum("ij,ij->i", moved, moved).max() > (0.5 * self._skin) ** 2:
            self._build(cart)
        i, j, offset, params = self._pairs
        rel = cart.take(j, axis=0)
        rel += offset
        rel -= cart.take(i, axis=0)
        dist = np.sqrt(np.einsum("ij,ij->i", rel, rel))
        keep = ((dist > 1e-12) & (dist < CUTOFF)).nonzero()[0]
        i, rel, dist = i.take(keep), rel.take(keep, axis=0), dist.take(keep)
        eps4, sig, shift = params.take(keep, axis=0).T
        r6 = (sig / dist) ** 6
        r12 = r6 ** 2
        energy = 0.5 * float((eps4 * (r12 - r6) - shift).sum()) / len(cart)
        # dphi/dr = 4 eps (-12 sig^12 / r^13 + 6 sig^6 / r^7); the force on i
        # from the pair is -dphi/dr * d r / d x_i = dphi/dr * rel / r.
        dphi = eps4 * (-12.0 * r12 + 6.0 * r6)
        rel *= (dphi / dist / dist)[:, None]
        slots = (3 * i)[:, None] + np.arange(3)
        forces = np.bincount(slots.ravel(), rel.ravel(), minlength=3 * len(cart))
        return energy, forces.reshape(-1, 3)


def relax_positions(
    backend: PairPotentialBackend,
    s: CrystalStructure,
    max_steps: int = 200,
    force_tol: float = 1e-3,
    deadline: float | None = None,
) -> CrystalStructure:
    """Positions-only descent with backtracking; the cell stays fixed.

    Raises ``TimeoutError`` at the first descent step that starts at or
    after ``deadline`` (a ``time.monotonic()`` value).
    """
    inv = np.linalg.inv(s.lattice.matrix())
    start = _cartesian(s)
    cart = start
    kernel = PairKernel(backend, s, skin=SKIN)
    energy, f = kernel(cart)
    step = 0.05
    for _ in range(max_steps):
        if deadline is not None and time.monotonic() >= deadline:
            raise TimeoutError("relaxation passed its deadline")
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
            trial_energy, trial_f = kernel(trial_cart)
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
    """Hull distance: the candidate's energy less ``hull_energy`` at its
    composition. Pass ``refs`` as a ``PhaseSet`` to hash it only once."""
    fractions = tuple(candidate.composition.fractions().items())
    if not isinstance(refs, PhaseSet):
        refs = PhaseSet(refs)
    fun, decomposition = hull_energy(fractions, refs)
    return HullResult(e_hull=candidate.energy_per_atom - fun, decomposition=decomposition)


@lru_cache(maxsize=None)
def hull_energy(fractions: tuple[tuple[str, float], ...], refs: tuple[PhaseEntry, ...]
                ) -> tuple[float, tuple[tuple[PhaseEntry, float], ...]]:
    """Hull energy per atom at the atomic ``fractions`` (sorted by element)
    and its decomposition, by a simplex over convex combinations of ``refs``.

    minimize sum w_i E_i subject to sum w_i x_i,e = x_cand,e and w >= 0;
    the weights then sum to 1 automatically because atomic fractions do.
    Memoized on both arguments, since the LP depends on nothing else; a
    raise is not memoized. ``harness._in_batch`` clears the memo on the
    first task of each batch, in whichever process runs it.
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
def load_reference_phases() -> PhaseSet:
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
    return PhaseSet(entries)
