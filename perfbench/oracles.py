"""Reference computations that the benchmark checks the program against.

Nothing here imports crysalign. Every value is recomputed from the generated
input with separately written code; the only thing shared with the program
is its data tables (pair parameters, reference energies and phases,
oxidation states), which define the model rather than implement it.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Documented thresholds of the evaluator (validity gate, stability, reward).
MIN_PAIR_DISTANCE = 2.0
MIN_VOLUME = 4.0
MIN_LENGTH = 1.1
ANGLE_RANGE = (20.0, 160.0)
STABLE_BELOW = 0.016
LJ_CUTOFF = 6.0
SHELL_FACTOR = 1.1
ALPHA_VALIDITY = 1.0
ALPHA_STABILITY = 10.0
E0 = 1.0


# ---------------------------------------------------------------------------
# formulas


def parse_formula(formula: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for el, n in re.findall(r"([A-Z][a-z]?)(\d*)", formula):
        counts[el] = counts.get(el, 0) + int(n or 1)
    return counts


def reduced_counts(counts: dict[str, int]) -> dict[str, int]:
    g = 0
    for n in counts.values():
        g = math.gcd(g, n)
    return {el: counts[el] // g for el in sorted(counts)}


def reduced_formula(counts: dict[str, int]) -> str:
    return "".join(el if n == 1 else f"{el}{n}"
                   for el, n in reduced_counts(counts).items())


def count_elements(elements) -> dict[str, int]:
    counts: dict[str, int] = {}
    for el in elements:
        counts[el] = counts.get(el, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# periodic geometry


def cell_vectors(a, b, c, alpha, beta, gamma) -> np.ndarray:
    """Rows are the cell vectors; a along x, b in the xy plane."""
    ca, cb, cg = (math.cos(math.radians(x)) for x in (alpha, beta, gamma))
    sg = math.sin(math.radians(gamma))
    cy = (ca - cb * cg) / sg
    cz = math.sqrt(1.0 - cb * cb - cy * cy)
    return np.array([[a, 0.0, 0.0],
                     [b * cg, b * sg, 0.0],
                     [c * cb, c * cy, c * cz]])


def cell_volume(cell: np.ndarray) -> float:
    return abs(float(np.linalg.det(cell)))


def _plane_widths(cell: np.ndarray) -> np.ndarray:
    """Distance between neighbouring lattice planes along each axis."""
    vol = cell_volume(cell)
    return np.array([vol / np.linalg.norm(np.cross(cell[(k + 1) % 3], cell[(k + 2) % 3]))
                     for k in range(3)])


def _images(cell: np.ndarray, radius: float) -> np.ndarray:
    """Integer image offsets reaching every point within ``radius`` of a
    minimum-image difference (fractional components in [-1/2, 1/2])."""
    reach = np.ceil(radius / _plane_widths(cell)).astype(int) + 1
    axes = [np.arange(-n, n + 1) for n in reach]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)


def _min_image_deltas(frac: np.ndarray) -> np.ndarray:
    d = frac[None, :, :] - frac[:, None, :]      # d[i, j] = x_j - x_i
    return d - np.round(d)


def _pair_distances(cell, frac, radius):
    """Yield (image, distances[i, j]) for every image offset within reach."""
    deltas = _min_image_deltas(frac % 1.0)
    for n in _images(cell, radius):
        yield n, np.linalg.norm((deltas + n) @ cell, axis=-1)


def _nearest_upper_bound(cell, frac) -> np.ndarray:
    """Per-site distance to some other site or self-image: an upper bound
    on each site's true nearest-neighbour distance."""
    deltas = _min_image_deltas(frac % 1.0)
    best = np.full(len(frac), np.inf)
    for n in itertools.product((-1, 0, 1), repeat=3):
        d = np.linalg.norm((deltas + np.array(n)) @ cell, axis=-1)
        d[d <= 1e-9] = np.inf
        best = np.minimum(best, d.min(axis=1))
    return best


def min_pair_distance(cell, frac) -> float:
    """Minimum distance over all site pairs and periodic self-images."""
    bound = float(_nearest_upper_bound(cell, frac).min())
    best = bound
    for _, d in _pair_distances(cell, frac, bound):
        d = d[d > 1e-12]
        if d.size:
            best = min(best, float(d.min()))
    return best


def neighbour_bonds(cell, frac, elements) -> dict[tuple[str, str], float]:
    """Mean nearest-shell bond length per element pair.

    A site's shell holds every neighbour within SHELL_FACTOR times its
    nearest distance; contacts of all sites are pooled per sorted pair.
    """
    radius = SHELL_FACTOR * float(_nearest_upper_bound(cell, frac).max()) + 1e-6
    found = []
    for _, d in _pair_distances(cell, frac, radius):
        i, j = np.nonzero((d > 1e-9) & (d <= radius))
        found.append((i, j, d[i, j]))
    i, j, d = (np.concatenate(x) for x in zip(*found))
    nearest = np.full(len(elements), np.inf)
    np.minimum.at(nearest, i, d)
    shell = d <= nearest[i] * SHELL_FACTOR + 1e-9
    pooled: dict[tuple[str, str], list[float]] = {}
    for a, b, dist in zip(i[shell], j[shell], d[shell]):
        pooled.setdefault(tuple(sorted((elements[a], elements[b]))), []).append(float(dist))
    return {k: float(np.mean(v)) for k, v in sorted(pooled.items())}


def structurally_valid(cell, frac, lengths, angles) -> bool:
    lo, hi = ANGLE_RANGE
    return (min_pair_distance(cell, frac) > MIN_PAIR_DISTANCE
            and cell_volume(cell) > MIN_VOLUME
            and all(x > MIN_LENGTH for x in lengths)
            and all(lo < x < hi for x in angles))


# ---------------------------------------------------------------------------
# data tables


def _table_lines(path: Path):
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


@dataclass(frozen=True)
class Tables:
    lj: dict[str, tuple[float, float]]          # element -> (epsilon, sigma)
    lj_pairs: dict[frozenset, tuple[float, float]]
    reference_energy: dict[str, float]
    phases: tuple[tuple[dict[str, int], float], ...]
    oxidation: dict[str, tuple[int, ...]]

    @classmethod
    def load(cls, data_dir: Path) -> "Tables":
        lj: dict = {}
        pairs: dict = {}
        for line in _table_lines(data_dir / "pair_potentials.txt"):
            key, _, val = line.partition(":")
            params = tuple(float(x) for x in val.split())
            elems = key.split()
            if len(elems) == 1 or elems[0] == elems[1]:
                lj[elems[0]] = params
            else:
                pairs[frozenset(elems)] = params
        refs = {}
        for line in _table_lines(data_dir / "reference_energies.txt"):
            el, _, val = line.partition(":")
            refs[el.strip()] = float(val)
        phases = []
        for line in _table_lines(data_dir / "reference_phases.txt"):
            _, formula, energy = line.split()
            phases.append((parse_formula(formula), float(energy)))
        oxidation = {}
        for line in _table_lines(data_dir / "oxidation_states.txt"):
            el, _, states = line.partition(":")
            oxidation[el.strip()] = tuple(int(x) for x in states.split(",") if x.strip())
        return cls(lj, pairs, refs, tuple(phases), oxidation)

    def lj_params(self, a: str, b: str) -> tuple[float, float]:
        if a != b and frozenset((a, b)) in self.lj_pairs:
            return self.lj_pairs[frozenset((a, b))]
        (ea, sa), (eb, sb) = self.lj[a], self.lj[b]
        return math.sqrt(ea * eb), 0.5 * (sa + sb)


# ---------------------------------------------------------------------------
# energetics


def lj_energy_per_atom(tables: Tables, cell, frac, elements) -> float:
    """Shifted truncated Lennard-Jones sum over sites and lattice images."""
    n = len(elements)
    species = sorted(set(elements))
    pair = np.array([[tables.lj_params(a, b) for b in species] for a in species])
    idx = np.array([species.index(el) for el in elements])
    eps, sig = pair[idx][:, idx, 0], pair[idx][:, idx, 1]
    at_cut = sig / LJ_CUTOFF
    shift = 4.0 * eps * (at_cut ** 12 - at_cut ** 6)
    total = 0.0
    for _, d in _pair_distances(cell, frac, LJ_CUTOFF):
        inside = (d > 1e-12) & (d < LJ_CUTOFF)
        if not inside.any():
            continue
        s6 = (sig[inside] / d[inside]) ** 6
        total += float(np.sum(4.0 * eps[inside] * (s6 * s6 - s6) - shift[inside]))
    return 0.5 * total / n


def formation_energy(tables: Tables, energy_per_atom: float,
                     counts: dict[str, int]) -> float:
    total = sum(counts.values())
    return energy_per_atom - sum(n / total * tables.reference_energy[el]
                                 for el, n in counts.items())


def hull_energy(tables: Tables, counts: dict[str, int]) -> float:
    """Lowest energy of any non-negative mix of reference phases with the
    candidate's composition, by enumerating every small phase subset."""
    elements = sorted(counts)
    total = sum(counts.values())
    target = np.array([counts[el] / total for el in elements])
    usable = [(np.array([c.get(el, 0) for el in elements], float) / sum(c.values()), e)
              for c, e in tables.phases if set(c) <= set(elements)]
    best = math.inf
    for size in range(1, len(elements) + 1):
        for subset in itertools.combinations(usable, size):
            mat = np.stack([x for x, _ in subset], axis=1)
            w, *_ = np.linalg.lstsq(mat, target, rcond=None)
            if np.abs(mat @ w - target).max() > 1e-9 or w.min() < -1e-12:
                continue
            best = min(best, float(sum(wi * e for wi, (_, e) in zip(w, subset))))
    if best == math.inf:
        raise ValueError(f"no reference phases span {elements}")
    return best


def e_hull(tables: Tables, cell, frac, elements) -> float:
    """Single-point energy above hull, clamped at 0 like the reported value."""
    counts = count_elements(elements)
    ef = formation_energy(tables, lj_energy_per_atom(tables, cell, frac, elements),
                          counts)
    return max(ef - hull_energy(tables, counts), 0.0)


# ---------------------------------------------------------------------------
# chemistry and reward


def charge_neutral(tables: Tables, counts: dict[str, int]) -> bool:
    """Brute force: some product of listed states sums to zero charge."""
    reduced = reduced_counts(counts)
    states = [tables.oxidation.get(el, ()) for el in reduced]
    weights = list(reduced.values())
    return any(sum(w * s for w, s in zip(weights, combo)) == 0
               for combo in itertools.product(*states))


def stability_score(e: float) -> float:
    e = max(e, 0.0)
    return 1.0 - e / (2.0 * E0) if e <= E0 else E0 / (2.0 * e)


def combined_reward(structural: bool, chemical: bool, composition: bool,
                    e_hull_value: float | None) -> float:
    """alpha_v * (S + C + M) + alpha_s * gate * R_stab, gate needing e_hull."""
    r = ALPHA_VALIDITY * (int(structural) + int(chemical) + int(composition))
    if structural and chemical and composition and e_hull_value is not None:
        r += ALPHA_STABILITY * stability_score(e_hull_value)
    return r
