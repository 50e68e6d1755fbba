"""Core crystal data model: lattices, sites, compositions, periodic geometry.

All types are immutable after construction and safe to share across workers.
The cell-matrix convention is lower-triangular row vectors built from
(lengths, angles); every other module goes through this single convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Recognized element symbols, Z = 1..103.
ELEMENTS = (
    "H He Li Be B C N O F Ne Na Mg Al Si P S Cl Ar K Ca Sc Ti V Cr Mn Fe Co Ni "
    "Cu Zn Ga Ge As Se Br Kr Rb Sr Y Zr Nb Mo Tc Ru Rh Pd Ag Cd In Sn Sb Te I "
    "Xe Cs Ba La Ce Pr Nd Pm Sm Eu Gd Tb Dy Ho Er Tm Yb Lu Hf Ta W Re Os Ir Pt "
    "Au Hg Tl Pb Bi Po At Rn Fr Ra Ac Th Pa U Np Pu Am Cm Bk Cf Es Fm Md No Lr"
).split()
ELEMENT_SET = frozenset(ELEMENTS)


# Upper bound on the float64 entries of one distance broadcast: the pair
# search and the site mapper (of symmetry detection and structure matching)
# run their site differences in chunks of at most this many, so a large
# cell's temporaries stay a few times 2 MiB.
CHUNK = 1 << 18

# Smallest accepted V / (abc), the volume of a cell with unit edges at its
# angles. Below it the cell is flat to rounding: at 1.7e-16, the angles
# (101, 129, 130) degrees give a Niggli cell 4 % off in volume.
FLAT_CELL_RATIO = 1e-4

# Accepted cell lengths, in Angstrom. From about 1e21 A on the writer's
# 28-digit Decimal context cannot hold a length to its 6 places, and near
# 1e-7 A detection spends over a second on a two-site cell. Within them,
# and with FLAT_CELL_RATIO, the LLL transform (``reduced_basis``) stays
# small: an entry is a basis row (at most sqrt(3) times the longest edge
# while LLL runs) dotted with a dual row (at most 1 / (FLAT_CELL_RATIO times
# the shortest edge) long), so below 2e11, inside int64 and exact in a double.
MIN_CELL_LENGTH = 1e-3
MAX_CELL_LENGTH = 1e4

# Bound on the magnitude of a fractional coordinate. From 2**26 on, the
# spacing of doubles (2**-26, 1.5e-8) passes the 1e-8 the format writes, and
# from 2**52 on no fraction is left, so wrapping such a value into the cell
# puts the site at a place the input never gave.
MAX_FRAC_COORD = 2.0 ** 26

# Most sites one parsed cell may list. Detection grows about as the square
# of the site count (2,000 sites took 3.2 s and 90 MB), and the largest
# workload cell has 216 sites; generator training sets hold at most 52.
MAX_SITES = 512


class GeometryError(ValueError):
    """Non-finite or degenerate geometry (e.g. a non-positive cell determinant)."""


class ReductionError(RuntimeError):
    """Niggli reduction failed to converge."""


@dataclass(frozen=True)
class Lattice:
    """Cell lengths in Angstrom and angles in degrees."""

    a: float
    b: float
    c: float
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name in ("a", "b", "c", "alpha", "beta", "gamma"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise GeometryError(f"lattice parameter {name} must be finite")
            # Stored as Python floats, as ``Site`` stores its coordinates, so
            # a numpy scalar never reaches the decimal writer.
            object.__setattr__(self, name, float(value))
        for name in ("a", "b", "c"):
            length = getattr(self, name)
            if not length > 0:
                raise GeometryError(f"lattice length {name} must be > 0")
            if not MIN_CELL_LENGTH <= length <= MAX_CELL_LENGTH:
                raise GeometryError(f"lattice length {name}={length} outside "
                                    f"[{MIN_CELL_LENGTH}, {MAX_CELL_LENGTH}] A")
        for name in ("alpha", "beta", "gamma"):
            ang = getattr(self, name)
            if not 0.0 < ang < 180.0:
                raise GeometryError(f"lattice angle {name}={ang} outside (0, 180)")
        # Triangle-type condition; a non-positive determinant means the three
        # angles cannot close a parallelepiped.
        volume = self.volume()
        if volume <= 0:
            raise GeometryError("angles produce a non-positive cell determinant")
        if volume < FLAT_CELL_RATIO * self.a * self.b * self.c:
            raise GeometryError("angles produce a numerically flat cell")

    @property
    def lengths(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)

    @property
    def angles(self) -> tuple[float, float, float]:
        return (self.alpha, self.beta, self.gamma)

    def matrix(self) -> np.ndarray:
        return cell_matrix(self)

    @cached_property
    def lll_basis(self) -> np.ndarray:
        """``reduced_basis`` of the cell matrix, computed once per lattice;
        read-only."""
        t = reduced_basis(self.matrix())
        t.setflags(write=False)
        return t

    @cached_property
    def reduced_matrix(self) -> np.ndarray:
        """``lll_basis @ m`` for the cell matrix ``m``; read-only."""
        basis = self.lll_basis @ self.matrix()
        basis.setflags(write=False)
        return basis

    def volume(self) -> float:
        al, be, ga = (math.radians(x) for x in self.angles)
        ca, cb, cg = math.cos(al), math.cos(be), math.cos(ga)
        disc = 1.0 - ca * ca - cb * cb - cg * cg + 2.0 * ca * cb * cg
        return self.a * self.b * self.c * math.sqrt(max(disc, 0.0))


def cell_matrix(lattice: Lattice) -> np.ndarray:
    """Row-vector cell matrix, lower triangular by construction."""
    a, b, c = lattice.lengths
    al, be, ga = (math.radians(x) for x in lattice.angles)
    ca, cb, cg = math.cos(al), math.cos(be), math.cos(ga)
    sg = math.sin(ga)
    cx = c * cb
    cy = c * (ca - cb * cg) / sg
    # cz^2 = (V / (a b sin(gamma)))^2, at least 1e-8 c^2 for an accepted
    # lattice (V / (abc) >= FLAT_CELL_RATIO), so the root is always real.
    cz_sq = c * c - cx * cx - cy * cy
    return np.array([
        [a, 0.0, 0.0],
        [b * cg, b * sg, 0.0],
        [cx, cy, math.sqrt(cz_sq)],
    ])


def _wrap(x: float) -> float:
    w = x % 1.0
    return 0.0 if w >= 1.0 else w  # guard against 1.0 from float roundoff


@dataclass(frozen=True)
class Site:
    """One explicit atomic site."""

    element: str
    frac_coords: tuple[float, float, float]

    def __post_init__(self):
        if self.element not in ELEMENT_SET:
            raise ValueError(f"unknown element symbol {self.element!r}")
        if not all(math.isfinite(x) for x in self.frac_coords):
            raise GeometryError(f"fractional coordinates must be finite, got {self.frac_coords}")
        if not all(abs(x) < MAX_FRAC_COORD for x in self.frac_coords):
            raise GeometryError(f"fractional coordinates must be below 2**26 in magnitude, "
                                f"got {self.frac_coords}")
        object.__setattr__(
            self, "frac_coords", tuple(_wrap(float(x)) for x in self.frac_coords)
        )


@dataclass(frozen=True)
class CrystalStructure:
    lattice: Lattice
    sites: tuple[Site, ...]

    def __post_init__(self):
        object.__setattr__(self, "sites", tuple(self.sites))
        if not self.sites:
            raise ValueError("structure needs at least one site")

    @property
    def num_sites(self) -> int:
        return len(self.sites)

    def volume(self) -> float:
        return self.lattice.volume()

    @cached_property
    def formula(self) -> str:
        """``reduced_formula(self.composition())``, computed once per structure."""
        return reduced_formula(self.composition())

    @cached_property
    def cart(self) -> np.ndarray:
        """Cartesian site positions, ``frac_array() @ lattice.matrix()``,
        built once per structure; read-only."""
        cart = self.frac_array() @ self.lattice.matrix()
        cart.setflags(write=False)
        return cart

    def frac_array(self) -> np.ndarray:
        return np.array([s.frac_coords for s in self.sites])

    def elements(self) -> tuple[str, ...]:
        return tuple(s.element for s in self.sites)

    def composition(self) -> "Composition":
        counts: dict[str, int] = {}
        for s in self.sites:
            counts[s.element] = counts.get(s.element, 0) + 1
        return Composition(counts)

    def with_coords(self, frac: np.ndarray) -> "CrystalStructure":
        sites = tuple(
            Site(s.element, tuple(frac[i])) for i, s in enumerate(self.sites)
        )
        return CrystalStructure(self.lattice, sites)


@dataclass(frozen=True)
class Composition:
    counts: dict[str, int] = field(hash=False)

    def __post_init__(self):
        if not self.counts:
            raise ValueError("empty composition")
        for el, n in self.counts.items():
            if el not in ELEMENT_SET:
                raise ValueError(f"unknown element symbol {el!r}")
            if not isinstance(n, int) or n <= 0:
                raise ValueError(f"count for {el} must be a positive integer")
        object.__setattr__(self, "counts", dict(self.counts))

    def num_atoms(self) -> int:
        return sum(self.counts.values())

    def reduced(self) -> dict[str, int]:
        g = math.gcd(*self.counts.values())
        return {el: n // g for el, n in sorted(self.counts.items())}

    def fractions(self) -> dict[str, float]:
        total = self.num_atoms()
        return {el: n / total for el, n in sorted(self.counts.items())}

    def __eq__(self, other):
        return isinstance(other, Composition) and self.counts == other.counts

    def __hash__(self):
        return hash(tuple(sorted(self.counts.items())))

    @classmethod
    def from_formula(cls, formula: str) -> "Composition":
        import re

        counts: dict[str, int] = {}
        pos = 0
        for m in re.finditer(r"([A-Z][a-z]?)(\d*)", formula.replace(" ", "")):
            if not m.group(0):
                continue
            if m.start() != pos:
                raise ValueError(f"cannot parse formula {formula!r}")
            pos = m.end()
            el, n = m.group(1), int(m.group(2) or 1)
            counts[el] = counts.get(el, 0) + n
        if pos != len(formula.replace(" ", "")) or not counts:
            raise ValueError(f"cannot parse formula {formula!r}")
        return cls(counts)


def reduced_formula(c: Composition) -> str:
    """Canonical reduced formula: alphabetical symbols, gcd-reduced counts."""
    parts = []
    for el, n in c.reduced().items():
        parts.append(el if n == 1 else f"{el}{n}")
    return "".join(parts)


def reduced_basis(cell: np.ndarray) -> np.ndarray:
    """Integer rows ``t`` such that ``t @ cell`` is an LLL-reduced basis.

    Both bases span the same lattice. In the reduced one no perpendicular
    width falls far below the shortest row, so the image range of a
    neighbour search over it stays small even for a cell given by long,
    nearly coplanar vectors.
    """
    t = np.eye(3, dtype=np.int64)
    k = 1
    # LLL terminates after O(log(skew)) swaps; the cap only guards against
    # a floating-point cycle, and any unimodular t is still a valid basis.
    for _ in range(1000):
        if k == 3:
            break
        b = t @ cell
        ortho = b.copy()
        for r in range(1, 3):
            for q in range(r):
                ortho[r] -= (b[r] @ ortho[q]) / (ortho[q] @ ortho[q]) * ortho[q]
        for q in range(k - 1, -1, -1):
            m = round(float((t[k] @ cell) @ ortho[q] / (ortho[q] @ ortho[q])))
            if m:
                t[k] -= m * t[q]
        b = t @ cell
        mu = (b[k] @ ortho[k - 1]) / (ortho[k - 1] @ ortho[k - 1])
        if ortho[k] @ ortho[k] >= (0.75 - mu * mu) * (ortho[k - 1] @ ortho[k - 1]):
            k += 1
        else:
            t[[k - 1, k]] = t[[k, k - 1]]
            k = max(k - 1, 1)
    return t


def neighbour_pairs(
    lattice: Lattice, cart: np.ndarray, radius: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every periodic pair within ``radius``: index arrays i, j and offsets.

    Row p stands for the vector ``cart[j[p]] + offset[p] - cart[i[p]]``,
    whose length is at most ``radius``; ``offset`` is a Cartesian lattice
    vector. The list is full: it holds (j, i, -offset) with each
    (i, j, offset), and (i, i, 0) for every site. Positions may lie
    outside the cell. Rows run by i, then by the shift of j's image, then
    by j; the shift counts cells of the reduced basis from the one that
    holds j, in lexicographic order.

    The search runs over ``lattice.reduced_matrix``, testing each site
    against every image near the cell in chunks of at most ``CHUNK``
    floats, so memory grows with the number of pairs and of image points
    near the cell, never with n * n * images.
    """
    basis = lattice.reduced_matrix
    inv = np.linalg.inv(basis)
    frac = cart @ inv
    whole = np.floor(frac)
    frac -= whole
    # radius over each perpendicular inter-plane spacing, whose inverse is
    # the norm of a column of inv: how far, in cell units, a pair can reach
    reach = radius * np.linalg.norm(inv, axis=0)
    counts = np.ceil(reach).astype(int) + 1
    # Only an image within reach of the cell can be within radius of a site.
    # The test holds per axis, so one (2c + 1) x n mask per axis, broadcast
    # to (mesh cell, site) rows, finds the near images without forming the
    # coordinates of the rest. The masks are cut from one over the widest
    # shift range.
    top = counts.max()
    within = np.abs((np.arange(-top, top + 1)[:, None, None] + frac) - 0.5) <= 0.5 + reach
    ok = [within[top - c:top + c + 1, :, k] for k, c in enumerate(counts.tolist())]
    near = np.flatnonzero(ok[0][:, None, None] & ok[1][None, :, None] & ok[2][None, None])
    cell, site = np.divmod(near, len(frac))
    # each near row's shift, in cells of the reduced basis
    shift = np.stack(np.unravel_index(cell, 2 * counts + 1), axis=1) - counts
    image_frac = shift + frac.take(site, axis=0)
    sites, images = frac @ basis, (image_frac @ basis).T.copy()
    # A chunk of sites against every near image, one coordinate at a time:
    # its three squared differences take at most CHUNK floats.
    step = max(1, CHUNK // (3 * len(near)))
    rows, cols = [], []
    for lo in range(0, len(sites), step):
        part = sites[lo:lo + step]
        sq = sum((images[k] - part[:, k, None]) ** 2 for k in range(3))
        row, col = np.nonzero(sq <= radius * radius)
        rows.append(row + lo)
        cols.append(col)
    i, col = np.concatenate(rows), np.concatenate(cols)
    # take gathers rows at less cost per call than fancy indexing
    j = site.take(col)
    offset = (shift.take(col, axis=0) + whole.take(i, axis=0) - whole.take(j, axis=0)) @ basis
    return i, j, offset


# Relative margin on a search radius that equals a distance exactly, so the
# pair at that distance survives rounding in the neighbour search.
_RADIUS_MARGIN = 1.0 + 1e-9


def all_pair_min_distance(s: CrystalStructure) -> float:
    """Minimum over all site pairs, including periodic self-images."""
    cart = s.cart
    # A self-image one shortest basis vector away bounds the minimum, and so
    # does packing: n points in volume V always hold a pair within
    # (sqrt(2) V / n)^(1/3), the fcc spacing (Kepler bound; Hales, Ann. Math.
    # 162, 1065, 2005). So the pair list grows with n, not with n * n.
    shortest = float(np.linalg.norm(s.lattice.reduced_matrix, axis=1).min())
    packing = (math.sqrt(2.0) * s.volume() / len(cart)) ** (1.0 / 3.0)
    radius = _RADIUS_MARGIN * min(shortest, packing)
    i, j, offset = neighbour_pairs(s.lattice, cart, radius)
    norms = np.linalg.norm(cart[j] + offset - cart[i], axis=1)
    # Only a site's pair with itself at zero offset is left out: two sites
    # listed at the same point are 0 apart.
    itself = (i == j) & ~offset.any(axis=1)
    return float(norms[~itself].min())


# A site's nearest-neighbour shell reaches out to this many times its
# nearest distance.
SHELL_FACTOR = 1.1


def neighbour_shells(s: CrystalStructure) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each site's nearest-neighbour shell: index arrays i, j and distances d.

    Row p is a contact from site i[p] to an image of site j[p], d[p] away,
    with 1e-9 < d <= SHELL_FACTOR * (site i's nearest such distance) + 1e-9.
    Rows run by i, then j, then the image's integer shift in the cell basis.
    """
    m = s.lattice.matrix()
    cart = s.cart
    n = len(cart)
    # A self-image one shortest basis vector away bounds every site's
    # nearest distance, so a search this wide holds every shell.
    shortest = float(np.linalg.norm(s.lattice.reduced_matrix, axis=1).min())
    cap = _RADIUS_MARGIN * (SHELL_FACTOR * shortest + 1e-9)
    # Start at 1.5 mean site spacings, which holds the whole shell of most
    # dense cells; widen until every site's nearest neighbour is inside,
    # then, if need be, out to the widest shell.
    radius = min(1.5 * (s.volume() / n) ** (1.0 / 3.0), cap)
    inv = np.linalg.inv(m)
    while True:
        i, j, offset = neighbour_pairs(s.lattice, cart, radius)
        # Distances from integer shifts of the cell itself, so that neither
        # they nor the row order depend on the reduced basis.
        shift = np.round(offset @ inv)
        d = np.linalg.norm(cart[j] + shift @ m - cart[i], axis=1)
        far = d > 1e-9
        nearest = np.full(n, np.inf)
        np.minimum.at(nearest, i[far], d[far])
        reach = SHELL_FACTOR * nearest.max() + 1e-9
        if reach <= radius or radius >= cap:
            break
        radius = min(2.0 * radius, cap) if math.isinf(reach) else _RADIUS_MARGIN * reach
    keep = far & (d <= SHELL_FACTOR * nearest[i] + 1e-9)
    order = np.lexsort((*shift[keep].T[::-1], j[keep], i[keep]))
    return i[keep][order], j[keep][order], d[keep][order]


class SiteMapper:
    """Tests whether candidate ops map a site set, the source, onto the
    mapper's own sites, the target: symmetry detection maps a cell onto
    itself, and structure matching one structure onto another."""

    def __init__(self, cell: np.ndarray, frac: np.ndarray, elems: tuple):
        self.cell = cell                     # rows = basis vectors (Cartesian)
        self.frac = frac
        # element -> its site indices, rarest element first and equal counts
        # by name, so the order (and the anchor) never follows string hashing.
        counts = {el: elems.count(el) for el in set(elems)}
        self.by_elem: dict[str, np.ndarray] = {
            el: np.array([i for i, e in enumerate(elems) if e == el])
            for el in sorted(counts, key=lambda el: (counts[el], el))
        }

    def _distances(self, sites: np.ndarray, img: np.ndarray) -> np.ndarray:
        """Cartesian distance from each image ``img[c, i]`` to each of
        ``sites``, wrapped to the nearest periodic copy: shape (c, i, site)."""
        d = sites - img[:, :, None, :]
        d -= d.round()
        x = d @ self.cell
        return np.sqrt((x * x).sum(axis=3))

    def permutations(self, ws: np.ndarray, ts: np.ndarray, tol: float,
                     source: SiteMapper | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The candidates ``(ws[k], ts[k])`` that map the source's sites (by
        default the target's own, else those of the mapper ``source``, read
        in the target's cell) onto the target, ascending, and their
        permutations: source site i goes to the nearest same-element target
        site to ``w x_i + t`` (first on a tie), each within ``tol`` (a NaN
        distance is no match), no two to one site. A source has the
        target's composition."""
        source = self if source is None else source
        n = len(source.frac)
        # 3 n floats per candidate: the images of every site.
        step = max(1, CHUNK // (3 * n))
        fits, rows = [np.zeros(0, dtype=int)], [np.zeros((0, n), dtype=np.int32)]
        for lo in range(0, len(ws), step):
            alive = np.arange(lo, min(lo + step, len(ws)))
            perms = np.empty((len(alive), n), dtype=np.int32)
            for el, idx in self.by_elem.items():
                src = source.by_elem[el]
                sites = self.frac[idx]
                img = np.matmul(source.frac[src], ws[alive].transpose(0, 2, 1)) + ts[alive][:, None, :]
                hits = np.arange(len(alive))
                if len(src) > 1 and len(alive) > 1:
                    # A candidate that fails mostly fails on any one site, so
                    # the last site's row alone (m distances, not m * m)
                    # screens the chunk. Not the first site: the anchored
                    # search builds its candidates to map the first anchor
                    # site exactly. (With one site, that row is the block; a
                    # lone candidate, mostly the fitting identity, gains nothing.)
                    near = self._distances(sites, img[:, -1:])[:, 0].min(axis=1) < tol
                    hits = hits[near]
                # 3 m m floats per candidate in a full block.
                block = max(1, CHUNK // (3 * len(src) * len(idx)))
                ok = np.zeros(len(alive), dtype=bool)
                for b in range(0, len(hits), block):
                    hit = hits[b:b + block]
                    dist = self._distances(sites, img[hit])
                    image = idx[dist.argmin(axis=2)]
                    ordered = np.sort(image, axis=1)
                    ok[hit] = ((dist.min(axis=2) < tol).all(axis=1)
                               & (ordered[:, 1:] != ordered[:, :-1]).all(axis=1))
                    perms[alive[hit, None] - lo, src] = image
                alive = alive[ok]
                if not len(alive):
                    break
            fits.append(alive)
            rows.append(perms[alive - lo])
        return np.concatenate(fits), np.concatenate(rows)

    def anchored_fits(self, rots: np.ndarray, tol: float,
                      source: SiteMapper | None = None
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each of ``rots`` with each translation taking the source's first
        site of the anchor element (the target's rarest, by name among equal
        counts) onto an anchor site: the rotation index, translation and
        site permutation of each that fits within ``tol``, in candidate
        order."""
        source = self if source is None else source
        el, idx = next(iter(self.by_elem.items()))
        x = self.frac[idx]
        x0 = source.frac[source.by_elem[el][0]]
        ts = ((x - np.matmul(rots, x0)[:, None, :]) % 1.0).reshape(-1, 3)
        fit, perms = self.permutations(np.repeat(rots, len(idx), axis=0), ts, tol, source)
        return fit // len(idx), ts[fit], perms


# Niggli reduction: comparisons allow this fraction of the geometric mean
# squared edge, and a cell that needs more steps does not converge.
NIGGLI_EPS = 1e-10
NIGGLI_MAX_STEPS = 200


def niggli_reduce(lattice: Lattice) -> tuple[float, float, float, float, float, float]:
    """Niggli-reduce a cell (Krivy-Gruber steps with stabilized comparisons)
    to its six numbers ``(a, b, c, alpha, beta, gamma)``, in Angstrom and
    degrees. They are not a ``Lattice``: a reduced vector may be shorter
    than any accepted input length.

    The steps start from the LLL-reduced basis of the same lattice, so a
    nearly flat cell does not need more of them than ``NIGGLI_MAX_STEPS``.
    """
    m = lattice.reduced_matrix
    a = float(m[0] @ m[0])
    b = float(m[1] @ m[1])
    c = float(m[2] @ m[2])
    xi = 2.0 * float(m[1] @ m[2])
    eta = 2.0 * float(m[0] @ m[2])
    zeta = 2.0 * float(m[0] @ m[1])
    scale = (a * b * c) ** (1.0 / 3.0)
    tol = NIGGLI_EPS * scale

    def lt(x, y):
        return x < y - tol

    def gt(x, y):
        return x > y + tol

    def eq(x, y):
        return abs(x - y) <= tol

    for _ in range(NIGGLI_MAX_STEPS):
        # A1
        if gt(a, b) or (eq(a, b) and gt(abs(xi), abs(eta))):
            a, b = b, a
            xi, eta = eta, xi
        # A2
        if gt(b, c) or (eq(b, c) and gt(abs(eta), abs(zeta))):
            b, c = c, b
            eta, zeta = zeta, eta
            continue
        # A3 / A4: fix signs
        if xi * eta * zeta > 0:
            xi, eta, zeta = abs(xi), abs(eta), abs(zeta)
        else:
            xi, eta, zeta = -abs(xi), -abs(eta), -abs(zeta)
        # A5
        if gt(abs(xi), b) or (eq(xi, b) and lt(2 * eta, zeta)) or (
            eq(xi, -b) and lt(zeta, 0)
        ):
            sign = 1 if xi > 0 else -1
            c = b + c - sign * xi
            eta = eta - sign * zeta
            xi = xi - sign * 2 * b
            continue
        # A6
        if gt(abs(eta), a) or (eq(eta, a) and lt(2 * xi, zeta)) or (
            eq(eta, -a) and lt(zeta, 0)
        ):
            sign = 1 if eta > 0 else -1
            c = a + c - sign * eta
            xi = xi - sign * zeta
            eta = eta - sign * 2 * a
            continue
        # A7
        if gt(abs(zeta), a) or (eq(zeta, a) and lt(2 * xi, eta)) or (
            eq(zeta, -a) and lt(eta, 0)
        ):
            sign = 1 if zeta > 0 else -1
            b = a + b - sign * zeta
            xi = xi - sign * eta
            zeta = zeta - sign * 2 * a
            continue
        # A8
        if lt(xi + eta + zeta + a + b, 0) or (
            eq(xi + eta + zeta + a + b, 0) and gt(2 * (a + eta) + zeta, 0)
        ):
            c = a + b + c + xi + eta + zeta
            xi = 2 * b + xi + zeta
            eta = 2 * a + eta + zeta
            continue
        break
    else:
        raise ReductionError("Niggli reduction did not converge")

    la = math.sqrt(a)
    lb = math.sqrt(b)
    lc = math.sqrt(c)
    alpha = math.degrees(math.acos(np.clip(xi / (2 * lb * lc), -1, 1)))
    beta = math.degrees(math.acos(np.clip(eta / (2 * la * lc), -1, 1)))
    gamma = math.degrees(math.acos(np.clip(zeta / (2 * la * lb), -1, 1)))
    return la, lb, lc, alpha, beta, gamma
