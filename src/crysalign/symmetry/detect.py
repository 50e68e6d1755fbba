"""Space-group detection from scratch.

Pipeline: find pure translations and fold to the primitive cell; reduce the
primitive basis; enumerate integer rotations preserving the metric; search
translations mapping the site set onto itself; build a conventional cell
from the rotation axes; identify the group by matching the operation-set
signature against the embedded table. The input cell is never searched
again: its operations are the primitive operations whose rotations are
integral in the input basis, each followed by every pure translation, and
its orbits are the orbits of the primitive operations, each primitive site
replaced by its pure-translation class.

Work is done once. A cell with no pure translation but the zero one is its
own primitive cell, so detection takes its lattice's cached LLL basis
(``Lattice.lll_basis``, shared with the neighbour searches) instead of
reducing it again. A set whose rotations have no axis holds only I and -I;
its signature can only be P1 or P-1, so it skips the conventional cell and
the signature and is numbered 1 or 2 directly. The operations travel as one
int array of rotations and one float array of translations, and the result
keeps them in that one form (``SpacegroupResult.op_arrays``).

Both stages run one search (``_fitting_ops``, the anchored search of
``structcore.SiteMapper``, which structure matching shares): each rotation
with each translation taking the first anchor site onto an anchor site,
tested in chunks by the rules of one at a time: nearest site, first on a
tie, within ``tol``.

The conventional cell is read from the rotations' integer invariants
(``groups.rotation_info``): each axis is the shortest lattice vector along
it, the in-plane candidates are the small integer vectors its projector
sends to 0, the second in-plane vector is a fixed power of the rotation
applied to the first, and handedness is the sign of the integer determinant.
The Cartesian cell only orders candidates by length; a system whose axes
give no candidate falls back to triclinic.

Symmetry operations act on column fractional coordinates: x' = W x + w.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ..structcore import CrystalStructure, SiteMapper, reduced_basis
from . import groups
from .groups import I3, signature, signature_index, load_group_table

CRYSTAL_SYSTEMS = (
    (2, "triclinic"), (15, "monoclinic"), (74, "orthorhombic"),
    (142, "tetragonal"), (167, "trigonal"), (194, "hexagonal"), (230, "cubic"),
)


class DetectionError(RuntimeError):
    """Symmetry detection could not complete."""


@dataclass(frozen=True)
class SpacegroupResult:
    number: int
    symbol: str
    crystal_system: str
    orbits: tuple[tuple[int, ...], ...]
    ambiguous: bool
    # The input-cell rotations and translations, one row per operation.
    op_arrays: tuple[np.ndarray, np.ndarray] = field(compare=False, repr=False)


def crystal_system(number: int) -> str:
    """Standard space-group-number to crystal-system mapping."""
    if not 1 <= number <= 230:
        raise ValueError(f"space-group number {number} outside [1, 230]")
    for hi, name in CRYSTAL_SYSTEMS:
        if number <= hi:
            return name
    raise AssertionError


# ---------------------------------------------------------------------------
# integer-lattice helpers


def _hnf_basis(rows: np.ndarray) -> np.ndarray:
    """Hermite-style integer row reduction to a 3x3 basis of the row lattice."""
    rows = [list(map(int, r)) for r in rows]
    basis: list[list[int]] = []
    for col in range(3):
        work = [r for r in rows if any(r[col:])]
        # reduce so only one row has a nonzero entry in `col`
        while True:
            nz = [r for r in work if r[col] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda r: abs(r[col]))
            pivot = nz[0]
            for r in nz[1:]:
                q = r[col] // pivot[col]
                for k in range(3):
                    r[k] -= q * pivot[k]
        pivot = next((r for r in work if r[col] != 0), None)
        if pivot is None:
            raise DetectionError("translation set does not span a 3D lattice")
        basis.append([-x for x in pivot] if pivot[col] < 0 else list(pivot))
        rows = [r for r in work if r is not pivot and any(r)]
    return np.array(basis, dtype=int)


# Nonzero integer vectors with entries in [-4, 4], in lexicographic order,
# and the [-2, 2] subset in the same order. Read-only: rows are handed out.
_VECS4 = np.array([v for v in itertools.product(range(-4, 5), repeat=3) if any(v)])
_VECS4.setflags(write=False)
_VECS2 = _VECS4[np.abs(_VECS4).max(axis=1) <= 2]
_VECS2.setflags(write=False)
# The zero vector followed by ``_VECS2``: the centering search's order.
_VECS0_2 = np.concatenate([np.zeros((1, 3), dtype=int), _VECS2])
_VECS0_2.setflags(write=False)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products, each computed as ``a[i] @ b[i]`` would be.

    Norms built from these equal ``np.linalg.norm`` of each row to the bit,
    so lattice vectors of equal length sort as they do one at a time.
    """
    return np.matmul(a[:, None, :], b[..., None])[:, 0, 0]


# ---------------------------------------------------------------------------
# site permutations


def _orbits(n: int, perms: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Orbits of the indices 0..n-1 under the permutations (rows of
    ``perms``), each sorted, in order of their least index."""
    parent = list(range(n))
    seen = set()

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for perm in perms:
        key = perm.tobytes()
        # A repeated permutation would union nothing new.
        if key in seen:
            continue
        seen.add(key)
        for i, j in enumerate(perm.tolist()):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[rj] = ri
    # Scanning up from 0 meets each orbit first at its least index.
    orbit_map: dict[int, list[int]] = {}
    for i in range(n):
        orbit_map.setdefault(find(i), []).append(i)
    return tuple(tuple(v) for v in orbit_map.values())


# ---------------------------------------------------------------------------
# detection


def _fitting_ops(mapper: SiteMapper, rots: np.ndarray,
                 tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``mapper.anchored_fits(rots, tol)``; the identity (among ``rots``) must fit."""
    rot_of, ts, perms = mapper.anchored_fits(rots, tol)
    if not (rots[rot_of] == np.eye(3, dtype=int)).all(axis=(1, 2)).any():
        raise DetectionError("identity operation missing")
    return rot_of, ts, perms


def _primitive_transform(translations: np.ndarray) -> np.ndarray:
    """Rows S (rational, as floats): primitive basis in original frac coords."""
    m = len(translations)
    if m == 1:
        return np.eye(3)
    rows = [m * np.eye(3, dtype=int)[i] for i in range(3)]
    for t in translations[1:]:
        v = np.round(m * t).astype(int)
        if not np.allclose(m * t, v, atol=0.2):
            raise DetectionError("pure translation is not rational at this order")
        rows.append(v)
    h = _hnf_basis(np.array([r for r in rows if np.any(r)]))
    s = h.astype(float) / m
    if abs(abs(np.linalg.det(s)) - 1.0 / m) > 1e-9:
        raise DetectionError("primitive basis determinant mismatch")
    return s


def _candidate_rotations(cell: np.ndarray, tol: float) -> list[np.ndarray]:
    """Unimodular W with columns from ``_VECS2`` that keep the metric,
    W^T G W = G within tolerance; in lexicographic order of the column
    indices."""
    g = cell @ cell.T
    lmax = math.sqrt(max(g[i, i] for i in range(3)))
    atol = 4.0 * tol * lmax
    # Products are taken one vector slice at a time, so each value equals
    # ``v @ g @ u`` for that pair to the bit.
    vg = np.matmul(_VECS2[:, None, :], g)[:, 0]
    norms = _rowdot(vg, _VECS2)
    cols = [np.flatnonzero(np.abs(norms - g[j, j]) < atol) for j in range(3)]

    def fits(a, b, j, k):
        """Whether each candidate pair for columns j and k keeps G[j, k]."""
        dots = np.matmul(vg[a][:, None, None, :], _VECS2[b][None, :, :, None])
        return ~(np.abs(dots[:, :, 0, 0] - g[j, k]) > atol)

    c0, c1, c2 = cols
    i0, i1, i2 = np.nonzero(fits(c0, c1, 0, 1)[:, :, None]
                            & fits(c0, c2, 0, 2)[:, None, :]
                            & fits(c1, c2, 1, 2)[None, :, :])
    w = np.stack([_VECS2[c0[i0]], _VECS2[c1[i1]], _VECS2[c2[i2]]], axis=2)
    return list(w[np.round(np.abs(np.linalg.det(w * 1.0))) == 1])


def _axes_summary(rots: np.ndarray) -> dict[tuple, tuple]:
    """Distinct proper-rotation axes of the Laue class of the rotations:
    axis -> (its highest order, the first proper rotation of that order
    about it)."""
    axes: dict[tuple, tuple] = {}
    for w in rots.tolist():
        wi = tuple(map(tuple, w))
        if groups._det(wi) < 0:
            wi = tuple(tuple(-x for x in row) for row in wi)
        if wi == I3:
            continue
        try:
            order, axis, _, _ = groups.rotation_info(wi)
        except ValueError as e:
            raise DetectionError(str(e)) from None
        if order > axes.get(axis, (0,))[0]:
            axes[axis] = (order, wi)
    return axes


def _classify_system(axes: dict[tuple, tuple]) -> str:
    orders = [o for o, _ in axes.values()]
    n3 = sum(1 for o in orders if o == 3)
    if n3 == 4:
        return "cubic"
    if any(o == 6 for o in orders):
        return "hexagonal"
    if n3 >= 1:
        return "trigonal"
    if any(o == 4 for o in orders):
        return "tetragonal"
    if sum(1 for o in orders if o == 2) >= 3:
        return "orthorhombic"
    if len(orders) == 1:
        return "monoclinic"
    return "triclinic"


def _in_plane(cell: np.ndarray, rot: tuple) -> np.ndarray:
    """Rows of ``_VECS4`` in the plane the proper rotation ``rot`` turns (its
    projector sends them to 0), shortest in ``cell`` first (stable, so equal
    lengths keep lexicographic order)."""
    order, _, _, proj = groups.rotation_info(rot)
    # order * proj is the sum of the rotation's powers, an integer matrix.
    hits = np.flatnonzero(~(_VECS4 @ np.rint(order * proj).astype(int).T).any(axis=1))
    # Taken from the images of all rows, so each length rounds (and ties)
    # the same way whichever rows are hits.
    v = (_VECS4 @ cell)[hits]
    return _VECS4[hits[np.argsort(np.sqrt(_rowdot(v, v)), kind="stable")]]


# Powers k of a c-axis rotation of each order that turn a to the
# conventional in-plane b: 90 degrees away for 4, 120 for 3 and 6.
_B_POWERS = {4: (1, 3), 3: (1, 2), 6: (2, 4)}


def _conventional_candidates(cell: np.ndarray, axes: dict[tuple, tuple],
                             system: str) -> list[np.ndarray]:
    """Candidate integer row matrices U with conventional cell = U @ cell;
    empty when the axes do not fit ``system``.

    ``axes`` is the ``_axes_summary`` of the operations; each axis is the
    primitive integer solution of W a = a, so the shortest lattice vector
    along it. ``cell`` (right-handed, so U @ cell is when det U > 0) only
    orders candidates by length. Several settings are
    returned where the axis choice is not forced (monoclinic a/c,
    trigonal/hexagonal in-plane pair); the caller keeps the first one whose
    operation signature is known.
    """
    if system == "triclinic":
        return [np.eye(3, dtype=int)]

    if system == "monoclinic":
        ((b_axis, (_, rot)),) = axes.items()
        ub = np.array(b_axis)
        perp = _in_plane(cell, rot)[:8]
        out = []
        for ua in perp:
            for uc in perp:
                u = np.stack([ua, ub, uc])
                det = groups._det(u)
                if det:                              # 0 exactly when a || c
                    out.append(u if det > 0 else np.stack([uc, ub, ua]))
        return out

    if system in ("tetragonal", "trigonal", "hexagonal"):
        order = {"tetragonal": 4, "trigonal": 3, "hexagonal": 6}[system]
        c_axis, (_, rot) = next((a, v) for a, v in axes.items() if v[0] == order)
        uc, w = np.array(c_axis), np.array(rot)
        out = []
        # b is the rotation image of a at the conventional in-plane angle
        # that makes the cell right-handed.
        for ua in _in_plane(cell, rot)[:6]:
            for k in _B_POWERS[order]:
                u = np.stack([ua, np.linalg.matrix_power(w, k) @ ua, uc])
                if groups._det(u) > 0:
                    out.append(u)
        return out

    # Orthorhombic: the three 2-fold axes, shortest first; cubic: the three
    # 4-fold axes, or else the three 2-fold ones.
    if system == "orthorhombic":
        dirs = [a for a, (o, _) in axes.items() if o >= 2]
    else:
        four = [a for a, (o, _) in axes.items() if o == 4]
        dirs = four if len(four) == 3 else [a for a, (o, _) in axes.items() if o == 2]
    if len(dirs) != 3:
        return []
    u = np.array(dirs)
    if system == "orthorhombic":
        u = u[np.argsort([np.linalg.norm(x @ cell) for x in u], kind="stable")]
    if groups._det(u) < 0:
        u[2] = -u[2]
    return [u]


def _centering_vectors(ut_inv: np.ndarray, limit: int) -> np.ndarray:
    """Distinct (mod 1) conventional fractional images ``ut_inv @ z`` of 0
    and of ``_VECS2``, first occurrence of each in that order.

    Each sweep keeps the first image left and drops every image equal to it
    mod 1, so there are as many sweeps as centres; the search stops once it
    has found more than ``limit``.
    """
    left = np.matmul(ut_inv, _VECS0_2[..., None])[..., 0] % 1.0
    centers = []
    while len(left) and len(centers) <= limit:
        centers.append(left[0])
        d = left - left[0]
        d -= np.round(d)
        left = left[np.sqrt(_rowdot(d, d)) >= 1e-6]
    return np.array(centers)


def _images_mod1(mat: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """``(mat @ t) % 1.0`` for each row t of ``ts``, in one stacked product
    whose rows equal the products taken one at a time to the bit."""
    return np.matmul(mat, ts[..., None])[..., 0] % 1.0


def _rounded(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``w`` rounded to integers, and which matrices are integral by
    ``np.isclose(w, rounded, atol=1e-6)``, written out for speed."""
    wi = np.round(w)
    return wi.astype(int), (np.abs(w - wi) <= 1e-6 + 1e-5 * np.abs(wi)).all(axis=(1, 2))


def _conventional_signature(u_conv: np.ndarray, rots: np.ndarray,
                            ts: np.ndarray) -> tuple | None:
    """Signature of the operations ``(rots[k], ts[k])`` in the conventional
    basis ``u_conv @ cell``; None when they do not form a centred set there."""
    m_conv = abs(int(groups._det(u_conv)))
    if m_conv == 0:
        return None
    ut_inv = np.linalg.inv(u_conv.T * 1.0)
    w_ci, integral = _rounded(ut_inv @ rots @ u_conv.T)
    if not integral.all():
        return None
    centers = _centering_vectors(ut_inv, m_conv)
    if len(centers) != m_conv:
        return None
    # The first centre is the zero vector; every other one is at least
    # 1e-6 from it mod 1.
    return signature(np.concatenate([w_ci, np.broadcast_to(I3, (m_conv - 1, 3, 3))]),
                     np.concatenate([_images_mod1(ut_inv, ts), centers[1:]]))


def detect_spacegroup(s: CrystalStructure, tol: float = 1e-3) -> SpacegroupResult:
    """Detect the space group of a structure at Cartesian tolerance ``tol`` (A).

    A cell that detection cannot settle raises ``DetectionError``."""
    if not (math.isfinite(tol) and tol > 0):
        raise DetectionError(f"tolerance must be a positive finite number, got {tol}")
    cell0 = s.lattice.matrix()
    frac0 = s.frac_array()
    elems = s.elements()

    # Primitive cell: the identity's fits, the zero translation first.
    _, translations, translation_perms = _fitting_ops(
        SiteMapper(cell0, frac0, elems), np.eye(3, dtype=int)[None], tol)
    m = len(translations)
    s_mat = _primitive_transform(translations)       # rows: prim basis in orig frac
    # A primitive input (s_mat = I) takes its lattice's own reduction, copied
    # as row 2 may be negated.
    u_red = s.lattice.lll_basis.copy() if m == 1 else reduced_basis(s_mat @ cell0)
    if np.linalg.det(u_red * 1.0) < 0:
        u_red[2] = -u_red[2]                         # keep the basis right-handed
    r_mat = u_red @ s_mat                            # reduced prim in orig frac
    cell_r = r_mat @ cell0

    frac_r = (frac0 @ np.linalg.inv(r_mat)) % 1.0
    # Fold the sites: keep the lowest index of each pure-translation class.
    classes = _orbits(len(frac_r), translation_perms[1:])  # [0] is the identity
    keep = [c[0] for c in classes]
    if len(keep) * m != len(frac_r):
        raise DetectionError("site folding inconsistent with pure translations")
    frac_prim = frac_r[keep]
    elems_prim = tuple(elems[i] for i in keep)
    mapper = SiteMapper(cell_r, frac_prim, elems_prim)

    # Space-group operations in the reduced primitive basis: each rotation
    # with its first fitting anchor site.
    rots = np.array(_candidate_rotations(cell_r, tol)).reshape(-1, 3, 3)
    rot_of, ts, perms = _fitting_ops(mapper, rots, tol)
    accepted, first = np.unique(rot_of, return_index=True)
    op_rots, op_ts = rots[accepted], ts[first]

    # Conventional setting and signature. With no axis every rotation is I
    # or -I, whose signature can only be P1 or P-1: the fallback's answer.
    axes = _axes_summary(op_rots)
    system = _classify_system(axes)
    ambiguous = False
    numbers = None
    for u_conv in _conventional_candidates(cell_r, axes, system) if axes else ():
        sig = _conventional_signature(u_conv, op_rots, op_ts)
        numbers = None if sig is None else signature_index().get(sig)
        if numbers is not None:
            break
    if numbers is None:
        # Conservative fallback: triclinic classification from the op set.
        has_inv = (op_rots == -np.eye(3, dtype=int)).all(axis=(1, 2)).any()
        numbers = (2,) if has_inv else (1,)
        ambiguous = len(op_rots) > (2 if has_inv else 1)
    number = max(numbers)
    if len(numbers) > 1:
        ambiguous = True
    symbol = load_group_table()[number][0]

    # The operations in the input basis: each primitive operation whose
    # rotation is integral there, followed by every pure translation.
    rt = r_mat.T
    w_oi, integral = _rounded(rt @ op_rots @ np.linalg.inv(rt))
    ambiguous = ambiguous or not integral.all()
    ws = np.repeat(w_oi[integral], m, axis=0)
    t_oi = _images_mod1(rt, op_ts[integral])
    ts = ((t_oi[:, None, :] + translations) % 1.0).reshape(-1, 3)
    # The input-cell orbits: each orbit of the primitive operations with
    # every primitive site replaced by its pure-translation class.
    orbits = tuple(tuple(sorted(i for q in o for i in classes[q]))
                   for o in _orbits(len(keep), perms[first[integral]]))

    return SpacegroupResult(
        number=number,
        symbol=symbol,
        crystal_system=crystal_system(number),
        orbits=orbits,
        ambiguous=ambiguous,
        op_arrays=(ws, ts),
    )
