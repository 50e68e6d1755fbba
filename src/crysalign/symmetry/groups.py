"""Embedded space-group table: generator parsing, closure, and the
operation-set signature used for group identification.

The signature of an operation set is deliberately origin- and
setting-independent: centering class, centering order, and the sorted
multiset of (det, trace, axis-direction class, canonical intrinsic
translation in integer twelfths) over the coset representatives modulo
centering translations. Each group's signature is computed when the table
is generated (``scripts/gen_spacegroup_table.py``) and stored in it, so no
group is closed at start-up.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from importlib import resources

import numpy as np

I3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

# Entries per memoized parse of table text: the 664 generators of the table
# are 88 distinct triplets and its 2,609 signature items 32 distinct ones.
PARSE_CACHE_SIZE = 256

# Entries in the memoized rotation invariants (``rotation_info``). The
# table's standard settings hold 64 distinct integer rotations and detection
# in reduced bases meets some dozens more; the bound only stops unusual
# input from growing the cache for the life of the process.
ROTATION_CACHE_SIZE = 4096

_TERM = re.compile(r"([+-]?)(\d*)([xyz])|([+-]?\d+(?:/\d+)?)")


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_triplet(triplet: str) -> tuple[tuple, tuple]:
    """Parse 'x,y+1/2,-z' into (rotation rows, translation Fractions)."""
    rows = []
    trans = []
    for comp in triplet.split(","):
        row = [0, 0, 0]
        t = Fraction(0)
        pos = 0
        comp = comp.strip()
        for m in _TERM.finditer(comp):
            if m.start() != pos:
                raise ValueError(f"cannot parse triplet component {comp!r}")
            pos = m.end()
            if m.group(3):
                sign = -1 if m.group(1) == "-" else 1
                coef = int(m.group(2)) if m.group(2) else 1
                row["xyz".index(m.group(3))] += sign * coef
            else:
                t += Fraction(m.group(4))
        if pos != len(comp):
            raise ValueError(f"cannot parse triplet component {comp!r}")
        rows.append(tuple(row))
        trans.append(t % 1)
    return tuple(rows), tuple(trans)


def _matmul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


# Most operations a closure may reach; the largest table group has 192.
CLOSURE_CAP = 200


def close_ops(gens) -> list[tuple[tuple, tuple]]:
    """Close generators under composition; translations mod 1 (exact).

    Internally translations are twelfths (integers mod 12), which is exact
    for every space-group setting in the table. Every element of a finite
    group is a word in its generators, so each new operation is multiplied
    by the generators only.
    """
    def to12(op):
        w, tr = op
        t12 = []
        for x in tr:
            f = Fraction(x) % 1
            if 12 % f.denominator:
                raise ValueError(f"translation {x} not representable in twelfths")
            t12.append(int(f * 12))
        return (w, tuple(t12))

    gens12 = [to12(g) for g in gens]
    ops = {(I3, (0, 0, 0))}
    frontier = list(ops)
    while frontier:
        new = []
        for w1, t1 in frontier:
            for w2, t2 in gens12:
                w = _matmul(w1, w2)
                t = tuple((sum(w1[i][k] * t2[k] for k in range(3)) + t1[i]) % 12
                          for i in range(3))
                if (w, t) not in ops:
                    ops.add((w, t))
                    new.append((w, t))
        frontier = new
        if len(ops) > CLOSURE_CAP:
            raise RuntimeError("operation closure exceeded cap")
    return sorted((w, tuple(Fraction(x, 12) for x in t)) for w, t in ops)


def _det(w) -> int:
    return (w[0][0] * (w[1][1] * w[2][2] - w[1][2] * w[2][1])
            - w[0][1] * (w[1][0] * w[2][2] - w[1][2] * w[2][0])
            + w[0][2] * (w[1][0] * w[2][1] - w[1][1] * w[2][0]))


def _trace(w) -> int:
    return w[0][0] + w[1][1] + w[2][2]


_AXIS_CLASS = {(0, 0, 1): "p", (0, 1, 1): "f", (1, 1, 1): "d"}


@lru_cache(maxsize=ROTATION_CACHE_SIZE)
def rotation_info(w) -> tuple[int, tuple[int, int, int] | None, str, np.ndarray]:
    """Invariants of an integer rotation ``w``: its order, the primitive
    integer axis of its proper part ``det(w) * w`` (None when that is I;
    first nonzero entry positive), the axis direction class in the
    conventional basis ("-", "p", "f", "d" or "o") and the mean of its
    powers, which maps a translation to its component along the axis (the
    intrinsic part). The projector is read-only, as it is shared.

    Raises ``ValueError`` when ``w`` has no finite order <= 12.
    """
    powers = [I3]
    while (p := _matmul(powers[-1], w)) != I3:
        if len(powers) == 12:
            raise ValueError("rotation part has no finite order <= 12")
        powers.append(p)
    proj = np.sum(powers, axis=0) / len(powers)
    proj.setflags(write=False)
    # The axis spans the kernel of det(w) * w - I, which has rank 2 unless
    # the proper part is I: any two independent rows are normal to it.
    m = _det(w) * np.array(w) - np.eye(3, dtype=int)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        axis = np.cross(m[a], m[b])
        if axis.any():
            axis //= np.gcd.reduce(axis)
            if axis[np.flatnonzero(axis)[0]] < 0:
                axis = -axis
            key = tuple(sorted(np.abs(axis).tolist()))
            return len(powers), tuple(axis.tolist()), _AXIS_CLASS.get(key, "o"), proj
    return len(powers), None, "-", proj


# Lattice points with coordinates in [-2, 2]: where ``signature`` looks for
# the lattice vector nearest to each intrinsic translation. Read-only.
_BOX = np.array(list(np.ndindex(5, 5, 5)), dtype=float) - 2.0
_BOX.setflags(write=False)


def signature(rotations: np.ndarray, translations: np.ndarray) -> tuple:
    """Setting-independent signature of a conventional-cell operation set.

    One operation per row: ``rotations`` is an (n, 3, 3) integer array and
    ``translations`` an (n, 3) float array in [0, 1); the set must include
    centering translations. Each canonical intrinsic translation is a sorted
    triple of integer twelfths.
    """
    pure = (rotations == I3).all(axis=(1, 2)) & (np.abs(translations) > 1e-6).any(axis=1)
    centerings = translations[pure]
    m = len(centerings) + 1
    if m == 1:
        cclass = "P"
    elif m == 2:
        halves = sum(1 for t in centerings[0] if abs(t - 0.5) < 1e-6)
        cclass = "I" if halves == 3 else "S"
    elif m == 3:
        cclass = "R"
    elif m == 4:
        cclass = "F"
    else:
        cclass = f"?{m}"

    lattice_pts = np.concatenate([_BOX] + [_BOX + c for c in centerings])
    # Each distinct rotation -> the index of its first operation.
    reps: dict[tuple, int] = {}
    for k, w in enumerate(rotations.tolist()):
        reps.setdefault(tuple(map(tuple, w)), k)
    # All representatives at once: the intrinsic translation, its residue
    # from every lattice point (both projected) and the nearest residue.
    _, _, classes, projs = zip(*map(rotation_info, reps))
    proj = np.array(projs)
    w_int = np.matmul(proj, translations[list(reps.values())][..., None])[..., 0]
    residues = np.matmul(lattice_pts, proj.transpose(0, 2, 1))
    np.subtract(w_int[:, None, :], residues, out=residues)
    nearest = np.einsum("rij,rij->ri", residues, residues).argmin(axis=1)
    best = residues[np.arange(len(reps)), nearest]
    twelfths = (np.round(best % 1.0 * 12) % 12).astype(int)
    canon = np.sort(np.minimum(twelfths, 12 - twelfths), axis=1)
    items = [(_det(w), _trace(w), cls, c)
             for w, cls, c in zip(reps, classes, map(tuple, canon.tolist()))]
    return (cclass, m, tuple(sorted(items)))


def format_signature(sig: tuple) -> str:
    """The table's text form of a signature: centering class and count,
    then det, trace, axis class and twelfths per representative, e.g.
    ``P1 +1+3-000 -1-3-000``."""
    cclass, m, items = sig
    return " ".join([f"{cclass}{m}"] + [
        f"{det:+d}{trace:+d}{axis}" + "".join(str(t) for t in twelfths)
        for det, trace, axis, twelfths in items])


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def _signature_item(tok: str) -> tuple:
    return (int(tok[0:2]), int(tok[2:4]), tok[4], (int(tok[5]), int(tok[6]), int(tok[7])))


def parse_signature(text: str) -> tuple:
    """Inverse of ``format_signature``."""
    head, *items = text.split()
    return (head[0], int(head[1:]), tuple(map(_signature_item, items)))


@lru_cache(maxsize=1)
def load_group_table() -> dict[int, tuple[str, tuple, tuple]]:
    """number -> (Hermann-Mauguin symbol, generator ops, signature)."""
    path = resources.files("crysalign.data") / "spacegroup_generators.txt"
    table: dict[int, tuple[str, tuple, tuple]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        num_s, hm, gens_s, sig_s = line.split("\t")
        gens = tuple(parse_triplet(g) for g in gens_s.split(";"))
        table[int(num_s)] = (hm, gens, parse_signature(sig_s))
    if len(table) != 230:
        raise RuntimeError(f"group table has {len(table)} entries, expected 230")
    return table


@lru_cache(maxsize=1)
def signature_index() -> dict[tuple, tuple[int, ...]]:
    """signature -> sorted space-group numbers sharing it."""
    index: dict[tuple, list[int]] = {}
    for num, (_, _, sig) in load_group_table().items():
        index.setdefault(sig, []).append(num)
    return {sig: tuple(sorted(nums)) for sig, nums in index.items()}
