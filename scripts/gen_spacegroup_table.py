#!/usr/bin/env python3
"""Generate the embedded space-group generator table.

Decodes the concise (Hall) space-group notation listed in hall_symbols.txt
into explicit symmetry-operation generators, validates each group by closure,
and writes src/crysalign/data/spacegroup_generators.txt in
"rotation | translation" triplet notation (e.g. ``-y,x,z+1/2``), with each
group's operation-set signature (``crysalign.symmetry.groups.signature`` of
the closed group), so the package never closes a group to identify one.

Run from the repository root:

    python3 scripts/gen_spacegroup_table.py
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SYMBOLS = Path(__file__).resolve().parent / "hall_symbols.txt"
OUT = ROOT / "src" / "crysalign" / "data" / "spacegroup_generators.txt"

sys.path.insert(0, str(ROOT / "src"))
from crysalign.symmetry import groups  # noqa: E402

# Translations are held in twelfths so all arithmetic is exact.
T12 = {
    "a": (6, 0, 0), "b": (0, 6, 0), "c": (0, 0, 6), "n": (6, 6, 6),
    "u": (3, 0, 0), "v": (0, 3, 0), "w": (0, 0, 3), "d": (3, 3, 3),
}
CENTERING = {
    "P": [],
    "A": [(0, 6, 6)],
    "B": [(6, 0, 6)],
    "C": [(6, 6, 0)],
    "I": [(6, 6, 6)],
    "R": [(8, 4, 4), (4, 8, 8)],
    "F": [(0, 6, 6), (6, 0, 6), (6, 6, 0)],
}

I3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

# Principal rotations about z (crystallographic bases).
ROT_Z = {
    1: I3,
    2: ((-1, 0, 0), (0, -1, 0), (0, 0, 1)),
    3: ((0, -1, 0), (1, -1, 0), (0, 0, 1)),
    4: ((0, -1, 0), (1, 0, 0), (0, 0, 1)),
    6: ((1, -1, 0), (1, 0, 0), (0, 0, 1)),
}
# Diagonal two-folds in the plane perpendicular to z.
PRIME_Z = ((0, -1, 0), (-1, 0, 0), (0, 0, -1))       # along a-b
DPRIME_Z = ((0, 1, 0), (1, 0, 0), (0, 0, -1))        # along a+b
STAR = ((0, 0, 1), (1, 0, 0), (0, 1, 0))             # 3-fold about a+b+c

# Cyclic axis relabeling (x,y,z) -> (y,z,x); conjugation moves the z-frame
# matrices onto the x and y axes.
PERM = ((0, 0, 1), (1, 0, 0), (0, 1, 0))


def matmul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def matvec(a, v):
    return tuple(sum(a[i][k] * v[k] for k in range(3)) for i in range(3))


def neg(a):
    return tuple(tuple(-x for x in row) for row in a)


def transpose(a):
    return tuple(tuple(a[j][i] for j in range(3)) for i in range(3))


def conj_axis(m, axis):
    """Move a z-frame matrix onto the x or y axis by relabeling."""
    if axis == "z":
        return m
    p = PERM
    pinv = transpose(PERM)  # permutation matrix: inverse = transpose
    if axis == "x":
        return matmul(matmul(p, m), pinv)
    if axis == "y":
        return matmul(matmul(pinv, m), p)
    raise ValueError(axis)


AXIS_VEC = {"x": (12, 0, 0), "y": (0, 12, 0), "z": (0, 0, 12)}


def parse_hall(symbol: str):
    """Decode a Hall symbol into generator ops ((W, t12) pairs)."""
    origin = (0, 0, 0)
    if "(" in symbol:
        symbol, _, shift = symbol.partition("(")
        origin = tuple(int(v) for v in shift.strip(") ").split())
    tokens = symbol.split()
    lattice = tokens[0]
    centrosymmetric = lattice.startswith("-")
    if centrosymmetric:
        lattice = lattice[1:]
    gens = [(I3, c) for c in CENTERING[lattice]]
    if centrosymmetric:
        gens.append((neg(I3), (0, 0, 0)))

    rot_tokens = tokens[1:]

    prev_order = None
    prev_axis = None
    for pos, tok in enumerate(rot_tokens):
        improper = tok.startswith("-")
        if improper:
            tok = tok[1:]
        order = int(tok[0])
        rest = tok[1:]

        axis_char = None
        screw = 0
        trans = [0, 0, 0]
        for ch in rest:
            if ch in "xyz'\"*":
                axis_char = ch
            elif ch.isdigit():
                screw = int(ch)
            elif ch in T12:
                t = T12[ch]
                trans = [trans[k] + t[k] for k in range(3)]
            else:
                raise ValueError(f"bad Hall char {ch!r} in {symbol!r}")

        # Default axis rules.
        if axis_char is None:
            if pos == 0:
                axis_char = "z"
            elif order == 2 and prev_order in (2, 4):
                axis_char = "x"
            elif order == 2 and prev_order in (3, 6):
                axis_char = "'"
            elif order == 3:
                axis_char = "*"
            elif order == 1:
                axis_char = "z"
            else:
                raise ValueError(f"no default axis for {tok!r} in {symbol!r}")

        if axis_char == "*":
            w = STAR
            axis_for_screw = None
        elif axis_char == "'":
            w = conj_axis(PRIME_Z, prev_axis or "z")
            axis_for_screw = None
        elif axis_char == '"':
            w = conj_axis(DPRIME_Z, prev_axis or "z")
            axis_for_screw = None
        else:
            w = conj_axis(ROT_Z[order], axis_char)
            axis_for_screw = axis_char
        if improper:
            w = neg(w)
        if screw:
            if axis_for_screw is None:
                raise ValueError(f"screw on diagonal axis in {symbol!r}")
            av = AXIS_VEC[axis_for_screw]
            trans = [trans[k] + av[k] * screw // order for k in range(3)]
        gens.append((w, tuple(t % 12 for t in trans)))
        if axis_char in "xyz":
            prev_axis = axis_char
        prev_order = order

    if origin != (0, 0, 0):
        v = origin  # in twelfths
        shifted = []
        for wm, t in gens:
            wv = matvec(wm, v)
            t2 = tuple((t[k] + v[k] - wv[k]) % 12 for k in range(3))
            shifted.append((wm, t2))
        gens = shifted
    return gens


def op_to_triplet(w, t12):
    names = "xyz"
    parts = []
    for i in range(3):
        expr = ""
        for j in range(3):
            c = w[i][j]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if expr else "")
            expr += f"{sign}{names[j]}" if abs(c) == 1 else f"{sign}{abs(c)}{names[j]}"
        f = Fraction(t12[i], 12)
        if f:
            expr += f"+{f}" if f > 0 else f"{f}"
        parts.append(expr or "0")
    return ",".join(parts)


KNOWN_ORDERS = {
    1: 1, 2: 2, 16: 4, 47: 8, 62: 8, 70: 32, 139: 32, 141: 32,
    166: 36, 167: 36, 191: 24, 194: 24, 200: 24, 221: 48, 225: 192,
    227: 192, 229: 96, 230: 96,
}


def build_table() -> tuple[str, int, int]:
    """Table text, group count and centrosymmetric count, validated."""
    lines_out = []
    n_centro = 0
    for line in SYMBOLS.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        num_s, hm, hall = line.split("\t")
        num = int(num_s)
        hm = hm.split(":")[0]
        gens = parse_hall(hall)
        ops = groups.close_ops([(w, tuple(Fraction(x, 12) for x in t)) for w, t in gens])
        # Group axioms: closed (by construction), every W has |det| 1.
        for w, _ in ops:
            det = (w[0][0] * (w[1][1] * w[2][2] - w[1][2] * w[2][1])
                   - w[0][1] * (w[1][0] * w[2][2] - w[1][2] * w[2][0])
                   + w[0][2] * (w[1][0] * w[2][1] - w[1][1] * w[2][0]))
            assert det in (1, -1), (num, det)
        if num in KNOWN_ORDERS:
            assert len(ops) == KNOWN_ORDERS[num], (num, len(ops), KNOWN_ORDERS[num])
        if any(w == neg(I3) for w, _ in ops):
            n_centro += 1
        gen_strs = ";".join(op_to_triplet(w, t) for w, t in gens)
        sig = groups.format_signature(groups.signature(
            np.array([w for w, _ in ops]), np.array([t for _, t in ops], dtype=float)))
        lines_out.append(f"{num}\t{hm}\t{gen_strs}\t{sig}")
    assert n_centro == 92, n_centro  # textbook count of centrosymmetric groups
    text = (
        "# Space-group generator table v2.\n"
        "# number <TAB> hermann-mauguin <TAB> generators (triplet notation, ';'-separated)\n"
        "# <TAB> signature of the closed group: centering class and count, then per\n"
        "# rotation det, trace, axis class and intrinsic translation in twelfths.\n"
        "# Settings: first-listed standard setting per number (unique axis b,\n"
        "# hexagonal axes for rhombohedral groups).\n"
        + "\n".join(lines_out) + "\n"
    )
    return text, len(lines_out), n_centro


def main():
    text, n_groups, n_centro = build_table()
    OUT.write_text(text)
    print(f"wrote {OUT} ({n_groups} groups, {n_centro} centrosymmetric)")


if __name__ == "__main__":
    sys.exit(main())
