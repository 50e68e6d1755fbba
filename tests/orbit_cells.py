"""Seeded cells made of generic orbits of the embedded space-group table.

Shared by the symmetry tests: each cell carries exactly the operations of
its group's standard setting, so detection must find all of them.
"""

import numpy as np

from crysalign.structcore import CrystalStructure, Lattice, Site
from crysalign.symmetry import crystal_system, groups


def lattice_for(number, rng):
    """A seeded lattice whose metric fits the standard setting of group
    ``number`` (hexagonal axes for the trigonal groups, b-unique
    monoclinic), with no extra metric symmetry but by accident."""
    system = crystal_system(number)
    a, b, c = rng.uniform(3.0, 8.0, size=3)
    if system == "triclinic":
        return Lattice(a, b, c, *rng.uniform(70.0, 110.0, size=3))
    if system == "monoclinic":
        return Lattice(a, b, c, 90, rng.uniform(92.0, 120.0), 90)
    if system == "orthorhombic":
        return Lattice(a, b, c, 90, 90, 90)
    if system == "tetragonal":
        return Lattice(a, a, c, 90, 90, 90)
    if system in ("trigonal", "hexagonal"):
        return Lattice(a, a, c, 90, 90, 120)
    return Lattice(a, a, a, 90, 90, 90)


def orbit_structure(lattice, number, rng):
    """Two generic orbits (elements interleaved) of the group's operations."""
    ops = groups.close_ops(groups.load_group_table()[number][1])
    sites = []
    for el in ("Na", "Cl"):
        x = rng.random(3)
        for w, t in ops:
            sites.append((el, (np.array(w) @ x + np.array(t, dtype=float)) % 1.0))
    order = rng.permutation(len(sites))
    return CrystalStructure(lattice, tuple(Site(*sites[k]) for k in order))


def group_order(number):
    """The number of operations of group ``number`` in its standard setting
    (translations modulo the cell), from its table generators."""
    return len(groups.close_ops(groups.load_group_table()[number][1]))


def generic_orbit_cells(seed):
    """(number, cell) for each of the 226 table groups of order at most 96,
    in number order, all drawn from one generator seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    for number in range(1, 231):
        if group_order(number) <= 96:
            yield number, orbit_structure(lattice_for(number, rng), number, rng)
