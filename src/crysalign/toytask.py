"""Toy structure-generation task for the policy-optimization demo.

The policy emits two tokens: a discretized cubic lattice constant and the
body-diagonal offset of the second atom in a two-site Na/Cl template. The
reward is the real evaluation stack: validity checks gate a stability score
derived from the pair-potential energy surface.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import energetics, rewards, validity
from .structcore import Composition, CrystalStructure, Lattice, Site

A_GRID = tuple(np.round(np.linspace(2.4, 5.4, 16), 6))
U_GRID = tuple(np.round(np.linspace(0.125, 0.5, 16), 6))


class LatticeTask:
    policy_shape = (2, 16)

    def __init__(self, element_a: str = "Na", element_b: str = "Cl",
                 weights: rewards.RewardWeights = rewards.RewardWeights()):
        self.element_a = element_a
        self.element_b = element_b
        self.weights = weights

    def structure(self, tokens) -> CrystalStructure:
        a = float(A_GRID[tokens[0]])
        u = float(U_GRID[tokens[1]])
        return CrystalStructure(
            Lattice(a, a, a, 90.0, 90.0, 90.0),
            (Site(self.element_a, (0.0, 0.0, 0.0)),
             Site(self.element_b, (u, u, u))),
        )

    @cached_property
    def energy_table(self) -> np.ndarray:
        """Brute-force energy per atom over the full token grid."""
        backend = energetics.PairPotentialBackend.load_default()
        table = np.zeros((len(A_GRID), len(U_GRID)))
        for i in range(len(A_GRID)):
            for j in range(len(U_GRID)):
                table[i, j] = backend.energy_per_atom(self.structure((i, j)))
        return table

    @cached_property
    def optimum(self) -> tuple[int, int]:
        """Grid argmin of the energy surface: the best decodable structure."""
        flat = int(np.argmin(self.energy_table))
        return (flat // len(U_GRID), flat % len(U_GRID))

    def reward(self, tokens) -> float:
        s = self.structure(tokens)
        target = Composition({self.element_a: 1, self.element_b: 1})
        report = validity.build_report(s, target, validity.OxidationTable.load_default())
        e_hull = None
        if report.structural:
            e = self.energy_table[tokens[0], tokens[1]]
            e_hull = max(float(e - self.energy_table.min()), 0.0)
        breakdown = rewards.combined_reward(report, e_hull, self.weights)
        return breakdown.r_target


def build_lattice_task() -> LatticeTask:
    return LatticeTask()
