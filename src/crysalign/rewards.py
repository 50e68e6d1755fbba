"""Scalar reward functions and their gated compositions.

The combined reward is alpha_validity * R_validity plus a validity-gated
stability term; the property-conditioned variant swaps the validity sum for
a weighted property score while keeping the same gate on stability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .validity import ValidityReport

DEFAULT_E0 = 1.0
MEASUREMENT_FAILED = "failed"


@dataclass(frozen=True)
class RewardWeights:
    alpha_validity: float = 1.0
    alpha_stability: float = 10.0
    beta_property: float = 1.0

    def __post_init__(self):
        for name in ("alpha_validity", "alpha_stability", "beta_property"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and non-negative")


@dataclass(frozen=True)
class RewardBreakdown:
    validity_gate: int
    r_stability: float | None
    r_range: dict[str, float] = field(default_factory=dict)
    r_property: float = 0.0
    r_target: float = 0.0
    anomalies: tuple[str, ...] = ()

    def __post_init__(self):
        if self.validity_gate == 0 and self.r_stability is not None:
            raise ValueError("stability component present without the gate")


def stability_reward(e_hull: float, e0: float = DEFAULT_E0) -> float:
    """Bounded, smooth score that is 1 on the hull and decays above it.

    Below-hull energies clamp to 0 first, capping the reward at 1.
    """
    if not math.isfinite(e_hull):
        raise ValueError("e_hull must be finite")
    if e0 <= 0:
        raise ValueError("e0 must be positive")
    e = max(e_hull, 0.0)
    if e <= e0:
        return 1.0 - e / (2.0 * e0)
    return e0 / (2.0 * e)


def range_reward(p: float, interval: tuple[float, float]) -> float:
    """Score in (-1, 1], maximal at the interval midpoint.

    z = (p - (L+R)/2) / (R - L); quadratic cap inside |z| <= 1/sqrt(2),
    exponential tail outside, both branches 0 at the crossover.
    """
    lo, hi = interval
    if not lo < hi:
        raise ValueError(f"interval [{lo}, {hi}] must have L < R")
    z = (p - 0.5 * (lo + hi)) / (hi - lo)
    q = 1.0 - 2.0 * z * z
    if abs(z) <= 1.0 / math.sqrt(2.0):
        return q
    return math.exp(q) - 1.0


def validity_reward(report: ValidityReport) -> int:
    """Sum of the three binary validity components, in {0, 1, 2, 3}.

    Instruction following counts composition only; the space-group check is
    excluded from the RL reward.
    """
    return int(report.structural) + int(report.chemical) + int(report.composition_match)


def _gated_stability(report: ValidityReport, e_hull: float | None,
                     e0: float) -> tuple[int, float | None, tuple[str, ...]]:
    """The validity gate, R_stability (None when the gate is shut) and the
    anomalies; a passing report without an e_hull shuts the gate."""
    if not (report.structural and report.chemical and report.composition_match):
        return 0, None, ()
    if e_hull is None:
        return 0, None, ("missing_e_hull",)
    return 1, stability_reward(e_hull, e0), ()


def combined_reward(
    report: ValidityReport,
    e_hull: float | None,
    weights: RewardWeights = RewardWeights(),
    e0: float = DEFAULT_E0,
) -> RewardBreakdown:
    """r_target = alpha_validity * R_validity + alpha_stability * gate * R_stability."""
    gate, r_stab, anomalies = _gated_stability(report, e_hull, e0)
    r_target = weights.alpha_validity * validity_reward(report)
    if gate:
        r_target += weights.alpha_stability * r_stab
    return RewardBreakdown(
        validity_gate=gate,
        r_stability=r_stab,
        r_target=r_target,
        anomalies=anomalies,
    )


def property_reward(
    ranges: dict[str, tuple[float, float]],
    measured: dict[str, object],
    indicators: dict[str, bool] | None = None,
) -> tuple[float, dict[str, float]]:
    """Sum of range scores over continuous keys plus binary indicator keys.

    A measurement failure contributes the range-score infimum (-1), so an
    unevaluable structure never outranks an evaluated bad one.
    """
    per_key: dict[str, float] = {}
    total = 0.0
    for key, interval in ranges.items():
        value = measured.get(key, MEASUREMENT_FAILED)
        if isinstance(value, (int, float)) and math.isfinite(value):
            score = range_reward(float(value), interval)
        else:
            score = -1.0
        per_key[key] = score
        total += score
    for key, hit in (indicators or {}).items():
        per_key[key] = float(bool(hit))
        total += float(bool(hit))
    return total, per_key


def conditioned_reward(
    report: ValidityReport,
    e_hull: float | None,
    ranges: dict[str, tuple[float, float]],
    measured: dict[str, object],
    weights: RewardWeights = RewardWeights(),
    indicators: dict[str, bool] | None = None,
    e0: float = DEFAULT_E0,
) -> RewardBreakdown:
    """gate * R_stability + beta * R_property; only stability is gated."""
    gate, r_stab, anomalies = _gated_stability(report, e_hull, e0)
    r_prop, per_key = property_reward(ranges, measured, indicators)
    r_target = weights.beta_property * r_prop
    if gate:
        r_target += r_stab
    return RewardBreakdown(
        validity_gate=gate,
        r_stability=r_stab,
        r_range=per_key,
        r_property=r_prop,
        r_target=r_target,
        anomalies=anomalies,
    )
