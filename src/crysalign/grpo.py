"""Group-relative policy optimization numerics and a toy structure policy.

The estimator is critic-free: rewards are normalized within each sampled
group, the PPO-style clipped surrogate uses token-level ratios averaged per
trajectory, and a k3 estimator with an adaptive coefficient regularizes the
policy toward a frozen reference.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np


class NumericError(ArithmeticError):
    """A ratio or logit became non-finite."""


class TrainingError(RuntimeError):
    """Training diverged; carries the last good policy."""

    def __init__(self, message: str, last_good: "ToyPolicy"):
        self.last_good = last_good
        super().__init__(message)


@dataclass(frozen=True)
class GrpoConfig:
    group_size: int = 8
    clip_ratio: float = 0.2
    kl_coef: float = 0.001
    kl_target: float = 0.05
    kl_horizon: int = 10000
    advantage_eps: float = 1e-8

    def __post_init__(self):
        if self.group_size < 2:
            raise ValueError("group_size must be >= 2")
        if not 0.0 < self.clip_ratio < 1.0:
            raise ValueError("clip_ratio must be in (0, 1)")
        if self.kl_coef < 0:
            raise ValueError("kl_coef must be >= 0")


@dataclass(frozen=True)
class GrpoBatch:
    """Per-trajectory token logprobs under the new, old, and ref policies."""

    logprob_new: tuple[tuple[float, ...], ...]
    logprob_old: tuple[tuple[float, ...], ...]
    logprob_ref: tuple[tuple[float, ...], ...]
    rewards: tuple[float, ...]
    advantages: tuple[float, ...]

    def __post_init__(self):
        g = len(self.rewards)
        if not (len(self.logprob_new) == len(self.logprob_old)
                == len(self.logprob_ref) == len(self.advantages) == g):
            raise ValueError("per-trajectory field lengths disagree")
        for i in range(g):
            if not (len(self.logprob_new[i]) == len(self.logprob_old[i])
                    == len(self.logprob_ref[i])):
                raise ValueError(f"trajectory {i}: sequence lengths disagree")
        if not all(math.isfinite(r) for r in self.rewards):
            raise ValueError("rewards must be finite")

    @classmethod
    def build(cls, logprob_new, logprob_old, logprob_ref, rewards,
              eps: float = 1e-8) -> "GrpoBatch":
        adv = group_advantages(list(rewards), eps)
        to_t = lambda seqs: tuple(tuple(float(x) for x in s) for s in seqs)
        return cls(to_t(logprob_new), to_t(logprob_old), to_t(logprob_ref),
                   tuple(float(r) for r in rewards), tuple(adv))


def group_advantages(rewards: list[float], eps: float = 1e-8) -> list[float]:
    """(R - mean) / population std; all zeros when the group is degenerate."""
    if len(rewards) < 2:
        raise ValueError("need at least 2 rewards per group")
    r = np.asarray(rewards, dtype=float)
    std = float(r.std())
    if std < eps:
        return [0.0] * len(rewards)
    return list((r - r.mean()) / std)


def clipped_surrogate(batch: GrpoBatch, eps_clip: float = 0.2) -> float:
    """Group mean of per-trajectory token-means of the clipped PPO term."""
    vals = []
    for i, adv in enumerate(batch.advantages):
        new = np.asarray(batch.logprob_new[i])
        old = np.asarray(batch.logprob_old[i])
        with np.errstate(over="ignore"):
            ratio = np.exp(new - old)
        if not np.all(np.isfinite(ratio)):
            t = int(np.flatnonzero(~np.isfinite(ratio))[0])
            raise NumericError(f"non-finite ratio at trajectory {i}, token {t}")
        clipped = np.clip(ratio, 1.0 - eps_clip, 1.0 + eps_clip)
        vals.append(float(np.minimum(ratio * adv, clipped * adv).mean()))
    return float(np.mean(vals))


def kl_penalty(batch: GrpoBatch) -> float:
    """k3 estimator exp(d) - d - 1 with d = logprob_ref - logprob_new; >= 0."""
    vals = []
    for i in range(len(batch.rewards)):
        d = np.asarray(batch.logprob_ref[i]) - np.asarray(batch.logprob_new[i])
        vals.append(float((np.exp(d) - d - 1.0).mean()))
    return float(np.mean(vals))


def kl_controller_update(
    coef: float,
    observed_kl: float,
    target: float = 0.05,
    horizon: int = 10000,
    batch_size: int = 64,
) -> float:
    """Multiplicative update; the clamped error keeps the coefficient positive."""
    if coef <= 0:
        raise ValueError("coef must be positive")
    err = min(max((observed_kl - target) / target, -0.2), 0.2)
    return coef * (1.0 + err * batch_size / horizon)


def grpo_objective(batch: GrpoBatch, config: GrpoConfig = GrpoConfig()) -> float:
    """The maximized quantity: clipped surrogate minus the KL penalty."""
    return clipped_surrogate(batch, config.clip_ratio) - config.kl_coef * kl_penalty(batch)


class ToyPolicy:
    """Independent categorical distribution per sequence position.

    Each position picks one token of a small vocabulary (discretized lattice
    constants and motif choices for a fixed structure template).
    """

    def __init__(self, logits: np.ndarray):
        logits = np.asarray(logits, dtype=float)
        if logits.ndim != 2 or not np.all(np.isfinite(logits)):
            raise ValueError("logits must be a finite 2D array")
        self.logits = logits

    @classmethod
    def uniform(cls, n_positions: int, vocab_size: int) -> "ToyPolicy":
        return cls(np.zeros((n_positions, vocab_size)))

    def copy(self) -> "ToyPolicy":
        return ToyPolicy(self.logits.copy())

    def log_probs(self) -> np.ndarray:
        z = self.logits - self.logits.max(axis=1, keepdims=True)
        return z - np.log(np.exp(z).sum(axis=1, keepdims=True))

    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs())

    def sample(self, rng: np.random.Generator) -> tuple[int, ...]:
        p = self.probs()
        return tuple(int(rng.choice(p.shape[1], p=p[t])) for t in range(p.shape[0]))

    def sequence_logprobs(self, tokens: tuple[int, ...]) -> tuple[float, ...]:
        lp = self.log_probs()
        return tuple(float(lp[t, a]) for t, a in enumerate(tokens))

    def objective_gradient(
        self,
        sequences: list[tuple[int, ...]],
        batch: GrpoBatch,
        config: GrpoConfig,
    ) -> np.ndarray:
        """Analytic d(grpo_objective)/d(logits) for sequences sampled here.

        The surrogate term contributes ratio * advantage * grad(logprob) on
        tokens where the min picks the unclipped branch (or the clip is not
        binding); the k3 penalty contributes (exp(d) - 1) * grad(logprob).
        """
        lp = self.log_probs()
        p = np.exp(lp)
        g = len(sequences)
        grad = np.zeros_like(self.logits)
        for i, tokens in enumerate(sequences):
            adv = batch.advantages[i]
            n_tok = len(tokens)
            for t, a in enumerate(tokens):
                new = lp[t, a]
                old = batch.logprob_old[i][t]
                ref = batch.logprob_ref[i][t]
                ratio = math.exp(new - old)
                clipped = min(max(ratio, 1.0 - config.clip_ratio),
                              1.0 + config.clip_ratio)
                coef = ratio * adv if ratio * adv <= clipped * adv else 0.0
                d = ref - new
                coef -= config.kl_coef * (1.0 - math.exp(d))
                row = -p[t] * coef
                row[a] += coef
                grad[t] += row / (g * n_tok)
        return grad


@dataclass(frozen=True)
class TrainingRecord:
    iteration: int
    mean_reward: float
    kl: float
    coef: float


def train_toy_policy(
    policy: ToyPolicy,
    reward_fn,
    iterations: int,
    seed: int,
    config: GrpoConfig = GrpoConfig(),
    learning_rate: float = 1.0,
    log_path: str | None = None,
) -> tuple[ToyPolicy, list[TrainingRecord]]:
    """One-step on-policy ascent on the group-relative objective.

    ``reward_fn`` maps a token sequence to a scalar reward. Deterministic
    for a given seed; raises TrainingError with the last good policy if the
    logits stop being finite.
    """
    rng = np.random.default_rng(seed)
    ref = policy.copy()
    current = policy.copy()
    coef = config.kl_coef
    log: list[TrainingRecord] = []
    for it in range(iterations):
        sequences = [current.sample(rng) for _ in range(config.group_size)]
        rewards = [float(reward_fn(seq)) for seq in sequences]
        lp_cur = [current.sequence_logprobs(seq) for seq in sequences]
        lp_ref = [ref.sequence_logprobs(seq) for seq in sequences]
        batch = GrpoBatch.build(lp_cur, lp_cur, lp_ref, rewards,
                                eps=config.advantage_eps)
        step_cfg = replace(config, kl_coef=coef)
        grad = current.objective_gradient(sequences, batch, step_cfg)
        new_logits = current.logits + learning_rate * grad
        if not np.all(np.isfinite(new_logits)):
            raise TrainingError(f"non-finite logits at iteration {it}", current)
        updated = ToyPolicy(new_logits)
        lp_new = [updated.sequence_logprobs(seq) for seq in sequences]
        observed_kl = kl_penalty(GrpoBatch.build(lp_new, lp_cur, lp_ref, rewards,
                                                 eps=config.advantage_eps))
        coef = kl_controller_update(coef, observed_kl, config.kl_target,
                                    config.kl_horizon, config.group_size)
        current = updated
        log.append(TrainingRecord(it, float(np.mean(rewards)), observed_kl, coef))
    if log_path is not None:
        write_training_log(log, log_path)
    return current, log


def write_training_log(log: list[TrainingRecord], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "mean_reward", "kl", "coef"])
        for rec in log:
            writer.writerow([rec.iteration, repr(rec.mean_reward),
                             repr(rec.kl), repr(rec.coef)])
