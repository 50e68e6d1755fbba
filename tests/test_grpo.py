import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crysalign.grpo import (
    GrpoBatch,
    GrpoConfig,
    NumericError,
    ToyPolicy,
    clipped_surrogate,
    group_advantages,
    grpo_objective,
    kl_controller_update,
    kl_penalty,
    train_toy_policy,
    write_training_log,
)


def single_token_batch(ratio, advantage_sign):
    """Two trajectories so the population std is nonzero.

    The first trajectory carries the ratio under test; the companion has
    ratio 1 and the opposite reward so advantages are exactly +/-1.
    """
    lp_old = [[0.0], [0.0]]
    lp_new = [[math.log(ratio)], [0.0]]
    rewards = [1.0, -1.0] if advantage_sign > 0 else [-1.0, 1.0]
    return GrpoBatch.build(lp_new, lp_old, lp_old, rewards)


class TestAdvantages:
    def test_pinned_example(self):
        got = group_advantages([1.0, 2.0, 3.0])
        expected = [-1.224745, 0.0, 1.224745]
        assert got == pytest.approx(expected, abs=1e-6)

    def test_degenerate_group_is_zero(self):
        assert group_advantages([4.0, 4.0, 4.0]) == [0.0, 0.0, 0.0]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=16))
    def test_normalization_identity(self, rewards):
        adv = group_advantages(rewards)
        assert sum(adv) / len(adv) == pytest.approx(0.0, abs=1e-9)
        std = math.sqrt(sum(a * a for a in adv) / len(adv))
        if max(rewards) - min(rewards) > 1e-6:
            assert std == pytest.approx(1.0, abs=1e-9)

    def test_shift_invariance(self):
        a = group_advantages([1.0, 2.0, 5.0])
        b = group_advantages([11.0, 12.0, 15.0])
        assert a == pytest.approx(b, abs=1e-12)

    def test_group_too_small(self):
        with pytest.raises(ValueError):
            group_advantages([1.0])


class TestClippedSurrogate:
    def test_identical_policies_give_mean_advantage(self):
        lp = [[-0.5, -1.0], [-0.2, -0.3]]
        batch = GrpoBatch.build(lp, lp, lp, [1.0, 3.0])
        assert clipped_surrogate(batch) == pytest.approx(0.0, abs=1e-12)

    def test_clip_high_side(self):
        batch = single_token_batch(ratio=2.0, advantage_sign=+1)
        # min(2*1, 1.2*1) = 1.2 for the first trajectory, -1 for the other.
        assert clipped_surrogate(batch, eps_clip=0.2) == \
            pytest.approx((1.2 - 1.0) / 2, abs=1e-12)

    def test_clip_low_side(self):
        batch = single_token_batch(ratio=0.5, advantage_sign=-1)
        # min(-0.5, -0.8) = -0.8 for the first trajectory, +1 for the other.
        assert clipped_surrogate(batch, eps_clip=0.2) == \
            pytest.approx((-0.8 + 1.0) / 2, abs=1e-12)

    def test_non_finite_ratio_named(self):
        lp_new = [[1000.0], [0.0]]
        lp_old = [[-1000.0], [0.0]]
        batch = GrpoBatch.build(lp_new, lp_old, lp_old, [1.0, -1.0])
        with pytest.raises(NumericError) as exc:
            clipped_surrogate(batch)
        assert "trajectory" in str(exc.value)


class TestKlPenalty:
    def test_identical_is_zero(self):
        lp = [[-0.5, -1.0], [-0.2, -0.3]]
        batch = GrpoBatch.build(lp, lp, lp, [1.0, 2.0])
        assert kl_penalty(batch) == 0.0

    def test_single_token_delta_one(self):
        batch = GrpoBatch.build([[-1.0], [-1.0]], [[-1.0], [-1.0]],
                                [[0.0], [-1.0]], [1.0, 2.0])
        expected = (math.e - 2 + 0.0) / 2
        assert kl_penalty(batch) == pytest.approx(expected, abs=1e-12)

    def test_always_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            lp_new = [list(rng.normal(-1, 0.5, 4)) for _ in range(3)]
            lp_ref = [list(rng.normal(-1, 0.5, 4)) for _ in range(3)]
            batch = GrpoBatch.build(lp_new, lp_new, lp_ref, [1.0, 2.0, 3.0])
            assert kl_penalty(batch) >= 0.0

    def test_tracks_exact_categorical_kl(self):
        # Estimator averaged over samples from pi_new approximates
        # KL(pi_new || pi_ref) on a 10-symbol vocabulary.
        rng = np.random.default_rng(9)
        logits_new = rng.normal(0, 0.5, 10)
        logits_ref = rng.normal(0, 0.5, 10)
        p_new = np.exp(logits_new) / np.exp(logits_new).sum()
        p_ref = np.exp(logits_ref) / np.exp(logits_ref).sum()
        exact = float(np.sum(p_new * np.log(p_new / p_ref)))
        tokens = rng.choice(10, size=(2, 20000), p=p_new)
        lp_new = [list(np.log(p_new[row])) for row in tokens]
        lp_ref = [list(np.log(p_ref[row])) for row in tokens]
        batch = GrpoBatch.build(lp_new, lp_new, lp_ref, [1.0, 2.0])
        assert kl_penalty(batch) == pytest.approx(exact, rel=0.05)


class TestController:
    def test_on_target_unchanged(self):
        assert kl_controller_update(0.001, 0.05) == 0.001

    def test_pinned_growth(self):
        got = kl_controller_update(0.001, 0.1, target=0.05,
                                   horizon=10000, batch_size=64)
        assert got == pytest.approx(0.001 * 1.00128, rel=1e-12)

    def test_pinned_shrink(self):
        got = kl_controller_update(0.001, 0.0, target=0.05,
                                   horizon=10000, batch_size=64)
        assert got == pytest.approx(0.001 * (1 - 0.2 * 64 / 10000), rel=1e-12)

    def test_stays_positive(self):
        coef = 0.001
        rng = np.random.default_rng(0)
        for kl in rng.uniform(0, 10, 500):
            coef = kl_controller_update(coef, float(kl))
            assert coef > 0


class TestObjective:
    def test_identical_policies_zero(self):
        lp = [[-0.5], [-1.0]]
        batch = GrpoBatch.build(lp, lp, lp, [1.0, 2.0])
        assert grpo_objective(batch) == pytest.approx(0.0, abs=1e-12)

    def test_zero_kl_coef_is_surrogate(self):
        batch = single_token_batch(2.0, +1)
        cfg = GrpoConfig(kl_coef=0.0)
        assert grpo_objective(batch, cfg) == \
            pytest.approx(clipped_surrogate(batch, cfg.clip_ratio), abs=1e-15)

    def test_reward_shift_invariance(self):
        lp_new = [[-0.4, -0.6], [-1.0, -0.2]]
        lp_old = [[-0.5, -0.5], [-0.9, -0.3]]
        a = GrpoBatch.build(lp_new, lp_old, lp_old, [1.0, 4.0])
        b = GrpoBatch.build(lp_new, lp_old, lp_old, [101.0, 104.0])
        assert grpo_objective(a) == grpo_objective(b)


class TestConfig:
    def test_defaults(self):
        cfg = GrpoConfig()
        assert (cfg.group_size, cfg.clip_ratio, cfg.kl_coef) == (8, 0.2, 0.001)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            GrpoConfig(group_size=1)
        with pytest.raises(ValueError):
            GrpoConfig(clip_ratio=1.5)
        with pytest.raises(ValueError):
            GrpoConfig(kl_coef=-0.1)


class TestBatch:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GrpoBatch.build([[0.0]], [[0.0, 0.0]], [[0.0]], [1.0])

    def test_non_finite_reward_rejected(self):
        lp = [[0.0], [0.0]]
        with pytest.raises(ValueError):
            GrpoBatch.build(lp, lp, lp, [1.0, float("nan")])


class TestToyPolicy:
    def test_softmax_rows(self):
        p = ToyPolicy.uniform(3, 5).probs()
        assert p.shape == (3, 5)
        assert p.sum(axis=1) == pytest.approx(np.ones(3), abs=1e-12)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(17)
        shape = (2, 4)
        cfg = GrpoConfig(group_size=4)
        for _ in range(5):
            policy = ToyPolicy(rng.normal(0, 0.5, shape))
            ref = ToyPolicy(rng.normal(0, 0.5, shape))
            actions = [tuple(rng.integers(0, shape[1], shape[0]))
                       for _ in range(cfg.group_size)]
            rewards = list(rng.uniform(0, 2, cfg.group_size))

            def objective(p):
                lp_new = [list(p.sequence_logprobs(a)) for a in actions]
                lp_old = [list(policy.sequence_logprobs(a)) for a in actions]
                lp_ref = [list(ref.sequence_logprobs(a)) for a in actions]
                batch = GrpoBatch.build(lp_new, lp_old, lp_ref, rewards)
                return grpo_objective(batch, cfg)

            lp_old = [list(policy.sequence_logprobs(a)) for a in actions]
            lp_ref = [list(ref.sequence_logprobs(a)) for a in actions]
            batch = GrpoBatch.build(lp_old, lp_old, lp_ref, rewards)
            grad = policy.objective_gradient(actions, batch, cfg)
            h = 1e-5
            for i in range(shape[0]):
                for j in range(shape[1]):
                    bump = np.zeros(shape)
                    bump[i, j] = h
                    num = (objective(ToyPolicy(policy.logits + bump)) -
                           objective(ToyPolicy(policy.logits - bump))) / (2 * h)
                    assert grad[i, j] == pytest.approx(num, rel=1e-4, abs=1e-9)


def bandit_reward(tokens):
    # Deterministic target token per position.
    return float(sum(1.0 for t in tokens if t == 2))


class TestTraining:
    def test_deterministic_logs(self):
        p1, log1 = train_toy_policy(ToyPolicy.uniform(2, 6), bandit_reward,
                                    iterations=20, seed=3)
        p2, log2 = train_toy_policy(ToyPolicy.uniform(2, 6), bandit_reward,
                                    iterations=20, seed=3)
        assert np.array_equal(p1.logits, p2.logits)
        assert log1 == log2

    def test_zero_learning_rate_flat(self):
        policy, log = train_toy_policy(ToyPolicy.uniform(2, 6),
                                       bandit_reward, iterations=10, seed=3,
                                       learning_rate=0.0)
        assert np.array_equal(policy.logits, ToyPolicy.uniform(2, 6).logits)

    def test_bandit_improves(self):
        policy, log = train_toy_policy(ToyPolicy.uniform(2, 6),
                                       bandit_reward, iterations=100, seed=1,
                                       learning_rate=1.0)
        assert log[-1].mean_reward > log[0].mean_reward + 0.2
        assert int(np.argmax(policy.logits[0])) == 2
        assert int(np.argmax(policy.logits[1])) == 2

    def test_log_csv(self, tmp_path):
        _, log = train_toy_policy(ToyPolicy.uniform(1, 4), bandit_reward,
                                  iterations=5, seed=0)
        path = tmp_path / "log.csv"
        write_training_log(log, str(path))
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 5
        assert set(rows[0]) == {"iteration", "mean_reward", "kl", "coef"}
        assert float(rows[0]["mean_reward"]) == log[0].mean_reward
