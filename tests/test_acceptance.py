"""End-to-end acceptance checks for the evaluation engine.

Each test pins an externally verifiable contract: closed-form reward
values, independent hull and chemistry oracles, finite-difference
gradients, known space-group assignments, round-trip identities, and
byte-level pipeline determinism.
"""

import itertools
import math
import os
import random
import time

import numpy as np
import pytest

from crysalign.ciflite import PromptConstraints, parse_ciflite, write_ciflite
from crysalign.energetics import (
    PhaseEntry,
    STABILITY_THRESHOLD,
    energy_above_hull,
    is_stable,
)
from crysalign.grpo import (
    GrpoBatch,
    GrpoConfig,
    ToyPolicy,
    group_advantages,
    grpo_objective,
    train_toy_policy,
)
from crysalign.harness import RunConfig, rows_to_csv, run_evaluation
from crysalign.metrics import MatchRecord, novelty, sun_ratio, uniqueness
from crysalign.rewards import (
    combined_reward,
    range_reward,
    stability_reward,
)
from crysalign.structcore import Composition, CrystalStructure, Site
from crysalign.symmetry import detect_spacegroup
from crysalign.toytask import A_GRID, build_lattice_task
from crysalign.traces import parse_trace, synthesize_trace, trace_consistency
from crysalign.validity import (
    ValidityReport,
    check_chemical,
    find_oxidation_assignment,
)

from conftest import CALCITE_BLOCK, make_structure, write_jsonl


class TestCriterion1StabilityReward:
    def test_pinned_values(self):
        assert abs(stability_reward(0.0, 1.0) - 1.0) <= 1e-12
        assert abs(stability_reward(1.0, 1.0) - 0.5) <= 1e-12
        assert abs(stability_reward(2.0, 1.0) - 0.25) <= 1e-12

    def test_continuity_at_crossover(self):
        for e0 in (0.25, 1.0, 3.0):
            left = 1 - e0 / (2 * e0)
            right = e0 / (2 * e0)
            assert abs(left - right) <= 1e-12
            assert abs(stability_reward(e0, e0) - left) <= 1e-12
            # Approach from both sides.
            h = 1e-9
            assert abs(stability_reward(e0 - h, e0) -
                       stability_reward(e0 + h, e0)) < 1e-8


class TestCriterion2RangeReward:
    def test_pinned_values(self):
        interval = (0.0, 1.0)
        assert abs(range_reward(0.5, interval) - 1.0) <= 1e-12
        assert abs(range_reward(0.0, interval) - 0.5) <= 1e-12
        assert abs(range_reward(1.0, interval) - 0.5) <= 1e-12
        edge = 0.5 + 1 / math.sqrt(2)
        assert abs(range_reward(edge, interval)) <= 1e-12
        assert abs(range_reward(0.5 - 1 / math.sqrt(2), interval)) <= 1e-12
        assert abs(range_reward(2.5, interval) - (math.e ** -7 - 1)) <= 1e-12

    def test_grid_argmax_is_midpoint(self):
        lo, hi = 3.0, 11.0
        grid = np.linspace(lo - 4, hi + 4, 10000)
        values = [range_reward(float(p), (lo, hi)) for p in grid]
        best = grid[int(np.argmax(values))]
        step = grid[1] - grid[0]
        assert abs(best - (lo + hi) / 2) <= step


class TestCriterion3Gating:
    def test_failed_gate_ignores_e_hull(self):
        rng = random.Random(42)
        for _ in range(1000):
            flags = [rng.random() < 0.5 for _ in range(3)]
            if all(flags):
                flags[rng.randrange(3)] = False
            failed = tuple(name for name, ok in
                           zip(("structural", "chemical", "composition"),
                               flags) if not ok)
            report = ValidityReport(structural=flags[0], chemical=flags[1],
                                    composition_match=flags[2],
                                    failed_checks=failed)
            e1 = rng.uniform(-1, 5)
            e2 = rng.uniform(-1, 5)
            r1 = combined_reward(report, e1).r_target
            r2 = combined_reward(report, e2).r_target
            r3 = combined_reward(report, None).r_target
            assert r1 == r2 == r3


def exhaustive_hull_oracle(candidate, refs):
    """Independent oracle: scan every basis of <= 3 reference phases.

    The hull LP's optimum sits at a basic feasible solution, so checking
    all exact solutions of the small composition systems is exhaustive.
    """
    elements = sorted(candidate.composition.counts)
    total = sum(candidate.composition.counts.values())
    target = np.array([candidate.composition.counts.get(el, 0) / total
                       for el in elements])
    best = math.inf
    for k in (1, 2, 3):
        for combo in itertools.combinations(refs, k):
            cols = []
            for r in combo:
                n = sum(r.composition.counts.values())
                cols.append([r.composition.counts.get(el, 0) / n
                             for el in elements])
            a = np.array(cols).T
            try:
                w, residual, rank, _ = np.linalg.lstsq(a, target, rcond=None)
            except np.linalg.LinAlgError:
                continue
            if np.max(np.abs(a @ w - target)) > 1e-9:
                continue
            if np.any(w < -1e-9):
                continue
            energy = float(sum(max(wi, 0.0) * r.energy_per_atom
                               for wi, r in zip(w, combo)))
            best = min(best, energy)
    return candidate.energy_per_atom - best


class TestCriterion4HullOracle:
    def test_fifty_random_ternaries(self):
        rng = random.Random(404)
        elements = ("Na", "Cl", "O")
        for trial in range(50):
            refs = [PhaseEntry(Composition({el: 1}), 0.0)
                    for el in elements]
            for _ in range(rng.randint(3, 7)):
                counts = {el: rng.randint(0, 3) for el in elements}
                if sum(counts.values()) == 0:
                    counts[rng.choice(elements)] = 1
                counts = {el: n for el, n in counts.items() if n}
                refs.append(PhaseEntry(Composition(counts),
                                       rng.uniform(-3.0, 0.5)))
            cand_counts = {el: rng.randint(1, 3) for el in elements}
            candidate = PhaseEntry(Composition(cand_counts),
                                   rng.uniform(-3.0, 1.0))
            lp = energy_above_hull(candidate, refs).e_hull
            oracle = exhaustive_hull_oracle(candidate, refs)
            assert abs(lp - oracle) <= 2e-3
            # Stability classification agrees away from the boundary.
            if abs(lp - STABILITY_THRESHOLD) > 2e-3:
                assert is_stable(max(lp, 0.0)) == \
                    is_stable(max(oracle, 0.0))


class TestCriterion5GrpoNumerics:
    def test_advantage_example(self):
        got = group_advantages([1.0, 2.0, 3.0])
        assert got == pytest.approx([-1.224745, 0.0, 1.224745], abs=1e-6)

    def test_gradient_at_twenty_points(self):
        rng = np.random.default_rng(55)
        shape = (2, 5)
        cfg = GrpoConfig(group_size=4)
        checked = 0
        while checked < 20:
            policy = ToyPolicy(rng.normal(0, 0.6, shape))
            ref = ToyPolicy(rng.normal(0, 0.6, shape))
            actions = [tuple(rng.integers(0, shape[1], shape[0]))
                       for _ in range(cfg.group_size)]
            rewards = list(rng.uniform(0, 3, cfg.group_size))
            lp_old = [list(policy.sequence_logprobs(a)) for a in actions]
            lp_ref = [list(ref.sequence_logprobs(a)) for a in actions]
            batch = GrpoBatch.build(lp_old, lp_old, lp_ref, rewards)
            grad = policy.objective_gradient(actions, batch, cfg)

            def objective(p):
                lp_new = [list(p.sequence_logprobs(a)) for a in actions]
                b = GrpoBatch.build(lp_new, lp_old, lp_ref, rewards)
                return grpo_objective(b, cfg)

            h = 1e-5
            for i in range(shape[0]):
                for j in range(shape[1]):
                    bump = np.zeros(shape)
                    bump[i, j] = h
                    num = (objective(ToyPolicy(policy.logits + bump)) -
                           objective(ToyPolicy(policy.logits - bump))) / (2 * h)
                    scale = max(abs(num), 1e-6)
                    assert abs(grad[i, j] - num) / scale <= 1e-4
            checked += 1


class TestCriterion6ToyConvergence:
    def test_lattice_task_improves(self):
        start = time.monotonic()
        task = build_lattice_task()
        policy = ToyPolicy.uniform(*task.policy_shape)
        trained, log = train_toy_policy(policy, task.reward, iterations=200,
                                        seed=7, learning_rate=2.0)
        assert log[-1].mean_reward >= log[0].mean_reward + 0.2
        modal_a = float(A_GRID[int(np.argmax(trained.logits[0]))])
        a_opt = float(A_GRID[task.optimum[0]])
        step = float(A_GRID[1] - A_GRID[0])
        assert abs(modal_a - a_opt) <= step + 1e-9
        assert time.monotonic() - start < 300


class TestCriterion7ParserRoundTrip:
    def test_calcite_block(self):
        s = parse_ciflite(CALCITE_BLOCK)
        assert s.num_sites == 10
        assert abs(s.volume() - 122.95) / 122.95 <= 0.005

    def test_corpus_idempotence(self):
        rng = random.Random(77)
        elements = ["Na", "Cl", "Ca", "C", "O", "Ti", "Sr", "Fe"]
        for _ in range(500):
            n = rng.randint(1, 8)
            cell = (rng.uniform(2.5, 14.0), rng.uniform(2.5, 14.0),
                    rng.uniform(2.5, 14.0), rng.uniform(60, 120),
                    rng.uniform(60, 120), rng.uniform(60, 120))
            try:
                s = make_structure(
                    cell,
                    [(rng.choice(elements),
                      (rng.random(), rng.random(), rng.random()))
                     for _ in range(n)])
            except Exception:
                continue
            text = write_ciflite(s)
            assert write_ciflite(parse_ciflite(text)) == text


class TestCriterion8Symmetry:
    @pytest.mark.parametrize("tol", [1e-2, 1e-3, 1e-4])
    def test_known_assignments(self, rocksalt, cscl, diamond, hcp_mg,
                               calcite, tol):
        expected = [(calcite, 167), (rocksalt, 225), (cscl, 221),
                    (diamond, 227), (hcp_mg, 194)]
        for s, number in expected:
            assert detect_spacegroup(s, tol=tol).number == number


class TestCriterion9Chemistry:
    def test_calcite_assignment(self, oxidation_table):
        got = find_oxidation_assignment(Composition.from_formula("CaCO3"),
                                        oxidation_table)
        assert got == {"Ca": 2, "C": 4, "O": -2}
        # 2*(+2) + 2*(+4) + 6*(-2) = 0 on the 10-site cell.
        assert 2 * got["Ca"] + 2 * got["C"] + 6 * got["O"] == 0

    def test_enumeration_matches_product_oracle(self, oxidation_table):
        rng = random.Random(99)
        elements = sorted(el for el, states in oxidation_table.states.items()
                          if states)
        for _ in range(200):
            chosen = rng.sample(elements, rng.randint(1, 4))
            c = Composition({el: rng.randint(1, 4) for el in chosen})
            pools = [oxidation_table.states[el] for el in sorted(c.counts)]
            oracle = any(
                sum(s * c.counts[el]
                    for s, el in zip(combo, sorted(c.counts))) == 0
                for combo in itertools.product(*pools))
            assert check_chemical(c, oxidation_table) == oracle


def grid_structure(rng):
    """Random cell with sites on a coarse grid so contacts stay separated."""
    elements = ["Na", "Cl", "Ca", "O", "Ti", "C"]
    n = rng.randint(1, 4)
    positions = rng.sample([(i / 4, j / 4, k / 4)
                            for i in range(4) for j in range(4)
                            for k in range(4)], n)
    return make_structure(
        (rng.uniform(4.0, 9.0), rng.uniform(4.0, 9.0), rng.uniform(4.0, 9.0),
         rng.uniform(70, 110), rng.uniform(70, 110), rng.uniform(70, 110)),
        [(rng.choice(elements), p) for p in positions])


class TestCriterion10TraceSelfConsistency:
    def test_hundred_structures(self, oxidation_table):
        rng = random.Random(1010)
        checked = 0
        while checked < 100:
            try:
                s = grid_structure(rng)
            except Exception:
                continue
            sym = detect_spacegroup(s)
            oxi = find_oxidation_assignment(s.composition(), oxidation_table)
            props = PromptConstraints(band_gap=rng.uniform(0, 6),
                                      e_hull_target=rng.choice([0.0, 0.05]),
                                      formation_energy_per_atom=rng.uniform(-3, 0))
            _, text = synthesize_trace(s, props, sym, oxi)
            result = trace_consistency(parse_trace(text), s, sym)
            assert result.site_match
            assert result.volume_rel_diff <= 1e-6
            assert result.bond_rel_diff <= 1e-6
            checked += 1


class TestCriterion11Metrics:
    def test_constructed_counts(self, cscl, rocksalt, diamond):
        def shift(s):
            sites = tuple(Site(x.element,
                               tuple((c + 0.2) % 1 for c in x.frac_coords))
                          for x in s.sites)
            return CrystalStructure(s.lattice, sites)

        batch = [MatchRecord.from_structure(s)
                 for s in (cscl, shift(cscl), rocksalt, diamond)]
        reference = batch[2:3]
        assert uniqueness(batch) == pytest.approx(3 / 4)
        assert novelty(batch, reference) == pytest.approx(3 / 4)
        # Stable: all but rocksalt; qualifying: one cscl rep + diamond.
        got = sun_ratio(batch, [0.0, 0.0, 0.0, 0.0], reference)
        assert got == pytest.approx(2 / 4)

    def test_sun_bounded_on_random_batches(self, cscl, rocksalt, diamond,
                                           hcp_mg):
        rng = random.Random(111)
        pool = [MatchRecord.from_structure(s) for s in (cscl, rocksalt, diamond, hcp_mg)]
        reference = [pool[1], pool[3]]
        for _ in range(100):
            batch = [rng.choice(pool) for _ in range(rng.randint(1, 8))]
            e_hulls = [rng.choice([0.0, 0.01, 0.05, None]) for _ in batch]
            stable = sum(1 for e in e_hulls
                         if e is not None and is_stable(e)) / len(batch)
            s = sun_ratio(batch, e_hulls, reference)
            assert s <= min(stable, uniqueness(batch),
                            novelty(batch, reference)) + 1e-12


def _pipeline_samples(tmp_path, n):
    rng = random.Random(1212)
    records = []
    for i in range(n):
            if i % 8 == 7:
                records.append({"prompt_id": f"p{i:05d}",
                                "prompt_text": "The chemical formula is NaCl.",
                                "response_text": "not a structure"})
                continue
            a = rng.uniform(5.0, 6.4)
            jit = rng.uniform(-0.02, 0.02)
            s = make_structure(
                (a, a, a + jit, 90, 90, 90),
                [("Na", (0.0, 0.0, 0.0)), ("Na", (0.5, 0.5, 0.0)),
                 ("Na", (0.5, 0.0, 0.5)), ("Na", (0.0, 0.5, 0.5)),
                 ("Cl", (0.5, 0.5, 0.5)), ("Cl", (0.0, 0.0, 0.5)),
                 ("Cl", (0.0, 0.5, 0.0)), ("Cl", (0.5, 0.0, 0.0))])
            records.append({"prompt_id": f"p{i:05d}",
                            "prompt_text": "The chemical formula is NaCl.",
                            "response_text": write_ciflite(s)})
    samples = tmp_path / "samples.jsonl"
    write_jsonl(samples, records)
    return samples


class TestCriterion12PipelineDeterminism:
    def test_byte_identical_across_worker_counts(self, tmp_path):
        samples = _pipeline_samples(tmp_path, 1024)
        outputs = {}
        for workers in (1, 4, 8):
            cfg = RunConfig(samples_path=str(samples),
                            output_dir=str(tmp_path / f"out{workers}"),
                            worker_count=workers, relax_before_hull=False)
            _, rows = run_evaluation(cfg)
            outputs[workers] = rows_to_csv(rows).encode()
        assert outputs[1] == outputs[4] == outputs[8]

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 4,
                        reason="parallel speedup needs at least 4 CPUs")
    def test_parallel_speedup(self, tmp_path):
        samples = _pipeline_samples(tmp_path, 1024)
        timings = {}
        for workers in (1, 8):
            cfg = RunConfig(samples_path=str(samples),
                            output_dir=str(tmp_path / f"speed{workers}"),
                            worker_count=workers, relax_before_hull=False)
            start = time.monotonic()
            run_evaluation(cfg)
            timings[workers] = time.monotonic() - start
        assert timings[8] <= 0.5 * timings[1]
