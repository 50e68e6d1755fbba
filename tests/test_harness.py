import dataclasses
import gc
import json
import multiprocessing.connection
import os
import random
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest

from crysalign import ciflite, energetics, harness, metrics, rewards, validity
from crysalign.ciflite import write_ciflite
from crysalign.harness import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_USAGE,
    InputError,
    RunConfig,
    emit_report,
    load_config,
    rows_to_csv,
    run_evaluation,
)
from crysalign.structcore import MAX_SITES, Composition

from conftest import make_structure, sample_record, write_jsonl


def synthetic_samples(n, seed=0):
    """Mix of valid rock-salt-family cells and deliberately broken samples."""
    rng = random.Random(seed)
    records = []
    for i in range(n):
        kind = i % 5
        if kind == 4:
            records.append({"prompt_id": f"p{i:04d}",
                            "prompt_text": "The chemical formula is NaCl.",
                            "response_text": "no structure block here"})
            continue
        a = rng.uniform(5.2, 6.2)
        jitter = rng.uniform(-0.01, 0.01)
        s = make_structure(
            (a, a, a, 90, 90, 90),
            [("Na", (0.0, 0.0, 0.0)), ("Na", (0.5, 0.5, 0.0)),
             ("Na", (0.5, 0.0, 0.5)), ("Na", (0.0, 0.5, 0.5)),
             ("Cl", (0.5 + jitter, 0.5, 0.5)), ("Cl", (0.0, 0.0, 0.5)),
             ("Cl", (0.0, 0.5, 0.0)), ("Cl", (0.5, 0.0, 0.0))])
        records.append({"prompt_id": f"p{i:04d}",
                        "prompt_text": "The chemical formula is NaCl.",
                        "response_text": write_ciflite(s)})
    return records


@pytest.fixture()
def samples_path(tmp_path):
    path = tmp_path / "samples.jsonl"
    write_jsonl(path, synthetic_samples(15))
    return str(path)


class TestMetricReport:
    def test_one_clustering_pass_per_report(self, samples_path, monkeypatch):
        calls = []
        real = harness.metrics.cluster_indices

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness.metrics, "cluster_indices", counting)
        config = RunConfig(samples_path=samples_path, relax_before_hull=False)
        report, _ = run_evaluation(config)
        assert len(calls) == 1
        values = {e.name: e.value for e in report.entries}
        assert values["uniqueness"] == len(set(real(*calls[0]))) / len(calls[0][0])


def _rocksalt(a, jitter=0.0):
    return make_structure(
        (a, a, a, 90, 90, 90),
        [("Na", (0.0, 0.0, 0.0)), ("Na", (0.5, 0.5, 0.0)),
         ("Na", (0.5, 0.0, 0.5)), ("Na", (0.0, 0.5, 0.5)),
         ("Cl", (0.5 + jitter, 0.5, 0.5)), ("Cl", (0.0, 0.0, 0.5)),
         ("Cl", (0.0, 0.5, 0.0)), ("Cl", (0.5, 0.0, 0.0))])


class TestHullMemo:
    def test_one_lp_per_composition_per_batch(self, tmp_path, monkeypatch):
        """Eight distinct NaCl cells share one hull LP, and each batch
        starts with an empty memo."""
        calls = []
        real = energetics.simplex
        monkeypatch.setattr(energetics, "simplex",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        path = tmp_path / "samples.jsonl"
        write_jsonl(path, [sample_record(f"p{k}", _rocksalt(5.4 + 0.05 * k), "NaCl")
                           for k in range(8)])
        config = RunConfig(samples_path=str(path), relax_before_hull=False)
        for _ in range(2):
            before = len(calls)
            _, rows = run_evaluation(config)
            assert len(calls) - before == 1
            assert all(r.e_hull is not None for r in rows)
            assert len({r.bond_rel_diff for r in rows}) == 1

    def test_memo_empty_when_a_task_starts(self, monkeypatch):
        """The memo lives for one task: the same NaCl chunk evaluated twice
        in one process solves its hull LP once each time."""
        calls = []
        real = energetics.simplex
        monkeypatch.setattr(energetics, "simplex",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        records = [ciflite.SampleRecord(**sample_record(f"p{k}", _rocksalt(5.4 + 0.05 * k),
                                                        "NaCl"))
                   for k in range(3)]
        config = RunConfig(samples_path=__file__, relax_before_hull=False)
        chunk = (list(enumerate(records)), config)
        for _ in range(2):
            before = len(calls)
            results = harness._evaluate_chunk(chunk)
            assert len(calls) - before == 1
            assert all(row.e_hull is not None for row, _ in results)


    @staticmethod
    def _chunk(config):
        """NaCl as a 2-atom and as an 8-atom cell, then KCl: two sets of
        atomic fractions over three structures."""
        a = 5.64 / 2 ** 0.5
        primitive = make_structure((a, a, a, 60, 60, 60),
                                   [("Na", (0.0, 0.0, 0.0)), ("Cl", (0.5, 0.5, 0.5))])
        kcl = make_structure((6.29,) * 3 + (90,) * 3,
                             [(site.element.replace("Na", "K"), site.frac_coords)
                              for site in _rocksalt(6.29).sites])
        cells = [("NaCl", primitive), ("NaCl", _rocksalt(5.64)), ("KCl", kcl)]
        records = [ciflite.SampleRecord(**sample_record(f"p{k}", s, formula))
                   for k, (formula, s) in enumerate(cells)]
        return (list(enumerate(records)), config)

    def test_one_solve_per_fractions_in_a_task(self, monkeypatch):
        """The 2- and 8-atom NaCl cells share one LP, and each row's e_hull
        is its own hull distance, floored at 0, to the bit."""
        calls = []
        real = energetics.simplex
        monkeypatch.setattr(energetics, "simplex",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        chunk = self._chunk(RunConfig(samples_path=__file__, relax_before_hull=False))
        results = harness._evaluate_chunk(chunk)
        assert len(calls) == 2
        backend = energetics.PairPotentialBackend.load_default()
        refs = energetics.load_reference_phases()
        for (row, _), (_, sample) in zip(results, chunk[0]):
            s = ciflite.parse_ciflite(sample.response_text)
            entry = energetics.PhaseEntry(s.composition(),
                                          energetics.formation_energy(backend, s))
            want = max(energetics.energy_above_hull(entry, refs).e_hull, 0.0)
            assert row.e_hull == want and row.error == ""
        assert [r.formula for r, _ in results] == ["ClNa", "ClNa", "ClK"]
        assert len({r.e_hull for r, _ in results}) == 3

    def test_a_raise_is_kept_for_no_structure(self, monkeypatch):
        """A hull solve that raises fails its own row; the next structure at
        the same composition solves again and gets its hull."""
        real = energetics.hull_energy
        raised = []

        def first_raises(*args):
            if not raised:
                raised.append(1)
                raise RuntimeError("hull went wrong")
            return real(*args)

        monkeypatch.setattr(energetics, "hull_energy", first_raises)
        chunk = self._chunk(RunConfig(samples_path=__file__, relax_before_hull=False))
        first, second, _ = (row for row, _ in harness._evaluate_chunk(chunk))
        assert (first.e_hull, first.error) == (None, "RuntimeError: hull went wrong")
        assert second.e_hull is not None and second.error == ""


class TestReducedBasisOnce:
    def test_one_reduction_per_lattice(self, monkeypatch, oxidation_table):
        """Validity, detection, the trace shells, relaxation, the energy and
        clustering reduce each parsed lattice once. Detection takes that
        reduction for the two jittered cells, which are primitive, and
        reduces the primitive cell of the exact rock salt (four pure
        translations) once more."""
        from crysalign import metrics, structcore, traces
        from crysalign.symmetry import detect

        cells = [_rocksalt(5.64, 0.01), _rocksalt(5.64, 0.012), _rocksalt(5.64)]
        records = []
        for k, s in enumerate(cells):
            sym = detect.detect_spacegroup(s)
            oxi = validity.find_oxidation_assignment(s.composition(), oxidation_table)
            _, trace = traces.synthesize_trace(s, ciflite.PromptConstraints(), sym, oxi)
            records.append(ciflite.SampleRecord(
                f"p{k}", "The chemical formula is NaCl.", trace + "\n" + write_ciflite(s)))
        counts = {structcore: 0, detect: 0}
        for module in counts:
            real = module.reduced_basis
            monkeypatch.setattr(module, "reduced_basis",
                                lambda cell, module=module, real=real:
                                counts.__setitem__(module, counts[module] + 1) or real(cell))
        config = RunConfig(samples_path=__file__)
        results = harness._evaluate_chunk((list(enumerate(records)), config))
        assert all(row.site_match is not None and row.e_hull is not None
                   for row, _ in results)
        uniq, _, _ = metrics.discovery_rates([r for _, r in results], [0.0] * 3, [])
        assert uniq == 1 / 3
        assert counts == {structcore: 3, detect: 1}


class TestPool:
    """One pool per process, kept across batches while the worker count
    stays the same."""

    @staticmethod
    def config(samples_path, workers=2):
        return RunConfig(samples_path=samples_path, worker_count=workers,
                         relax_before_hull=False)

    def test_one_pool_per_process_and_worker_count(self, samples_path, monkeypatch):
        made = []

        class Counting(harness.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", Counting)
        for _ in range(3):
            run_evaluation(self.config(samples_path))
        assert made == [2]
        run_evaluation(self.config(samples_path, workers=3))
        assert made == [2, 3]

    def test_worker_killed_between_batches(self, samples_path):
        _, rows = run_evaluation(self.config(samples_path))
        first = rows_to_csv(rows)
        pool = harness._pool
        victim = next(iter(pool._processes.values()))
        os.kill(victim.pid, signal.SIGKILL)
        assert multiprocessing.connection.wait([victim.sentinel], timeout=30)
        _, rows = run_evaluation(self.config(samples_path))
        assert rows_to_csv(rows) == first
        assert harness._pool is not pool
        assert victim.pid not in harness._pool._processes

    def test_process_exits_and_reaps_its_workers(self, samples_path):
        code = """
import sys, time
sys.path.insert(0, sys.argv[1])
from crysalign import harness
config = harness.RunConfig(samples_path=sys.argv[2], worker_count=2,
                           relax_before_hull=False)
for _ in range(2):
    harness.run_evaluation(config)
print(time.monotonic(), *harness._pool._processes)
"""
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run([sys.executable, "-c", code, src, samples_path],
                              capture_output=True, text=True, timeout=120, check=True)
        exited = time.monotonic()
        finished, *pids = done.stdout.split()
        assert len(pids) == 2
        assert exited - float(finished) < 10.0
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(int(pid), 0)


class TestCheckError:
    def test_raise_after_report_keeps_validity_hull_and_reward(self, rocksalt, tmp_path):
        """An unbalanced charge equation makes the trace parser raise after
        the validity report: the row is a check_error that keeps its flags,
        e_hull, reward and detected space group, and its structure stays in
        the batch metrics."""
        trace = "The charge balance is 4*(+1)+4*(+1)=0."
        path = tmp_path / "samples.jsonl"
        write_jsonl(path, [sample_record("p0", rocksalt, "NaCl", trace=trace),
                           sample_record("p1", rocksalt, "NaCl")])
        report, rows = run_evaluation(RunConfig(samples_path=str(path),
                                                relax_before_hull=False))
        bad, good = rows
        assert bad.parse_status == "check_error"
        assert bad.error == "ValueError: charge equation does not sum to zero as written"
        assert good.parse_status == "ok" and good.error == ""
        for name in ("structural", "chemical", "composition_match",
                     "spacegroup_detected", "e_hull", "r_target", "formula"):
            assert getattr(bad, name) == getattr(good, name)
        assert bad.structural == 1 and bad.spacegroup_detected == 225
        assert bad.e_hull is not None
        expected = rewards.combined_reward(
            validity.build_report(rocksalt, Composition.from_formula("NaCl"),
                                  validity.OxidationTable.load_default()),
            bad.e_hull, RunConfig(samples_path=str(path)).weights())
        assert bad.r_target == expected.r_target
        assert bad.site_match is None and bad.bond_rel_diff is None
        counts = {e.name: e.count for e in report.entries}
        assert counts["uniqueness"] == counts["sun_ratio"] == 2

    def test_detection_fault_is_check_error(self, rocksalt, tmp_path, monkeypatch):
        """Detection raising anything but ``DetectionError`` is a fault, not
        a cell it rejects: the row is a check_error naming the raise, and it
        keeps its validity flags, e_hull and reward."""
        path = tmp_path / "samples.jsonl"
        write_jsonl(path, [sample_record("p0", rocksalt, "NaCl")])
        config = RunConfig(samples_path=str(path), relax_before_hull=False)
        _, (good,) = run_evaluation(config)

        def broken(s, tol):
            raise RuntimeError("detection fault")

        monkeypatch.setattr(harness, "detect_spacegroup", broken)
        _, (bad,) = run_evaluation(config)
        assert good.parse_status == "ok" and good.spacegroup_detected == 225
        assert bad.parse_status == "check_error"
        assert "RuntimeError: detection fault" in bad.error
        assert bad.spacegroup_detected is None
        for name in ("structural", "chemical", "composition_match", "e_hull",
                     "r_target", "formula"):
            assert getattr(bad, name) == getattr(good, name)
        assert bad.structural == 1 and bad.e_hull is not None

    @pytest.mark.parametrize("sentence", [
        "The structure has space group Fm-3m (id {big}).",
        "There are {big} Na atoms in 1 orbit with oxidation state +1.",
        "There are 4 Na atoms in {big} orbits.",
        "Each Na atom is coordinated by {big} Cl atoms in a octahedral geometry.",
        "The charge balance is {big}*(+1)+4*(-1)=0.",
    ])
    def test_oversized_trace_integer_is_check_error(self, rocksalt, tmp_path, sentence):
        """A trace integer of more digits than ``int`` converts names its
        length, not int's own advice; the CIF block is fine, so the row keeps
        its validity flags, e_hull and space group."""
        path = tmp_path / "samples.jsonl"
        write_jsonl(path, [sample_record("p0", rocksalt, "NaCl",
                                         trace=sentence.format(big="3" * 5000)),
                           sample_record("p1", rocksalt, "NaCl")])
        _, (bad, good) = run_evaluation(RunConfig(samples_path=str(path),
                                                  relax_before_hull=False))
        assert bad.parse_status == "check_error"
        assert bad.error == "ValueError: trace integer of 5000 digits is too long"
        for name in ("structural", "chemical", "composition_match",
                     "spacegroup_detected", "e_hull", "r_target", "formula"):
            assert getattr(bad, name) == getattr(good, name)
        assert bad.structural == 1 and bad.spacegroup_detected == 225
        assert bad.e_hull is not None

    def test_raise_before_report_leaves_row_empty(self, rocksalt, tmp_path, monkeypatch):
        """A fault inside the validity report is a check_error with no
        validity flags and no formula, and its structure stays out of the
        batch metrics."""
        path = tmp_path / "samples.jsonl"
        write_jsonl(path, [sample_record("p0", rocksalt, "NaCl"),
                           sample_record("p1", _rocksalt(5.9), "NaCl")])
        config = RunConfig(samples_path=str(path), relax_before_hull=False)
        before, _ = run_evaluation(config)
        real = validity.build_report

        def broken(s, target, table):
            if s.lattice.a > 5.8:
                raise RuntimeError("validity fault")
            return real(s, target, table)

        monkeypatch.setattr(harness.validity, "build_report", broken)
        after, (good, bad) = run_evaluation(config)
        assert good.parse_status == "ok" and good.structural == 1
        assert bad.parse_status == "check_error"
        assert bad.error == "RuntimeError: validity fault"
        assert (bad.structural, bad.chemical, bad.composition_match) == (0, 0, 0)
        assert bad.formula == "" and bad.e_hull is None and bad.r_target == 0.0
        assert bad.spacegroup_detected is None
        count = {e.name: e.count for e in before.entries}["uniqueness"]
        assert {e.name: e.count for e in after.entries}["uniqueness"] == count - 1 == 1

    def test_parse_failures_stay_out_of_metrics(self, rocksalt, tmp_path):
        path = tmp_path / "samples.jsonl"
        write_jsonl(path, [sample_record("p0", rocksalt, "NaCl"),
                           {"prompt_id": "p1", "prompt_text": "NaCl",
                            "response_text": "no structure"}])
        report, rows = run_evaluation(RunConfig(samples_path=str(path),
                                                relax_before_hull=False))
        assert rows[1].parse_status == "missing_cif"
        assert {e.name: e.count for e in report.entries}["uniqueness"] == 1


class TestRecordFaults:
    """A raise while a match record is built: in a worker it fails that
    row alone; in a file read in this process it is an input error."""

    @staticmethod
    def _writer_fails_for(monkeypatch, a):
        """``metrics.write_ciflite``, which builds each record's key, raises
        for a cell with first length ``a``."""
        real = metrics.write_ciflite

        def broken(s):
            if s.lattice.a == a:
                raise RuntimeError("writer fault")
            return real(s)

        monkeypatch.setattr(metrics, "write_ciflite", broken)

    def test_record_fault_fails_its_row_alone(self, tmp_path, monkeypatch):
        """With 1 and 2 workers, the sample whose record raises is a
        check_error row with no validity flags. Every other row, and the
        discovery metrics, equal those of the batch without that sample;
        every metric equals that of the batch where the sample has no CIF
        block, which also scores zero and stays out of the discovery
        metrics."""
        def batch(name, bad):
            records = [sample_record(f"p{k}", _rocksalt(a), "NaCl")
                       for k, a in enumerate((5.0, 5.64, 5.64, 6.3, 7.0))]
            if bad is not None:
                records.insert(2, bad)
            path = tmp_path / f"{name}.jsonl"
            write_jsonl(path, records)
            return str(path)

        ref = tmp_path / "ref.txt"
        ref.write_text(write_ciflite(_rocksalt(6.3)) + "\n")

        def run(path, workers=1):
            return run_evaluation(RunConfig(samples_path=path, worker_count=workers,
                                            reference_structures_path=str(ref),
                                            relax_before_hull=False))

        without_report, without = run(batch("without", None))
        no_cif = {"prompt_id": "bad", "prompt_text": "The chemical formula is NaCl.",
                  "response_text": "no structure"}
        no_cif_report, _ = run(batch("no-cif", no_cif))
        path = batch("with", sample_record("bad", _rocksalt(5.9), "NaCl"))
        self._writer_fails_for(monkeypatch, 5.9)
        discovery = ("uniqueness", "novelty", "sun_ratio")
        for workers in (1, 2):
            harness._drop_pool()              # workers fork with the patch
            report, rows = run(path, workers)
            bad = rows[2]
            assert (bad.prompt_id, bad.parse_status) == ("bad", "check_error")
            assert bad.error == "RuntimeError: writer fault"
            assert (bad.structural, bad.chemical, bad.composition_match) == (0, 0, 0)
            assert (bad.formula, bad.e_hull, bad.r_target) == ("", None, 0.0)
            assert bad.spacegroup_detected is None
            others = rows[:2] + rows[3:]
            assert ([dataclasses.replace(r, index=0) for r in others]
                    == [dataclasses.replace(r, index=0) for r in without])
            assert ([e for e in report.entries if e.name in discovery]
                    == [e for e in without_report.entries if e.name in discovery])
            assert report.to_csv() == no_cif_report.to_csv()
        values = {e.name: e.value for e in report.entries}
        assert (values["uniqueness"], values["novelty"]) == (0.8, 0.8)

    def test_file_record_fault_is_input_error(self, tmp_path, monkeypatch, capsys):
        """A reference or ``crysalign metrics`` block whose record raises
        names its file and first line, and exits 2, not 3."""
        from crysalign.cli import main
        listed = tmp_path / "listed.txt"
        listed.write_text("\n".join(write_ciflite(_rocksalt(a)) for a in (5.6, 5.9)) + "\n")
        clean = tmp_path / "clean.txt"
        clean.write_text(write_ciflite(_rocksalt(5.6)) + "\n")
        samples = tmp_path / "samples.jsonl"
        write_jsonl(samples, [sample_record("p0", _rocksalt(5.6), "NaCl")])
        ini = tmp_path / "run.ini"
        ini.write_text(f"[run]\nsamples_path = {samples}\n"
                       f"reference_structures_path = {listed}\n")
        self._writer_fails_for(monkeypatch, 5.9)
        want = f"{listed}: block at line 12: RuntimeError: writer fault"
        with pytest.raises(InputError) as info:
            run_evaluation(load_config(str(ini)))
        assert str(info.value) == want
        for argv in (["metrics", str(listed)],
                     ["metrics", str(clean), "--reference", str(listed)],
                     ["evaluate", "--config", str(ini), "--out", str(tmp_path / "out")]):
            assert main(argv) == EXIT_INPUT
            assert capsys.readouterr().err.strip() == want


# Pieces of an adversarial response: a rock-salt cell, its trace, and the
# ways a generator can break either or its prompt.
_BIG = "7" * 5000
_ROCKSALT_SITES = ["Na 1 0 0 0", "Na 1 0.5 0.5 0", "Na 1 0.5 0 0.5", "Na 1 0 0.5 0.5",
                   "Cl 1 0.5 0.5 0.5", "Cl 1 0 0 0.5", "Cl 1 0 0.5 0", "Cl 1 0.5 0 0"]
_ROCKSALT_TRACE = (
    "The structure has space group Fm-3m (id 225). "
    "There are 4 Na atoms in 1 orbit with oxidation state +1. "
    "There are 4 Cl atoms in 1 orbit with oxidation state -1. "
    "The charge balance is 4*(+1)+4*(-1)=0. "
    "Each Na atom is coordinated by 6 Cl atoms in a octahedral geometry.")
_BREAKS = {
    "huge_lengths": lambda p: dict(p, lengths="1e200 1e200 1e200"),
    "tiny_length": lambda p: dict(p, lengths="5.64 1e-300 5.64"),
    "giant_length": lambda p: dict(p, lengths="1e25 5 5"),
    "skewed_lengths": lambda p: dict(p, lengths="1e-100 5 5"),
    "huge_coordinate": lambda p: dict(p, sites=p["sites"][:4] + ["Cl 1 1e300 0.5 0.5"]
                                      + p["sites"][5:]),
    "sites_at_one_point": lambda p: dict(p, sites=p["sites"] + p["sites"][:1]),
    "flat_angles": lambda p: dict(p, angles="179.9 0.1 90"),
    "unbalanced_charge": lambda p: dict(p, trace=p["trace"].replace(
        "4*(+1)+4*(-1)", "4*(+1)+4*(+1)")),
    "digits_in_prompt": lambda p: dict(p, prompt=p["prompt"]
                                       + f" The space-group number is {_BIG}."),
    "digits_in_cif": lambda p: dict(p, sites=p["sites"][:4] + [f"Cl {_BIG} 0.5 0.5 0.5"]
                                    + p["sites"][5:]),
    "digits_in_trace": lambda p: dict(p, trace=p["trace"].replace(
        "There are 4 Na", f"There are {_BIG} Na")),
    "digits_in_trace_id": lambda p: dict(p, trace=p["trace"].replace("id 225", f"id {_BIG}")),
    "digits_in_charge": lambda p: dict(p, trace=p["trace"].replace("4*(-1)", f"{_BIG}*(-1)")),
}


_ROCKSALT_PARTS = {"prompt": "The chemical formula is NaCl.", "trace": _ROCKSALT_TRACE,
                   "lengths": "5.64 5.64 5.64", "angles": "90 90 90",
                   "sites": _ROCKSALT_SITES}


def _record(prompt_id, parts):
    """The sample that ``parts`` of a response make."""
    cif = "\n".join(["<CIF>P1", parts["lengths"], parts["angles"], *parts["sites"]])
    return {"prompt_id": prompt_id, "prompt_text": parts["prompt"],
            "response_text": f"{parts['trace']}\n{cif}</CIF>"}


def adversarial_samples(n, seed):
    """``n`` samples that each break a rock-salt response one way, in turn,
    plus up to two more ways drawn from ``seed``."""
    rng = random.Random(seed)
    kinds = sorted(_BREAKS)
    records = []
    for i in range(n):
        parts = _ROCKSALT_PARTS
        for kind in [kinds[i % len(kinds)]] + rng.sample(kinds, rng.randint(0, 2)):
            parts = _BREAKS[kind](parts)
        records.append(_record(f"p{i:03d}", parts))
    return records


# The values of the breaks that no parsed cell may hold.
_UNPARSEABLE = ("1e200 1e200 1e200", "1e-300", "1e300", "1e25 5 5", "1e-100 5 5")


class TestAdversarialRows:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_sample_gets_one_row_with_a_plain_reason(self, tmp_path, seed):
        """However a response is broken, the batch finishes with one row per
        sample in order, for one worker and for two, and no row's reason
        holds a traceback or the path of this checkout. A sample with a cell
        length outside the accepted range or a huge coordinate is a parse
        error. The
        unbroken response last is the batch's ``ok`` row."""
        records = adversarial_samples(3 * len(_BREAKS), seed) + [
            _record("clean", _ROCKSALT_PARTS)]
        path = tmp_path / "samples.jsonl"
        write_jsonl(path, records)
        checkout = str(Path(__file__).resolve().parent.parent)
        runs = []
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for workers in (1, 2):
                config = RunConfig(samples_path=str(path), worker_count=workers,
                                   timeout_s=60.0)
                runs.append(run_evaluation(config)[1])
        one, two = runs
        assert one == two
        assert [r.prompt_id for r in one] == [r["prompt_id"] for r in records]
        for row, record in zip(one, records):
            assert "Traceback" not in row.error and checkout not in row.error
            assert row.parse_status == "ok" or row.error
            assert row.formula or row.r_target == 0.0     # no report, no reward
            if any(value in record["response_text"] for value in _UNPARSEABLE):
                assert row.parse_status == "parse_error", row
        statuses = {r.parse_status for r in one}
        assert statuses == {"ok", "parse_error", "check_error"}

    def test_huge_coordinate_earns_no_reward(self, tmp_path):
        """Rock salt with one coordinate at 1e300 is not wrapped to the
        origin and detected as No. 225: the row is a parse error."""
        parts = dict(_ROCKSALT_PARTS, trace="",
                     sites=["Na 1 1e300 0 0"] + _ROCKSALT_SITES[1:])
        path = tmp_path / "samples.jsonl"
        write_jsonl(path, [_record("p0", parts)])
        (row,) = run_evaluation(RunConfig(samples_path=str(path)))[1]
        assert row.parse_status == "parse_error"
        assert row.error.endswith("(line 4)")
        assert (row.r_target, row.spacegroup_detected, row.e_hull) == (0.0, None, None)

    @pytest.mark.parametrize("lengths", ["1e200 1e200 1e200", "5.64 1e-300 5.64"])
    def test_overflowing_cell_is_parse_error(self, tmp_path, lengths):
        """A cell whose squared lengths leave the float range is rejected
        when it is parsed, before any reduction warns or raises."""
        path = tmp_path / "samples.jsonl"
        write_jsonl(path, [_record("p0", dict(_ROCKSALT_PARTS, trace="", lengths=lengths))])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            (row,) = run_evaluation(RunConfig(samples_path=str(path)))[1]
        assert row.parse_status == "parse_error"
        assert row.error.endswith("(line 2)") and row.r_target == 0.0

    def test_site_count_past_the_bound_is_parse_error(self, tmp_path):
        """A block of ``MAX_SITES`` + 1 sites is a parse error at its first
        site past the bound, before detection meets it; ``MAX_SITES`` sites
        parse."""
        grid = [f"Na 1 {i / 8} {j / 8} {k / 8}"
                for i in range(8) for j in range(8) for k in range(8)]
        assert len(grid) == MAX_SITES
        path = tmp_path / "samples.jsonl"
        parts = dict(_ROCKSALT_PARTS, trace="", lengths="30 30 30",
                     sites=grid + ["Na 1 0.0625 0.0625 0.0625"])
        write_jsonl(path, [_record("p0", parts)])
        (row,) = run_evaluation(RunConfig(samples_path=str(path)))[1]
        assert row.parse_status == "parse_error"
        assert row.error == f"block lists more than {MAX_SITES} sites (line {MAX_SITES + 4})"
        full = _record("p1", dict(parts, sites=grid))["response_text"]
        assert ciflite.parse_ciflite(full).num_sites == MAX_SITES


class TestNiggliInBatch:
    def test_nearly_flat_duplicates_do_not_abort(self, tmp_path):
        """Two copies of a cell whose Niggli reduction from the given basis
        does not converge: clustering compares them and reduces both."""
        cif = ("<CIF>P1\n7.266613781226143 10.213196940146627 10.818732977533095\n"
               "65.22242763560428 54.8024434246217 120.02486993125355\n"
               "Na 1 0 0 0\nCl 1 0.5 0.5 0.5</CIF>")
        path = tmp_path / "samples.jsonl"
        write_jsonl(path, [{"prompt_id": f"p{i}", "prompt_text": "NaCl",
                            "response_text": cif} for i in range(2)])
        report, rows = run_evaluation(RunConfig(samples_path=str(path),
                                                relax_before_hull=False))
        assert [r.parse_status for r in rows] == ["ok", "ok"]
        assert {e.name: e.value for e in report.entries}["uniqueness"] == 0.5

    def test_reduced_vector_below_the_length_range(self, tmp_path):
        """A cell inside the accepted lengths whose Niggli cell has a vector
        of 1e-7 A: its record holds the Niggli numbers, so the row is
        ``ok`` (structurally invalid) and counts in the batch metrics beside
        a clean rock salt."""
        clean = dict(_ROCKSALT_PARTS, trace="")
        flat = dict(clean, lengths="0.001 0.001 5", angles="90 90 0.006",
                    sites=["Na 1 0 0 0", "Cl 1 0.5 0.5 0.5"])
        path = tmp_path / "samples.jsonl"
        write_jsonl(path, [_record("flat", flat), _record("clean", clean)])
        report, rows = run_evaluation(RunConfig(samples_path=str(path)))
        assert [(r.parse_status, r.structural, r.error) for r in rows] == [
            ("ok", 0, ""), ("ok", 1, "")]
        assert {e.name: e.count for e in report.entries}["uniqueness"] == 2


class TestBatchWithoutReports:
    # metrics.csv of the three samples below: the rates over every row are 0
    # of 3, and each metric over rows with a validity report is 0 of 0.
    METRICS_CSV = (
        "metric,value,standard_error,count\n"
        "structural_validity,0.0,0.0,3\n"
        "chemical_validity,0.0,0.0,3\n"
        "composition_match,0.0,0.0,3\n"
        "spacegroup_match,0.0,0.0,0\n"
        "mean_e_hull,0.0,0.0,0\n"
        "stability_rate,0.0,0.0,3\n"
        "mean_r_target,0.0,0.0,3\n"
        "uniqueness,0.0,0.0,0\n"
        "novelty,0.0,0.0,0\n"
        "sun_ratio,0.0,0.0,0\n"
    )

    def test_metrics_csv_when_no_row_has_a_report(self, tmp_path):
        """A batch whose every row is ``missing_cif`` or ``parse_error``
        writes the same metrics.csv with one worker and with two."""
        prompt = _ROCKSALT_PARTS["prompt"] + " The space-group number is 225."
        clean = dict(_ROCKSALT_PARTS, trace="", prompt=prompt)
        records = [{"prompt_id": "no-cif", "prompt_text": prompt,
                    "response_text": "no structure block here"},
                   _record("giant", dict(clean, lengths="1e25 5 5")),
                   _record("bad-site", dict(clean, sites=["Na 1 0 0"]))]
        path = tmp_path / "samples.jsonl"
        write_jsonl(path, records)
        for workers in (1, 2):
            report, rows = run_evaluation(RunConfig(samples_path=str(path),
                                                    worker_count=workers))
            assert [r.parse_status for r in rows] == [
                "missing_cif", "parse_error", "parse_error"]
            out = tmp_path / f"out{workers}"
            emit_report(report, rows, str(out))
            assert (out / "metrics.csv").read_bytes() == self.METRICS_CSV.encode()


class TestConfig:
    def test_defaults(self, samples_path):
        cfg = RunConfig(samples_path=samples_path)
        assert cfg.worker_count == 1
        assert cfg.relax_before_hull

    def test_missing_samples_file_rejected(self):
        with pytest.raises(InputError):
            RunConfig(samples_path="/nonexistent/samples.jsonl")

    def test_bad_worker_count_rejected(self, samples_path):
        with pytest.raises(InputError):
            RunConfig(samples_path=samples_path, worker_count=0)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
    def test_bad_symmetry_tol_rejected(self, samples_path, tol):
        with pytest.raises(InputError, match="symmetry_tol"):
            RunConfig(samples_path=samples_path, symmetry_tol=tol)

    def test_bad_symmetry_tol_in_ini_is_input_error(self, tmp_path, samples_path):
        from crysalign.cli import main
        ini = tmp_path / "run.ini"
        ini.write_text(f"[run]\nsamples_path = {samples_path}\nsymmetry_tol = -1\n")
        assert main(["evaluate", "--config", str(ini),
                     "--out", str(tmp_path / "out")]) == EXIT_INPUT
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("setting", [
        "e0 = 0", "e0 = -1", "e0 = nan", "e0 = inf",
        "alpha_validity = -1", "alpha_validity = nan",
        "alpha_stability = -1", "alpha_stability = inf",
        "length_tol = 0", "angle_tol = -5", "site_tol = 0", "site_tol = nan",
        "timeout_s = nan", "timeout_s = -1",
    ])
    def test_bad_setting_in_ini_is_input_error(self, tmp_path, samples_path, setting,
                                               capsys):
        """Rejected before any sample runs: exit 2, no output, and a message
        that names the key."""
        from crysalign.cli import main
        ini = tmp_path / "run.ini"
        ini.write_text(f"[run]\nsamples_path = {samples_path}\n{setting}\n")
        assert main(["evaluate", "--config", str(ini),
                     "--out", str(tmp_path / "out")]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(setting.split()[0] + " must be")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("setting, message", [
        ("worker_count = 2.5", "worker_count must be an integer, got '2.5'"),
        ("worker_count = two", "worker_count must be an integer, got 'two'"),
        ("timeout_s = soon", "timeout_s must be a number, got 'soon'"),
        ("symmetry_tol =", "symmetry_tol must be a number, got ''"),
    ])
    def test_bad_number_names_its_key(self, tmp_path, samples_path, setting, message):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[run]\nsamples_path = {samples_path}\n{setting}\n")
        with pytest.raises(InputError) as err:
            load_config(str(ini))
        assert str(err.value) == message

    def test_booleans_follow_configparser(self, tmp_path, samples_path):
        """configparser's spellings read as booleans; anything else is an
        InputError, not a silent False."""
        ini = tmp_path / "run.ini"
        for raw, value in [("1", True), ("yes", True), ("True", True), ("on", True),
                           ("0", False), ("no", False), ("FALSE", False), ("off", False),
                           ("ture", None), ("2", None)]:
            ini.write_text(f"[run]\nsamples_path = {samples_path}\nrelax_before_hull = {raw}\n")
            if value is None:
                with pytest.raises(InputError, match="relax_before_hull"):
                    load_config(str(ini))
            else:
                assert load_config(str(ini)).relax_before_hull is value

    def test_load_ini(self, tmp_path, samples_path):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[run]\n"
            f"samples_path = {samples_path}\n"
            "worker_count = 3\n"
            "relax_before_hull = false\n"
            "e0 = 0.5\n")
        cfg = load_config(str(ini))
        assert cfg.worker_count == 3
        assert cfg.relax_before_hull is False
        assert cfg.e0 == 0.5

    def test_overrides_win(self, tmp_path, samples_path):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[run]\nsamples_path = {samples_path}\ntimeout_s = 1\n")
        cfg = load_config(str(ini), overrides={"timeout_s": 9.0})
        assert cfg.timeout_s == 9.0

    def test_unknown_key_rejected(self, tmp_path, samples_path):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[run]\nsamples_path = {samples_path}\nbogus = 1\n")
        with pytest.raises(InputError):
            load_config(str(ini))

    def test_beta_property_is_unknown_key(self, tmp_path, samples_path):
        """``evaluate`` scores no property, so the property weight is not a
        run option."""
        ini = tmp_path / "run.ini"
        ini.write_text(f"[run]\nsamples_path = {samples_path}\nbeta_property = 2\n")
        with pytest.raises(InputError, match="unknown config key: beta_property"):
            load_config(str(ini))


class TestRun:
    def test_row_per_sample(self, samples_path, tmp_path):
        cfg = RunConfig(samples_path=samples_path,
                        output_dir=str(tmp_path / "out"),
                        relax_before_hull=False)
        report, rows = run_evaluation(cfg)
        assert len(rows) == 15
        assert [r.index for r in rows] == list(range(15))

    def test_parse_failures_scored_zero(self, samples_path, tmp_path):
        cfg = RunConfig(samples_path=samples_path,
                        output_dir=str(tmp_path / "out"),
                        relax_before_hull=False)
        _, rows = run_evaluation(cfg)
        bad = [r for r in rows if r.parse_status != "ok"]
        assert bad and all(r.r_target == 0.0 for r in bad)
        assert all(r.e_hull is None for r in bad)

    def test_valid_samples_evaluated(self, samples_path, tmp_path):
        cfg = RunConfig(samples_path=samples_path,
                        output_dir=str(tmp_path / "out"),
                        relax_before_hull=False)
        report, rows = run_evaluation(cfg)
        good = [r for r in rows if r.parse_status == "ok"]
        assert all(r.structural == 1 for r in good)
        assert all(r.e_hull is not None for r in good)
        assert all(r.spacegroup_detected for r in good)

    def test_metric_report_names(self, samples_path, tmp_path):
        cfg = RunConfig(samples_path=samples_path,
                        output_dir=str(tmp_path / "out"),
                        relax_before_hull=False)
        report, _ = run_evaluation(cfg)
        names = {m.name for m in report.entries}
        for needed in ("structural_validity", "chemical_validity",
                       "uniqueness", "novelty", "sun_ratio",
                       "stability_rate", "mean_r_target"):
            assert needed in names

    def test_worker_counts_agree(self, samples_path, tmp_path):
        outputs = []
        for workers in (1, 2):
            cfg = RunConfig(samples_path=samples_path,
                            output_dir=str(tmp_path / f"out{workers}"),
                            worker_count=workers, relax_before_hull=False)
            _, rows = run_evaluation(cfg)
            outputs.append(rows_to_csv(rows))
        assert outputs[0] == outputs[1]


class TestParseBoundary:
    @staticmethod
    def run_one(tmp_path, response, prompt="The chemical formula is NaCl."):
        path = tmp_path / "samples.jsonl"
        write_jsonl(path, [{"prompt_id": "p0", "prompt_text": prompt,
                            "response_text": response}])
        cfg = RunConfig(samples_path=str(path), output_dir=str(tmp_path / "out"),
                        relax_before_hull=False)
        _, rows = run_evaluation(cfg)
        assert len(rows) == 1
        return rows[0]

    def test_negative_cell_length_is_parse_error(self, tmp_path):
        row = self.run_one(tmp_path, "<CIF>P1\n-5.6 5.6 5.6\n90 90 90\n"
                                     "Na 1 0 0 0\nCl 1 0.5 0.5 0.5</CIF>")
        assert row.parse_status == "parse_error"
        assert "line 2" in row.error
        assert row.r_target == 0.0

    @pytest.mark.parametrize("coord", ["nan", "inf"])
    def test_nonfinite_coordinate_is_parse_error(self, tmp_path, coord):
        row = self.run_one(tmp_path, "<CIF>P1\n5.6 5.6 5.6\n90 90 90\n"
                                     f"Na 1 0 0 0\nCl 1 {coord} 0.5 0.5</CIF>")
        assert row.parse_status == "parse_error"
        assert row.r_target == 0.0

    def test_out_of_range_prompt_spacegroup_is_parse_error(self, tmp_path, cscl):
        row = self.run_one(tmp_path, write_ciflite(cscl),
                           prompt="The space-group number is 999.")
        assert row.parse_status == "parse_error"
        assert row.r_target == 0.0


    def test_oversized_integers_are_parse_errors(self, tmp_path):
        """A space-group number or site count of more digits than ``int``
        converts fails its own sample and leaves every other row as it was."""
        records = synthetic_samples(10)
        cif = records[0]["response_text"]
        bad = [dict(records[0], prompt_id="big-sg",
                    prompt_text=f"The space-group number is {'2' * 5000}."),
               dict(records[0], prompt_id="big-count",
                    response_text=cif.replace("Cl 1 ", f"Cl {'1' * 5000} ", 1))]
        runs = []
        for name, batch in (("plain", records), ("grown", records[:3] + bad + records[3:])):
            path = tmp_path / f"{name}.jsonl"
            write_jsonl(path, batch)
            cfg = RunConfig(samples_path=str(path), output_dir=str(tmp_path / name),
                            relax_before_hull=False)
            runs.append(run_evaluation(cfg)[1])
        plain, grown = runs
        assert len(grown) == len(plain) + 2
        for row in grown[3:5]:
            assert row.parse_status == "parse_error"
            assert "5000 characters" in row.error
            assert row.r_target == 0.0
        assert "line 8" in grown[4].error  # the first Cl site
        kept = grown[:3] + grown[5:]
        assert [dataclasses.replace(r, index=0) for r in kept] == \
            [dataclasses.replace(r, index=0) for r in plain]


class TestTimeout:
    def test_deadline_holds_inside_relaxation(self, monkeypatch, rocksalt, tmp_path):
        """A zero budget ends the relaxation after its first merged
        evaluation."""
        calls = []
        evaluate = energetics.PairKernel.__call__

        def counted(kernel, cells, carts):
            calls.append(1)
            return evaluate(kernel, cells, carts)

        monkeypatch.setattr(energetics.PairKernel, "__call__", counted)
        rng = random.Random(3)
        s = make_structure(
            (11.28, 11.28, 11.28, 90, 90, 90),
            [(site.element,
              tuple((x + d) / 2 + rng.uniform(-0.01, 0.01)
                    for x, d in zip(site.frac_coords, (dx, dy, dz))))
             for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)
             for site in rocksalt.sites])
        assert s.num_sites == 64
        path = tmp_path / "samples.jsonl"
        write_jsonl(path, [sample_record("p0", s, "NaCl")])
        _, rows = run_evaluation(RunConfig(samples_path=str(path), timeout_s=0.0))
        assert rows[0].error == "timeout"
        assert rows[0].e_hull is None
        assert rows[0].structural == 1
        assert len(calls) <= 1

    def test_budget_holds_per_sample_in_a_shared_relaxation(self, monkeypatch, tmp_path):
        """On a clock that a merged evaluation advances by one tick per
        site it evaluates, cells that each finish within ``timeout_s``
        alone also finish together, and a budget one of them runs out of
        alone times that one out together too."""
        clock = [0.0]
        evaluate = energetics.PairKernel.__call__
        relax = energetics.relax_positions
        relaxed_at = []

        def ticking(kernel, cells, carts):
            clock[0] += sum(len(cart) for cart in carts)
            return evaluate(kernel, cells, carts)

        def timed_relax(*args, **kwargs):
            result = relax(*args, **kwargs)
            relaxed_at.append(clock[0])
            return result

        monkeypatch.setattr(energetics.PairKernel, "__call__", ticking)
        monkeypatch.setattr(energetics, "relax_positions", timed_relax)
        monkeypatch.setattr(energetics, "time", SimpleNamespace(monotonic=lambda: clock[0]))
        records = [sample_record(f"p{k}", _rocksalt(5.5 + 0.05 * k, 0.01 * (k + 1)), "NaCl")
                   for k in range(4)]

        def evaluate_batch(batch, timeout_s):
            path = tmp_path / "samples.jsonl"
            write_jsonl(path, batch)
            _, rows = run_evaluation(RunConfig(samples_path=str(path), timeout_s=timeout_s))
            return rows

        # each cell's relaxation time alone, in ticks
        needs = []
        for record in records:
            clock[0] = 0.0
            (row,) = evaluate_batch([record], 1e9)
            assert row.error == "" and row.e_hull is not None
            needs.append(relaxed_at[-1])
        assert len(set(needs)) > 1
        clock[0] = 0.0
        rows = evaluate_batch(records, max(needs) + 1.0)
        assert [r.error for r in rows] == [""] * len(records)
        # The shared relaxation outlasts the budget, so a deadline for the
        # whole of it would have timed cells out.
        assert relaxed_at[-1] > 2 * max(needs)
        short = sorted(needs)[-2] + 1.0
        rows = evaluate_batch(records, short)
        assert [r.error == "timeout" for r in rows] == [n >= short for n in needs]


class TestEmit:
    def test_writes_artifacts(self, samples_path, tmp_path):
        out = tmp_path / "out"
        cfg = RunConfig(samples_path=samples_path, output_dir=str(out),
                        relax_before_hull=False)
        report, rows = run_evaluation(cfg)
        paths = emit_report(report, rows, str(out))
        assert set(paths) == {"metrics.csv", "metrics.md", "samples.csv"}
        for p in paths.values():
            assert open(p).read().strip()

    def test_csv_none_rendering(self):
        from crysalign.harness import EvaluationRow
        row = EvaluationRow(index=0, prompt_id="p", parse_status="no_cif")
        text = rows_to_csv([row])
        header, line = text.strip().splitlines()
        fields = dict(zip(header.split(","), line.split(",")))
        assert fields["e_hull"] == ""
        assert fields["parse_status"] == "no_cif"


class TestCli:
    def test_usage_error(self):
        from crysalign.cli import main
        assert main(["evaluate", "--no-such-flag"]) == EXIT_USAGE

    def test_missing_input(self, tmp_path):
        from crysalign.cli import main
        assert main(["evaluate", "--samples", "/nonexistent.jsonl",
                     "--out", str(tmp_path)]) == EXIT_INPUT

    @pytest.mark.parametrize("line", [
        "123",
        '"prompt_id prompt_text response_text"',
        '{"prompt_id": "", "prompt_text": "x", "response_text": "y"}',
    ], ids=["number", "string", "empty-id"])
    def test_sample_line_that_is_no_record_is_input_error(self, tmp_path, capsys, line):
        from crysalign.cli import main
        path = tmp_path / "samples.jsonl"
        path.write_text(line + "\n")
        assert main(["evaluate", "--samples", str(path),
                     "--out", str(tmp_path / "out")]) == EXIT_INPUT
        assert capsys.readouterr().err.strip().endswith("(line 1)")

    def test_malformed_samples_name_path_and_line(self, tmp_path, capsys):
        from crysalign.cli import main
        path = tmp_path / "samples.jsonl"
        path.write_text("123\n")
        assert main(["evaluate", "--samples", str(path),
                     "--out", str(tmp_path / "out")]) == EXIT_INPUT
        assert capsys.readouterr().err.strip() == (
            f"{path}: sample must be a JSON object (line 1)")

    def test_samples_not_utf8_is_input_error(self, tmp_path, capsys):
        from crysalign.cli import main
        path = tmp_path / "samples.jsonl"
        path.write_bytes(b"\xff\xfe\n")
        assert main(["evaluate", "--samples", str(path),
                     "--out", str(tmp_path / "out")]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"{path} is not UTF-8: ")

    def test_reference_not_utf8_is_input_error(self, samples_path, tmp_path, capsys):
        from crysalign.cli import main
        ref = tmp_path / "ref.txt"
        ref.write_bytes(b"<CIF>\xff</CIF>\n")
        ini = tmp_path / "run.ini"
        ini.write_text(f"[run]\nsamples_path = {samples_path}\n"
                       f"reference_structures_path = {ref}\n")
        assert main(["evaluate", "--config", str(ini),
                     "--out", str(tmp_path / "out")]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"{ref} is not UTF-8: ")

    def test_malformed_reference_is_input_error(self, samples_path, tmp_path):
        from crysalign.cli import main
        ref = tmp_path / "ref.txt"
        ref.write_text("<CIF>P1\n-5.6 5.6 5.6\n90 90 90\nNa 1 0 0 0</CIF>\n")
        ini = tmp_path / "run.ini"
        ini.write_text(f"[run]\nsamples_path = {samples_path}\n"
                       f"reference_structures_path = {ref}\n")
        assert main(["evaluate", "--config", str(ini),
                     "--out", str(tmp_path / "out")]) == EXIT_INPUT

    def test_malformed_reference_names_path_and_file_line(self, samples_path, tmp_path,
                                                          capsys):
        from crysalign.cli import main
        ref = tmp_path / "ref.txt"
        good = "<CIF>P1\n5.6 5.6 5.6\n90 90 90\nNa 1 0 0 0</CIF>\n"
        # The second cell's lengths are on file line 6, its chunk's line 3.
        ref.write_text(good + good.replace("5.6 5.6", "-5.6 5.6", 1))
        ini = tmp_path / "run.ini"
        ini.write_text(f"[run]\nsamples_path = {samples_path}\n"
                       f"reference_structures_path = {ref}\n")
        assert main(["evaluate", "--config", str(ini),
                     "--out", str(tmp_path / "out")]) == EXIT_INPUT
        assert capsys.readouterr().err.strip() == (
            f"{ref}: lattice length a must be > 0 (line 6)")

    def test_evaluate_ok(self, samples_path, tmp_path, capsys):
        from crysalign.cli import main
        code = main(["evaluate", "--samples", samples_path,
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        assert (tmp_path / "out" / "metrics.csv").exists()

    def test_validate_subcommand(self, tmp_path, cscl, capsys):
        from crysalign.cli import main
        path = tmp_path / "cell.txt"
        path.write_text(write_ciflite(cscl))
        assert main(["validate", str(path)]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["structural"] is True

    def test_symmetry_subcommand(self, tmp_path, cscl, capsys):
        from crysalign.cli import main
        path = tmp_path / "cell.txt"
        path.write_text(write_ciflite(cscl))
        assert main(["symmetry", str(path)]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["number"] == 221
        assert out["n_operations"] == 48

    def test_cli_import_leaves_scipy_out(self):
        """The hull runs on the in-package simplex and the pair search on
        numpy, so no evaluating process pays for any scipy module."""
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import crysalign.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run([sys.executable, "-c", code, src],
                              capture_output=True, text=True, check=True, timeout=60)
        assert done.stdout.strip() == "[]"

    def test_reward_subcommand(self, capsys):
        from crysalign.cli import main
        assert main(["reward", "--ehull", "1.0"]) == EXIT_OK
        assert float(capsys.readouterr().out.strip()) == pytest.approx(0.5)

    def _batch_file(self, path, structures):
        path.write_text("\n".join(write_ciflite(s) for s in structures) + "\n")
        return str(path)

    def test_metrics_subcommand(self, tmp_path, rocksalt, cscl, hcp_mg, capsys):
        from crysalign import metrics
        from crysalign.cli import main
        batch = [rocksalt, cscl, rocksalt, hcp_mg]
        path = self._batch_file(tmp_path / "batch.txt", batch)
        assert main(["metrics", path]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        parsed = harness._load_reference(path)
        uniq, _, _ = metrics.discovery_rates(parsed, [None] * 4, [])
        assert out == {"count": 4, "uniqueness": uniq}
        assert uniq == pytest.approx(0.75)

    def test_metrics_subcommand_with_reference(self, tmp_path, rocksalt, cscl,
                                               hcp_mg, capsys):
        from crysalign import metrics
        from crysalign.cli import main
        path = self._batch_file(tmp_path / "batch.txt", [rocksalt, cscl, rocksalt, hcp_mg])
        ref = self._batch_file(tmp_path / "ref.txt", [cscl])
        assert main(["metrics", path, "--reference", ref]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        parsed = harness._load_reference(path)
        uniq, nov, _ = metrics.discovery_rates(parsed, [None] * 4,
                                               harness._load_reference(ref))
        assert out == {"count": 4, "uniqueness": uniq, "novelty": nov}
        assert nov == pytest.approx(0.75)

    def test_readers_close_their_files(self, tmp_path, rocksalt, capsys):
        from crysalign.cli import main
        path = self._batch_file(tmp_path / "one.txt", [rocksalt])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert len(harness._load_reference(path)) == 1
            for command in ("validate", "symmetry", "trace"):
                main([command, path])
            gc.collect()
        capsys.readouterr()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_truncated_last_reference_block_is_input_error(self, samples_path, tmp_path,
                                                           capsys):
        """A last block without its closing marker is an error at the line of
        its opening marker, not a structure parsed from what is there."""
        from crysalign.cli import main
        path = tmp_path / "batch.txt"
        good = "<CIF>P1\n5.6 5.6 5.6\n90 90 90\nNa 1 0 0 0\nCl 1 0.5 0.5 0.5</CIF>\n"
        path.write_text(good + "<CIF>P1\n4 4 4\n90 90 90\nNa 1 0 0 0\n")
        want = f"{path}: missing </CIF> marker (line 6)"
        with pytest.raises(ciflite.ParseError) as info:
            harness._load_reference(str(path))
        assert (str(info.value), info.value.line) == (want, 6)
        assert main(["metrics", str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err.strip() == want
        with pytest.raises(InputError, match="missing </CIF> marker"):
            run_evaluation(RunConfig(samples_path=samples_path,
                                     reference_structures_path=str(path)))

    def test_metrics_subcommand_empty_batch(self, tmp_path):
        from crysalign.cli import main
        path = tmp_path / "batch.txt"
        path.write_text("no structures here\n")
        assert main(["metrics", str(path)]) == EXIT_INPUT

    def test_hull_subcommand(self, capsys):
        from crysalign.cli import main
        assert main(["hull", "--formula", "NaCl", "--energy", "-1.5"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        result = energetics.energy_above_hull(
            energetics.PhaseEntry(Composition.from_formula("NaCl"), -1.5, "candidate"),
            list(energetics.load_reference_phases()))
        assert out == {
            "e_hull": result.e_hull,
            "stable": energetics.is_stable(max(result.e_hull, 0.0)),
            "decomposition": [{"label": p.label, "weight": w}
                              for p, w in result.decomposition],
        }
        assert out["e_hull"] == pytest.approx(0.6)
        assert out["stable"] is False

    def test_hull_subcommand_uncovered_element(self, capsys):
        from crysalign.cli import main
        assert main(["hull", "--formula", "XeF2", "--energy", "-1.0"]) == EXIT_INPUT
        assert "Xe" in capsys.readouterr().err

    # Each input below used to end in a traceback with the usage exit code.
    def _doubled_rocksalt(self, path, trace=None):
        """A cell that lists Na and Cl twice each: detection rejects it."""
        cell = make_structure((5.64, 5.64, 5.64, 90, 90, 90),
                              [("Na", (0.0, 0.0, 0.0)), ("Na", (0.0, 0.0, 0.0)),
                               ("Cl", (0.5, 0.5, 0.5)), ("Cl", (0.5, 0.5, 0.5))])
        path.write_text((trace + "\n" if trace else "") + write_ciflite(cell))
        return str(path)

    def _input_error(self, capsys, argv, words):
        from crysalign.cli import main
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert err and "\n" not in err and words in err

    def test_symmetry_subcommand_rejected_cell(self, tmp_path, capsys):
        path = self._doubled_rocksalt(tmp_path / "cell.txt")
        self._input_error(capsys, ["symmetry", path], "identity operation missing")

    def test_trace_subcommand_rejected_cell(self, tmp_path, capsys):
        path = self._doubled_rocksalt(tmp_path / "cell.txt", "There are 2 Na atoms.")
        self._input_error(capsys, ["trace", path], "identity operation missing")

    def test_trace_subcommand_unbalanced_charge(self, tmp_path, rocksalt, capsys):
        path = tmp_path / "response.txt"
        path.write_text("The charge balance is 4*(+1)+4*(+1)=0.\n" + write_ciflite(rocksalt))
        self._input_error(capsys, ["trace", str(path)], "charge")

    def test_hull_subcommand_malformed_formula(self, capsys):
        self._input_error(capsys, ["hull", "--formula", "Qq2", "--energy", "-1.0"], "Qq")

    @pytest.mark.parametrize("iterations", ["0", "-3"])
    def test_grpo_demo_without_iterations_is_usage_error(self, tmp_path, capsys,
                                                          iterations):
        from crysalign.cli import main
        log = tmp_path / "log.csv"
        assert main(["grpo-demo", "--iterations", iterations,
                     "--out", str(log)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == "--iterations must be >= 1"
        assert not log.exists()

    def test_validate_subcommand_malformed_formula(self, tmp_path, rocksalt, capsys):
        path = tmp_path / "cell.txt"
        path.write_text(write_ciflite(rocksalt))
        self._input_error(capsys, ["validate", str(path), "--formula", "Na1Cl1x"],
                          "Na1Cl1x")
