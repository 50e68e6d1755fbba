"""Seeded end-to-end benchmark of the crysalign evaluation pipeline.

    python3 perfbench/run.py --workload screen --seed 1 --seconds 6 --trace 0

Builds the workload from the seed, writes it where the program can read it,
then, as one closed-loop caller, repeats ``harness.run_evaluation`` followed
by ``harness.emit_report`` on the batch: one untimed warm-up, then timed
repetitions until ``--seconds`` have passed and at least two have run.
Every repetition's rows and batch metrics are checked against the oracles.
With ``--trace 1`` the workload runs with one worker under the span tracer
instead and the per-layer metrics are reported. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

Needs only the standard library, numpy and scipy; ``src/`` is put on the
import path from this file's location, so no install step is needed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import checks
import oracles
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
MIN_TIMED_REPS = 2              # never a single repetition, even when it outlasts --seconds
MIN_DETECT_CALLS = 200          # ten calls beyond the 95th percentile
MIN_TRACED_PAIRS = 3            # untraced and traced passes, for the overhead

# The cold start of a fresh interpreter, as the CLI and every pool worker
# pay it: import, default data tables, space-group signature index.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from crysalign import energetics, harness, validity
from crysalign.symmetry import groups
validity.OxidationTable.load_default()
energetics.PairPotentialBackend.load_default()
energetics.load_reference_phases()
groups.signature_index()
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Session:
    """One workload's inputs, oracle expectations and checked repetitions."""

    def __init__(self, workload, tables, run_dir: Path):
        from crysalign import harness

        self.harness = harness
        self.workload = workload
        self.expected = checks.expectations(workload, tables)
        run_dir.mkdir(parents=True, exist_ok=True)
        samples = run_dir / "samples.jsonl"
        samples.write_text("".join(json.dumps(c.record()) + "\n" for c in workload.cases),
                           encoding="utf-8")
        reference = None
        if workload.reference_text() is not None:
            reference = run_dir / "reference.txt"
            reference.write_text(workload.reference_text(), encoding="utf-8")
        self.out_dir = str(run_dir / "out")
        self.run_dir = run_dir
        self.config = {
            "samples_path": str(samples),
            "output_dir": self.out_dir,
            "reference_structures_path": str(reference) if reference else None,
            "relax_before_hull": workload.relax,
            "timeout_s": workload.timeout_s,
        }
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def repetition(self, worker_count: int) -> float:
        """One timed evaluate-and-emit pass; checked after the clock stops."""
        h = self.harness
        config = h.RunConfig(worker_count=worker_count, **self.config)
        start = time.perf_counter()
        report, rows = h.run_evaluation(config)
        h.emit_report(report, rows, self.out_dir)
        wall = time.perf_counter() - start

        cases = self.workload.cases
        self.attempted += len(cases)
        if len(rows) != len(cases):
            self.problems.append(f"{len(rows)} rows for {len(cases)} samples")
            self.failed += len(cases)
            return wall
        for case, exp, row in zip(cases, self.expected, rows):
            wrong = checks.row_problems(case, exp, row, self.workload.relax)
            if wrong:
                self.failed += 1
                if case.expect not in ("F1", "F2"):
                    self.problems.append(f"{case.prompt_id}: " + "; ".join(wrong))
        self.problems += checks.batch_problems(self.workload, rows, report)
        written = Path(self.out_dir, "samples.csv").read_text(encoding="utf-8")
        if written.count("\n") != len(cases) + 1:
            self.problems.append("samples.csv does not hold one line per sample")
        return wall

    def result(self, metrics: dict) -> dict:
        for line in dict.fromkeys(self.problems):
            print(f"check failed: {line}", file=sys.stderr)
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def measure_setup() -> float:
    runs = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        runs.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(runs)


def peak_rss_mb() -> float:
    """Highest resident set of this process or any waited-for child (pool
    workers), from getrusage (kilobytes on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def timed(session: Session, seconds: float) -> dict:
    session.repetition(session.workload.worker_count)          # warm-up
    walls = []
    start = time.perf_counter()
    while len(walls) < MIN_TIMED_REPS or time.perf_counter() - start < seconds:
        walls.append(session.repetition(session.workload.worker_count))
    n = len(session.workload.cases)
    rates = [n / w for w in walls]
    print(f"{session.workload.name}: {len(walls)} timed repetitions of {n} samples: "
          + " ".join(f"{w:.3f}" for w in walls) + " s", flush=True)
    peak = peak_rss_mb()
    return {
        "samples_per_s": {"value": statistics.median(rates), "unit": "samples/s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
        "setup_s": {"value": measure_setup(), "unit": "s"},
    }


def traced(session: Session, seconds: float) -> dict:
    from crysalign import ciflite, energetics

    tracer = tracing.Tracer()
    # The first traced pass starts cold, so it holds the signature-index build.
    with tracer.installed():
        session.repetition(1)
    index_s = tracing.layer_summary(tracer.spans, 0, len(tracer.spans))[
        "symmetry.signature_index_s"]
    plain, walls, reps = [], [], []
    detect_from = tracer.mark()
    start = time.perf_counter()
    while len(walls) < MIN_TRACED_PAIRS or time.perf_counter() - start < seconds:
        plain.append(session.repetition(1))
        first = tracer.mark()
        with tracer.installed():
            walls.append(session.repetition(1))
        reps.append((first, tracer.mark()))
    layers = [tracing.layer_summary(tracer.spans, a, b) for a, b in reps]
    metrics = {name: statistics.median(r[name] for r in layers) for name in layers[0]}
    metrics["symmetry.signature_index_s"] = index_s
    counted = len(reps) + 1
    for name in ("metrics.match_calls", "energetics.energy_calls", "energetics.force_calls"):
        metrics[name] = tracer.counts[name] / counted

    # Detection latency over the batch's own structures; where the passes
    # made fewer than MIN_DETECT_CALLS calls, detect the parsed structures
    # again in batch order until there are enough for a 95th percentile.
    cells = [ciflite.parse_ciflite(c.response_text) for c in session.workload.cases
             if c.expect == "ok"]
    name = "symmetry.detect_spacegroup"
    with tracer.installed():
        k = 0
        while len(tracing.durations(tracer.spans, name, detect_from)) < MIN_DETECT_CALLS:
            try:
                session.harness.detect_spacegroup(cells[k % len(cells)])
            except Exception:
                pass
            k += 1
    detect = tracing.durations(tracer.spans, name, detect_from)
    metrics["symmetry.detect_p50_ms"] = 1e3 * statistics.median(detect)
    metrics["symmetry.detect_p95_ms"] = 1e3 * tracing.percentile(detect, 95)

    largest = max(cells, key=lambda s: s.num_sites)
    backend = energetics.PairPotentialBackend.load_default()
    tracemalloc.start()
    backend.energy_per_atom(largest)
    metrics["energetics.energy_alloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()

    tracer.dump(session.run_dir / "spans.json")
    untraced, traced_wall = statistics.median(plain), statistics.median(walls)
    cover = statistics.median(tracing.covered(tracer.spans, a, b) for a, b in reps)
    print(f"{session.workload.name}: {len(reps)} traced and {len(plain)} untraced passes "
          f"with one worker; layer spans cover {100 * cover / untraced:.1f}% of the "
          f"untraced wall time ({100 * cover / traced_wall:.1f}% of the traced); "
          f"tracing overhead {100 * (traced_wall / untraced - 1):+.1f}%", flush=True)
    return {name: {"value": float(v), "unit": _unit(name)} for name, v in sorted(metrics.items())}


def _unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_mb", "MB")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "crysalign" / "__init__.py").is_file():
        print(f"perfbench: no crysalign package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tables = oracles.Tables.load(SRC / "crysalign" / "data")
    workload = workloads.WORKLOADS[args.workload](args.seed, tables)
    session = Session(workload, tables, OUT / f"{args.workload}-{args.seed}")
    metrics = (traced if args.trace else timed)(session, args.seconds)
    result = session.result(metrics)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
