#!/usr/bin/env python3
"""Write the golden CSVs: the pinned outputs of the benchmark workloads.

For the ``screen`` and ``relax`` workloads of ``perfbench/workloads.py``,
seeds 1-10, this evaluates each batch with one worker and the workload's own
run settings (relaxation, timeout, reference file) and stores its
``samples.csv`` and ``metrics.csv`` as ``tests/golden/<workload>-<seed>/``.
It also writes ``tests/golden/detection.txt`` and ``tests/golden/hull.txt``:
one line per case of ``scripts/compare_detection.py`` and
``scripts/compare_hull.py``, holding the case name and a SHA-256 prefix of
its JSON line. ``tests/test_golden.py`` regenerates all of them in process
and compares them.

A change that moves outputs on purpose reruns the script in the same commit,
so that the ``git diff`` of ``tests/golden/`` records what moved:

    python3 scripts/golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
for path in (SRC, ROOT / "perfbench", ROOT / "scripts"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import compare_detection  # noqa: E402
import compare_hull  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from crysalign import energetics, harness  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
CASES = [(name, seed) for name in ("screen", "relax") for seed in range(1, 11)]
FILES = ("samples.csv", "metrics.csv")
DETECTION = GOLDEN / "detection.txt"
HULL = GOLDEN / "hull.txt"
# Hex digits of each dump line's SHA-256 kept in a pin.
DIGEST_CHARS = 16


def generate(name: str, seed: int, work_dir: Path) -> dict[str, bytes]:
    """The CSV bytes of one workload batch, evaluated in this process."""
    tables = oracles.Tables.load(SRC / "crysalign" / "data")
    workload = workloads.WORKLOADS[name](seed, tables)
    samples = work_dir / "samples.jsonl"
    samples.write_text("".join(json.dumps(c.record()) + "\n" for c in workload.cases),
                       encoding="utf-8")
    reference = None
    if workload.reference_text() is not None:
        reference = work_dir / "reference.txt"
        reference.write_text(workload.reference_text(), encoding="utf-8")
    out = work_dir / "out"
    config = harness.RunConfig(
        samples_path=str(samples),
        output_dir=str(out),
        reference_structures_path=str(reference) if reference else None,
        relax_before_hull=workload.relax,
        timeout_s=workload.timeout_s,
        worker_count=1,
    )
    report, rows = harness.run_evaluation(config)
    harness.emit_report(report, rows, str(out))
    return {f: (out / f).read_bytes() for f in FILES}


def _pinned(name: str, line: str) -> str:
    """A dump case's pin line: its name and its dump line's digest."""
    return f"{name}\t{hashlib.sha256(line.encode()).hexdigest()[:DIGEST_CHARS]}\n"


def detection_lines() -> list[str]:
    """One pin line per detection dump case."""
    return [_pinned(name, compare_detection.line(name, s, tol))
            for name, s, tol in compare_detection.cases()]


def hull_lines() -> list[str]:
    """One pin line per hull dump case."""
    refs = energetics.load_reference_phases()
    return [_pinned(name, compare_hull.line(name, composition, refs))
            for name, composition in compare_hull.cases(refs)]


def main() -> int:
    for name, seed in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            written = generate(name, seed, Path(tmp))
        target = GOLDEN / f"{name}-{seed}"
        target.mkdir(parents=True, exist_ok=True)
        for f, data in written.items():
            (target / f).write_bytes(data)
    DETECTION.write_text("".join(detection_lines()), encoding="utf-8")
    HULL.write_text("".join(hull_lines()), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
