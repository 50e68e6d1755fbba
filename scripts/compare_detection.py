#!/usr/bin/env python3
"""Dump space-group detection results, one JSON line per case.

Each line holds the case name and either the detected number, symbol,
``ambiguous`` flag, orbits (in order) and operations (rotation and
translation, in order), or the type and message of the error detection
raised. The cases are:

- every parseable cell of the ``screen`` and ``relax`` benchmark workloads
  of seeds 1-10 (``perfbench/workloads.py``), at tol 1e-3, 0.1 and 0.3;
- the generic-orbit cells of seeds 0-2 (``tests/orbit_cells.py``) at
  tol 1e-3.

The script imports the package from the checkout it sits in, so a change to
detection is checked by running it in two checkouts and comparing the dumps:

    python3 scripts/compare_detection.py > new.jsonl
    (cd ../parent && python3 scripts/compare_detection.py > old.jsonl)
    diff ../parent/old.jsonl new.jsonl

``scripts/golden.py`` pins a digest of each line in
``tests/golden/detection.txt``, which the tier-1 golden test checks.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
for path in (SRC, ROOT / "perfbench", ROOT / "tests"):
    sys.path.insert(0, str(path))

import oracles  # noqa: E402
import workloads  # noqa: E402
from crysalign import ciflite  # noqa: E402
from crysalign.symmetry import detect_spacegroup  # noqa: E402
from orbit_cells import generic_orbit_cells  # noqa: E402

SEEDS = range(1, 11)
WORKLOAD_TOLS = (1e-3, 0.1, 0.3)
ORBIT_SEEDS = range(3)


def cases():
    """(name, structure, tol) for every case, in a fixed order."""
    tables = oracles.Tables.load(SRC / "crysalign" / "data")
    for name in ("screen", "relax"):
        for seed in SEEDS:
            for k, case in enumerate(workloads.WORKLOADS[name](seed, tables).cases):
                try:
                    _, cif = ciflite.extract_response_parts(case.response_text)
                    if cif is None:
                        continue
                    s = ciflite.parse_ciflite(cif)
                except ciflite.ParseError:
                    continue
                for tol in WORKLOAD_TOLS:
                    yield f"{name}/{seed}/{k}/{case.prompt_id}/{tol}", s, tol
    for seed in ORBIT_SEEDS:
        for number, s in generic_orbit_cells(seed):
            yield f"orbits/{seed}/{number}/1e-3", s, 1e-3


def result(s, tol) -> dict:
    try:
        res = detect_spacegroup(s, tol)
    except Exception as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    ws, ts = res.op_arrays
    return {"number": res.number, "symbol": res.symbol, "ambiguous": res.ambiguous,
            "orbits": res.orbits,
            "operations": [[w, t] for w, t in zip(ws.tolist(), ts.tolist())]}


def line(name, s, tol) -> str:
    """The dump line of one case, without its newline."""
    return json.dumps({"case": name, **result(s, tol)})


def main() -> int:
    for name, s, tol in cases():
        print(line(name, s, tol), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
