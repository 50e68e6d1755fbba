#!/usr/bin/env python3
"""Dump hull energies, one JSON line per case.

Each line holds the case name and either ``repr`` of the hull energy per
atom with the decomposition (label and weight of each phase, in reference
order), or the type and message of the error ``energetics.hull_energy``
raised. Every case is solved against the shipped reference phases. The
cases are:

- the composition of every parseable cell of the ``screen`` and ``relax``
  benchmark workloads of seeds 1-10 (``perfbench/workloads.py``);
- seeded random compositions of 1 to 22 elements over the elements of the
  shipped reference phases, ten of each element count.

The script imports the package from the checkout it sits in, so a change to
the hull is checked by running it in two checkouts and comparing the dumps:

    python3 scripts/compare_hull.py > new.jsonl
    (cd ../parent && python3 scripts/compare_hull.py > old.jsonl)
    diff ../parent/old.jsonl new.jsonl

``scripts/golden.py`` pins a digest of each line in
``tests/golden/hull.txt``, which the tier-1 golden test checks.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
for path in (SRC, ROOT / "perfbench"):
    sys.path.insert(0, str(path))

import oracles  # noqa: E402
import workloads  # noqa: E402
from crysalign import ciflite, energetics  # noqa: E402
from crysalign.structcore import Composition  # noqa: E402

SEEDS = range(1, 11)
RANDOM_PER_COUNT = 10


def cases(refs):
    """(name, composition) for every case, in a fixed order."""
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
                yield f"{name}/{seed}/{k}/{case.prompt_id}", s.composition()
    elements = sorted({e for r in refs for e in r.composition.counts})
    rng = random.Random(0)
    for count in range(1, len(elements) + 1):
        for k in range(RANDOM_PER_COUNT):
            picked = rng.sample(elements, count)
            composition = Composition({e: rng.randint(1, 12) for e in picked})
            yield f"random/{count}/{k}", composition


def result(composition, refs) -> dict:
    try:
        fun, decomposition = energetics.hull_energy(
            tuple(composition.fractions().items()), refs)
    except Exception as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"fun": repr(fun),
            "decomposition": [[r.label, w] for r, w in decomposition]}


def line(name, composition, refs) -> str:
    """The dump line of one case, without its newline."""
    return json.dumps({"case": name, **result(composition, refs)})


def main() -> int:
    refs = energetics.load_reference_phases()
    for name, composition in cases(refs):
        print(line(name, composition, refs), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
