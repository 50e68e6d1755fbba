"""The pinned outputs: every golden CSV regenerates to the same bytes, and
every case of the detection and hull dumps to the same digest.

``scripts/golden.py`` wrote ``tests/golden/``; a change that moves outputs
on purpose reruns it, and the ``git diff`` of those files is the record.
"""

import csv
import importlib.util
import io
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "golden.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("golden_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load_script()


def _differences(want: bytes, got: bytes) -> list[str]:
    """One line per differing row: its number, its sample or metric name and
    each column that differs."""
    old = list(csv.reader(io.StringIO(want.decode("utf-8"))))
    new = list(csv.reader(io.StringIO(got.decode("utf-8"))))
    if old[:1] != new[:1]:
        return [f"header {old[:1]} became {new[:1]}"]
    header = old[0]
    key = header.index("prompt_id") if "prompt_id" in header else 0
    lines = [f"{len(old) - 1} rows became {len(new) - 1}"] if len(old) != len(new) else []
    for row, (a, b) in enumerate(zip(old[1:], new[1:]), start=1):
        columns = [f"{header[k]} {x!r} -> {y!r}" for k, (x, y) in enumerate(zip(a, b)) if x != y]
        if columns:
            lines.append(f"row {row} ({a[key]}): " + ", ".join(columns))
    return lines or ["same fields, different bytes (quoting or line endings)"]


@pytest.mark.parametrize("name, seed", golden.CASES,
                         ids=[f"{name}-{seed}" for name, seed in golden.CASES])
def test_outputs_match_golden(name, seed, tmp_path):
    written = golden.generate(name, seed, tmp_path)
    problems = []
    for f, got in written.items():
        want = (golden.GOLDEN / f"{name}-{seed}" / f).read_bytes()
        if got != want:
            problems += [f"{name}-{seed}/{f} {line}" for line in _differences(want, got)]
    assert not problems, "\n".join(problems)


def _check_pin(path: Path, lines: list[str]) -> None:
    """Fail unless ``lines`` are the pin at ``path``, naming every case that
    differs, is missing or is new."""
    want = path.read_text(encoding="utf-8")
    got = "".join(lines)
    if got == want:
        return
    old = dict(line.split("\t") for line in want.splitlines())
    new = dict(line.split("\t") for line in got.splitlines())
    problems = ([f"{name} differs" for name in old if name in new and old[name] != new[name]]
                + [f"{name} missing" for name in old if name not in new]
                + [f"{name} new" for name in new if name not in old])
    assert not problems, f"{len(problems)} cases:\n" + "\n".join(problems)
    pytest.fail("same cases and digests in a different order")


def test_detection_matches_golden():
    """Each detection dump case's line hashes as pinned."""
    _check_pin(golden.DETECTION, golden.detection_lines())


def test_hull_matches_golden():
    """Each hull dump case's line hashes as pinned."""
    _check_pin(golden.HULL, golden.hull_lines())
