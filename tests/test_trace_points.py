"""Every function the benchmark's tracer patches still exists.

``perfbench/tracing.py`` names the package functions it wraps by module and
attribute, so renaming or deleting one of them breaks a traced benchmark
run; this test makes the same rename fail the test suite too.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
POINTS = tracing.SPAN_POINTS + tracing.COUNT_POINTS


@pytest.mark.parametrize("path, attr, name", POINTS, ids=[p[2] for p in POINTS])
def test_trace_point_resolves(path, attr, name):
    assert callable(getattr(tracing._resolve(path), attr, None))
