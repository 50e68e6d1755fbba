"""No module under ``src/``, ``tests/`` or ``scripts/`` imports a name it
never uses.

Package ``__init__`` modules are left out: their imports are re-exports.
A test is named by its path under ``src/`` for a package module and under
the repository root otherwise.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = [p for d in (SRC, ROOT / "tests", ROOT / "scripts")
           for p in sorted(d.rglob("*.py")) if p.name != "__init__.py"]
IDS = [str(p.relative_to(SRC if p.is_relative_to(SRC) else ROOT)) for p in MODULES]


def unused_imports(source: str) -> list[str]:
    """``line <n>: <name>`` for each name an import binds and no expression
    of the module reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        for name in names:
            bound.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_scan_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from math import pi, tau\n"
              "def f(x: np.ndarray) -> float:\n"
              "    return os.path.sep + pi\n")
    assert unused_imports(source) == ["line 4: tau"]


def test_src_modules_are_found():
    assert {p.name for p in MODULES} >= {"detect.py", "groups.py", "structcore.py", "cli.py"}
    assert {"tests/orbit_cells.py", "tests/test_symmetry.py",
            "scripts/compare_detection.py"} <= set(IDS)


@pytest.mark.parametrize("path", MODULES, ids=IDS)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
