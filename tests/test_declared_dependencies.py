"""Every top-level import under ``src/`` and ``tests/`` is declared.

The package depends on NumPy alone and its ``test`` extra adds pytest
and hypothesis, so a module-level import of anything else (scipy, say)
passes on a developer host that happens to have it installed and stops
test collection on a clean ``.[test]`` install.  Imports nested inside
functions are optional features and are not checked here.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = {"numpy", "pytest", "hypothesis", "repro"}

pytestmark = pytest.mark.skipif(
    not hasattr(sys, "stdlib_module_names"),
    reason="sys.stdlib_module_names needs Python 3.10+")


def top_level_imports(path: Path):
    """Root module names imported at module level (relative imports
    excluded)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def undeclared_imports():
    offenders = []
    for top in ("src", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            local = {p.stem for p in path.parent.glob("*.py")} | {
                p.name for p in path.parent.iterdir() if p.is_dir()}
            for name in top_level_imports(path):
                if (name in sys.stdlib_module_names or name in DECLARED
                        or name in local):
                    continue
                offenders.append(f"{path.relative_to(ROOT)}: {name}")
    return offenders


def test_every_top_level_import_is_declared():
    assert undeclared_imports() == []
