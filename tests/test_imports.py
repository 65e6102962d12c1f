"""Every name a module of the package imports is used in that module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import ftfp

MODULES = sorted(p for p in Path(ftfp.__file__).parent.glob("*.py") if p.name != "__init__.py")
# bound in cli only so that benchmark/spans.py can swap them for timed wrappers
BOUND_FOR_BENCHMARK = {("cli", "decompose_reduce"), ("cli", "trim_to_demand")}


def imported_names(tree: ast.Module) -> set[str]:
    """Names the module's import statements bind, `from __future__` excepted."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name for name in imported_names(tree) - used if (path.stem, name) not in BOUND_FOR_BENCHMARK}
    assert not unused, f"{path.name} imports {sorted(unused)} without using them"

