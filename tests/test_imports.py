"""Every name a module of the package imports is used in that module."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ftfp

MODULES = sorted(p for p in Path(ftfp.__file__).parent.glob("*.py") if p.name != "__init__.py")
BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"
# Bound only for the benchmark: benchmark/spans.py times the layers by swapping module
# names, and benchmark/workloads.py imports InfeasibleError from ftfl_solvers.
BOUND_FOR_BENCHMARK = {
    ("cli", "decompose_reduce"),
    ("cli", "trim_to_demand"),
    ("ftfl_solvers", "InfeasibleError"),
    ("pipeline", "trim_to_demand"),
}


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


def benchmark_bindings() -> set[tuple[str, str]]:
    """(module, name) pairs benchmark/spans.py swaps (PATCHED_NAMES) or benchmark/workloads.py imports."""
    bound = set()
    for node in ast.walk(ast.parse((BENCHMARK / "spans.py").read_text())):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "PATCHED_NAMES" for t in node.targets):
            for module, names in zip(node.value.keys, node.value.values):
                bound.update((module.id, key.value) for key in names.keys)
    for node in ast.walk(ast.parse((BENCHMARK / "workloads.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ftfp."):
            bound.update((node.module.removeprefix("ftfp."), a.name) for a in node.names)
    return bound


def test_names_bound_for_the_benchmark_are_the_ones_it_reaches():
    # an entry the benchmark no longer swaps or imports is a binding to delete
    stale = BOUND_FOR_BENCHMARK - benchmark_bindings()
    assert not stale, f"no benchmark file reaches {sorted(stale)}: drop the binding and its entry"


def test_importing_the_package_loads_no_front_end_and_no_scipy():
    # the benchmark's setup_s pays for `import ftfp`: the CLI with its argparse and
    # csv loads only when it is asked for, and scipy (a test-only oracle) never
    src = str(Path(ftfp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, ftfp; print(' '.join(sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "ftfp.pipeline" in loaded
    assert not loaded & {"ftfp.cli", "argparse", "csv", "scipy"}
