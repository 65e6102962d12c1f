"""What the package promises from outside: its exported names and its text formats."""

from __future__ import annotations

import ast
import hashlib
import json
import re
from pathlib import Path

import pytest

import ftfp
from ftfp.cli import main

ROOT = Path(__file__).resolve().parents[1]
PUBLIC = [
    "BudgetExceededError",
    "GenParams",
    "InfeasibleError",
    "Instance",
    "IntegralSolution",
    "SolveReport",
    "generate",
    "solve_large",
    "solve_oracle",
    "solve_reduce",
    "subroutine",
    "verify_solution",
]
# exported though no caller imports them by name: the result type and errors of the solve entry points
ENTRY_POINT_TYPES = {"SolveReport", "BudgetExceededError", "InfeasibleError"}


def readme_example() -> str:
    """The README's fenced python block, the documented library example."""
    (block,) = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    return block


def names_imported_from_ftfp(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "ftfp"
        for alias in node.names
    }


def test_public_names_are_exactly_the_listed_ones():
    # adding or removing an export has to touch this list on purpose
    assert ftfp.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(ftfp, name) is not None, name


def test_readme_example_runs(capsys):
    exec(compile(readme_example(), "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_every_export_has_a_caller_outside_the_tests():
    # an export only tests import belongs in its module, not in the package root
    callers = names_imported_from_ftfp(readme_example())
    for path in sorted((ROOT / "benchmark").rglob("*.py")):
        callers |= names_imported_from_ftfp(path.read_text())
    assert set(ftfp.__all__) - ENTRY_POINT_TYPES <= callers


# sha256 of every text file the CLI writes for three seeded instances,
# recorded on x86-64 with numpy's bundled OpenBLAS.  Another LAPACK may
# round the basis re-solve differently and move the last digits of LP
# values; instance and plan files do not depend on it.
CASES = {
    "s7": (6, 8, 1, 3, 7),
    "s100": (8, 10, 1, 4, 100),
    "s3": (5, 6, 2, 4, 3),
}
DIGESTS = {
    "s7.caps.lp": "11515da220c8515e6f4dbe656ebf84970f6351a8b1c5054258d56a3ebc7361da",
    "s7.ftfp": "fd290758fa68c690d351539d9a7e13126af2f8b9b21acc3b9a5597e49520b435",
    "s7.large.dec": "51dbc90399c92d6bffab634a7b85c628d236fbc00d7855d4af7fbd526afc0c54",
    "s7.large.sol": "8400635d22585166a673d4c089c855b96fe20c3890924c5b9510ae850a0f5481",
    "s7.lp": "d28bb98aa6e071d408df5717918530e441e6bd835c3203914a7672fc7ee8a7d0",
    "s7.reduce.dec": "1e75a41bd03b15caad71790a599560367a061858bcb6666a7666acf825bf5a73",
    "s7.reduce.sol": "8400635d22585166a673d4c089c855b96fe20c3890924c5b9510ae850a0f5481",
    "s100.caps.lp": "14370a60900ca5ff0325cb5ca0f3e6487069b9a8bcde07334538cd530dc509df",
    "s100.ftfp": "6066f2e759ce741ae7ade756c6ac0214eae557c1511eeaad3d4cb82eeaa5a5ad",
    "s100.large.dec": "d201d8f1b085d4ca510b6d9943063f36d1af0bd167da65b0450cd2a8137d1e7f",
    "s100.large.sol": "89c7208cbcda52e6634c9a139d8a8d93309c8217c5f3f248cc2b34b89519fafe",
    "s100.lp": "07fe29c0f55de1cf98501a4f0cd3d2cbfa40163e6bad0d8582352e063d3b779e",
    "s100.reduce.dec": "be170c1eb3a6a5efaccbd375edd6381f5c52aa8eb66aa6d2fd50a7b397b325d8",
    "s100.reduce.sol": "9e419316470a1ba2d1ebca91525dba0c12e4a222f4d4aaa2e8d453e3cf4978a4",
    "s3.caps.lp": "f3170d2d438e44cd548c389e31a3d7cbd5b8806b5db5418e8c5f35d3cf9eca83",
    "s3.ftfp": "f40487633bd3db0f16cee5bf9d0eab42e85b4a506c329653e435087bc7c4b402",
    "s3.large.dec": "2b0fd8434a2b5f42d05064376313612433fd51d7089a263d79ed131525d798fe",
    "s3.large.sol": "72df176bd691e3496b6a380e0872fad07dbfc0daf2109f873f908447a3370ef1",
    "s3.lp": "240c0b5e7ff261cef5c4d04261989e00254090d13e028298f2407e716c5681c6",
    "s3.reduce.dec": "dd9d8524f04512bf33684b5727d4849801707b7fcd3338313fcbf9bc93cf83cc",
    "s3.reduce.sol": "73b0e66ebb5484e541d8d2d3c71b537c951cea95855b094810e21406a835e964",
}


@pytest.mark.parametrize("tag", sorted(CASES))
def test_text_formats_are_pinned(tag, tmp_path, capsys):
    n, m, lo, hi, seed = CASES[tag]
    inst = str(tmp_path / f"{tag}.ftfp")
    runs = [
        ["gen", "--sites", str(n), "--clients", str(m), "--demand-min", str(lo),
         "--demand-max", str(hi), "--seed", str(seed), "--out", inst],
        ["lp", "--in", inst, "--dump", str(tmp_path / f"{tag}.lp")],
        ["lp", "--in", inst, "--caps", "uniform:2", "--dump", str(tmp_path / f"{tag}.caps.lp")],
    ]
    for algo, ftfl in (("reduce", "greedy"), ("large", "exact")):
        base = str(tmp_path / f"{tag}.{algo}")
        runs.append(["solve", "--in", inst, "--algo", algo, "--ftfl", ftfl,
                     "--out", f"{base}.sol", "--dump-decomposition", f"{base}.dec"])
    for argv in runs:
        assert main(argv) == 0, argv
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == {k: v for k, v in DIGESTS.items() if k.startswith(f"{tag}.")}


@pytest.mark.parametrize("tag", sorted(CASES))
def test_lp_objective_is_the_solve_lp_star(tag, tmp_path, capsys):
    # ftfp lp and ftfp solve solve one LP, so they report one bound bit for bit
    n, m, lo, hi, seed = CASES[tag]
    inst, report = str(tmp_path / f"{tag}.ftfp"), tmp_path / f"{tag}.json"
    assert main(["gen", "--sites", str(n), "--clients", str(m), "--demand-min", str(lo),
                 "--demand-max", str(hi), "--seed", str(seed), "--out", inst]) == 0
    capsys.readouterr()
    assert main(["lp", "--in", inst]) == 0
    printed = capsys.readouterr().out.strip()
    assert main(["solve", "--in", inst, "--algo", "reduce", "--ftfl", "greedy", "--report", str(report)]) == 0
    assert printed == f"lp_objective={json.loads(report.read_text())['lp_star']!r}"
