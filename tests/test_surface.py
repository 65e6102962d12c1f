"""What the package promises from outside: its exported names and its text formats."""

from __future__ import annotations

import hashlib
import json

import pytest

import ftfp
from ftfp.cli import main

PUBLIC = [
    "BudgetExceededError",
    "CappedInstance",
    "Decomposition",
    "DualityReport",
    "DualSolution",
    "EXACT",
    "FractionalSolution",
    "GenParams",
    "GREEDY",
    "InfeasibleError",
    "Instance",
    "IntegralSolution",
    "LinearProgram",
    "LpInfeasibleError",
    "ParseError",
    "SimplexError",
    "SolveReport",
    "SolveTrace",
    "Subroutine",
    "build_lp",
    "check_duality",
    "combine",
    "decompose_large",
    "decompose_reduce",
    "generate",
    "optimal_assignment",
    "parse_instance",
    "parse_report",
    "parse_solution",
    "report_to_json",
    "residual_instance",
    "serialize_instance",
    "serialize_solution",
    "snap",
    "solution_cost",
    "solve_exact",
    "solve_greedy",
    "solve_large",
    "solve_lp",
    "solve_oracle",
    "solve_reduce",
    "solve_trace",
    "subroutine",
    "to_capped",
    "trim_surplus",
    "trim_to_demand",
    "validate",
    "verify_solution",
]


def test_public_names_are_exactly_the_listed_ones():
    # adding or removing an export has to touch this list on purpose
    assert ftfp.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(ftfp, name) is not None, name


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
    "s7.caps.lp": "8a7b27c6d23ab08449db5c6bd5b1c83629bd16066a778aa1e0c7132ac2911068",
    "s7.ftfp": "fd290758fa68c690d351539d9a7e13126af2f8b9b21acc3b9a5597e49520b435",
    "s7.large.dec": "51dbc90399c92d6bffab634a7b85c628d236fbc00d7855d4af7fbd526afc0c54",
    "s7.large.sol": "8400635d22585166a673d4c089c855b96fe20c3890924c5b9510ae850a0f5481",
    "s7.lp": "d22d607f6e5be6d506bf28cbdfe1fe0ba268723a34735963183210440536c7e9",
    "s7.reduce.dec": "1e75a41bd03b15caad71790a599560367a061858bcb6666a7666acf825bf5a73",
    "s7.reduce.sol": "8400635d22585166a673d4c089c855b96fe20c3890924c5b9510ae850a0f5481",
    "s100.caps.lp": "fb1c9dc962b2d5d6a18688de6a7d36fb8156b5ab88819487bae56eab7710466b",
    "s100.ftfp": "6066f2e759ce741ae7ade756c6ac0214eae557c1511eeaad3d4cb82eeaa5a5ad",
    "s100.large.dec": "d201d8f1b085d4ca510b6d9943063f36d1af0bd167da65b0450cd2a8137d1e7f",
    "s100.large.sol": "89c7208cbcda52e6634c9a139d8a8d93309c8217c5f3f248cc2b34b89519fafe",
    "s100.lp": "50422f094d5350d2ad1c0abbcae8457498e4b62f8813e4c88af48cb38f27fe41",
    "s100.reduce.dec": "be170c1eb3a6a5efaccbd375edd6381f5c52aa8eb66aa6d2fd50a7b397b325d8",
    "s100.reduce.sol": "9e419316470a1ba2d1ebca91525dba0c12e4a222f4d4aaa2e8d453e3cf4978a4",
    "s3.caps.lp": "4518f7a51059dfb1e34378feda6d4dcbbd6656636c9d4df65150bbe42e2ddd48",
    "s3.ftfp": "f40487633bd3db0f16cee5bf9d0eab42e85b4a506c329653e435087bc7c4b402",
    "s3.large.dec": "2b0fd8434a2b5f42d05064376313612433fd51d7089a263d79ed131525d798fe",
    "s3.large.sol": "72df176bd691e3496b6a380e0872fad07dbfc0daf2109f873f908447a3370ef1",
    "s3.lp": "41523831571d1ba3ff65074995cfb3f83d29857ce7b5b901bdeda12b723bf4c9",
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
