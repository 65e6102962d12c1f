"""The five subcommands and the 0/1/2/3 exit-code contract."""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ftfp import cli, lp_core, pipeline
from ftfp.cli import main
from ftfp.decompose import decompose_large, decompose_reduce
from ftfp.ftfl_solvers import NODE_BUDGET_ENV
from ftfp.instance import GenParams, Instance, generate, parse_instance
from ftfp.lp_core import build_lp, candidate_pairs, solve_lp, trim_to_demand
from ftfp.pipeline import parse_solution

from conftest import INSTANCE_A, random_instance, scaled
from ftfp.instance import serialize_instance


@pytest.fixture
def inst_file(tmp_path):
    path = tmp_path / "a.ftfp"
    path.write_text(serialize_instance(INSTANCE_A))
    return str(path)


# ---------------------------------------------------------------------------
# gen


def test_gen_writes_a_parsable_instance(tmp_path, capsys):
    out = tmp_path / "g.ftfp"
    rc = main([
        "gen", "--sites", "4", "--clients", "3", "--seed", "7",
        "--demand-min", "1", "--demand-max", "3", "--out", str(out),
    ])
    assert rc == 0
    inst = parse_instance(out.read_text())
    assert (inst.n, inst.m) == (4, 3)
    line = capsys.readouterr().out
    assert "n=4 m=3" in line and "seed=7" in line


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.ftfp", tmp_path / "b.ftfp"
    argv = ["gen", "--sites", "3", "--clients", "3", "--seed", "11", "--out"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_gen_rejects_inverted_demand_range(tmp_path):
    rc = main([
        "gen", "--sites", "2", "--clients", "2", "--seed", "0",
        "--demand-min", "3", "--demand-max", "1", "--out", str(tmp_path / "x"),
    ])
    assert rc == 2


@pytest.mark.parametrize("command", ["gen", "bench"])
@pytest.mark.parametrize("bounds", [["--cost-max", "inf"], ["--cost-min", "nan", "--cost-max", "nan"]])
def test_non_finite_cost_bounds_exit_two(command, bounds, tmp_path, capsys):
    out = str(tmp_path / "x")
    tail = ["--out", out] if command == "gen" else ["--trials", "1", "--csv", out]
    rc = main([command, "--sites", "2", "--clients", "2", "--seed", "0", *bounds, *tail])
    assert rc == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# ---------------------------------------------------------------------------
# lp


def test_lp_prints_objective(inst_file, capsys):
    assert main(["lp", "--in", inst_file]) == 0
    assert capsys.readouterr().out.strip() == "lp_objective=8.0"


def test_lp_with_caps(inst_file, capsys):
    assert main(["lp", "--in", inst_file, "--caps", "uniform:1"]) == 0
    assert capsys.readouterr().out.strip() == "lp_objective=16.0"


def test_lp_dump_format(inst_file, tmp_path):
    dump = tmp_path / "lp.txt"
    assert main(["lp", "--in", inst_file, "--dump", str(dump)]) == 0
    lines = dump.read_text().splitlines()
    assert lines[0] == "ftfp-lpsol 1"
    assert lines[1] == "2 1"
    # y row, two x rows, alpha row, two beta rows
    assert len(lines) == 2 + 1 + 2 + 1 + 2


def refuted(*args, **kwargs) -> list[str]:
    """A check_duality that refutes every certificate."""
    return ["duality gap too wide"]


@pytest.mark.parametrize("caps", [[], ["--caps", "uniform:2"]])
def test_lp_failed_certificate_exits_one_before_any_output(inst_file, tmp_path, monkeypatch, capsys, caps):
    monkeypatch.setattr(lp_core, "check_duality", refuted)
    dump = tmp_path / "lp.txt"
    assert main(["lp", "--in", inst_file, *caps, "--dump", str(dump)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "LP of 'a' failed its duality check" in err  # the instance is named after its file
    assert not dump.exists()


@pytest.mark.parametrize("costs", ["1 1", "1e308 1"], ids=["dist", "cost"])
@pytest.mark.parametrize("command", [["lp"], ["solve", "--algo", "reduce"]], ids=["lp", "solve"])
def test_overflowing_values_are_refused_before_any_lp(command, costs, tmp_path, capsys):
    # finite values whose LP value would overflow to inf: refused as bad input
    # when the file is read, with no overflow warning on the way
    path = tmp_path / "huge.ftfp"
    path.write_text(f"ftfp 1\n2 2\n{costs}\n1 1\n1e308 1e308\n1e308 1e308\n")
    assert main([command[0], "--in", str(path), *command[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "values too large" in err


@pytest.mark.parametrize("demand, code", [(2**53, 0), (2**53 + 1, 2)])
def test_demands_above_two_to_the_53_are_refused(demand, code, tmp_path, capsys):
    # the LP takes demands as float64: 2^53 + 1 would reach it as 2^53, and the
    # plan would cost more than the chain bound proven from that LP value
    path, report = tmp_path / "big.ftfp", tmp_path / "report.json"
    path.write_text(f"ftfp 1\n2 2\n1.5 2.5\n{demand} 7\n0.3 0.7\n0.6 0.2\n")
    argv = ["solve", "--in", str(path), "--algo", "reduce", "--ftfl", "greedy", "--report", str(report)]
    assert main(argv) == code
    out, err = capsys.readouterr()
    if code:
        assert out == "" and "demands[0] = 9007199254740993 violates" in err
    else:
        assert json.loads(report.read_text())["chain_slack"] >= 0.0


def test_lp_dump_is_zero_off_candidate_pairs(tmp_path):
    inst = random_instance(7, sites=6, clients=8)
    path = tmp_path / "s7.ftfp"
    path.write_text(serialize_instance(inst))
    dump = tmp_path / "s7.lp"
    assert main(["lp", "--in", str(path), "--dump", str(dump)]) == 0
    rows = [np.array(line.split(), dtype=float) for line in dump.read_text().splitlines()[2:]]
    n = inst.n
    x, beta = np.array(rows[1 : 1 + n]), np.array(rows[2 + n :])
    kept = candidate_pairs(inst)
    assert not kept.all()  # the mask drops some pairs here
    assert not x[~kept].any() and not beta[~kept].any()


def test_lp_rejects_bad_caps_syntax(inst_file):
    assert main(["lp", "--in", inst_file, "--caps", "each:3"]) == 2
    assert main(["lp", "--in", inst_file, "--caps", "uniform:x"]) == 2


def test_lp_negative_caps_are_a_usage_error(inst_file, capsys):
    assert main(["lp", "--in", inst_file, "--caps", "uniform:-1"]) == 2
    assert "caps[0] = -1.0 violates caps finite and >= 0" in capsys.readouterr().err


def test_lp_caps_beyond_the_float_range_are_a_usage_error(inst_file, capsys):
    assert main(["lp", "--in", inst_file, "--caps", "uniform:" + "9" * 400]) == 2
    assert "caps must fit in a float, got a 400-digit K" in capsys.readouterr().err


def test_lp_infeasible_caps_exit_code(inst_file, capsys):
    # demand 2 against caps that sum to 0: the cover rule refuses them before any LP
    assert main(["lp", "--in", inst_file, "--caps", "uniform:0"]) == 2
    assert "client 0 needs 2 distinct facilities, caps sum to 0.0" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# solve


def test_solve_reduce_exact(inst_file, tmp_path, capsys):
    out, rep = tmp_path / "a.sol", tmp_path / "a.json"
    rc = main([
        "solve", "--in", inst_file, "--algo", "reduce", "--ftfl", "exact",
        "--out", str(out), "--report", str(rep),
    ])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "algo=reduce cost_total=8.0" in stdout
    y, x = parse_solution(out.read_text())
    assert np.array_equal(y, [2, 0])
    data = json.loads(rep.read_text())
    assert data["cost_total"] == 8.0
    assert data["ratio_total"] == 1.0


def test_solve_oracle(inst_file, capsys):
    assert main(["solve", "--in", inst_file, "--algo", "oracle"]) == 0
    assert "algo=oracle cost_total=8.0" in capsys.readouterr().out


def test_solve_dump_decomposition(inst_file, tmp_path):
    dump = tmp_path / "dec.txt"
    rc = main([
        "solve", "--in", inst_file, "--algo", "reduce", "--dump-decomposition", str(dump),
    ])
    assert rc == 0
    lines = dump.read_text().splitlines()
    assert lines[0] == "ftfp-dec 1"
    assert lines[1] == "2 1"
    assert lines[2] == "1 0"  # yhat holds one facility back


@pytest.mark.parametrize("algo", ["reduce", "large"])
def test_solve_dump_is_the_decomposition_of_the_lp_optimum(algo, tmp_path):
    inst = random_instance(31, sites=6, clients=8, demand_min=1, demand_max=4)
    path = tmp_path / "r.ftfp"
    path.write_text(serialize_instance(inst))
    dump, rep = tmp_path / "dec.txt", tmp_path / "rep.json"
    rc = main([
        "solve", "--in", str(path), "--algo", algo, "--ftfl", "greedy",
        "--report", str(rep), "--dump-decomposition", str(dump),
    ])
    assert rc == 0
    # reference: decompose the LP optimum afresh and format it the same way
    frac = trim_to_demand(solve_lp(build_lp(inst))[0], inst)
    dec = (decompose_reduce if algo == "reduce" else decompose_large)(frac, inst)
    assert dump.read_text() == decomposition_file(inst, dec)
    counters = json.loads(rep.read_text())["counters"]
    kept = int(candidate_pairs(inst).sum())
    assert (counters["lp"]["rows"], counters["lp"]["cols"]) == (inst.n + inst.m, inst.m + kept)
    assert counters["lp"]["pivots"] > 0


def decomposition_file(inst, dec) -> str:
    """The text solve --dump-decomposition writes for dec."""
    want = ["ftfp-dec 1", f"{inst.n} {inst.m}", " ".join(str(int(v)) for v in dec.yhat)]
    want += [" ".join(str(int(v)) for v in row) for row in dec.xhat]
    want.append(" ".join(repr(float(v)) for v in dec.ybar))
    want += [" ".join(repr(float(v)) for v in row) for row in dec.xbar]
    return "\n".join(want) + "\n"


def test_dump_is_the_decomposition_on_the_report_solve_returns(tmp_path, monkeypatch, capsys):
    # a wrapper of cli.solve_reduce that rebuilds the report with dataclasses.replace,
    # as the benchmark's tampering stubs do, still hands the decomposition through
    inst = random_instance(32, sites=6, clients=8, demand_min=1, demand_max=4)
    path = tmp_path / "r.ftfp"
    path.write_text(serialize_instance(inst))
    seen = []

    def rewritten(inst, sub):
        sol, report = pipeline.solve_reduce(inst, sub)
        seen.append(report)
        return sol, dataclasses.replace(report, cost_total=12.5)

    monkeypatch.setattr(cli, "solve_reduce", rewritten)
    dump, rep = tmp_path / "dec.txt", tmp_path / "rep.json"
    rc = main([
        "solve", "--in", str(path), "--ftfl", "greedy",
        "--report", str(rep), "--dump-decomposition", str(dump),
    ])
    assert rc == 0
    assert "cost_total=12.5 " in capsys.readouterr().out  # the rewritten report is the one used
    (report,) = seen
    assert report.decomposition is not None
    assert dump.read_text() == decomposition_file(inst, report.decomposition)
    data = json.loads(rep.read_text())
    assert "decomposition" not in data and data["cost_total"] == 12.5


def test_oracle_report_carries_no_decomposition(inst_file, tmp_path, monkeypatch):
    seen = []

    def recorded(inst):
        sol, report = pipeline.solve_oracle(inst)
        seen.append(report)
        return sol, report

    monkeypatch.setattr(cli, "solve_oracle", recorded)
    rep = tmp_path / "rep.json"
    assert main(["solve", "--in", inst_file, "--algo", "oracle", "--report", str(rep)]) == 0
    assert seen[0].decomposition is None
    assert "decomposition" not in json.loads(rep.read_text())


def test_solve_failed_certificate_exits_one(inst_file, monkeypatch, capsys):
    monkeypatch.setattr(lp_core, "check_duality", refuted)
    assert main(["solve", "--in", inst_file, "--algo", "reduce"]) == 1
    assert "duality check" in capsys.readouterr().err


def test_solve_singular_final_basis_exits_one(inst_file, monkeypatch, capsys):
    def singular(*_):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    assert main(["solve", "--in", inst_file, "--algo", "reduce"]) == 1
    assert "final basis" in capsys.readouterr().err


def test_solve_at_a_large_cost_unit_plans_the_unit_scale_plan(tmp_path):
    # the simplex's pivot tolerance is absolute: unless the LP is normalised by a power of
    # two, seed 11 with f and d times 1e12 meets an unbounded dual and exits 1
    plans = []
    for s in (1.0, 1e12):
        path, out = tmp_path / f"x{s:g}.ftfp", tmp_path / f"x{s:g}.sol"
        path.write_text(serialize_instance(scaled(generate(GenParams(8, 10, 1, 4, 11)), s)))
        assert main(["solve", "--in", str(path), "--algo", "oracle", "--out", str(out)]) == 0
        plans.append(parse_solution(out.read_text()))
    (y1, x1), (y2, x2) = plans
    assert np.array_equal(y1, y2) and np.array_equal(x1, x2)


def test_oracle_refuses_decomposition_dump(inst_file, tmp_path):
    rc = main([
        "solve", "--in", inst_file, "--algo", "oracle",
        "--dump-decomposition", str(tmp_path / "dec.txt"),
    ])
    assert rc == 2


def test_solve_large_rejects_zero_demand(tmp_path):
    path = tmp_path / "z.ftfp"
    path.write_text("ftfp 1\n1 1\n1.0\n0\n1.0\n")
    assert main(["solve", "--in", str(path), "--algo", "large"]) == 2


def test_solve_demand_beyond_int64_is_usage_error(tmp_path, capsys):
    path = tmp_path / "huge.ftfp"
    path.write_text(f"ftfp 1\n1 1\n1.0\n{10**30}\n1.0\n")
    assert main(["solve", "--in", str(path)]) == 2
    assert "line 4: demand must be >= 0 and below 2^63" in capsys.readouterr().err


def test_solve_budget_exhaustion_exit_code(inst_file, monkeypatch):
    monkeypatch.setenv(NODE_BUDGET_ENV, "2")
    rc = main(["solve", "--in", inst_file, "--algo", "oracle"])
    assert rc == 3


def test_default_exact_solve_plans_on_the_benchmark_shape(tmp_path, monkeypatch, capsys):
    # 15x20 with demands 1-5: the residual search visits a few hundred nodes,
    # far below the default budget, whatever the size of its space
    monkeypatch.delenv(NODE_BUDGET_ENV, raising=False)
    path = tmp_path / "s7.ftfp"
    path.write_text(serialize_instance(random_instance(7, 15, 20, demand_min=1, demand_max=5)))
    assert main(["solve", "--in", str(path)]) == 0
    assert capsys.readouterr().out.startswith("algo=reduce ")


@pytest.mark.parametrize("sites,code", [(400, 0), (1200, 3)])
def test_a_search_deeper_than_the_recursion_limit_is_refused(sites, code, tmp_path, capsys):
    # the oracle's search recurses once per site; past Python's recursion
    # limit it is refused like an overrun node budget, not crashed
    path = tmp_path / "deep.ftfp"
    assert main(["gen", "--sites", str(sites), "--clients", "2", "--seed", "7", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["solve", "--in", str(path), "--algo", "oracle"]) == code
    err = capsys.readouterr().err
    assert ("recursion limit" in err) == (code == 3)


def test_running_out_of_memory_exits_three(inst_file, monkeypatch, capsys):
    def no_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "build_lp", no_memory)
    assert main(["lp", "--in", inst_file]) == 3
    assert capsys.readouterr().err == "error: out of memory\n"


# ---------------------------------------------------------------------------
# verify


def test_verify_accepts_solver_output(inst_file, tmp_path, capsys):
    sol = tmp_path / "a.sol"
    assert main(["solve", "--in", inst_file, "--out", str(sol)]) == 0
    capsys.readouterr()
    assert main(["verify", "--in", inst_file, "--sol", str(sol)]) == 0
    assert capsys.readouterr().out.strip() == "ok cost=8.0"


def test_verify_rejects_tampered_solution(inst_file, tmp_path, capsys):
    sol = tmp_path / "a.sol"
    assert main(["solve", "--in", inst_file, "--out", str(sol)]) == 0
    tampered = sol.read_text().replace("2 0", "1 0")  # drop an opening
    sol.write_text(tampered)
    assert main(["verify", "--in", inst_file, "--sol", str(sol)]) == 1
    assert "violation" in capsys.readouterr().err


def test_verify_rejects_wrong_shape(inst_file, tmp_path):
    sol = tmp_path / "b.sol"
    sol.write_text("ftfp-sol 1\n1 1\n1\n1\n")
    assert main(["verify", "--in", inst_file, "--sol", str(sol)]) == 1


def test_verify_malformed_solution_is_usage_error(inst_file, tmp_path):
    sol = tmp_path / "c.sol"
    sol.write_text("ftfp-sol 1\n2 1\nnope\n1\n1\n")
    assert main(["verify", "--in", inst_file, "--sol", str(sol)]) == 2


def test_verify_count_beyond_int64_is_usage_error(inst_file, tmp_path, capsys):
    sol = tmp_path / "d.sol"
    sol.write_text(f"ftfp-sol 1\n2 1\n{10**23} 0\n2\n0\n")
    assert main(["verify", "--in", inst_file, "--sol", str(sol)]) == 2
    assert "line 3: opening count must be >= 0 and below 2^63" in capsys.readouterr().err


def test_verify_counts_connections_without_wrapping(tmp_path, capsys):
    # the column sums to 2^64 + 1, which an int64 sum wraps to the demand 1
    inst = tmp_path / "w.ftfp"
    inst.write_text(serialize_instance(Instance([0.5, 0.5, 0.5], [1], [[0.1], [0.2], [0.3]])))
    counts = [6148914691236517205, 6148914691236517206, 6148914691236517206]
    sol = tmp_path / "w.sol"
    rows = [" ".join(map(str, counts)), *map(str, counts)]  # y, then one row of x per site
    sol.write_text("ftfp-sol 1\n3 1\n" + "".join(f"{row}\n" for row in rows))
    assert main(["verify", "--in", str(inst), "--sol", str(sol)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "violation: client 0 gets 18446744073709551617 connections, demand is 1\n"


# ---------------------------------------------------------------------------
# bench


def test_bench_writes_csv_with_exact_header(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = main([
        "bench", "--sites", "3", "--clients", "3", "--seed", "100",
        "--trials", "4", "--algo", "reduce", "--ftfl", "exact", "--csv", str(out),
    ])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "seed", "n", "m", "R", "P", "algo", "ftfl",
        "lp_star", "cost_total", "rho_sub", "ratio_total", "chain_slack", "wall_ms",
    ]
    assert len(rows) == 5
    assert [r[0] for r in rows[1:]] == ["100", "101", "102", "103"]
    summary = capsys.readouterr().out
    assert "trials=4" in summary and "max_ratio_total=" in summary


def test_bench_zero_trials_writes_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    rc = main([
        "bench", "--sites", "2", "--clients", "2", "--seed", "0",
        "--trials", "0", "--csv", str(out),
    ])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 1


def test_bench_rejects_negative_trials(tmp_path, capsys):
    out = tmp_path / "neg.csv"
    rc = main([
        "bench", "--sites", "2", "--clients", "2", "--seed", "0",
        "--trials", "-5", "--csv", str(out),
    ])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--trials must be >= 0" in captured.err
    assert not out.exists()


def test_bench_is_deterministic_apart_from_timing(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = [
        "bench", "--sites", "3", "--clients", "2", "--seed", "5",
        "--trials", "3", "--csv",
    ]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    strip = lambda text: [row.rsplit(",", 1)[0] for row in text.splitlines()]
    assert strip(a.read_text()) == strip(b.read_text())


# ---------------------------------------------------------------------------
# usage errors


def test_python_dash_m_runs_the_cli():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "ftfp", "--help"], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0
    assert done.stdout.startswith("usage: ftfp ")


def test_unknown_flag_exits_two(inst_file):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--in", inst_file, "--frobnicate"])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["dance"])
    assert exc.value.code == 2


def test_the_parser_is_built_once_per_process(inst_file):
    cli._build_parser.cache_clear()
    assert main(["lp", "--in", inst_file]) == 0
    assert main(["lp", "--in", inst_file, "--caps", "uniform:1"]) == 0
    assert cli._build_parser.cache_info().misses == 1
    with pytest.raises(SystemExit) as exc:  # a usage error after a good call
        main(["lp", "--in", inst_file, "--frobnicate"])
    assert exc.value.code == 2
    assert cli._build_parser.cache_info().misses == 1


def test_missing_instance_file_exits_two(tmp_path):
    assert main(["lp", "--in", str(tmp_path / "nope.ftfp")]) == 2


def test_malformed_instance_file_exits_two(tmp_path):
    path = tmp_path / "bad.ftfp"
    path.write_text("ftfp 9\n1 1\n1\n1\n1\n")
    assert main(["lp", "--in", str(path)]) == 2


def test_invalid_instance_fails_validation(tmp_path, capsys):
    # parses fine but violates the metric condition
    path = tmp_path / "nonmetric.ftfp"
    path.write_text("ftfp 1\n2 2\n1.0 1.0\n1 1\n9.0 0.0\n0.0 0.0\n")
    assert main(["lp", "--in", str(path)]) == 2
    assert "invalid instance" in capsys.readouterr().err
