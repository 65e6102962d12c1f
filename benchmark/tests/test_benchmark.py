"""Self-tests of the benchmark: failure counting, answer checking, tracer hygiene.

Run from the repository root:  python3 -m pytest -q benchmark/tests
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import run as bench_run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import WrongAnswer  # noqa: E402
from ftfp import cli, pipeline  # noqa: E402
from ftfp.ftfl_solvers import NODE_BUDGET_ENV, BudgetExceededError, IntegralSolution, Subroutine, node_budget  # noqa: E402

TINY = {
    "cli-reduce": workloads.Workload("tiny-cli", "cli-reduce", 4, 6, 1, 3, 3, ("greedy", "exact")),
    "oracle": workloads.Workload("tiny-oracle", "oracle", 3, 5, 1, 3, 3, ("oracle",)),
}


def _run(wl, tmp_path, tracer=None):
    run, _ = harness.setup(wl, 7, tmp_path, tracer or spans.Tracer(enabled=False))
    return run


def _one_pass(run, tracer=None):
    return [run.attempt(inp, v, tracer or spans.Tracer(enabled=False)) for inp in run.inputs for v in run.wl.variants]


@pytest.mark.parametrize("kind", sorted(TINY))
def test_every_call_plans_and_passes_the_reference_checks(kind, tmp_path):
    run = _run(TINY[kind], tmp_path)
    attempts = _one_pass(run)
    assert {a.status for a in attempts} == {"plan"}
    run.check_references()
    assert len(run.determinism_lines()) == len(attempts)


def test_a_refusing_subroutine_raises_failed_frac(tmp_path, monkeypatch):
    run = _run(TINY["cli-reduce"], tmp_path)
    assert harness.failed_fractions(_one_pass(run))["refused"] == 0.0

    def refuse(ci):
        raise BudgetExceededError("refused for the test")

    monkeypatch.setattr(cli, "subroutine", lambda kind: Subroutine(kind, refuse))
    fresh = harness.Run(run.wl, run.inputs, run.workdir)
    attempts = _one_pass(fresh)
    assert harness.failed_fractions(attempts) == {"refused": 1.0, "infeasible": 0.0, "invalid": 0.0}
    with pytest.raises(RuntimeError, match="no call produced a plan"):
        harness.end_to_end(fresh, attempts, 0.1, 50.0)


def test_a_stray_node_budget_in_the_environment_has_no_effect(tmp_path, monkeypatch):
    assert bench_run.NODE_BUDGET_VAR == NODE_BUDGET_ENV
    for var in bench_run.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setenv(NODE_BUDGET_ENV, "1")
    assert node_budget() == 1  # would refuse every exact call
    bench_run.pin_environment()
    assert NODE_BUDGET_ENV not in os.environ
    run = _run(TINY["cli-reduce"], tmp_path)
    assert harness.failed_fractions(_one_pass(run))["refused"] == 0.0
    assert f"{NODE_BUDGET_ENV}=<unset> node_budget=10000000" in bench_run.environment_line()


def _tampered_solve(inst, sub=None):
    sol, report = pipeline.solve_reduce(inst, sub)
    x = sol.x.copy()
    i, j = np.argwhere(x > 0)[0]
    x[i, j] -= 1  # one client now short of its demand
    cost = sol.cost - float(inst.dist[i, j])
    tampered = IntegralSolution(y=sol.y, x=x, cost=cost)
    return tampered, dataclasses.replace(report, cost_total=cost, cost_s1=cost, cost_s2=0.0)


def test_a_tampered_plan_aborts_the_loop(tmp_path, monkeypatch):
    run = _run(TINY["cli-reduce"], tmp_path)
    monkeypatch.setattr(cli, "solve_reduce", _tampered_solve)
    with pytest.raises(WrongAnswer, match="coverage differs from demand"):
        harness.loop(run, 0.0, spans.Tracer(enabled=False))


def test_a_tampered_plan_makes_the_benchmark_exit_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(cli, "solve_reduce", _tampered_solve)
    code = bench_run.main(["--workload", "cli-reduce-15x20", "--seed", "7", "--seconds", "0"])
    assert code == 1
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last)["correct"] is False


def test_a_changed_answer_on_a_repeat_aborts(tmp_path, monkeypatch):
    run = _run(TINY["oracle"], tmp_path)
    _one_pass(run)
    original = workloads.solve_oracle

    def drifting(inst):
        sol, report = original(inst)
        cost = sol.cost * (1 + 1e-12)  # inside every tolerance, but not the same answer
        return dataclasses.replace(sol, cost=cost), dataclasses.replace(report, cost_total=cost)

    monkeypatch.setattr(workloads, "solve_oracle", drifting)
    with pytest.raises(WrongAnswer, match="answer changed between calls"):
        _one_pass(run)


def test_the_tracer_restores_every_name_it_wrapped(tmp_path):
    before = {(m, a): getattr(m, a) for m, names in spans.PATCHED_NAMES.items() for a in names}
    before[(cli, "subroutine")] = cli.subroutine
    tracer = spans.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.patched():
            assert all(getattr(m, a) is not f for (m, a), f in before.items())
            1 / 0
    assert all(getattr(m, a) is f for (m, a), f in before.items())
    run = _run(TINY["cli-reduce"], tmp_path)
    _one_pass(run, tracer)
    assert all(getattr(m, a) is f for (m, a), f in before.items())
    assert any(s.name == "lp_core.solve_lp" for s in tracer.spans)


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = _run(TINY["cli-reduce"], tmp_path)
    tracer = spans.Tracer()
    plain, traced = harness.loop(run, 0.0, tracer)
    e2e = harness.end_to_end(run, plain, 0.1, harness.peak_rss_mb())
    layers = harness.traced_metrics(plain, traced, tracer, spans.Tracer())
    for section, got in (("end_to_end", e2e), ("per_layer", layers)):
        assert [m["name"] for m in spec[section]] == list(got)
        assert [m["unit"] for m in spec[section]] == [unit for _, unit in got.values()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tail_has_ten_samples_beyond_it_and_stops_at_p90():
    assert harness.tail([float(v) for v in range(11)]) == (0.0, 100.0 / 11, 11)
    value, pct, n = harness.tail([float(v) for v in range(50)])
    assert (value, n) == (39.0, 50) and sum(v > value for v in range(50)) == 10
    value, pct, n = harness.tail([float(v) for v in range(1000)])
    assert (value, pct) == (899.0, 90.0)
