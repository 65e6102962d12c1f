"""End-to-end solve pipelines, reports, verification, and the solution format."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from conftest import random_instance, random_shape
from oracles import lp_oracle

from ftfp import pipeline
from ftfp.decompose import decompose_large, decompose_reduce, residual_instance
from ftfp.ftfl_bridge import split_counts_large, split_counts_reduce
from ftfp.ftfl_solvers import IntegralSolution, solution_cost, subroutine
from ftfp.instance import Instance, ParseError, uniform_demand_copy
from ftfp.lp_core import DualityReport, build_lp, solve_lp, trim_to_demand
from ftfp.pipeline import (
    SolveReport,
    combine,
    parse_report,
    parse_solution,
    report_to_json,
    serialize_solution,
    solve_large,
    solve_oracle,
    solve_reduce,
    solve_trace,
    trim_surplus,
    verify_solution,
)

REL = 1e-6


def within_chain(rep: SolveReport) -> bool:
    return rep.cost_total <= rep.chain_bound + REL * (1.0 + rep.cost_total)


# ---------------------------------------------------------------------------
# fixture traces


def test_fixture_a_reduce(instance_a):
    sol, rep = solve_reduce(instance_a)
    assert rep.algo == "reduce"
    assert rep.cost_s1 == 4.0
    assert rep.cost_s2 == 4.0
    assert rep.cost_total == 8.0
    assert rep.lp_star == 8.0
    assert rep.lp_star_residual == 4.0
    assert rep.rho_sub == 1.0
    assert rep.ratio_total == 1.0
    assert rep.chain_bound == 8.0
    assert rep.chain_slack == 0.0
    assert np.array_equal(sol.y, [2, 0])
    assert verify_solution(instance_a, sol) == []


def test_fixture_a_large(instance_a):
    sol, rep = solve_large(instance_a)
    assert rep.algo == "large"
    # the LP optimum is already integral, so stage two is empty
    assert rep.cost_s1 == 8.0
    assert rep.cost_s2 == 0.0
    assert rep.cost_total == 8.0
    assert rep.rho_sub == 0.0
    assert rep.chain_bound == 8.0
    assert np.array_equal(sol.y, [2, 0])


def test_fixture_b_oracle(instance_b):
    sol, rep = solve_oracle(instance_b)
    assert rep.algo == "oracle"
    assert rep.cost_total == 2.0
    assert rep.chain_slack == 0.0
    assert rep.ratio_total == 1.0
    assert np.array_equal(sol.y, [1, 1])


def test_large_requires_positive_demands():
    inst = Instance(np.array([1.0]), np.array([0]), np.array([[1.0]]))
    with pytest.raises(ValueError, match="demand >= 1"):
        solve_large(inst)


def test_zero_demand_instance_solves_cleanly():
    inst = Instance(np.array([1.0, 2.0]), np.array([0, 0]), np.array([[1.0, 1.0], [1.0, 1.0]]))
    sol, rep = solve_reduce(inst)
    assert rep.cost_total == 0.0
    assert rep.ratio_total == 1.0  # zero-cost instance solved at zero cost
    assert np.array_equal(sol.y, [0, 0])


def test_wall_times_recorded(instance_a):
    _, rep = solve_reduce(instance_a)
    for key in ("lp", "decompose", "residual_lp", "subroutine", "verify", "total"):
        assert key in rep.wall_times
        assert rep.wall_times[key] >= 0.0
    _, orep = solve_oracle(instance_a)
    assert "oracle" in orep.wall_times


# ---------------------------------------------------------------------------
# chain inequalities on random instances


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("kind", ["exact", "greedy"])
def test_reduce_chain_holds(seed, kind):
    rng = np.random.default_rng(14000 + seed)
    n, m = random_shape(rng, 1, 5)
    inst = random_instance(14000 + seed, sites=n, clients=m, demand_min=0, demand_max=4)
    sol, rep = solve_reduce(inst, subroutine(kind))
    assert verify_solution(inst, sol) == []
    assert rep.cost_total == rep.cost_s1 + rep.cost_s2
    assert within_chain(rep), rep
    assert rep.lp_star <= rep.cost_total + REL * (1.0 + rep.cost_total)
    # the caps never bind, so the report carries the free residual LP twice
    assert rep.lp_star_residual_capped == rep.lp_star_residual
    if rep.cost_s2 > 0:
        assert rep.rho_sub >= 1.0 - 1e-9  # no subroutine beats its own LP bound
    # cross-check the headline LP value against the independent solver
    assert abs(rep.lp_star - lp_oracle(inst)) <= 1e-9 * (1.0 + rep.lp_star)


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("kind", ["exact", "greedy"])
def test_large_chain_holds(seed, kind):
    rng = np.random.default_rng(15000 + seed)
    n, m = random_shape(rng, 1, 5)
    inst = random_instance(15000 + seed, sites=n, clients=m, demand_min=1, demand_max=4)
    sol, rep = solve_large(inst, subroutine(kind))
    assert verify_solution(inst, sol) == []
    assert within_chain(rep), rep
    assert rep.chain_bound == (1.0 + rep.rho_sub * inst.n / inst.min_demand) * rep.lp_star


@pytest.mark.parametrize("seed", range(15))
def test_oracle_never_beaten(seed):
    inst = random_instance(16000 + seed, sites=3, clients=3, demand_min=1, demand_max=3)
    opt, orep = solve_oracle(inst)
    for solve in (solve_reduce, solve_large):
        _, rep = solve(inst)
        assert rep.cost_total >= opt.cost - 1e-9 * (1.0 + opt.cost)
    assert orep.lp_star <= opt.cost + 1e-9 * (1.0 + opt.cost)


def test_exact_subroutine_never_loses_to_greedy():
    for seed in range(10):
        inst = random_instance(17000 + seed, sites=4, clients=4, demand_min=1, demand_max=4)
        _, exact = solve_reduce(inst, subroutine("exact"))
        _, greedy = solve_reduce(inst, subroutine("greedy"))
        assert exact.cost_s2 <= greedy.cost_s2 + 1e-9 * (1.0 + greedy.cost_s2)


def test_pipeline_is_deterministic():
    inst = random_instance(18000, sites=5, clients=5, demand_min=1, demand_max=4)
    _, a = solve_reduce(inst)
    _, b = solve_reduce(inst)
    assert a.cost_total == b.cost_total
    assert a.lp_star == b.lp_star
    assert a.rho_sub == b.rho_sub


# ---------------------------------------------------------------------------
# the shortcuts in the residual stage


def cover_instance(seed: int) -> Instance:
    """Each client is near (d = 1) a random set of sites and far (d = 3) from the rest.

    Such set-cover structure gives fractional LP optima far more often than
    the unit-square generator, so large-mode residuals are not all empty.
    Any distances in [1, 3] satisfy the bipartite metric condition.
    """
    rng = np.random.default_rng(seed)
    near = rng.random((6, 6)) < 0.7
    return Instance(rng.uniform(1.0, 3.0, 6), rng.integers(1, 3, 6), np.where(near, 1.0, 3.0))


def _residual_and_copies(inst: Instance, mode: str):
    frac = trim_to_demand(solve_lp(build_lp(inst))[0], inst)
    if mode == "reduce":
        dec = decompose_reduce(frac, inst)
        return residual_instance(dec, inst), split_counts_reduce(dec)
    dec = decompose_large(frac, inst)
    return residual_instance(dec, inst), split_counts_large(dec)


@pytest.mark.parametrize("mode", ["reduce", "large"])
def test_residual_caps_never_move_the_lp(mode):
    # why the pipeline solves the residual LP once, without caps
    solved = 0
    for seed in range(20000, 20400):
        res, copies = _residual_and_copies(cover_instance(seed), mode)
        if res.demands.sum() == 0:
            continue
        free = solve_lp(build_lp(res))[0].objective
        capped = solve_lp(build_lp(res, copies.astype(float)))[0].objective
        assert abs(capped - free) <= 1e-9 * (1.0 + abs(free)), (seed, free, capped)
        solved += 1
        if solved == 40:
            break
    assert solved == 40


@pytest.mark.parametrize("algo", ["reduce", "large"])
def test_residual_lp_is_built_over_live_clients(algo):
    seen = 0
    for seed in range(21000, 21040):
        inst = cover_instance(seed)
        with solve_trace() as trace:
            _, rep = (solve_reduce if algo == "reduce" else solve_large)(inst, subroutine("greedy"))
        live = int((trace.decomposition.rbar > 0).sum())
        if live == 0:
            assert "residual_lp" not in rep.counters
            continue
        shape = rep.counters["residual_lp"]
        assert (shape["rows"], shape["cols"]) == (inst.n * live + live, inst.n + inst.n * live)
        seen += live < inst.m
    assert seen >= 1  # some residual really dropped a client


def test_trace_holds_the_decomposition_behind_the_plan():
    inst = random_instance(22000, sites=5, clients=6, demand_min=1, demand_max=4)
    with solve_trace() as trace:
        _, rep = solve_reduce(inst, subroutine("greedy"))
    again = decompose_reduce(trim_to_demand(solve_lp(build_lp(inst))[0], inst), inst)
    for name in ("xhat", "yhat", "xbar", "ybar", "rbar"):
        assert getattr(trace.decomposition, name).tobytes() == getattr(again, name).tobytes()
    assert rep.cost_s1 == float(inst.site_costs @ again.yhat + (inst.dist * again.xhat).sum())
    # outside the block nothing is recorded
    kept = trace.decomposition
    solve_reduce(random_instance(22001, sites=5, clients=6), subroutine("greedy"))
    assert trace.decomposition is kept


def test_report_counters_certify_every_lp(instance_a):
    inst = random_instance(23000, sites=5, clients=6, demand_min=1, demand_max=4)
    _, rep = solve_reduce(inst, subroutine("greedy"))
    assert set(rep.counters) == {"lp", "residual_lp"}
    for counters in rep.counters.values():
        assert set(counters) == {
            "rows", "cols", "phase1_pivots", "phase2_pivots",
            "degenerate_pivots", "bland_pivots", "duality_gap",
        }
        assert 0.0 <= counters["duality_gap"] <= 1e-6 * (1.0 + rep.lp_star)
    assert rep.counters["lp"]["rows"] == inst.n * inst.m + inst.m
    # an integral LP optimum leaves no residual LP to count
    _, large = solve_large(instance_a)
    assert set(large.counters) == {"lp"}
    _, oracle = solve_oracle(instance_a)
    assert set(oracle.counters) == {"lp"}


@pytest.mark.parametrize("solve", [solve_reduce, solve_large, solve_oracle])
def test_failed_certificate_raises(solve, instance_b, monkeypatch):
    def refuted(*args, **kwargs):
        return DualityReport(ok=False, gap=1.0, worst_slack={}, messages=["duality gap too wide"])

    monkeypatch.setattr(pipeline, "check_duality", refuted)
    with pytest.raises(RuntimeError, match="duality check"):
        solve(instance_b)


# ---------------------------------------------------------------------------
# combine / trim / verify


def test_combine_adds_pointwise():
    a = IntegralSolution(y=np.array([1, 0]), x=np.array([[1], [0]]), cost=4.0)
    b = IntegralSolution(y=np.array([0, 2]), x=np.array([[0], [2]]), cost=5.0)
    c = combine(a, b)
    assert np.array_equal(c.y, [1, 2])
    assert np.array_equal(c.x, [[1], [2]])
    assert c.cost == 9.0


def test_combine_rejects_mismatched_shapes():
    a = IntegralSolution(y=np.array([1]), x=np.array([[1]]), cost=1.0)
    b = IntegralSolution(y=np.array([1, 1]), x=np.array([[1], [1]]), cost=1.0)
    with pytest.raises(ValueError, match="mismatched"):
        combine(a, b)


def test_trim_surplus_drops_most_expensive(instance_a):
    fat = IntegralSolution(
        y=np.array([2, 1]),
        x=np.array([[2], [1]]),
        cost=solution_cost(instance_a, np.array([2, 1]), np.array([[2], [1]])),
    )
    slim = trim_surplus(fat, instance_a)
    # surplus of one: the d = 2 connection goes, the two d = 1 ones stay
    assert np.array_equal(slim.x, [[2], [0]])
    assert np.array_equal(slim.y, [2, 1])  # openings are never trimmed
    assert slim.cost == 3.0 * 2 + 10.0 + 1.0 * 2


def test_trim_surplus_no_change_returns_same_object(instance_a):
    exact_fit = IntegralSolution(
        y=np.array([2, 0]),
        x=np.array([[2], [0]]),
        cost=8.0,
    )
    assert trim_surplus(exact_fit, instance_a) is exact_fit


def test_verify_solution_flags_each_axis(instance_a):
    ok = IntegralSolution(y=np.array([2, 0]), x=np.array([[2], [0]]), cost=8.0)
    assert verify_solution(instance_a, ok) == []

    wrong_shape = IntegralSolution(y=np.array([2]), x=np.array([[2]]), cost=8.0)
    assert "shape mismatch" in verify_solution(instance_a, wrong_shape)[0]

    floaty = IntegralSolution(y=np.array([2.0, 0.0]), x=np.array([[2], [0]]), cost=8.0)
    assert any("integer" in s for s in verify_solution(instance_a, floaty))

    negative = IntegralSolution(y=np.array([2, -1]), x=np.array([[2], [0]]), cost=8.0)
    assert any("y[1]" in s for s in verify_solution(instance_a, negative))

    over_linked = IntegralSolution(y=np.array([1, 0]), x=np.array([[2], [0]]), cost=8.0)
    assert any("exceeds" in s for s in verify_solution(instance_a, over_linked))

    uncovered = IntegralSolution(y=np.array([2, 0]), x=np.array([[1], [0]]), cost=8.0)
    assert any("demand is 2" in s for s in verify_solution(instance_a, uncovered))

    lying = IntegralSolution(y=np.array([2, 0]), x=np.array([[2], [0]]), cost=7.0)
    assert any("stated cost" in s for s in verify_solution(instance_a, lying))


# ---------------------------------------------------------------------------
# report round trip


def test_report_json_round_trip(instance_a):
    _, rep = solve_reduce(instance_a)
    back = parse_report(report_to_json(rep))
    assert back == rep


def test_report_field_names_are_stable(instance_a):
    _, rep = solve_reduce(instance_a)
    data = json.loads(report_to_json(rep))
    assert list(data.keys()) == [
        "algo",
        "cost_s1",
        "cost_s2",
        "cost_total",
        "lp_star",
        "lp_star_residual",
        "lp_star_residual_capped",
        "rho_sub",
        "ratio_total",
        "chain_bound",
        "chain_slack",
        "wall_times",
        "counters",
    ]
    assert [f.name for f in dataclasses.fields(SolveReport)] == list(data.keys())


# ---------------------------------------------------------------------------
# solution files


def test_solution_round_trip(instance_a):
    sol, _ = solve_reduce(instance_a)
    y, x = parse_solution(serialize_solution(sol))
    assert np.array_equal(y, sol.y)
    assert np.array_equal(x, sol.x)


def test_solution_format_shape():
    sol = IntegralSolution(y=np.array([1, 2]), x=np.array([[1, 0], [0, 2]]), cost=0.0)
    text = serialize_solution(sol)
    assert text.splitlines()[0] == "ftfp-sol 1"
    assert text.splitlines()[1] == "2 2"


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("ftfp 1\n1 1\n1\n1\n", "not an ftfp solution"),
        ("ftfp-sol 2\n1 1\n1\n1\n", "unsupported ftfp-sol version"),
        ("ftfp-sol 1\n1 1\n1.5\n1\n", "opening count must be an integer"),
        ("ftfp-sol 1\n1 1\n1\n-1\n", "connection count must be >= 0"),
        ("ftfp-sol 1\n1 1\n1\n", "missing connection row 1"),
        ("ftfp-sol 1\n1 1\n1\n1\nextra\n", "unexpected trailing tokens"),
    ],
)
def test_solution_parse_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_solution(text)
    assert fragment in str(exc.value)


# ---------------------------------------------------------------------------
# scaling behavior used by the demand-growth study


def test_uniform_scaling_tightens_the_large_chain():
    base = random_instance(19000, sites=4, clients=4)
    reps = []
    for s in (4, 8, 16):
        inst = uniform_demand_copy(base, s)
        _, rep = solve_large(inst)
        assert within_chain(rep)
        reps.append(rep)
    # the guaranteed bound factor (1 + rho * n / R) approaches 1 as R grows
    factors = [r.chain_bound / r.lp_star for r in reps]
    assert factors[0] >= factors[1] >= factors[2] >= 1.0 - 1e-12
