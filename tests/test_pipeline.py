"""End-to-end solve pipelines, reports, verification, and the solution format."""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from conftest import random_instance, random_shape, scaled, uniform_demand
from oracles import keep_cheapest, lp_oracle

from ftfp import lp_core, pipeline
from ftfp.decompose import decompose_large, decompose_reduce, residual_instance
from ftfp.ftfl_solvers import (
    NODE_BUDGET_ENV,
    BudgetExceededError,
    IntegralSolution,
    solution_cost,
    solve_exact,
    subroutine,
    to_capped,
)
from ftfp.instance import GenParams, Instance, ParseError, costs_agree, generate
from ftfp.lp_core import (
    FractionalSolution,
    build_lp,
    candidate_pairs,
    solve_lp,
    trim_to_demand,
)
from ftfp.pipeline import (
    SolveReport,
    parse_report,
    parse_solution,
    report_to_json,
    serialize_solution,
    solve_large,
    solve_oracle,
    solve_reduce,
    split_counts,
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
    for solve, phases in [
        (solve_reduce, {"lp", "decompose", "subroutine", "verify", "total"}),
        (solve_large, {"lp", "decompose", "subroutine", "verify", "total"}),
        (solve_oracle, {"lp", "oracle", "verify", "total"}),
    ]:
        _, rep = solve(instance_a)
        assert set(rep.wall_times) == phases, solve.__name__
        assert all(t >= 0.0 for t in rep.wall_times.values()), solve.__name__


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
    dec = (decompose_reduce if mode == "reduce" else decompose_large)(frac, inst)
    return residual_instance(dec, inst), split_counts(dec)


@pytest.mark.parametrize("mode", ["reduce", "large"])
def test_residual_caps_never_move_the_lp(mode):
    # why the pipeline prices the residual without caps
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


def test_reduce_residual_bound_is_the_main_lp_certificate():
    # every reduce residual of the benchmark's 15x20 pool is priced at rbar.alpha, with no LP
    for seed in range(7, 71):
        inst = generate(GenParams(15, 20, 1, 5, seed))
        _, rep = solve_reduce(inst, subroutine("greedy"))
        assert set(rep.counters) == {"lp", "subroutine"}, seed  # a residual, and no residual LP
        solved = solve_lp(build_lp(residual_instance(rep.decomposition, inst)))[0].objective
        assert abs(rep.lp_star_residual - solved) <= 1e-12 * solved, seed


def test_large_residual_bound_is_a_weak_duality_bound():
    # alpha stays dual feasible for any demands, so rbar.alpha bounds the residual LP from
    # below; it is that LP when (xbar, ybar) is feasible, and large mode may strand xbar > ybar
    feasible = stranded = 0
    for seed in range(20000, 20400):
        inst = cover_instance(seed)
        _, rep = solve_large(inst, subroutine("greedy"))
        dec = rep.decomposition
        if dec.residual_empty:
            continue
        alpha = solve_lp(build_lp(inst))[1]
        assert rep.lp_star_residual == float(dec.rbar @ alpha), seed
        lp = solve_lp(build_lp(residual_instance(dec, inst)))[0].objective
        assert rep.lp_star_residual <= lp * (1.0 + 1e-12), seed  # up to the LP's rounding
        if dec.residual_is_feasible:
            assert abs(rep.lp_star_residual - lp) <= 1e-12 * lp, seed
            feasible += 1
        else:
            stranded += 1
    assert feasible >= 1 and stranded >= 1


@pytest.mark.parametrize("kind", ["greedy", "exact"])
def test_a_stranded_large_residual_is_priced_below_its_lp(kind):
    inst = generate(GenParams(15, 20, 1, 5, 18))
    _, rep = solve_large(inst, subroutine(kind))
    assert not rep.decomposition.residual_is_feasible
    lp = solve_lp(build_lp(residual_instance(rep.decomposition, inst)))[0].objective
    assert abs(rep.lp_star_residual - 4.125100098678037) <= 1e-12
    assert abs(lp - 4.151137370637638) <= 1e-12
    assert rep.lp_star_residual < lp
    assert rep.cost_total <= rep.chain_bound


def counted_solve_lp(monkeypatch) -> list:
    """Wrap pipeline.solve_lp; the returned list gets one entry per call."""
    calls = []

    def counted(lp):
        calls.append(lp.inst.name)
        return solve_lp(lp)

    monkeypatch.setattr(pipeline, "solve_lp", counted)
    return calls


def test_greedy_reduce_solves_one_lp(monkeypatch):
    inst = generate(GenParams(15, 20, 1, 5, 7))
    calls = counted_solve_lp(monkeypatch)
    _, rep = solve_reduce(inst, subroutine("greedy"))
    assert not rep.decomposition.residual_empty
    assert len(calls) == 1


def test_every_rounding_flow_solves_one_lp(monkeypatch):
    # seed 18's large residual strands a connection, and alpha prices it too
    calls = counted_solve_lp(monkeypatch)
    for seed in (7, 18):
        inst = generate(GenParams(15, 20, 1, 5, seed))
        for solve in (solve_reduce, solve_large):
            for kind in ("greedy", "exact"):
                calls.clear()
                _, rep = solve(inst, subroutine(kind))
                assert len(calls) == 1, (seed, solve.__name__, kind)
                assert set(rep.counters) <= {"lp", "subroutine"}


def every_flow(inst: Instance) -> list:
    """Plan, decomposition and cost_total of each flow on inst, or its budget refusal."""
    out = []
    for solve, kind in [
        (solve_reduce, "greedy"), (solve_reduce, "exact"),
        (solve_large, "greedy"), (solve_large, "exact"), (solve_oracle, None),
    ]:
        try:
            sol, rep = solve(inst) if kind is None else solve(inst, subroutine(kind))
        except BudgetExceededError as exc:
            out.append(str(exc))
            continue
        dec = rep.decomposition
        parts = () if dec is None else tuple(
            getattr(dec, name).tobytes() for name in ("xhat", "yhat", "xbar", "ybar", "rbar")
        )
        out.append((sol.y.tobytes(), sol.x.tobytes(), parts, rep.cost_total))
    return out


# 8x10 with demands up to 3, and the benchmark's 15x20 shape with demands up to
# 5; every flow, the exact search and the oracle included, plans on both within
# the default node budget
@pytest.mark.parametrize("sites,clients,top", [(8, 10, 3), (15, 20, 5)])
@pytest.mark.parametrize("seed", range(24000, 24004))
def test_pair_pruning_changes_no_plan(sites, clients, top, seed, monkeypatch):
    inst = random_instance(seed, sites, clients, demand_min=1, demand_max=top)
    assert candidate_pairs(inst).sum() < inst.n * inst.m  # the two runs solve different LPs
    pruned = every_flow(inst)
    assert any(not isinstance(flow, str) for flow in pruned)
    monkeypatch.setattr(lp_core, "candidate_pairs", lambda case: np.ones((case.n, case.m), dtype=bool))
    assert every_flow(inst) == pruned


# sha256 over the greedy solve_reduce and solve_large plans (y, x) and their
# decompositions (yhat, xhat, rbar), one line of decimals per array, on the
# benchmark's 15x20 pool shape (demands 1-5, seeds 7-38); recorded while every
# LP was still solved in its x form by a two-phase simplex.
GREEDY_FLOWS_DIGEST = "55f67befcbdfac0a46e78b00cc439850199c7bfe95eb0040fded784cf85ec96a"


def test_greedy_flows_are_pinned_on_the_15x20_pool():
    lines = []
    for seed in range(7, 39):
        inst = random_instance(seed, 15, 20, demand_min=1, demand_max=5)
        for solve in (solve_reduce, solve_large):
            sol, rep = solve(inst, subroutine("greedy"))
            dec = rep.decomposition
            for a in (sol.y, sol.x, dec.yhat, dec.xhat, dec.rbar):
                lines.append(" ".join(str(v) for v in a.ravel().tolist()) + "\n")
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == GREEDY_FLOWS_DIGEST


def test_report_holds_the_decomposition_behind_the_plan():
    inst = random_instance(22000, sites=5, clients=6, demand_min=1, demand_max=4)
    _, rep = solve_reduce(inst, subroutine("greedy"))
    again = decompose_reduce(trim_to_demand(solve_lp(build_lp(inst))[0], inst), inst)
    for name in ("xhat", "yhat", "xbar", "ybar", "rbar"):
        assert getattr(rep.decomposition, name).tobytes() == getattr(again, name).tobytes()
    assert rep.cost_s1 == float(inst.site_costs @ again.yhat + (inst.dist * again.xhat).sum())


def test_report_counters_certify_every_lp(instance_a):
    inst = random_instance(23000, sites=5, clients=6, demand_min=1, demand_max=4)
    _, rep = solve_reduce(inst, subroutine("greedy"))
    assert set(rep.counters) == {"lp", "subroutine"}
    counters = rep.counters["lp"]
    assert set(counters) == {
        "rows", "cols", "pivots", "degenerate_pivots", "bland_pivots", "duality_gap",
    }
    assert 0.0 <= counters["duality_gap"] <= 1e-6 * (1.0 + rep.lp_star)
    kept = int(candidate_pairs(inst).sum())
    assert (rep.counters["lp"]["rows"], rep.counters["lp"]["cols"]) == (inst.n + inst.m, inst.m + kept)
    # an integral LP optimum leaves no residual LP to count
    _, large = solve_large(instance_a)
    assert set(large.counters) == {"lp"}
    _, oracle = solve_oracle(instance_a)
    assert set(oracle.counters) == {"lp", "oracle"}


def test_report_counters_carry_the_solver_counters():
    inst = random_instance(23000, sites=5, clients=6, demand_min=1, demand_max=4)
    frac, alpha = solve_lp(build_lp(inst))  # certified by solve_lp, as in the pipeline
    _, rep = solve_reduce(inst, subroutine("exact"))
    dec = rep.decomposition
    # the residual search gets the main LP's duals, which stay dual-feasible for any
    # demands, and the residual opening ybar for its first incumbent
    search = solve_exact(to_capped(residual_instance(dec, inst), split_counts(dec), alpha, dec.ybar))
    assert rep.counters["subroutine"] == search.counters
    assert set(search.counters) == {"nodes", "pruned_bound"}
    assert search.counters["nodes"] >= 1
    _, rep = solve_reduce(inst, subroutine("greedy"))
    assert set(rep.counters["subroutine"]) == {"rounds"}
    assert rep.counters["subroutine"]["rounds"] >= 1
    _, rep = solve_oracle(inst)
    caps = np.full(inst.n, inst.max_demand, dtype=np.int64)
    assert rep.counters["oracle"] == solve_exact(to_capped(inst, caps, alpha, frac.y)).counters
    # the counters are plain ints, so the report round-trips through JSON
    assert parse_report(report_to_json(rep)).counters == rep.counters


# Total counters["nodes"] of solve_oracle over the first 48 instances of the
# benchmark's oracle-6x12 pool (seeds 7-54), recorded when the exact search
# began from the LP's rounded-up opening (12851 from the greedy plan, 51023
# also in site index order, 146005 also without the Lagrangian bound), and
# re-recorded when each site's children came to start at the least opening
# that can still cover (10697 with the 112 uncovering nodes visited), and
# when the connection bound came to price undecided sites at
# max(d_ij, alpha_j) and the root to fix caps by reduced cost (10585 before).
# A change that weakens a bound, stops handing the duals or the opening over,
# or changes the site order moves it.  ORACLE_POOL_PRUNED is the total of
# counters["pruned_bound"] over the same solves, recorded alongside it while
# the walk still tested the Lagrangian bound before the priced one.
ORACLE_POOL_NODES = 1161
ORACLE_POOL_PRUNED = 774


def test_oracle_node_total_is_pinned():
    pool = (generate(GenParams(6, 12, 1, 4, seed)) for seed in range(7, 55))
    searches = [solve_oracle(inst)[1].counters["oracle"] for inst in pool]
    assert sum(c["nodes"] for c in searches) == ORACLE_POOL_NODES
    assert sum(c["pruned_bound"] for c in searches) == ORACLE_POOL_PRUNED


# Seed-7 searches that a budget of 1000 nodes plans, with cost_total as the
# search that had no priced bound and no fixing found it (113551 and 625385
# nodes): the oracle at 30x40 and the exact residual at 50x100.
@pytest.mark.parametrize(
    "shape,solve,cost",
    [
        ((30, 40), solve_oracle, 27.97249379626449),
        ((50, 100), lambda inst: solve_reduce(inst, subroutine("exact")), 46.47120118193625),
    ],
    ids=["oracle-30x40", "reduce-exact-50x100"],
)
def test_seed_7_exact_searches_plan_within_a_thousand_nodes(monkeypatch, shape, solve, cost):
    monkeypatch.setenv(NODE_BUDGET_ENV, "1000")
    _, rep = solve(generate(GenParams(*shape, 1, 5, 7)))
    assert rep.cost_total == cost


@pytest.mark.parametrize("solve", [solve_reduce, solve_large])
def test_a_tight_chain_bound_may_read_a_few_ulps_below_the_cost(solve):
    # the bound and the cost sum in different orders: seed 7 at 50x100 reports a slack
    # of -7.1e-15, inside costs_agree's tolerance, so the flow plans
    inst = generate(GenParams(50, 100, 1, 5, 7))
    _, rep = solve(inst, subroutine("exact"))
    assert -1e-12 < rep.chain_slack < 0.0
    assert costs_agree(inst, rep.cost_total, rep.chain_bound)


def test_a_plan_above_its_chain_bound_raises(instance_b):
    plan, rep = solve_reduce(instance_b)
    stages = {f: getattr(rep, f) for f in ("cost_s1", "cost_s2", "lp_star_residual", "rho_sub")}
    with pytest.raises(RuntimeError, match="above its chain bound"):
        pipeline._report(
            instance_b, "reduce", plan, {}, 0.0, {}, lp_star=rep.lp_star,
            chain_bound=plan.cost * (1.0 - 1e-3), **stages,
        )


@pytest.mark.parametrize("s", [2.0**-40, 1e-9, 1e12, 2.0**40], ids=["2^-40", "1e-9", "1e12", "2^40"])
def test_a_scaled_instance_plans_its_unit_scale_plan(s):
    # the simplex's pivot tolerance is absolute, so the LP is normalised by a power of two
    # to a cost unit in [1, 2); without that, seed 11 at 1e12 meets an unbounded dual and
    # every seed at 1e-9 and 2^-40 a refuted certificate
    for seed in range(7, 23):
        inst = generate(GenParams(8, 10, 1, 4, seed))
        want, _ = solve_oracle(inst)
        plan, _ = solve_oracle(scaled(inst, s))
        assert np.array_equal(plan.y, want.y) and np.array_equal(plan.x, want.x), seed


def test_an_instance_of_zero_costs_solves_unscaled():
    # its cost unit is 0, which no power of two moves, so the LP is solved as built
    inst = Instance(np.zeros(3), np.array([2, 1]), np.zeros((3, 2)))
    assert inst.cost_unit == 0.0
    plan, rep = solve_oracle(inst)
    assert plan.cost == rep.lp_star == 0.0
    assert verify_solution(inst, plan) == []


# Total simplex pivots of the main LP of the greedy solve_reduce over the
# benchmark's 15x20 pool (demands 1-5, seeds 7-70), the only LP these solves
# run: recorded when the residual came to be priced by the main LP's
# certificate (4888 with the residual LPs, as the pivot loop last left them).
# A change to pricing, the ratio test or the LP layout that moves a pivot moves it.
LP_POOL_PIVOTS = 2709


def test_lp_pivot_total_is_pinned():
    pool = (generate(GenParams(15, 20, 1, 5, seed)) for seed in range(7, 71))
    counters = [solve_reduce(inst, subroutine("greedy"))[1].counters for inst in pool]
    assert sum(c["lp"]["pivots"] for c in counters) == LP_POOL_PIVOTS


@pytest.mark.parametrize("solve", [solve_reduce, solve_large, solve_oracle])
def test_failed_certificate_raises(solve, instance_b, monkeypatch):
    def refuted(*args, **kwargs):
        return ["duality gap too wide"]

    monkeypatch.setattr(lp_core, "check_duality", refuted)
    with pytest.raises(RuntimeError, match="duality check"):
        solve(instance_b)


# ---------------------------------------------------------------------------
# trim / verify


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
    assert slim.counters == {}
    # the solver's counters survive the trim
    counted = trim_surplus(dataclasses.replace(fat, counters={"nodes": 7, "pruned_bound": 2}), instance_a)
    assert np.array_equal(counted.x, slim.x) and counted.cost == slim.cost
    assert counted.counters == {"nodes": 7, "pruned_bound": 2}


def test_trim_surplus_no_change_returns_same_object(instance_a):
    exact_fit = IntegralSolution(
        y=np.array([2, 0]),
        x=np.array([[2], [0]]),
        cost=8.0,
    )
    assert trim_surplus(exact_fit, instance_a) is exact_fit


def test_no_flow_over_covers_a_client(monkeypatch):
    # the pipeline docstring's argument, on the benchmark pools: every plan a
    # flow hands to its re-verification meets each demand exactly
    trimmed = []

    def recording(sol, inst):
        out = trim_surplus(sol, inst)
        trimmed.append(out is not sol)
        return out

    monkeypatch.setattr(pipeline, "trim_surplus", recording)
    planned = 0
    for seed in range(7, 71):
        inst = generate(GenParams(15, 20, 1, 5, seed))
        for solve in (solve_reduce, solve_large):
            for kind in ("greedy", "exact"):
                try:
                    solve(inst, subroutine(kind))
                except BudgetExceededError:
                    continue
                planned += 1
    for seed in range(7, 55):
        solve_oracle(generate(GenParams(6, 12, 1, 4, seed)))
        planned += 1
    assert planned > 64 * 2 + 48
    assert trimmed == [False] * planned


def test_both_trims_keep_the_lowest_site_index_on_equal_distances():
    # client 0: site 0 is dearest and sites 1-3 tie; client 1: all four sites tie
    inst = Instance(np.ones(4), np.array([2, 1]), np.array([[2.0, 1.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]))
    x = np.array([[1, 0], [1, 1], [1, 1], [1, 1]])
    want = [[0, 0], [1, 1], [1, 0], [0, 0]]  # cheapest first, lowest index among equals
    frac = trim_to_demand(FractionalSolution(x=x.astype(float), y=np.ones(4), objective=0.0), inst)
    plan = trim_surplus(IntegralSolution(y=np.ones(4, dtype=np.int64), x=x, cost=0.0), inst)
    assert frac.x.dtype == np.float64 and np.array_equal(frac.x, want)
    assert plan.x.dtype == np.int64 and np.array_equal(plan.x, want)
    assert plan.cost == solution_cost(inst, plan.y, plan.x)


@pytest.mark.parametrize("seed", range(40))
def test_both_trims_equal_the_loop_reference(seed):
    # distances on a 0.5 grid (ties), demands down to zero, every column covers its demand
    rng = np.random.default_rng(15000 + seed)
    n, m = random_shape(rng, 1, 6)
    dist = rng.integers(0, 4, (n, m)) / 2
    x = rng.integers(0, 4, (n, m))
    inst = Instance(rng.random(n), rng.integers(0, x.sum(axis=0) + 1), dist)
    plan = trim_surplus(IntegralSolution(y=x.max(axis=1), x=x, cost=0.0), inst)
    assert plan.x.dtype == np.int64 and np.array_equal(plan.x, keep_cheapest(x, inst))

    xf = np.where(rng.random((n, m)) < 0.3, 0.0, 3 * rng.random((n, m)))
    inst = Instance(rng.random(n), rng.integers(0, np.floor(xf.sum(axis=0)) + 1), dist)
    y = xf.max(axis=1)
    frac = trim_to_demand(FractionalSolution(x=xf, y=y, objective=0.0), inst)
    want = keep_cheapest(xf, inst)
    assert np.allclose(frac.x, want, rtol=0.0, atol=1e-12)
    assert np.array_equal(frac.y, y)
    assert abs(frac.objective - solution_cost(inst, y, want)) <= 1e-12 * (1.0 + frac.objective)


def test_trims_keep_a_negative_connection_for_the_verifier():
    # client 0 (r = 1) is over-covered through a negative entry; clipping it to 0 would hide it
    inst = Instance(np.ones(3), np.array([1]), np.array([[1.0], [2.0], [3.0]]))
    x = np.array([[2], [-1], [1]])
    plan = trim_surplus(IntegralSolution(y=np.array([2, 1, 1]), x=x, cost=0.0), inst)
    assert verify_solution(inst, plan) == ["x[1,0] = -1 violates x_ij >= 0"]
    frac = trim_to_demand(FractionalSolution(x=x.astype(float), y=np.array([2.0, 1, 1]), objective=0.0), inst)
    assert frac.x[1, 0] == -1.0


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

    unstated = IntegralSolution(y=np.array([2, 0]), x=np.array([[2], [0]]), cost=float("nan"))
    assert any("stated cost" in s for s in verify_solution(instance_a, unstated))


def test_oracle_bound_holds_at_a_small_cost_unit():
    # at costs of ~1e-8 an absolute tolerance of 1e-7 would pass any alpha; the LP, normalised
    # by a power of two, certifies every seed, and each bound is at most the optimal plan's
    # cost (up to the cost tolerance, which the cost unit scales down with the costs)
    for seed in range(7, 39):
        inst = scaled(generate(GenParams(8, 10, 1, 4, seed)), 1e-8)
        _, rep = solve_oracle(inst)
        assert rep.cost_total >= rep.lp_star or costs_agree(inst, rep.cost_total, rep.lp_star), seed


# ---------------------------------------------------------------------------
# report round trip


def test_report_json_round_trip(instance_a):
    _, rep = solve_reduce(instance_a)
    back = parse_report(report_to_json(rep))
    assert back == rep
    assert back.decomposition is None and rep.decomposition is not None  # compared by neither


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
        "rho_sub",
        "ratio_total",
        "chain_bound",
        "chain_slack",
        "wall_times",
        "counters",
    ]
    # every field but the decomposition, which stays in memory
    assert [f.name for f in dataclasses.fields(SolveReport)] == [*data, "decomposition"]


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
        inst = uniform_demand(base, s)
        _, rep = solve_large(inst)
        assert within_chain(rep)
        reps.append(rep)
    # the guaranteed bound factor (1 + rho * n / R) approaches 1 as R grows
    factors = [r.chain_bound / r.lp_star for r in reps]
    assert factors[0] >= factors[1] >= factors[2] >= 1.0 - 1e-12
