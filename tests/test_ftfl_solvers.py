"""Exact branch-and-bound and ratio-greedy solvers for the capped problem."""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_instance, scaled
from oracles import enumerate_optimum, matching_assignment_cost

from ftfp import ftfl_solvers
from ftfp.decompose import decompose_large, decompose_reduce, residual_instance
from ftfp.ftfl_solvers import (
    DEFAULT_NODE_BUDGET,
    NODE_BUDGET_ENV,
    OPENING_TOL,
    BudgetExceededError,
    CappedInstance,
    InfeasibleError,
    node_budget,
    solve_exact,
    solve_greedy,
    subroutine,
    to_capped,
)
from ftfp.instance import GenParams, Instance, generate, solution_cost
from ftfp.lp_core import build_lp, solve_lp, trim_to_demand
from ftfp.pipeline import split_counts


def caps_for(inst: Instance, k: int | None = None) -> np.ndarray:
    """Uniform caps that keep every instance feasible."""
    return np.full(inst.n, k if k is not None else max(inst.max_demand, 1), dtype=np.int64)


def assignment(y: np.ndarray, inst: Instance) -> tuple[np.ndarray, float]:
    """The solvers' fill of y's facilities and its connection cost."""
    x = ftfl_solvers._plan(y, inst, {}).x
    return x, solution_cost(inst, np.zeros(inst.n), x)


# ---------------------------------------------------------------------------
# assignment for a fixed opening vector


def test_assignment_on_fixture(instance_a):
    x, conn = assignment(np.array([2, 0]), instance_a)
    assert np.array_equal(x, [[2], [0]])
    assert conn == 2.0


def test_assignment_spills_to_second_site(instance_a):
    # only one facility at the cheap site: the second unit pays d = 2
    x, conn = assignment(np.array([1, 1]), instance_a)
    assert np.array_equal(x, [[1], [1]])
    assert conn == 3.0


def test_assignment_requires_enough_facilities(instance_a):
    # no solver passes such a y: the cover rule gives every one room for max_j r_j
    with pytest.raises(AssertionError, match="leave a client short"):
        assignment(np.array([1, 0]), instance_a)


@pytest.mark.parametrize("seed", range(40))
def test_assignment_matches_bipartite_matching(seed):
    rng = np.random.default_rng(11000 + seed)
    n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    inst = random_instance(11000 + seed, sites=n, clients=m, demand_min=0, demand_max=4)
    y = rng.integers(0, 4, n)
    if int(y.sum()) < inst.max_demand:
        y[int(rng.integers(n))] += inst.max_demand - int(y.sum())
    x, conn = assignment(y, inst)
    # feasibility of the assignment itself
    assert np.array_equal(x.sum(axis=0), inst.demands)
    assert np.all(x <= y[:, None])
    # optimality against an independent matching formulation
    want = matching_assignment_cost(inst, y)
    assert abs(conn - want) <= 1e-9 * (1.0 + want), (conn, want)


def loop_assignment(y: np.ndarray, inst: Instance) -> np.ndarray:
    """Each client takes y's facilities nearest first, lowest site index on ties, in plain loops."""
    x = np.zeros((inst.n, inst.m), dtype=np.int64)
    for j in range(inst.m):
        rem = int(inst.demands[j])
        for i in sorted(range(inst.n), key=lambda i: (inst.dist[i, j], i)):
            x[i, j] = min(int(y[i]), rem)
            rem -= x[i, j]
    return x


@pytest.mark.parametrize("seed", range(20))
def test_assignment_equals_the_loop_fill_on_tied_distances(seed):
    # distances on a 0.25 grid, so many clients see ties between sites
    base = random_instance(12000 + seed, sites=6, clients=7, demand_min=0, demand_max=4)
    inst = Instance(base.site_costs, base.demands, np.round(base.dist * 4) / 4)
    y = np.random.default_rng(seed).integers(0, 3, inst.n)
    y[seed % inst.n] += inst.max_demand
    x, _ = assignment(y, inst)
    assert x.dtype == np.int64
    assert np.array_equal(x, loop_assignment(y, inst))


# ---------------------------------------------------------------------------
# exact solver


def test_exact_on_fixture_a(instance_a):
    sol = solve_exact(to_capped(instance_a, caps_for(instance_a)))
    assert sol.cost == 8.0
    assert np.array_equal(sol.y, [2, 0])
    assert np.array_equal(sol.x, [[2], [0]])


def test_exact_on_fixture_b(instance_b):
    sol = solve_exact(to_capped(instance_b, caps_for(instance_b)))
    assert sol.cost == 2.0
    assert np.array_equal(sol.y, [1, 1])


def test_exact_matches_cost_field(instance_b):
    sol = solve_exact(to_capped(instance_b, caps_for(instance_b)))
    assert sol.cost == solution_cost(instance_b, sol.y, sol.x)


@pytest.mark.parametrize("seed", range(60))
def test_exact_matches_enumeration(seed):
    rng = np.random.default_rng(12000 + seed)
    n, m = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    inst = random_instance(12000 + seed, sites=n, clients=m, demand_min=0, demand_max=3)
    caps = rng.integers(max(inst.max_demand, 1), inst.max_demand + 3, n)
    got = solve_exact(to_capped(inst, caps))
    want_cost, want_y = enumerate_optimum(to_capped(inst, caps))
    assert abs(got.cost - want_cost) <= 1e-9 * (1.0 + want_cost)
    assert np.array_equal(got.y, want_y)  # both searches keep the lexicographically first optimum
    assert np.all(got.y <= caps)
    assert np.array_equal(got.x.sum(axis=0), inst.demands)


def test_exact_prefers_lexicographically_smallest_optimum():
    # two identical sites: (0, 1) and (1, 0) tie, the smaller vector wins
    inst = Instance(np.array([1.0, 1.0]), np.array([1]), np.array([[1.0], [1.0]]))
    sol = solve_exact(to_capped(inst, np.array([1, 1])))
    assert np.array_equal(sol.y, [0, 1])
    assert sol.cost == 2.0


def test_exact_breaks_ties_in_index_order_not_in_branching_order():
    # (1, 0) and (0, 1) both cost exactly 3.0; the dearer site 1 is branched on
    # first, so the search meets (1, 0) first, yet (0, 1) is the smaller vector
    inst = Instance(np.array([1.0, 2.0]), np.array([1]), np.array([[2.0], [1.0]]))
    ci = to_capped(inst, np.array([1, 1]))
    sol = solve_exact(ci)
    want_cost, want_y = enumerate_optimum(ci)
    assert sol.cost == want_cost == 3.0
    assert np.array_equal(sol.y, want_y) and np.array_equal(sol.y, [0, 1])


def test_exact_reaches_a_leaf_that_its_ancestor_bound_exceeds_by_rounding():
    # three identical free sites; at the node y_0 = 0 the step-3 bound opens
    # site 1 to its cap and connects 2 * 0.3 + 2 * 0.1 = 0.8, one ulp above the
    # leaf (0, 1, 1) below it, 0.3 + 0.3 + 0.1 + 0.1 = 0.7999999999999999;
    # pruning strictly against the incumbent would lose that leaf
    inst = Instance(np.zeros(3), np.array([2, 2]), np.array([[0.3, 0.1]] * 3))
    ci = to_capped(inst, np.array([1, 2, 1]))
    sol = solve_exact(ci)
    assert np.array_equal(sol.y, [0, 1, 1])
    assert sol.cost == 0.7999999999999999
    assert np.array_equal(sol.y, enumerate_optimum(ci)[1])


def test_exact_infeasible_caps(instance_a):
    with pytest.raises(InfeasibleError, match="caps sum"):
        solve_exact(to_capped(instance_a, np.array([1, 0])))


@pytest.mark.parametrize(
    "alpha", [np.zeros(2), np.zeros((1, 1)), np.array([-0.5]), np.array([np.nan]), np.array([np.inf])],
    ids=["length", "matrix", "negative", "nan", "inf"],
)
def test_capped_instance_rejects_bad_alpha(instance_a, alpha):
    with pytest.raises(ValueError, match="alpha"):
        to_capped(instance_a, caps_for(instance_a), alpha)


def test_capped_instance_keeps_a_read_only_copy_of_alpha(instance_a):
    alpha = np.array([1.5])
    ci = to_capped(instance_a, caps_for(instance_a), alpha)
    assert ci.alpha.dtype == np.float64 and not ci.alpha.flags.writeable
    assert alpha.flags.writeable  # the caller's array is left alone
    assert np.array_equal(to_capped(instance_a, caps_for(instance_a)).alpha, [0.0])


@pytest.mark.parametrize(
    "opening", [np.zeros(3), np.zeros((2, 1)), np.array([0.5, -0.5]), np.array([np.nan, 1.0]), np.array([1.0, np.inf])],
    ids=["length", "matrix", "negative", "nan", "inf"],
)
def test_capped_instance_rejects_bad_opening(instance_a, opening):
    with pytest.raises(ValueError, match="opening"):
        to_capped(instance_a, caps_for(instance_a), None, opening)


def test_vector_checks_name_the_first_bad_entry(instance_b):
    caps = np.array([1, 1])
    with pytest.raises(ValueError, match=r"alpha\[1\] = -0.5 violates"):
        to_capped(instance_b, caps, np.array([0.0, -0.5]))
    with pytest.raises(ValueError, match=r"opening has shape \(3,\), need \(2,\)"):
        to_capped(instance_b, caps, None, np.zeros(3))
    with pytest.raises(ValueError, match=r"caps\[1\] = -1 violates"):
        to_capped(instance_b, np.array([2, -1]))
    with pytest.raises(ValueError, match=r"caps\[0\] = nan violates"):
        build_lp(instance_b, np.array([np.nan, np.inf]))


def test_capped_instance_keeps_a_read_only_copy_of_opening(instance_a):
    opening = np.array([1.5, 0])
    ci = to_capped(instance_a, caps_for(instance_a), None, opening)
    assert ci.opening.dtype == np.float64 and not ci.opening.flags.writeable
    assert opening.flags.writeable  # the caller's array is left alone
    assert to_capped(instance_a, caps_for(instance_a)).opening is None


# ---------------------------------------------------------------------------
# the exact contract: the lexicographically smallest optimum, whatever the incumbent


def y_digest(plans) -> str:
    """sha256 over the plans' opening vectors, one line of decimals each."""
    text = "".join(" ".join(str(v) for v in plan.y.tolist()) + "\n" for plan in plans)
    return hashlib.sha256(text.encode()).hexdigest()


def grid_instance(rng: np.random.Generator, family: str) -> CappedInstance:
    """Small instance whose costs are small integers, so every tie is exact in floats."""
    n, m = int(rng.integers(2, 5)), int(rng.integers(1, 5))
    r = rng.integers(0, 4, m)
    if family == "zero":
        f, d = np.zeros(n), np.zeros((n, m))
    else:
        sites = rng.integers(0, 3, (n, 2))
        if family == "colocated":  # every site after the first may copy an earlier one
            for i in range(1, n):
                if rng.random() < 0.6:
                    sites[i] = sites[int(rng.integers(i))]
        clients = rng.integers(0, 3, (m, 2))
        d = np.abs(sites[:, None, :] - clients[None, :, :]).sum(axis=2).astype(float)
        f = rng.integers(0, 4, n).astype(float)
        if family == "colocated":  # a copy shares its original's opening cost too
            for i in range(1, n):
                same = np.nonzero((sites[:i] == sites[i]).all(axis=1))[0]
                if same.size:
                    f[i] = f[same[0]]
    caps = rng.integers(0, int(r.max()) + 2, n)
    caps[int(rng.integers(n))] += max(0, int(r.max()) - int(caps.sum()))
    return to_capped(Instance(f, r, d), caps)


@pytest.mark.parametrize("family", ["zero", "grid", "colocated"])
@pytest.mark.parametrize("seed", range(20))
def test_exact_returns_lexicographically_smallest_optimum(family, seed):
    # every tie is exact here, so the enumeration's tolerance never merges two costs
    ci = grid_instance(np.random.default_rng(14000 + seed), family)
    sol = solve_exact(ci)
    want_cost, want_y = enumerate_optimum(ci)
    assert sol.cost == want_cost
    assert np.array_equal(sol.y, want_y)
    c = sol.counters
    assert c["pruned_bound"] <= c["nodes"]


@pytest.mark.parametrize("scale", ["zero", "uniform", "huge"])
@pytest.mark.parametrize("family", ["zero", "grid", "colocated"])
@pytest.mark.parametrize("seed", range(20))
def test_exact_answer_does_not_depend_on_the_multipliers(family, seed, scale):
    # the priced bound and the root's fixing hold for every alpha >= 0, so no choice may move the answer
    ci = grid_instance(np.random.default_rng(14000 + seed), family)
    inst = ci.base
    top = max(1.0, float(inst.dist.max()))
    alpha = {
        "zero": np.zeros(inst.m),
        "uniform": np.random.default_rng(15000 + seed).uniform(0.0, 2.0 * top, inst.m),
        "huge": np.full(inst.m, 1e3 * top),
    }[scale]
    sol = solve_exact(to_capped(inst, ci.caps, alpha))
    want_cost, want_y = enumerate_optimum(ci)
    assert sol.cost == want_cost
    assert np.array_equal(sol.y, want_y)
    if scale == "zero":  # zero multipliers are the dual-free search, counters included
        assert sol.counters == solve_exact(ci).counters


@pytest.mark.parametrize("family", ["zero", "grid", "colocated"])
@pytest.mark.parametrize("seed", range(20))
def test_exact_answer_does_not_depend_on_the_first_incumbent(family, seed):
    # every first incumbent is a leaf, so an opening that falls short of the
    # largest demand (all zeros, unless every demand is 0), a random one and
    # none at all must all reach the enumeration's answer
    ci = grid_instance(np.random.default_rng(14000 + seed), family)
    want_cost, want_y = enumerate_optimum(ci)
    rng = np.random.default_rng(16000 + seed)
    for opening in (None, np.zeros(ci.base.n), rng.uniform(0.0, ci.caps.max() + 1.0, ci.base.n)):
        sol = solve_exact(replace(ci, opening=opening))
        assert sol.cost == want_cost
        assert np.array_equal(sol.y, want_y)


@pytest.mark.parametrize("alpha", [None, np.array([0.05, 0.1])], ids=["dual-free", "duals"])
def test_reduced_cost_fixing_survives_a_subnormal_rate(alpha):
    # site 0's rate rho_0 = f_0 = 5e-324 is subnormal, so the cutoff's slack over
    # it overflows to inf; the fixing leaves such a site's cap alone before dividing
    inst = Instance(np.array([5e-324, 1.0]), np.array([2, 1]), np.array([[0.5, 0.2], [0.1, 0.9]]))
    ci = to_capped(inst, np.array([2, 2]), alpha)
    want_cost, want_y = enumerate_optimum(ci)
    sol = solve_exact(ci)
    assert sol.y.tolist() == want_y.tolist() == [2, 0]
    assert sol.cost == want_cost == 1.2


@pytest.mark.parametrize("k", [-30, -10, 10, 30])
def test_the_search_does_not_depend_on_the_cost_unit(k):
    # f and d times 2^k scale every bound, leaf cost and cost_unit exactly, and the
    # prune margin is measured in cost_unit, so the same nodes are visited and pruned
    moved = []
    for seed in range(7, 39):
        inst = generate(GenParams(6, 10, 1, 3, seed))
        caps = np.full(inst.n, inst.max_demand)
        base = solve_exact(to_capped(inst, caps))
        sol = solve_exact(to_capped(scaled(inst, 2.0**k), caps))
        assert np.array_equal(sol.y, base.y)
        if sol.counters != base.counters:
            moved.append((seed, base.counters, sol.counters))
    assert moved == []


@pytest.fixture(scope="module")
def oracle_pool() -> list[CappedInstance]:
    """The first 48 instances of the benchmark's oracle-6x12 pool (seeds 7-54)
    as solve_oracle hands them to solve_exact: caps at the largest demand, the
    main LP's certified duals and its opening."""
    pool = []
    for seed in range(7, 55):
        inst = generate(GenParams(6, 12, 1, 4, seed))
        frac, alpha = solve_lp(build_lp(inst))  # certified by solve_lp
        pool.append(to_capped(inst, caps_for(inst), alpha, frac.y))
    return pool


@pytest.fixture(scope="module")
def residual_pools() -> dict[str, list[CappedInstance]]:
    """The reduce- and large-mode residuals of the benchmark's 15x20 pool (seeds
    7-70, demands 1-5) as the pipeline hands them to its subroutine: split
    counts as caps, the main LP's certified duals and the residual opening."""
    pools = {"reduce": [], "large": []}
    for seed in range(7, 71):
        inst = generate(GenParams(15, 20, 1, 5, seed))
        frac, alpha = solve_lp(build_lp(inst))
        frac = trim_to_demand(frac, inst)
        for mode, decompose in (("reduce", decompose_reduce), ("large", decompose_large)):
            dec = decompose(frac, inst)
            pools[mode].append(to_capped(residual_instance(dec, inst), split_counts(dec), alpha, dec.ybar))
    return pools


def test_rounded_lp_opening_covers_every_client(oracle_pool, residual_pools):
    # sum_i min(ceil y_i, cap_i) >= sum_i x_ij = r_j, so solve_exact's first
    # incumbent never falls back to the caps on the pipeline's instances
    pools = {"oracle": oracle_pool, **residual_pools}
    for what, pool in pools.items():
        nonempty = [ci for ci in pool if ci.base.max_demand > 0]
        assert nonempty, what
        for ci in nonempty:
            y = np.minimum(np.ceil(ci.opening - OPENING_TOL), ci.caps).astype(np.int64)
            assert int(y.sum()) >= ci.base.max_demand  # room for every client's demand


def test_exact_never_calls_greedy(monkeypatch, instance_a, oracle_pool, residual_pools):
    def no_greedy(ci):
        raise AssertionError("solve_exact called solve_greedy")

    monkeypatch.setattr(ftfl_solvers, "solve_greedy", no_greedy)
    with pytest.raises(InfeasibleError, match="caps sum"):
        solve_exact(to_capped(instance_a, np.array([1, 0])))
    for ci in [*oracle_pool, *residual_pools["reduce"]]:
        solve_exact(ci)
        solve_exact(replace(ci, opening=None))


# y_digest of solve_exact over the first 48 instances of the benchmark's
# oracle-6x12 pool (seeds 7-54, caps at the largest demand), recorded before
# the search had its bound rows, greedy incumbent and Lagrangian bound.
ORACLE_POOL_Y_DIGEST = "bf455e04c4fb34e5791019578f5469bc1daeb0fa640f55a95ce72c56b61b8847"


@pytest.fixture(scope="module")
def oracle_pool_plans(oracle_pool):
    """(dual-free, certified-dual) solve_exact plans on oracle_pool, both from its LP opening."""
    return [(solve_exact(replace(ci, alpha=None)), solve_exact(ci)) for ci in oracle_pool]


def test_exact_plans_are_pinned_on_the_oracle_pool(oracle_pool_plans):
    assert y_digest(free for free, _ in oracle_pool_plans) == ORACLE_POOL_Y_DIGEST


def test_certified_duals_keep_the_oracle_pool_plans(oracle_pool_plans):
    assert y_digest(dual for _, dual in oracle_pool_plans) == ORACLE_POOL_Y_DIGEST
    for free, dual in oracle_pool_plans:
        assert np.array_equal(dual.x, free.x) and dual.cost == free.cost


def test_certified_duals_never_visit_more_nodes(oracle_pool_plans):
    # both searches start from the same incumbent, and a pruned subtree holds no
    # leaf the incumbent would accept, so both accept the same leaves in the same
    # order and test each node against the same cutoff.  With duals, the priced
    # bound charges every unit at least what the dual-free bound does, and the
    # root's reduced-cost fixing only drops values whose Lagrangian bound exceeds
    # the cutoff (which can only shrink each node's range), so, up to rounding,
    # the search with duals visits a subset of the dual-free search's nodes
    for free, dual in oracle_pool_plans:
        assert dual.counters["nodes"] <= free.counters["nodes"]


# y_digest of solve_exact on the reduce-mode residuals of the benchmark's 15x20
# pool (seeds 7-70, demands 1-5), with the main LP's certified duals, recorded
# while the search branched on sites in index order (1120302 nodes).
# RESIDUAL_POOL_NODES is the node total since it starts from the residual
# opening rounded up (70767 from the greedy plan, branching on the dearest
# sites first as now), re-recorded when the connection bound came to price
# undecided sites at max(d_ij, alpha_j) and the root to fix caps by reduced
# cost (51516 before).  The largest search visits 637 nodes (8961 before), so
# the default budget plans every one.  RESIDUAL_POOL_PRUNED is the total of
# counters["pruned_bound"], recorded alongside it while the walk still tested
# the Lagrangian bound before the priced one.
RESIDUAL_POOL_Y_DIGEST = "19e29c54b14b861d67f14d1ed200689f4af14e1b4270cfd84a93592ffa38ede3"
RESIDUAL_POOL_NODES = 2807
RESIDUAL_POOL_PRUNED = 1518


@pytest.fixture(scope="module")
def residual_pool_plans(residual_pools):
    """solve_exact's plans on the reduce-mode residual pool, under the default node budget."""
    return [solve_exact(ci) for ci in residual_pools["reduce"]]


def test_exact_plans_and_nodes_are_pinned_on_the_residual_pool(residual_pool_plans):
    assert y_digest(residual_pool_plans) == RESIDUAL_POOL_Y_DIGEST
    assert sum(plan.counters["nodes"] for plan in residual_pool_plans) == RESIDUAL_POOL_NODES
    assert sum(plan.counters["pruned_bound"] for plan in residual_pool_plans) == RESIDUAL_POOL_PRUNED


def test_every_residual_of_the_pool_plans_no_dearer_than_greedy(residual_pools, residual_pool_plans):
    assert len(residual_pool_plans) == len(residual_pools["reduce"]) == 64
    for ci, plan in zip(residual_pools["reduce"], residual_pool_plans):
        assert plan.cost <= solve_greedy(ci).cost


# ---------------------------------------------------------------------------
# node budget


def test_node_budget_default_and_override(monkeypatch):
    monkeypatch.delenv(NODE_BUDGET_ENV, raising=False)
    assert node_budget() == DEFAULT_NODE_BUDGET
    monkeypatch.setenv(NODE_BUDGET_ENV, "12345")
    assert node_budget() == 12345


@pytest.mark.parametrize("raw", ["zero", "", "0", "-5"])
def test_node_budget_rejects_bad_values(monkeypatch, raw):
    monkeypatch.setenv(NODE_BUDGET_ENV, raw)
    with pytest.raises(ValueError, match=NODE_BUDGET_ENV):
        node_budget()


def test_exact_dynamic_budget_check(monkeypatch):
    # all-zero costs disable pruning, so the whole tree of 14 covering nodes
    # (every y but the leaf y = 0) is walked and a budget of 8 refuses it partway
    monkeypatch.setenv(NODE_BUDGET_ENV, "8")
    inst = Instance(np.zeros(3), np.array([1]), np.zeros((3, 1)))
    with pytest.raises(BudgetExceededError, match="nodes"):
        solve_exact(to_capped(inst, np.array([1, 1, 1])))
    # with the budget just high enough the same search finishes
    monkeypatch.setenv(NODE_BUDGET_ENV, "14")
    sol = solve_exact(to_capped(inst, np.array([1, 1, 1])))
    assert sol.cost == 0.0
    # no bound beats the zero-cost incumbent, and the last site's children skip y = 0
    assert sol.counters == {"nodes": 14, "pruned_bound": 0}


# ---------------------------------------------------------------------------
# greedy solver


def test_greedy_on_fixture_b(instance_b):
    sol = solve_greedy(to_capped(instance_b, np.array([1, 1])))
    assert sol.cost == 2.0
    assert np.array_equal(sol.y, [1, 1])
    assert sol.counters == {"rounds": 2}  # one opening per client


def test_greedy_reuses_spare_capacity():
    # one site, two co-located clients with different prices: after opening
    # for the near client, the far one connects to the same facility's spare
    # slot instead of paying the opening cost again
    inst = Instance(np.array([0.1]), np.array([1, 1]), np.array([[0.0, 1.0]]))
    sol = solve_greedy(to_capped(inst, np.array([2])))
    assert np.array_equal(sol.y, [1])
    assert abs(sol.cost - 1.1) <= 1e-12


def test_greedy_opens_batch_when_cheaper():
    # expensive site, cheap connections: one opening should grab both clients
    inst = Instance(np.array([10.0]), np.array([1, 1]), np.array([[0.0, 0.1]]))
    sol = solve_greedy(to_capped(inst, np.array([2])))
    assert np.array_equal(sol.y, [1])
    assert abs(sol.cost - 10.1) <= 1e-12


def test_greedy_handles_zero_demand():
    inst = Instance(np.array([1.0]), np.array([0]), np.array([[1.0]]))
    sol = solve_greedy(to_capped(inst, np.array([1])))
    assert sol.cost == 0.0
    assert np.array_equal(sol.y, [0])


def test_greedy_infeasible_caps(instance_a):
    with pytest.raises(InfeasibleError, match="caps sum"):
        solve_greedy(to_capped(instance_a, np.array([0, 1])))


# y_digest of solve_greedy on 15x20 instances (seeds 7-54, demands 1-5), every
# cap at 2 and then at the largest demand, recorded while the solver still kept
# its state in numpy arrays.
GREEDY_Y_DIGEST = "8e4364d7cef8ffc17e7acc89f0b4cca5df1e07344d9f6c1ef873fef4053da410"


def test_greedy_plans_are_pinned():
    pool = [generate(GenParams(15, 20, 1, 5, seed)) for seed in range(7, 55)]
    plans = (solve_greedy(to_capped(inst, caps_for(inst, k))) for inst in pool for k in (2, None))
    assert y_digest(plans) == GREEDY_Y_DIGEST


@pytest.mark.parametrize("seed", range(50))
def test_greedy_is_feasible_and_bounded_below_by_exact(seed):
    rng = np.random.default_rng(13000 + seed)
    n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    inst = random_instance(13000 + seed, sites=n, clients=m, demand_min=0, demand_max=4)
    caps = rng.integers(max(inst.max_demand, 1), inst.max_demand + 2, n)
    greedy = solve_greedy(to_capped(inst, caps))
    assert np.all(greedy.y <= caps)
    assert np.all(greedy.x <= greedy.y[:, None])
    assert np.array_equal(greedy.x.sum(axis=0), inst.demands)
    assert greedy.cost == solution_cost(inst, greedy.y, greedy.x)
    exact = solve_exact(to_capped(inst, caps))
    assert greedy.cost >= exact.cost - 1e-9 * (1.0 + exact.cost)


# ---------------------------------------------------------------------------
# subroutine registry


def test_subroutine_lookup(instance_b):
    ex = subroutine("exact")
    assert ex.kind == "exact"
    sol = ex.fn(to_capped(instance_b, np.array([1, 1])))
    assert sol.cost == 2.0
    assert subroutine("greedy").kind == "greedy"
    with pytest.raises(ValueError, match="unknown subroutine"):
        subroutine("annealing")
