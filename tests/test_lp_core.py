"""LP relaxation: builder, simplex solver, duality certificates, trimming."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import random_instance, random_shape
from oracles import lp_oracle

from ftfp import lp_core
from ftfp.instance import Instance, uniform_demand_copy, validate
from ftfp.lp_core import (
    DualSolution,
    LpInfeasibleError,
    build_lp,
    check_duality,
    lp_objective,
    solve_lp,
    trim_to_demand,
)

REL = 1e-9


def close(a: float, b: float, tol: float = REL) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(b))


# ---------------------------------------------------------------------------
# builder


def test_build_lp_shapes(instance_b):
    lp = build_lp(instance_b)
    n, m = instance_b.n, instance_b.m
    assert lp.var_count == n + n * m
    assert lp.A.shape == (n * m + m, lp.var_count)
    assert lp.c.size == lp.var_count
    # linking row for (i, j): y_i - x_ij >= 0
    row = lp.A[1 * m + 0]
    assert row[lp.y_col(1)] == 1.0 and row[lp.x_col(1, 0)] == -1.0
    # coverage row for client 1 sums x over sites
    cov = lp.A[n * m + 1]
    assert cov[lp.x_col(0, 1)] == 1.0 and cov[lp.x_col(1, 1)] == 1.0
    assert lp.b[n * m + 1] == 1.0


def test_build_lp_caps_rows(instance_a):
    caps = np.array([2.0, 2.0])
    lp = build_lp(instance_a, caps)
    n, m = instance_a.n, instance_a.m
    assert lp.A.shape[0] == n * m + m + n
    assert lp.A[n * m + m + 0, lp.y_col(0)] == -1.0
    assert lp.b[n * m + m + 0] == -2.0
    with pytest.raises(ValueError, match="caps"):
        build_lp(instance_a, np.array([1.0]))
    with pytest.raises(ValueError, match="caps"):
        build_lp(instance_a, np.array([-1.0, 1.0]))


# ---------------------------------------------------------------------------
# fixtures solved exactly


def test_fixture_a_lp(instance_a):
    primal, dual = solve_lp(build_lp(instance_a))
    assert primal.objective == 8.0
    assert np.array_equal(primal.y, [2.0, 0.0])
    assert np.array_equal(primal.x.ravel(), [2.0, 0.0])
    assert close(dual.objective, 8.0, 1e-12)
    assert dual.gamma is None


def test_fixture_b_lp(instance_b):
    primal, dual = solve_lp(build_lp(instance_b))
    assert primal.objective == 2.0
    assert np.array_equal(primal.y, [1.0, 1.0])
    assert close(dual.objective, 2.0, 1e-12)


def test_fixture_a_capped_lp(instance_a):
    # with one facility allowed per site both sites must open fully
    caps = np.array([1.0, 1.0])
    primal, dual = solve_lp(build_lp(instance_a, caps))
    assert primal.objective == 16.0
    assert np.array_equal(primal.y, [1.0, 1.0])
    assert dual.gamma is not None and dual.gamma.shape == (2,)
    # the caps bind, so at least one cap multiplier must be active
    assert dual.gamma.max() > 0.0
    rep = check_duality(primal, dual, instance_a, caps)
    assert rep.ok, rep.messages


def test_infeasible_caps_raise(instance_a):
    with pytest.raises(LpInfeasibleError):
        solve_lp(build_lp(instance_a, np.array([1.0, 0.0])))


# ---------------------------------------------------------------------------
# cross-checks against an independent solver


@pytest.mark.parametrize("seed", range(60))
def test_lp_matches_reference_solver(seed):
    rng = np.random.default_rng(1000 + seed)
    n, m = random_shape(rng, 1, 6)
    inst = random_instance(1000 + seed, sites=n, clients=m, demand_min=0, demand_max=4)
    primal, dual = solve_lp(build_lp(inst))
    want = lp_oracle(inst)
    assert close(primal.objective, want), (primal.objective, want)
    rep = check_duality(primal, dual, inst)
    assert rep.ok, rep.messages


@pytest.mark.parametrize("seed", range(40))
def test_capped_lp_matches_reference_solver(seed):
    rng = np.random.default_rng(2000 + seed)
    n, m = random_shape(rng, 1, 5)
    inst = random_instance(2000 + seed, sites=n, clients=m, demand_min=1, demand_max=4)
    # feasible by construction: every site may host the largest demand
    caps = rng.integers(inst.max_demand, inst.max_demand + 3, n).astype(float)
    primal, dual = solve_lp(build_lp(inst, caps))
    want = lp_oracle(inst, caps)
    assert close(primal.objective, want)
    rep = check_duality(primal, dual, inst, caps)
    assert rep.ok, rep.messages
    # tightening can only raise the optimum
    base, _ = solve_lp(build_lp(inst))
    assert primal.objective >= base.objective - 1e-9 * (1.0 + base.objective)


# ---------------------------------------------------------------------------
# structural LP properties


@pytest.mark.parametrize("seed", range(15))
def test_lp_monotone_in_demand(seed):
    inst = random_instance(3000 + seed, sites=4, clients=4, demand_min=1, demand_max=3)
    base = lp_objective(inst)
    r = inst.demands.copy()
    r[seed % inst.m] += 1
    bigger = lp_objective(Instance(inst.site_costs, r, inst.dist))
    assert bigger >= base - 1e-9 * (1.0 + base)


@pytest.mark.parametrize("seed", range(10))
def test_lp_scales_with_uniform_demand(seed):
    inst = random_instance(4000 + seed, sites=4, clients=4)
    base = lp_objective(uniform_demand_copy(inst, 1))
    for s in range(2, 7):
        scaled = lp_objective(uniform_demand_copy(inst, s))
        assert close(scaled, s * base, 1e-9), (s, scaled, s * base)


def test_lp_zero_demand_costs_nothing():
    inst = random_instance(5, sites=3, clients=3, demand_min=0, demand_max=0)
    assert lp_objective(inst) == 0.0


def test_solve_lp_is_deterministic():
    inst = random_instance(99, sites=5, clients=5, demand_min=1, demand_max=4)
    ca: dict = {}
    cb: dict = {}
    a, _ = solve_lp(build_lp(inst), ca)
    b, _ = solve_lp(build_lp(inst), cb)
    assert a.x.tobytes() == b.x.tobytes()
    assert a.y.tobytes() == b.y.tobytes()
    assert a.objective == b.objective
    assert ca == cb


def test_solve_lp_counters(instance_b):
    counters: dict = {}
    solve_lp(build_lp(instance_b), counters)
    n, m = instance_b.n, instance_b.m
    assert counters["rows"] == n * m + m
    assert counters["cols"] == n + n * m
    assert counters["phase1_pivots"] >= m  # every coverage row starts on an artificial
    for key in ("phase2_pivots", "degenerate_pivots", "bland_pivots"):
        assert counters[key] >= 0
    assert counters["degenerate_pivots"] <= counters["phase1_pivots"] + counters["phase2_pivots"]


def test_zero_demand_clients_do_not_move_the_optimum():
    for seed in range(40):
        rng = np.random.default_rng(7000 + seed)
        n, m = random_shape(rng, 1, 6)
        inst = random_instance(7000 + seed, sites=n, clients=m, demand_min=0, demand_max=3)
        live = np.nonzero(inst.demands > 0)[0]
        if live.size == 0:
            assert lp_objective(inst) == 0.0
            continue
        restricted = Instance(inst.site_costs, inst.demands[live], inst.dist[:, live])
        full, cut = lp_objective(inst), lp_objective(restricted)
        assert close(cut, full), (seed, full, cut)


# ---------------------------------------------------------------------------
# degenerate LPs: co-located identical sites and integer-grid distance ties


def degenerate_instance(seed: int) -> Instance:
    """Sites stacked in identical copies on a small integer grid, Manhattan distances."""
    rng = np.random.default_rng(seed)
    grid = int(rng.integers(1, 4))
    distinct = int(rng.integers(1, 6))
    points = rng.integers(0, grid + 1, size=(distinct, 2))
    costs = rng.integers(0, 4, size=distinct).astype(float)
    copies = rng.integers(1, 4, size=distinct)
    sites = np.repeat(points, copies, axis=0)
    m = int(rng.integers(1, 9))
    clients = rng.integers(0, grid + 1, size=(m, 2))
    dist = np.abs(sites[:, None, :] - clients[None, :, :]).sum(axis=2).astype(float)
    return Instance(np.repeat(costs, copies), rng.integers(1, 4, size=m), dist)


DEGENERATE_SEEDS = range(8000, 8060)


@pytest.mark.parametrize("seed", DEGENERATE_SEEDS)
def test_degenerate_lp_matches_reference_solver(seed):
    inst = degenerate_instance(seed)
    assert validate(inst) == []
    primal, dual = solve_lp(build_lp(inst))
    want = lp_oracle(inst)
    assert close(primal.objective, want), (primal.objective, want)
    rep = check_duality(primal, dual, inst)
    assert rep.ok, rep.messages


def test_degenerate_family_drives_the_bland_fallback():
    # the anti-cycling path must be exercised, not only present
    fallback = 0
    for seed in DEGENERATE_SEEDS:
        counters: dict = {}
        solve_lp(build_lp(degenerate_instance(seed)), counters)
        fallback += counters["bland_pivots"] > 0
    assert fallback >= 1


def test_dantzig_pricing_cuts_pivots(monkeypatch):
    inst = random_instance(7, sites=10, clients=15, demand_min=1, demand_max=5)
    dantzig: dict = {}
    solve_lp(build_lp(inst), dantzig)
    monkeypatch.setattr(lp_core, "_DEGENERATE_RUN", 0)
    bland: dict = {}
    solve_lp(build_lp(inst), bland)

    def total(c):
        return c["phase1_pivots"] + c["phase2_pivots"]

    assert 2 * total(dantzig) < total(bland), (dantzig, bland)


@pytest.mark.parametrize("seed", range(8000, 8010))
def test_bland_throughout_reaches_the_same_optimum(seed, monkeypatch):
    inst = degenerate_instance(seed)
    dantzig, _ = solve_lp(build_lp(inst))
    monkeypatch.setattr(lp_core, "_DEGENERATE_RUN", 0)
    counters: dict = {}
    primal, dual = solve_lp(build_lp(inst), counters)
    # every priced pivot is Bland's; phase 1 also counts unpriced drive-out pivots
    assert counters["phase2_pivots"] <= counters["bland_pivots"]
    assert counters["bland_pivots"] <= counters["phase1_pivots"] + counters["phase2_pivots"]
    assert close(primal.objective, dantzig.objective)
    assert close(primal.objective, lp_oracle(inst))
    assert check_duality(primal, dual, inst).ok


# ---------------------------------------------------------------------------
# certificate checking must also reject


def test_check_duality_rejects_undercoverage(instance_a):
    primal, dual = solve_lp(build_lp(instance_a))
    broken = type(primal)(x=primal.x * 0.25, y=primal.y, objective=primal.objective)
    rep = check_duality(broken, dual, instance_a)
    assert not rep.ok
    assert any("coverage" in msg for msg in rep.messages)
    assert rep.worst_slack["coverage"] < -1e-7


def test_check_duality_rejects_linking_violation(instance_b):
    primal, dual = solve_lp(build_lp(instance_b))
    broken = type(primal)(x=primal.x + 0.5, y=primal.y, objective=primal.objective)
    rep = check_duality(broken, dual, instance_b)
    assert not rep.ok
    assert any("linking" in msg for msg in rep.messages)


def test_check_duality_rejects_inflated_dual(instance_a):
    primal, dual = solve_lp(build_lp(instance_a))
    inflated = DualSolution(
        alpha=dual.alpha + 1.0,
        beta=dual.beta,
        objective=float((dual.alpha + 1.0) @ instance_a.demands),
        gamma=None,
    )
    rep = check_duality(primal, inflated, instance_a)
    assert not rep.ok


def test_check_duality_rejects_wrong_objective_field(instance_a):
    primal, dual = solve_lp(build_lp(instance_a))
    lying = type(primal)(x=primal.x, y=primal.y, objective=primal.objective + 5.0)
    rep = check_duality(lying, dual, instance_a)
    assert not rep.ok
    assert any("objective field" in msg for msg in rep.messages)


def test_check_duality_reports_negative_dual(instance_a):
    primal, dual = solve_lp(build_lp(instance_a))
    neg = DualSolution(alpha=dual.alpha - 10.0, beta=dual.beta, objective=dual.objective)
    rep = check_duality(primal, neg, instance_a)
    assert not rep.ok
    assert rep.worst_slack["dual_nonneg"] < -1e-7


# ---------------------------------------------------------------------------
# trimming


@pytest.mark.parametrize("seed", range(20))
def test_trim_reaches_exact_coverage(seed):
    rng = np.random.default_rng(6000 + seed)
    n, m = random_shape(rng, 1, 5)
    inst = random_instance(6000 + seed, sites=n, clients=m, demand_min=0, demand_max=4)
    primal, _ = solve_lp(build_lp(inst))
    trimmed = trim_to_demand(primal, inst)
    have = trimmed.x.sum(axis=0)
    assert np.array_equal(have, inst.demands.astype(float)), (have, inst.demands)
    # trimming only removes flow, never adds, and never touches y
    assert np.all(trimmed.x <= primal.x + 1e-12)
    assert np.array_equal(trimmed.y, primal.y)
    assert trimmed.objective <= primal.objective + 1e-9 * (1.0 + primal.objective)
    # idempotent
    again = trim_to_demand(trimmed, inst)
    assert again.x.tobytes() == trimmed.x.tobytes()


def test_trim_drops_expensive_surplus(instance_a):
    from ftfp.lp_core import FractionalSolution

    # client has demand 2 but 3 units of flow; the d=2 unit must go
    fat = FractionalSolution(
        x=np.array([[2.0], [1.0]]), y=np.array([2.0, 1.0]), objective=0.0
    )
    slim = trim_to_demand(fat, instance_a)
    assert np.array_equal(slim.x, [[2.0], [0.0]])
    assert slim.objective == 3.0 * 2 + 10.0 * 1 + 1.0 * 2


def test_trim_rejects_undercoverage(instance_a):
    from ftfp.lp_core import FractionalSolution

    thin = FractionalSolution(x=np.array([[1.0], [0.0]]), y=np.array([1.0, 0.0]), objective=0.0)
    with pytest.raises(ValueError, match="undercovered"):
        trim_to_demand(thin, instance_a)
