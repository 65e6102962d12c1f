"""LP relaxation: builder, simplex solver, duality certificates, trimming."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from conftest import random_instance, random_shape, scaled, uniform_demand
from oracles import lp_oracle, reference_check_duality, reference_simplex_min

from ftfp import lp_core
from ftfp.instance import GenParams, InfeasibleError, Instance, generate, validate
from ftfp.lp_core import (
    SimplexError,
    build_lp,
    candidate_pairs,
    check_duality,
    dual_terms,
    site_slack,
    solve_lp,
    trim_to_demand,
)

REL = 1e-9


def close(a: float, b: float, tol: float = REL) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(b))


def lp_objective(inst: Instance) -> float:
    return solve_lp(build_lp(inst))[0].objective


def full_lp(inst: Instance):
    """build_lp(inst) over every pair: the uncapped LP with candidate_pairs lifted."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp_core, "candidate_pairs", lambda case: np.ones((case.n, case.m), dtype=bool))
        return build_lp(inst)


# ---------------------------------------------------------------------------
# builder


def test_build_lp_shapes(instance_b):
    lp = full_lp(instance_b)
    n, m = instance_b.n, instance_b.m
    # rows y_i then theta_j; columns lambda_j then mu_lj per pair in site-major order
    assert lp.A.shape == (n + m, m + n * m)
    assert lp.c.size == m + n * m
    assert lp.b.tolist() == [-1.0, -1.0, -1.0, -1.0]  # -(f, 1)
    # lambda_1: -(y_0 + y_1), earning r_1
    assert lp.A[:, 1].tolist() == [-1.0, -1.0, 0.0, 0.0] and lp.c[1] == -1.0
    # mu of the cut (l, j) = (1, 0): theta_0 + max(0, d_10 - d_00) y_0 >= r_0 d_10 = 2
    col = m + 1 * m + 0
    assert lp.A[:, col].tolist() == [-2.0, 0.0, -1.0, 0.0] and lp.c[col] == -2.0


def test_build_lp_caps_rows(instance_a):
    caps = np.array([2.0, 2.0])
    lp = build_lp(instance_a, caps)
    n, m = instance_a.n, instance_a.m
    assert lp.A.shape == (n + m, m + n * m + n)
    assert lp.A[0, m + n * m + 0] == 1.0  # gamma_0 relaxes y_0's row, at cost cap_0
    assert lp.c[m + n * m + 0] == 2.0
    with pytest.raises(ValueError, match="caps"):
        build_lp(instance_a, np.array([1.0]))
    with pytest.raises(ValueError, match="caps"):
        build_lp(instance_a, np.array([-1.0, 1.0]))
    with pytest.raises(ValueError, match="caps"):
        build_lp(instance_a, np.array([np.nan, 1.0]))


def loop_built_lp(inst: Instance, caps: np.ndarray | None = None):
    """(A, b, c) of the dual of the full cut form, one entry at a time: the reference layout."""
    n, m = inst.n, inst.m
    cols = m + n * m + (n if caps is not None else 0)
    A = np.zeros((n + m, cols))
    b = np.zeros(n + m)
    c = np.zeros(cols)
    for i in range(n):
        b[i] = -inst.site_costs[i]
    for j in range(m):
        b[n + j] = -1.0
        c[j] = -float(inst.demands[j])
        for i in range(n):
            A[i, j] = -1.0
    t = m
    for l in range(n):
        for j in range(m):
            c[t] = -float(inst.demands[j]) * inst.dist[l, j]
            A[n + j, t] = -1.0
            for i in range(n):
                A[i, t] = -max(0.0, inst.dist[l, j] - inst.dist[i, j])
            t += 1
    if caps is not None:
        for i in range(n):
            A[i, t + i] = 1.0
            c[t + i] = caps[i]
    return A, b, c


@pytest.mark.parametrize("seed", range(10))
def test_all_pairs_layout_is_the_loop_layout(seed):
    rng = np.random.default_rng(500 + seed)
    n, m = random_shape(rng, 1, 6)
    inst = random_instance(500 + seed, sites=n, clients=m, demand_min=0, demand_max=4)
    caps = rng.integers(1, 5, n).astype(float)
    for lp, want in [(full_lp(inst), loop_built_lp(inst)), (build_lp(inst, caps), loop_built_lp(inst, caps))]:
        for got, ref in zip((lp.A, lp.b, lp.c), want):
            assert got.tobytes() == ref.tobytes()
        assert lp.pairs.all()


def test_pruned_lp_layout(instance_a):
    # f = (3, 10), d = (1, 2): u = min(3 + 1, 10 + 2) = 4, so both pairs stay;
    # raising d_1 to 5 > 4 drops site 1's pair, its cut column and its y_1 entries
    far = Instance(instance_a.site_costs, instance_a.demands, np.array([[1.0], [5.0]]))
    assert candidate_pairs(far).tolist() == [[True], [False]]
    lp = build_lp(far)
    assert lp.pairs.tolist() == [[True], [False]]
    assert lp.A.tolist() == [[-1.0, 0.0], [0.0, 0.0], [0.0, -1.0]]
    assert lp.b.tolist() == [-3.0, -10.0, -1.0] and lp.c.tolist() == [-2.0, -2.0]
    primal, alpha = solve_lp(lp)
    beta = dual_terms(alpha, far)[0]
    assert primal.x.shape == beta.shape == (2, 1)
    assert primal.x.tolist() == [[2.0], [0.0]] and beta[1, 0] == 0.0


# ---------------------------------------------------------------------------
# fixtures solved exactly


def test_fixture_a_lp(instance_a):
    primal, alpha = solve_lp(build_lp(instance_a))
    assert primal.objective == 8.0
    assert np.array_equal(primal.y, [2.0, 0.0])
    assert np.array_equal(primal.x.ravel(), [2.0, 0.0])
    assert close(float(instance_a.demands @ alpha), 8.0, 1e-12)
    assert dual_terms(alpha, instance_a)[1] is None


def test_fixture_b_lp(instance_b):
    primal, alpha = solve_lp(build_lp(instance_b))
    assert primal.objective == 2.0
    assert np.array_equal(primal.y, [1.0, 1.0])
    assert close(float(instance_b.demands @ alpha), 2.0, 1e-12)


def test_fixture_a_capped_lp(instance_a):
    # with one facility allowed per site both sites must open fully
    caps = np.array([1.0, 1.0])
    primal, alpha = solve_lp(build_lp(instance_a, caps))
    assert primal.objective == 16.0
    assert np.array_equal(primal.y, [1.0, 1.0])
    beta, gamma = dual_terms(alpha, instance_a, caps)
    assert gamma is not None and gamma.shape == (2,)
    # the caps bind, so at least one cap multiplier must be active
    assert gamma.max() > 0.0
    assert check_duality(primal, alpha, instance_a, caps) == []
    # the certificate's value r.alpha - caps.gamma, with the least gamma, is the optimum
    assert close(float(instance_a.demands @ alpha) - float(caps @ gamma), 16.0, 1e-12)


def test_infeasible_caps_raise(instance_a):
    with pytest.raises(InfeasibleError, match="caps sum"):
        solve_lp(build_lp(instance_a, np.array([1.0, 0.0])))


def test_an_unbounded_dual_is_a_simplex_error(instance_a, monkeypatch):
    # the cover rule keeps such an LP from build_lp; with the rule lifted, caps that sum
    # to 1 against a demand of 2 leave the dual unbounded, which the simplex reports as
    # its own failure
    monkeypatch.setattr(lp_core, "require_cover", lambda inst, caps: None)
    with pytest.raises(SimplexError, match="unbounded"):
        solve_lp(build_lp(instance_a, np.array([1.0, 0.0])))


def test_build_lp_keeps_a_read_only_copy_of_the_caps(instance_a):
    caps = np.array([2, 2])
    lp = build_lp(instance_a, caps)
    assert lp.caps.dtype == np.float64 and not lp.caps.flags.writeable
    assert caps.flags.writeable and not np.shares_memory(caps, lp.caps)
    with pytest.raises(ValueError, match="caps must be reals"):
        build_lp(instance_a, np.array([True, True]))


@pytest.mark.parametrize("caps", [None, np.array([2.0, 2.0])])
def test_refuted_certificate_raises(caps, instance_a, monkeypatch):
    seen = []

    def refuted(primal, dual, inst, checked_caps=None):
        seen.append((inst, checked_caps))
        return ["duality gap too wide"]

    monkeypatch.setattr(lp_core, "check_duality", refuted)
    lp = build_lp(instance_a, caps)
    with pytest.raises(SimplexError, match="'fixture-a' failed its duality check: duality gap too wide"):
        solve_lp(lp)
    # the certificate is checked on the LP's own instance and caps
    [(inst, checked_caps)] = seen
    assert inst is instance_a and checked_caps is lp.caps


def _patch_simplex_values(monkeypatch, edit):
    """Make solve_lp read the simplex's values v after edit(v) has changed them in place."""
    simplex = lp_core._simplex_min

    def patched(A, b, c):
        v, duals, work = simplex(A, b, c)
        edit(v)
        return v, duals, work

    monkeypatch.setattr(lp_core, "_simplex_min", patched)


def test_a_value_clipped_to_a_certified_point_is_accepted(monkeypatch):
    # a zero of v pushed to -1e-6, far below FEAS_TOL: solve_lp clips it back to 0, and
    # the certificate of the clipped point decides, so the result is the unpatched one
    inst = generate(GenParams(8, 10, 1, 4, 7))
    primal, alpha = solve_lp(build_lp(inst))

    def lower_a_zero(v):
        v[np.flatnonzero(v == 0.0)[0]] -= 1e-6

    _patch_simplex_values(monkeypatch, lower_a_zero)
    clipped, clipped_alpha = solve_lp(build_lp(inst))
    assert clipped.y.tobytes() == primal.y.tobytes()
    assert clipped_alpha.tobytes() == alpha.tobytes()


def test_a_negative_lambda_fails_the_certificate(instance_a, monkeypatch):
    # lambda_0 = 2 carries most of fixture-a's alpha; negated and clipped, it leaves a
    # duality gap, and the certificate is what refuses it
    def flip_a_lambda(v):
        v[np.flatnonzero(v[: instance_a.m] > 0.0)[0]] *= -1.0

    _patch_simplex_values(monkeypatch, flip_a_lambda)
    with pytest.raises(SimplexError, match="failed its duality check"):
        solve_lp(build_lp(instance_a))


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
    assert check_duality(primal, dual, inst) == []


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
    assert check_duality(primal, dual, inst, caps) == []
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
    base = lp_objective(uniform_demand(inst, 1))
    for s in range(2, 7):
        scaled = lp_objective(uniform_demand(inst, s))
        assert close(scaled, s * base, 1e-9), (s, scaled, s * base)


def test_lp_zero_demand_costs_nothing():
    inst = random_instance(5, sites=3, clients=3, demand_min=0, demand_max=0)
    assert lp_objective(inst) == 0.0


def test_solve_lp_is_deterministic():
    inst = random_instance(99, sites=5, clients=5, demand_min=1, demand_max=4)
    a, _ = solve_lp(build_lp(inst))
    b, _ = solve_lp(build_lp(inst))
    assert a.x.tobytes() == b.x.tobytes()
    assert a.y.tobytes() == b.y.tobytes()
    assert a.objective == b.objective
    assert a.counters == b.counters


def test_solve_lp_counters(instance_b):
    lp = build_lp(instance_b)
    primal, alpha = solve_lp(lp)
    counters = primal.counters
    n, m = instance_b.n, instance_b.m
    assert list(counters) == ["rows", "cols", "pivots", "degenerate_pivots", "bland_pivots", "duality_gap"]
    assert counters["rows"] == n + m
    assert counters["cols"] == m + int(lp.pairs.sum()) == m + 2  # each client keeps only its own site
    assert 0.0 <= counters["duality_gap"] <= 1e-6 * (1.0 + primal.objective)
    assert counters["duality_gap"] == abs(primal.objective - float(instance_b.demands @ alpha))
    assert counters["pivots"] >= 1  # the slack basis v = 0 is not optimal when demand is positive
    assert counters["degenerate_pivots"] <= counters["pivots"]
    assert counters["bland_pivots"] <= counters["pivots"]


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
    assert check_duality(primal, dual, inst) == []


def test_degenerate_family_drives_the_bland_fallback(monkeypatch):
    # the anti-cycling path must be exercised, not only present; in the cut form
    # no run here reaches 16 degenerate pivots, so the fallback starts after one
    monkeypatch.setattr(lp_core, "_DEGENERATE_RUN", 1)
    fallback = 0
    for seed in DEGENERATE_SEEDS:
        inst = degenerate_instance(seed)
        primal, dual = solve_lp(build_lp(inst))
        if primal.counters["bland_pivots"] > 0:
            fallback += 1
            assert close(primal.objective, lp_oracle(inst)), seed
            assert check_duality(primal, dual, inst) == [], seed
    assert fallback >= 1


def test_dantzig_pricing_cuts_pivots(monkeypatch):
    inst = random_instance(7, sites=10, clients=15, demand_min=1, demand_max=5)
    dantzig = solve_lp(build_lp(inst))[0].counters
    monkeypatch.setattr(lp_core, "_DEGENERATE_RUN", 0)
    bland = solve_lp(build_lp(inst))[0].counters

    assert 2 * dantzig["pivots"] < bland["pivots"], (dantzig, bland)


@pytest.mark.parametrize("seed", range(8000, 8010))
def test_bland_throughout_reaches_the_same_optimum(seed, monkeypatch):
    inst = degenerate_instance(seed)
    dantzig, _ = solve_lp(build_lp(inst))
    monkeypatch.setattr(lp_core, "_DEGENERATE_RUN", 0)
    primal, dual = solve_lp(build_lp(inst))
    # every pivot is priced by Bland's rule
    assert primal.counters["bland_pivots"] == primal.counters["pivots"]
    assert close(primal.objective, dantzig.objective)
    assert close(primal.objective, lp_oracle(inst))
    assert check_duality(primal, dual, inst) == []


# ---------------------------------------------------------------------------
# the pivot loop against its previous whole-array form, bit for bit


def simplex_outcome(simplex, lp) -> tuple:
    """(v, duals, counters) of one solve as bytes, or the unbounded-dual message."""
    try:
        v, duals, counters = simplex(lp.A, lp.b, lp.c)
    except SimplexError as exc:
        return ("infeasible", str(exc))
    return v.tobytes(), duals.tobytes(), counters


POOL_SHAPES = {"15x20": (15, 20, 5), "6x12": (6, 12, 4)}  # sites, clients, top demand of each benchmark pool


def pool_lps(family: str) -> list:
    """The LPs of one family: the benchmark pools' candidate-pair LPs, capped ones, degenerate all-pair ones."""
    if family == "degenerate":
        return [full_lp(degenerate_instance(seed)) for seed in DEGENERATE_SEEDS]
    if family in POOL_SHAPES:
        n, m, top = POOL_SHAPES[family]
        pool = (generate(GenParams(n, m, 1, top, seed)) for seed in range(7, 71))
        return [build_lp(inst) for inst in pool]
    # uniform:2 on both pools, and uniform:0 (no feasible point) on a few instances; build_lp
    # refuses the latter by the cover rule, so it is lifted to keep the unbounded dual under test
    lps = [build_lp(generate(GenParams(n, m, 1, top, seed)), np.full(n, 2.0))
           for n, m, top in POOL_SHAPES.values() for seed in range(7, 23)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp_core, "require_cover", lambda inst, caps: None)
        return lps + [build_lp(generate(GenParams(6, 12, 1, 4, seed)), np.zeros(6)) for seed in range(7, 11)]


@pytest.mark.parametrize(
    "family, run",
    [("15x20", None), ("6x12", None), ("uniform2", None), ("degenerate", 0), ("degenerate", 1), ("degenerate", None)],
)
def test_simplex_matches_the_reference_bitwise(family, run, monkeypatch):
    if run is not None:  # a run of 0 prices every pivot by Bland's rule, 1 switches after one
        monkeypatch.setattr(lp_core, "_DEGENERATE_RUN", run)
    outcomes = []
    for lp in pool_lps(family):
        got = simplex_outcome(lp_core._simplex_min, lp)
        assert got == simplex_outcome(reference_simplex_min, lp)
        outcomes.append(got)
    solved = [o for o in outcomes if o[0] != "infeasible"]
    assert solved and all(o[2]["pivots"] > 0 for o in solved)
    if family == "uniform2":
        assert len(solved) == len(outcomes) - 4
    if run is not None:
        assert any(o[2]["bland_pivots"] > 0 for o in solved)


# ---------------------------------------------------------------------------
# LPs over candidate_pairs: certified on the full instance, equal to the full LP and HiGHS


def assert_pruned_lp_is_exact(inst: Instance) -> np.ndarray:
    """The LP over candidate_pairs is certified on the full instance and has the full optimum."""
    mask = candidate_pairs(inst)
    assert mask.any(axis=0).all()  # every client keeps a site
    primal, alpha = solve_lp(build_lp(inst))
    assert not primal.x[~mask].any() and not dual_terms(alpha, inst)[0][~mask].any()
    assert check_duality(primal, alpha, inst) == []
    full = solve_lp(full_lp(inst))[0].objective
    assert close(primal.objective, full), (primal.objective, full)
    want = lp_oracle(inst)
    assert close(primal.objective, want), (primal.objective, want)
    return mask


@pytest.mark.parametrize("seed", DEGENERATE_SEEDS)
def test_pruned_lp_on_degenerate_family(seed):
    assert_pruned_lp_is_exact(degenerate_instance(seed))


@pytest.mark.parametrize("cost_exp", [-6, -3, 0, 3, 6])
@pytest.mark.parametrize("dist_exp", [-6, -3, 0, 3, 6])
def test_pruned_lp_across_scales(cost_exp, dist_exp):
    for seed in range(3):
        rng = np.random.default_rng(600 + seed)
        n, m = random_shape(rng, 1, 6)
        inst = random_instance(600 + seed, sites=n, clients=m, demand_min=0, demand_max=4)
        scaled = Instance(inst.site_costs * 10.0**cost_exp, inst.demands, inst.dist * 10.0**dist_exp)
        assert_pruned_lp_is_exact(scaled)


@pytest.mark.parametrize("seed", range(10))
def test_pruned_lp_with_large_demands(seed):
    rng = np.random.default_rng(700 + seed)
    n, m = random_shape(rng, 2, 6)
    assert_pruned_lp_is_exact(random_instance(700 + seed, sites=n, clients=m, demand_min=1, demand_max=40))


@pytest.mark.parametrize("seed", range(10))
def test_pruned_lp_with_free_sites_keeps_only_nearest(seed):
    rng = np.random.default_rng(800 + seed)
    n, m = random_shape(rng, 1, 6)
    inst = random_instance(800 + seed, sites=n, clients=m, demand_min=0, demand_max=4)
    # on a small integer grid several sites tie for nearest
    dist = np.round(inst.dist * 4) if seed % 2 else inst.dist
    free = Instance(np.zeros(n), inst.demands, dist)
    mask = assert_pruned_lp_is_exact(free)
    assert np.array_equal(mask, dist == dist.min(axis=0))


def loop_fill(y: np.ndarray, inst: Instance, mask: np.ndarray) -> np.ndarray:
    """Each client's demand taken from y over its masked sites, nearest first, lowest index on ties."""
    x = np.zeros((inst.n, inst.m))
    for j in range(inst.m):
        rem = float(inst.demands[j])
        for i in sorted(range(inst.n), key=lambda i: (inst.dist[i, j], i)):
            if mask[i, j]:
                x[i, j] = min(y[i], rem)
                rem -= x[i, j]
    return x


@pytest.mark.parametrize("seed", range(10))
def test_connections_fill_y_in_scan_order(seed):
    for inst in (random_instance(900 + seed, sites=5, clients=6, demand_min=0, demand_max=4),
                 degenerate_instance(8100 + seed)):
        for lp in (full_lp(inst), build_lp(inst)):
            primal, _ = solve_lp(lp)
            assert np.allclose(primal.x, loop_fill(primal.y, inst, lp.pairs), rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# certificate checking must also reject


def test_check_duality_rejects_undercoverage(instance_a):
    primal, dual = solve_lp(build_lp(instance_a))
    broken = type(primal)(x=primal.x * 0.25, y=primal.y, objective=primal.objective)
    bad = check_duality(broken, dual, instance_a)
    assert any(msg.startswith("coverage:") for msg in bad)


def test_check_duality_rejects_linking_violation(instance_b):
    primal, dual = solve_lp(build_lp(instance_b))
    broken = type(primal)(x=primal.x + 0.5, y=primal.y, objective=primal.objective)
    bad = check_duality(broken, dual, instance_b)
    assert any("linking" in msg for msg in bad)


def test_check_duality_rejects_inflated_dual(instance_a):
    primal, alpha = solve_lp(build_lp(instance_a))
    assert check_duality(primal, alpha + 1.0, instance_a)


def test_check_duality_rejects_wrong_objective_field(instance_a):
    primal, dual = solve_lp(build_lp(instance_a))
    lying = type(primal)(x=primal.x, y=primal.y, objective=primal.objective + 5.0)
    bad = check_duality(lying, dual, instance_a)
    assert any("objective field" in msg for msg in bad)


def test_check_duality_reports_negative_dual(instance_a):
    primal, alpha = solve_lp(build_lp(instance_a))
    bad = check_duality(primal, alpha - 10.0, instance_a)
    assert any(msg.startswith("dual_nonneg:") for msg in bad)


def test_check_duality_fails_closed_on_non_finite_values(instance_a):
    primal, alpha = solve_lp(build_lp(instance_a))
    assert any(msg.startswith("dual_nonneg:") for msg in check_duality(primal, alpha * np.nan, instance_a))
    # abs(nan) > tol is false, so a NaN objective field must fail the comparison itself
    nan_primal = type(primal)(x=primal.x, y=primal.y, objective=np.nan)
    assert any(msg.startswith("objective field") for msg in check_duality(nan_primal, alpha, instance_a))


# ---------------------------------------------------------------------------
# the certificate is alpha: its bits, and the verdicts of the whole-dual check

# sha256 over the bytes of solve_lp's alpha on the benchmark's 15x20 pool
# (seeds 7-70, demands 1-5) and then on the first 48 instances of its 6x12 pool
# (seeds 7-54, demands 1-4), recorded while solve_lp still read beta and gamma
# out of the simplex's columns
ALPHA_POOL_DIGEST = "96bfdf73049c13bd8c6cca0529234ce58e8e50940f80b7b1bf44d67177b068ae"


def test_alpha_is_pinned_on_the_pools():
    digest = hashlib.sha256()
    for shape, seeds in (((15, 20, 1, 5), range(7, 71)), ((6, 12, 1, 4), range(7, 55))):
        for seed in seeds:
            digest.update(solve_lp(build_lp(generate(GenParams(*shape, seed))))[1].tobytes())
    assert digest.hexdigest() == ALPHA_POOL_DIGEST


@pytest.mark.parametrize("family", ["15x20", "6x12", "uniform2", "degenerate"])
def test_check_duality_agrees_with_the_whole_dual_check(family):
    # alpha passes exactly when its least extension passes the seven-family check,
    # and both refuse an inflated (uncapped), a negative and a NaN alpha
    solved = 0
    for lp in pool_lps(family):
        try:
            primal, alpha = solve_lp(lp)
        except SimplexError:  # the unbounded duals of the uniform:0 LPs
            continue
        solved += 1
        inst, caps = lp.inst, lp.caps
        trials = [alpha, alpha - 10.0, alpha * np.nan] + ([alpha + 1.0] if caps is None else [])
        for k, a in enumerate(trials):
            ours = check_duality(primal, a, inst, caps)
            ref = reference_check_duality(primal, a, *dual_terms(a, inst, caps), inst, caps)
            assert (ours == []) == (ref == []) == (k == 0), (family, k, ours, ref)
    assert solved


def test_check_duality_refuses_a_site_budget_the_gap_cannot_see():
    # client 1 has no demand, so raising alpha_1 leaves r.alpha and the gap as they
    # are; only the site budget sum_j max(0, alpha_j - d_ij) <= f_i refuses it
    inst = Instance(np.array([1.0]), np.array([1, 0]), np.array([[0.0, 0.0]]))
    primal, alpha = solve_lp(build_lp(inst))
    assert check_duality(primal, alpha, inst) == []
    raised = alpha + np.array([0.0, 5.0])
    bad = check_duality(primal, raised, inst)
    assert [msg.split(":")[0] for msg in bad] == ["site_budget"]
    assert reference_check_duality(primal, raised, *dual_terms(raised, inst), inst) == ["site_budget"]


def test_certificate_tolerances_follow_the_cost_unit():
    # at costs of ~1e9 an ulp is ~1.2e-7: a site budget short by two ulps, which the simplex
    # can leave unless the LP is normalised, fails an absolute 1e-7 and passes
    # FEAS_TOL * cost_unit
    inst = scaled(generate(GenParams(8, 10, 1, 4, 13)), 1e9)
    primal, alpha = solve_lp(build_lp(inst))
    assert check_duality(primal, alpha, inst) == []
    tight = int(np.argmin(site_slack(alpha, inst)))
    f = inst.site_costs.copy()
    f[tight] -= 2.5e-7
    short = Instance(f, inst.demands, inst.dist)
    assert site_slack(alpha, short).min() < -lp_core.FEAS_TOL
    assert check_duality(primal, alpha, short) == []


def test_a_singular_final_basis_is_a_simplex_error(instance_a, monkeypatch):
    def singular(*_):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(SimplexError, match="final basis"):
        solve_lp(build_lp(instance_a))


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


@pytest.mark.parametrize("seed", range(7, 71))
def test_trim_leaves_the_lp_fill_bitwise_unchanged(seed):
    # solve_lp's x is already a scan fill meeting each demand, so refilling it changes no bit
    inst = random_instance(seed, sites=15, clients=20, demand_min=1, demand_max=5)
    primal, _ = solve_lp(build_lp(inst))
    assert trim_to_demand(primal, inst).x.tobytes() == primal.x.tobytes()


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
    with pytest.raises(ValueError, match="coverage"):
        trim_to_demand(thin, instance_a)
