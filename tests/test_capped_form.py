"""Capped instances, site splitting, and the equivalence between the two."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import random_instance
from oracles import enumerate_optimum, lp_oracle, materialize_split, merge_solution

from ftfp.decompose import decompose_large, decompose_reduce
from ftfp.ftfl_solvers import CappedInstance, InfeasibleError, IntegralSolution, solve_exact, solve_greedy, to_capped
from ftfp.instance import solution_cost
from ftfp.lp_core import build_lp, solve_lp, trim_to_demand
from ftfp.pipeline import split_counts


def lp_point(inst):
    primal, _ = solve_lp(build_lp(inst))
    return trim_to_demand(primal, inst)


# ---------------------------------------------------------------------------
# capped construction


def test_capped_instance_validates_caps(instance_a):
    ci = CappedInstance(base=instance_a, caps=np.array([2, 2]))
    assert ci.caps.dtype == np.int64
    with pytest.raises(ValueError):
        ci.caps[0] = 5  # read-only
    with pytest.raises(ValueError, match="caps"):
        CappedInstance(base=instance_a, caps=np.array([1]))
    with pytest.raises(ValueError, match="caps"):
        CappedInstance(base=instance_a, caps=np.array([-1, 1]))
    # caps are cast to int64 only when every entry is an integer, as demands are
    for caps in ([1.5, 2.9], [-0.5, 1.0], [1e30, 1.0]):
        with pytest.raises(ValueError, match="caps"):
            CappedInstance(base=instance_a, caps=np.array(caps))
    assert CappedInstance(base=instance_a, caps=np.array([2.0, 0.0])).caps.tolist() == [2, 0]


def test_bool_caps_are_a_value_error(instance_a):
    with pytest.raises(ValueError, match="caps must be integers"):
        CappedInstance(base=instance_a, caps=np.array([True, True]))


def test_capped_instance_refuses_caps_that_cannot_cover(instance_a):
    # the cover rule runs when the instance is built, before any solver sees it
    with pytest.raises(InfeasibleError, match="client 0 needs 2 distinct facilities, caps sum to 1$"):
        CappedInstance(base=instance_a, caps=np.array([1, 0]))


def test_the_cover_rule_sums_caps_without_wrapping(instance_a):
    # 2^62 + 2^62 wraps to -2^63 in int64, which would read as too few facilities
    ci = CappedInstance(base=instance_a, caps=np.array([2**62, 2**62]))
    assert np.array_equal(solve_greedy(ci).y, [2, 0])


def test_to_capped(instance_b):
    ci = to_capped(instance_b, np.array([3, 1]))
    assert ci.base is instance_b
    assert np.array_equal(ci.caps, [3, 1])


# ---------------------------------------------------------------------------
# split counts from decompositions


def test_split_counts_reduce(instance_a):
    dec = decompose_reduce(lp_point(instance_a), instance_a)
    # residual demand is 1, so the floor of two copies applies
    assert np.array_equal(split_counts(dec), [2, 2])


def test_split_counts_reduce_tracks_max_residual_demand():
    inst = random_instance(42, sites=3, clients=4, demand_min=3, demand_max=9)
    dec = decompose_reduce(lp_point(inst), inst)
    k = max(int(dec.rbar.max()), 2)
    assert np.array_equal(split_counts(dec), [k, k, k])


def test_split_counts_large(instance_a):
    dec = decompose_large(lp_point(instance_a), instance_a)
    assert np.array_equal(split_counts(dec), [1, 1])


# ---------------------------------------------------------------------------
# materialized splits


def test_materialize_split_layout(instance_a):
    split, smap = materialize_split(instance_a, np.array([2, 3]))
    assert split.n == 5
    assert smap.total_copies == 5
    assert np.array_equal(smap.site_of_copy, [0, 0, 1, 1, 1])
    assert np.array_equal(split.site_costs, [3.0, 3.0, 10.0, 10.0, 10.0])
    assert np.array_equal(split.dist[:, 0], [1.0, 1.0, 2.0, 2.0, 2.0])
    assert np.array_equal(split.demands, instance_a.demands)
    assert split.name.endswith("/split")


def test_materialize_split_rejects_bad_copies(instance_a):
    with pytest.raises(ValueError, match="length n"):
        materialize_split(instance_a, np.array([1]))
    with pytest.raises(ValueError, match="nonnegative"):
        materialize_split(instance_a, np.array([-1, 2]))
    with pytest.raises(ValueError, match="at least one copy"):
        materialize_split(instance_a, np.array([0, 0]))


def test_zero_copy_sites_vanish(instance_a):
    split, smap = materialize_split(instance_a, np.array([0, 2]))
    assert split.n == 2
    assert np.array_equal(smap.site_of_copy, [1, 1])
    assert np.array_equal(split.site_costs, [10.0, 10.0])


# ---------------------------------------------------------------------------
# merging


def test_merge_solution_sums_copies(instance_a):
    split, smap = materialize_split(instance_a, np.array([2, 1]))
    sol = IntegralSolution(
        y=np.array([1, 1, 0]),
        x=np.array([[1], [1], [0]]),
        cost=solution_cost(split, np.array([1, 1, 0]), np.array([[1], [1], [0]])),
    )
    merged = merge_solution(sol, smap)
    assert np.array_equal(merged.y, [2, 0])
    assert np.array_equal(merged.x, [[2], [0]])
    assert merged.cost == sol.cost == 8.0
    # merged cost must equal the original instance's own accounting
    assert merged.cost == solution_cost(instance_a, merged.y, merged.x)


def test_merge_rejects_multi_open_copy(instance_a):
    split, smap = materialize_split(instance_a, np.array([2, 1]))
    sol = IntegralSolution(y=np.array([2, 0, 0]), x=np.array([[2], [0], [0]]), cost=0.0)
    with pytest.raises(ValueError, match="at most once"):
        merge_solution(sol, smap)


def test_merge_rejects_unopened_connection(instance_a):
    split, smap = materialize_split(instance_a, np.array([2, 1]))
    sol = IntegralSolution(y=np.array([1, 0, 0]), x=np.array([[1], [1], [0]]), cost=0.0)
    with pytest.raises(ValueError, match="unopened"):
        merge_solution(sol, smap)


def test_merge_rejects_shape_mismatch(instance_a):
    _, smap = materialize_split(instance_a, np.array([2, 1]))
    sol = IntegralSolution(y=np.array([1, 0]), x=np.array([[1], [0]]), cost=0.0)
    with pytest.raises(ValueError, match="split map"):
        merge_solution(sol, smap)


# ---------------------------------------------------------------------------
# the equivalence the whole bridge rests on


@pytest.mark.parametrize("seed", range(25))
def test_capped_optimum_equals_split_optimum(seed):
    rng = np.random.default_rng(9000 + seed)
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 4))
    inst = random_instance(9000 + seed, sites=n, clients=m, demand_min=1, demand_max=3)
    copies = rng.integers(1, 4, n)
    if int(copies.sum()) < inst.max_demand:
        copies[0] += inst.max_demand - int(copies.sum())
    capped_opt = solve_exact(to_capped(inst, copies))
    split, smap = materialize_split(inst, copies)
    split_opt = solve_exact(to_capped(split, np.ones(split.n, dtype=np.int64)))
    assert abs(capped_opt.cost - split_opt.cost) <= 1e-9 * (1.0 + capped_opt.cost)
    merged = merge_solution(split_opt, smap)
    assert merged.cost == split_opt.cost
    assert np.all(merged.y <= copies)
    # independent enumeration agrees with both
    ref_cost, _ = enumerate_optimum(to_capped(inst, copies))
    assert abs(capped_opt.cost - ref_cost) <= 1e-9 * (1.0 + ref_cost)


@pytest.mark.parametrize("seed", range(10))
def test_capped_lp_equals_split_lp(seed):
    rng = np.random.default_rng(9500 + seed)
    n = int(rng.integers(1, 4))
    inst = random_instance(9500 + seed, sites=n, clients=int(rng.integers(1, 4)))
    copies = rng.integers(1, 4, n)
    if int(copies.sum()) < inst.max_demand:
        copies[0] += inst.max_demand - int(copies.sum())
    capped = lp_oracle(inst, copies.astype(float))
    split, _ = materialize_split(inst, copies)
    split_lp = lp_oracle(split, np.ones(split.n))
    assert abs(capped - split_lp) <= 1e-9 * (1.0 + capped)
    # and our own solver agrees on the capped form
    ours, _ = solve_lp(build_lp(inst, copies.astype(float)))
    assert abs(ours.objective - capped) <= 1e-9 * (1.0 + capped)
