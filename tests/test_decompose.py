"""Splitting an LP optimum into an integral part and a fractional residual."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import random_instance, random_shape

from ftfp.decompose import (
    RESIDUAL_TOL,
    SNAP_TOL,
    decompose_large,
    decompose_reduce,
    residual_instance,
    snap,
)
from ftfp.instance import Instance, solution_cost
from ftfp.lp_core import FractionalSolution, build_lp, primal_violations, solve_lp, trim_to_demand


def lp_point(inst: Instance) -> FractionalSolution:
    primal, _ = solve_lp(build_lp(inst))
    return trim_to_demand(primal, inst)


def residual_fractional_cost(dec, inst: Instance) -> float:
    """Cost of the fractional residual (x-bar, y-bar) under the same prices."""
    return float(inst.site_costs @ dec.ybar + (inst.dist * dec.xbar).sum())


# ---------------------------------------------------------------------------
# snapping


@pytest.mark.parametrize(
    "v, want",
    [
        (0.0, 0.0),
        (1.0, 1.0),
        (2.0000000001, 2.0),
        (1.9999999999, 2.0),
        (0.5, 0.5),
        (1e-7, 0.0),
        (-1e-7, 0.0),
        (3.499999, 3.499999),  # near a half, not an integer: untouched
    ],
)
def test_snap_values(v, want):
    got = snap(np.array([v]))[0]
    assert got == want
    # -0.0 must never escape: snapped zeros are positive zeros
    if got == 0.0:
        assert np.signbit(got) == False  # noqa: E712


def test_snap_rejects_clearly_negative():
    with pytest.raises(ValueError, match=">= -1e-6"):
        snap(np.array([-2 * SNAP_TOL]))


def test_snap_boundary_is_inclusive():
    got = snap(np.array([1.0 + SNAP_TOL, 1.0 + 2 * SNAP_TOL]))
    assert got[0] == 1.0 and got[1] != 1.0


# ---------------------------------------------------------------------------
# hand-traced fixture


def test_fixture_a_reduce_trace(instance_a):
    dec = decompose_reduce(lp_point(instance_a), instance_a)
    # y* = (2, 0): hold one back at the open site
    assert np.array_equal(dec.yhat, [1, 0])
    assert np.array_equal(dec.xhat.ravel(), [1, 0])
    assert np.array_equal(dec.rhat, [1])
    assert np.array_equal(dec.rbar, [1])
    assert np.array_equal(dec.ybar, [1.0, 0.0])
    assert np.array_equal(dec.xbar.ravel(), [1.0, 0.0])
    assert dec.residual_is_feasible
    assert not dec.residual_empty
    assert solution_cost(instance_a, dec.yhat, dec.xhat) == 4.0
    assert residual_fractional_cost(dec, instance_a) == 4.0


def test_fixture_a_large_trace(instance_a):
    dec = decompose_large(lp_point(instance_a), instance_a)
    # y* = (2, 0) floors to itself; nothing is left over
    assert np.array_equal(dec.yhat, [2, 0])
    assert np.array_equal(dec.rbar, [0])
    assert dec.residual_empty
    assert solution_cost(instance_a, dec.yhat, dec.xhat) == 8.0
    assert residual_fractional_cost(dec, instance_a) == 0.0


def test_residual_and_integral_instances(instance_a):
    dec = decompose_reduce(lp_point(instance_a), instance_a)
    sub = residual_instance(dec, instance_a)
    assert np.array_equal(sub.demands, [1])
    assert sub.dist.tobytes() == instance_a.dist.tobytes()
    assert sub.name.endswith("/residual")


# ---------------------------------------------------------------------------
# the residual-feasibility contrast between the two rules


def test_half_open_single_site_residual():
    # fractional point x* = 0.5, y* = 1.0 on a one-site instance with r = 0:
    # flooring strands x-bar = 0.5 above y-bar = 0.0, so that residual is NOT
    # a feasible fractional opening; the hold-one-back rule keeps y-bar = 1.0.
    inst = Instance(np.array([1.0]), np.array([0]), np.array([[1.0]]))
    sol = FractionalSolution(x=np.array([[0.5]]), y=np.array([1.0]), objective=1.5)
    big = decompose_large(sol, inst)
    assert float(big.xbar[0, 0]) == 0.5 and float(big.ybar[0]) == 0.0
    assert not big.residual_is_feasible
    small = decompose_reduce(sol, inst)
    assert float(small.ybar[0]) == 1.0
    assert small.residual_is_feasible


def test_half_open_two_site_residual():
    # same contrast on a point that actually covers a demand: client needs 1,
    # gets 0.5 from each of two sites, one fully open and one half open
    inst = Instance(np.array([1.0, 1.0]), np.array([1]), np.array([[1.0], [1.0]]))
    sol = FractionalSolution(
        x=np.array([[0.5], [0.5]]), y=np.array([1.0, 0.5]), objective=2.5
    )
    big = decompose_large(sol, inst)
    assert not big.residual_is_feasible  # x-bar_0 = 0.5 > y-bar_0 = 0.0
    small = decompose_reduce(sol, inst)
    assert small.residual_is_feasible


# ---------------------------------------------------------------------------
# property suite on LP optima


@pytest.mark.parametrize("seed", range(60))
def test_decomposition_properties(seed):
    rng = np.random.default_rng(7000 + seed)
    n, m = random_shape(rng, 1, 6)
    inst = random_instance(7000 + seed, sites=n, clients=m, demand_min=0, demand_max=5)
    sol = lp_point(inst)
    for mode, fn in (("reduce", decompose_reduce), ("large", decompose_large)):
        dec = fn(sol, inst)
        assert dec.mode == mode
        # hat parts are integral and within the original point
        assert dec.yhat.dtype.kind == "i" and dec.xhat.dtype.kind == "i"
        assert np.all(dec.xhat <= dec.yhat[:, None])
        assert np.all(dec.yhat >= 0) and np.all(dec.xhat >= 0)
        # exact recovery: hat + bar rebuilds the (snapped) LP point
        assert float(np.abs(dec.xhat + dec.xbar - sol.x).max()) <= RESIDUAL_TOL + SNAP_TOL
        assert float(np.abs(dec.yhat + dec.ybar - sol.y).max()) <= RESIDUAL_TOL + SNAP_TOL
        # bars never go negative
        assert float(dec.xbar.min()) >= -RESIDUAL_TOL
        assert float(dec.ybar.min()) >= -RESIDUAL_TOL
        # demand split is exact integer arithmetic
        assert np.array_equal(dec.rhat + dec.rbar, inst.demands)
        assert np.array_equal(dec.rhat, dec.xhat.sum(axis=0))
        # cost splits exactly the same way
        total = solution_cost(inst, dec.yhat, dec.xhat) + residual_fractional_cost(dec, inst)
        assert abs(total - sol.objective) <= 1e-9 * (1.0 + sol.objective)
        if mode == "reduce":
            assert dec.residual_is_feasible
            assert int(dec.rbar.max(initial=0)) <= 2 * n
        else:
            assert int(dec.rbar.max(initial=0)) <= max(n - 1, 0)


@pytest.mark.parametrize("seed", range(10))
def test_reduce_keeps_more_open_than_large(seed):
    inst = random_instance(8000 + seed, sites=4, clients=4, demand_min=1, demand_max=5)
    sol = lp_point(inst)
    small = decompose_reduce(sol, inst)
    big = decompose_large(sol, inst)
    assert np.all(small.yhat <= big.yhat)
    assert np.all(small.ybar >= big.ybar)
    assert np.all(small.rbar >= big.rbar)


# ---------------------------------------------------------------------------
# rejection paths


def test_decompose_rejects_shape_mismatch(instance_a):
    bad = FractionalSolution(x=np.zeros((1, 1)), y=np.zeros(1), objective=0.0)
    with pytest.raises(ValueError, match="shape"):
        decompose_reduce(bad, instance_a)


def test_decompose_rejects_undercoverage(instance_a):
    bad = FractionalSolution(x=np.array([[1.0], [0.0]]), y=np.array([1.0, 0.0]), objective=0.0)
    with pytest.raises(ValueError, match="coverage"):
        decompose_reduce(bad, instance_a)


def test_decompose_rejects_linking_violation(instance_a):
    bad = FractionalSolution(x=np.array([[2.0], [1.0]]), y=np.array([2.0, 0.0]), objective=0.0)
    with pytest.raises(ValueError, match="linking"):
        decompose_reduce(bad, instance_a)


def test_decompose_rejects_negative_values(instance_a):
    bad = FractionalSolution(x=np.array([[2.0], [-1.0]]), y=np.array([2.0, 0.0]), objective=0.0)
    with pytest.raises(ValueError, match="primal_nonneg"):
        decompose_large(bad, instance_a)


def test_decompose_rejects_overcoverage_without_trim(instance_a):
    # 3 units of flow against a demand of 2: integral part would overshoot
    fat = FractionalSolution(x=np.array([[2.0], [1.0]]), y=np.array([2.0, 1.0]), objective=0.0)
    with pytest.raises(ValueError, match="trim"):
        decompose_large(fat, instance_a)


def test_decompose_tolerates_solver_dust(instance_a):
    # x a hair above y, as a finished basis re-solve can leave it
    dust = 1e-13
    sol = FractionalSolution(
        x=np.array([[2.0 + dust], [0.0]]), y=np.array([2.0, 0.0]), objective=8.0
    )
    dec = decompose_large(sol, instance_a)
    assert np.array_equal(dec.yhat, [2, 0])
    assert float(dec.xbar.max()) <= RESIDUAL_TOL


@pytest.mark.parametrize("decompose", [decompose_reduce, decompose_large], ids=["reduce", "large"])
def test_decompose_accepts_what_the_certificate_accepts(decompose):
    # x_00 exceeds y_0 by 5e-8, within the primal families' tolerance, and no snap moves it
    inst = Instance(np.array([1.0, 1.0]), np.array([2]), np.array([[0.1], [0.2]]))
    sol = FractionalSolution(x=np.array([[1.5 + 5e-8], [0.5 - 5e-8]]), y=np.array([1.5, 0.5]), objective=0.0)
    assert primal_violations(sol.x, sol.y, inst) == []
    dec = decompose(sol, inst)
    assert np.all(dec.xbar <= dec.ybar[:, None])
    assert np.array_equal(dec.rhat + dec.rbar, inst.demands)
