"""Independent checks of every answer the benchmark gets back.

Nothing here is timed.  The plan check is the benchmark's own numpy
code and does not call into ftfp; `verify_solution` runs next to it as a
second opinion.  LP optima are compared with scipy's HiGHS `linprog`,
and oracle optima with scipy's `milp` on the capped integer program;
both are built here from the instance data, not with ftfp's build_lp.
scipy is imported on first use, so it is not resident while the
benchmark measures memory.
"""

from __future__ import annotations

import math

import numpy as np

from ftfp import Instance, IntegralSolution, verify_solution

LP_REL_TOL = 1e-6
COST_REL_TOL = 1e-9


class WrongAnswer(AssertionError):
    """A plan, bound or report disagrees with an independent check."""


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def plan_cost(inst: Instance, y: np.ndarray, x: np.ndarray) -> float:
    terms = [float(f) * int(v) for f, v in zip(inst.site_costs, y)]
    terms += [float(d) * int(v) for d, v in zip(inst.dist.ravel(), x.ravel())]
    return math.fsum(terms)


def check_plan(inst: Instance, y: np.ndarray, x: np.ndarray, cost: float, what: str) -> None:
    """Integrality, linking x <= y, exact coverage and the stated cost."""
    if y.shape != (inst.n,) or x.shape != (inst.n, inst.m):
        raise WrongAnswer(f"{what}: plan shapes {y.shape}, {x.shape} for n={inst.n} m={inst.m}")
    if y.dtype.kind not in "iu" or x.dtype.kind not in "iu":
        raise WrongAnswer(f"{what}: plan is not integral ({y.dtype}, {x.dtype})")
    if (y < 0).any() or (x < 0).any():
        raise WrongAnswer(f"{what}: negative openings or connections")
    if (x > y[:, None]).any():
        raise WrongAnswer(f"{what}: a client uses more facilities at a site than are open")
    short = np.nonzero(x.sum(axis=0) != inst.demands)[0]
    if short.size:
        raise WrongAnswer(f"{what}: coverage differs from demand at clients {short.tolist()}")
    recomputed = plan_cost(inst, y, x)
    if not _close(cost, recomputed, COST_REL_TOL):
        raise WrongAnswer(f"{what}: stated cost {cost!r}, recomputed {recomputed!r}")
    bad = verify_solution(inst, IntegralSolution(y=y, x=x, cost=cost))
    if bad:
        raise WrongAnswer(f"{what}: verify_solution disagrees: {'; '.join(bad)}")


def check_report(report, cost: float, what: str) -> None:
    """Internal consistency of a SolveReport with the plan it came with."""
    if report.cost_total != cost:
        raise WrongAnswer(f"{what}: report cost_total {report.cost_total!r} != plan cost {cost!r}")
    if not _close(report.cost_s1 + report.cost_s2, cost, COST_REL_TOL):
        raise WrongAnswer(f"{what}: stage costs {report.cost_s1!r} + {report.cost_s2!r} != {cost!r}")
    if report.lp_star > 0 and not _close(report.ratio_total, cost / report.lp_star, COST_REL_TOL):
        raise WrongAnswer(f"{what}: ratio_total {report.ratio_total!r} != cost / lp_star")
    if cost > report.chain_bound + COST_REL_TOL * max(1.0, abs(report.chain_bound)):
        raise WrongAnswer(f"{what}: cost {cost!r} exceeds the proven chain bound {report.chain_bound!r}")


def _program(inst: Instance):
    """Objective, linking rows y_i - x_ij and coverage rows sum_i x_ij of the relaxation.

    Variables are y_0..y_{n-1} and then x_ij at n + j * n + i (client-major,
    unlike ftfp's site-major layout).
    """
    from scipy.sparse import coo_matrix

    n, m = inst.n, inst.m
    pairs = np.arange(n * m)
    link = coo_matrix(
        (np.concatenate([np.ones(n * m), -np.ones(n * m)]),
         (np.concatenate([pairs, pairs]), np.concatenate([pairs % n, n + pairs]))),
        shape=(n * m, n + n * m),
    ).tocsr()
    cover = coo_matrix((np.ones(n * m), (pairs // n, n + pairs)), shape=(m, n + n * m)).tocsr()
    return np.concatenate([inst.site_costs, inst.dist.T.ravel()]), link, cover


def lp_reference(inst: Instance) -> float:
    """LP relaxation optimum from scipy HiGHS."""
    from scipy.optimize import linprog
    from scipy.sparse import vstack

    c, link, cover = _program(inst)
    res = linprog(
        c,
        A_ub=-vstack([link, cover]).tocsr(),
        b_ub=-np.concatenate([np.zeros(link.shape[0]), inst.demands.astype(float)]),
        bounds=(0, None),
        method="highs",
    )
    if not res.success:
        raise WrongAnswer(f"HiGHS could not solve the reference LP: {res.message}")
    return float(res.fun)


def optimum_reference(inst: Instance, caps: np.ndarray) -> float:
    """Integer optimum of the capped program y_i <= caps_i, from scipy milp."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    c, link, cover = _program(inst)
    demand = inst.demands.astype(float)
    res = milp(
        c,
        constraints=[LinearConstraint(link, 0.0, np.inf), LinearConstraint(cover, demand, demand)],
        integrality=np.ones(c.size),
        bounds=Bounds(0.0, np.concatenate([np.asarray(caps, float), np.full(link.shape[0], np.inf)])),
    )
    if not res.success:
        raise WrongAnswer(f"milp could not solve the capped program: {res.message}")
    return float(res.fun)


def check_lp_star(lp_star: float, reference: float, what: str) -> None:
    if not _close(lp_star, reference, LP_REL_TOL):
        raise WrongAnswer(f"{what}: lp_star {lp_star!r}, HiGHS says {reference!r}")


def check_optimum(cost: float, reference: float, what: str) -> None:
    if not _close(cost, reference, LP_REL_TOL):
        raise WrongAnswer(f"{what}: oracle cost {cost!r}, milp optimum {reference!r}")


def check_lower_bound(cost: float, lp_reference_value: float, what: str) -> None:
    """No integral plan can cost less than the LP relaxation."""
    if cost < lp_reference_value - LP_REL_TOL * max(1.0, abs(lp_reference_value)):
        raise WrongAnswer(f"{what}: cost {cost!r} is below the LP bound {lp_reference_value!r}")


def check_decomposition_dump(text: str, inst: Instance, cost_s1: float, what: str) -> None:
    """The CLI's hat/bar dump: integral part inside the LP point, coverage, stage-1 cost."""
    lines = text.splitlines()
    if lines[:2] != ["ftfp-dec 1", f"{inst.n} {inst.m}"]:
        raise WrongAnswer(f"{what}: decomposition dump header {lines[:2]}")
    n = inst.n
    yhat = np.array(lines[2].split(), dtype=np.int64)
    xhat = np.array([row.split() for row in lines[3 : 3 + n]], dtype=np.int64)
    ybar = np.array(lines[3 + n].split(), dtype=float)
    xbar = np.array([row.split() for row in lines[4 + n : 4 + 2 * n]], dtype=float)
    if (xhat < 0).any() or (xhat > yhat[:, None]).any() or (xbar < 0).any() or (ybar < 0).any():
        raise WrongAnswer(f"{what}: decomposition parts are negative or unlinked")
    if not np.allclose((xhat + xbar).sum(axis=0), inst.demands, rtol=0.0, atol=1e-6):
        raise WrongAnswer(f"{what}: decomposed connections do not cover the demands")
    if ((xhat + xbar) > (yhat + ybar)[:, None] + 1e-6).any():
        raise WrongAnswer(f"{what}: decomposed LP point breaks x <= y")
    if not _close(plan_cost(inst, yhat, xhat), cost_s1, COST_REL_TOL):
        raise WrongAnswer(f"{what}: integral part costs {plan_cost(inst, yhat, xhat)!r}, report says {cost_s1!r}")
