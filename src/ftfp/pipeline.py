"""End-to-end solve flows: LP, decompose, residual stage, sum of the stages, verify.

Three ways to produce an integral plan for an instance:

solve_reduce  LP optimum -> reduce-mode decomposition -> residual solved
              as a capped instance (max(max rbar, 2) copies per site) by
              a pluggable subroutine -> added to the integral part.
              Cost obeys  cost_total <= max(1, rho_sub) * lp_star  where
              rho_sub is the subroutine's ratio on the residual.

solve_large   Same shape but with the flooring decomposition and n - 1
              copies per site; requires every demand >= 1.  Cost obeys
              cost_total <= (1 + rho_sub * n / R) * lp_star with
              R = min_j r_j, which beats the reduce-mode bound once
              demands are large against the site count.

solve_oracle  Exact optimum by branch and bound with caps max_j r_j
              (no optimal plan ever opens more facilities at one site
              than the largest demand).

Every flow re-verifies its own output before returning and raises if
verification fails; the verifier is also exported for checking plans
from files.  No flow over-covers a client, so the surplus trim before
the verifier returns its input: s1 serves rhat, s2 and solve_exact's
plan are scan fills of their demands, and rhat + rbar = r.  Every flow
solves one LP, built by lp_core.build_lp, which drops the pairs no LP
optimum can use, and solved by lp_core.solve_lp, which certifies its
value on the full instance and raises SimplexError (a RuntimeError) when
the certificate fails; its certified duals also price the residual
(argument in SolveReport).

Every exact search gets the certified coverage duals alpha of the main
LP (CappedInstance.alpha), which price its one bound (the priced
connection bound) and fix caps by reduced cost at its root, and an LP
opening (CappedInstance.opening), which rounded up is its first
incumbent: solve_oracle's search over the whole instance gets the LP's
y, and the residual's search in solve_reduce and solve_large gets the
residual opening ybar (the greedy subroutine ignores both).  Dual
feasibility does not involve the demands, so alpha stays feasible for
the residual.  Any alpha >= 0 gives a valid bound and valid fixing, and
any incumbent is a leaf of the search, so the plans are those of the
dual-free search from any first incumbent.

Reports carry the LP lower bound, per-stage costs, the subroutine ratio,
the proven chain bound with its slack, wall times, and LP and solver
counters, and serialize to JSON with exactly those field names.  A
rounding flow's report also carries the decomposition its plan was built
from, which stays out of the JSON.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .decompose import Decomposition, decompose_large, decompose_reduce, residual_instance
from .ftfl_solvers import EXACT, IntegralSolution, Subroutine, solve_exact, to_capped
from .instance import Instance, costs_agree, format_records, read_records, scan_fill, solution_cost
from .lp_core import build_lp, solve_lp, trim_to_demand


@dataclass(frozen=True)
class SolveReport:
    """Cost accounting for one solve; s1 is the integral part, s2 the residual stage.

    lp_star_residual is rbar.alpha, a certified lower bound on the
    uncapped residual LP: the main LP's alpha passed check_duality, its
    dual constraints do not involve the demands, and rbar >= 0, so weak
    duality applies.  It equals that LP whenever (xbar, ybar) is feasible,
    as every reduce-mode residual is: with the main LP's optimal duals
    (alpha, beta), beta the simplex's own, complementary slackness makes
    (xbar, ybar) cost exactly rbar.alpha (xbar_ij > 0 gives d_ij =
    alpha_j - beta_ij, ybar_i > 0 gives f_i = sum_j beta_ij, beta_ij > 0
    gives xbar_ij = ybar_i).  Large mode can strand xbar_ij > ybar_i, and
    a bound below the LP only raises rho_sub, so chain_bound stays valid.
    The caps never bind the residual LP: they are at least max rbar, and
    some LP optimum opens at most max rbar at every site (cut each x_ij to
    r_j, then each y_i to max_j x_ij; neither raises the cost).
    counters maps "lp" to the one LP's shape, pivot counts and certified
    duality gap (see solve_lp); "subroutine" (a non-empty residual) and
    "oracle" hold the integral solver's counters (search nodes, greedy
    rounds; see ftfl_solvers).
    decomposition is the one solve_reduce and solve_large rounded (None
    from solve_oracle); it is left out of the JSON and of comparisons.
    chain_slack, chain_bound - cost_total, can read a few ulps below 0 when
    the bound is tight; beyond costs_agree's tolerance the flow raises.
    """

    algo: str  # "reduce" | "large" | "oracle"
    cost_s1: float
    cost_s2: float
    cost_total: float
    lp_star: float
    lp_star_residual: float
    rho_sub: float
    ratio_total: float
    chain_bound: float
    chain_slack: float
    wall_times: dict[str, float] = field(default_factory=dict)
    counters: dict[str, dict[str, float]] = field(default_factory=dict)
    decomposition: Decomposition | None = field(default=None, compare=False, repr=False)


def report_to_json(report: SolveReport) -> str:
    data = {f.name: getattr(report, f.name) for f in fields(report) if f.name != "decomposition"}
    return json.dumps(data, indent=2) + "\n"


def parse_report(text: str) -> SolveReport:
    data = json.loads(text)
    return SolveReport(**data)


def trim_surplus(sol: IntegralSolution, inst: Instance) -> IntegralSolution:
    """Cut every over-covered client back to its demand, dearest connections first (scan_fill).

    A plan with no over-covered client is returned as the same object; a
    trimmed one keeps sol's counters.
    """
    if not np.any(sol.x.sum(axis=0) > inst.demands):
        return sol
    x = scan_fill(sol.x, inst)
    return replace(sol, x=x, cost=solution_cost(inst, sol.y, x))


def verify_solution(inst: Instance, sol: IntegralSolution) -> list[str]:
    """Check a plan against an instance; returns one message per violation."""
    bad: list[str] = []
    if sol.y.shape != (inst.n,) or sol.x.shape != (inst.n, inst.m):
        return [f"shape mismatch: y {sol.y.shape}, x {sol.x.shape} vs n={inst.n} m={inst.m}"]
    if sol.y.dtype.kind not in "iu" or sol.x.dtype.kind not in "iu":
        bad.append("openings and connections must be integer arrays")
    for i in np.nonzero(sol.y < 0)[0]:
        bad.append(f"y[{i}] = {int(sol.y[i])} violates y_i >= 0")
    for i, j in zip(*np.nonzero(sol.x < 0)):
        bad.append(f"x[{i},{j}] = {int(sol.x[i, j])} violates x_ij >= 0")
    if bad:
        return bad
    for i, j in zip(*np.nonzero(sol.x > sol.y[:, None])):
        bad.append(
            f"x[{i},{j}] = {int(sol.x[i, j])} exceeds the {int(sol.y[i])} facilities at site {i}"
        )
    got = sol.x.sum(axis=0, dtype=object)  # python ints: an int64 sum can wrap back to the demand
    for j in np.nonzero(got != inst.demands)[0]:
        bad.append(f"client {j} gets {int(got[j])} connections, demand is {int(inst.demands[j])}")
    recomputed = solution_cost(inst, sol.y, sol.x)
    if not costs_agree(inst, recomputed, sol.cost):
        bad.append(f"stated cost {sol.cost} disagrees with recomputed {recomputed}")
    return bad


def _verified(inst: Instance, sol: IntegralSolution, algo: str) -> IntegralSolution:
    sol = trim_surplus(sol, inst)
    bad = verify_solution(inst, sol)
    if bad:
        raise RuntimeError(f"{algo} produced an invalid plan: " + "; ".join(bad))
    return sol


def _report(
    inst: Instance, algo: str, plan: IntegralSolution, wall: dict[str, float], t_total: float,
    counters: dict[str, dict[str, float]], *, lp_star: float, chain_bound: float, **stages,
) -> tuple[IntegralSolution, SolveReport]:
    """The tail every flow shares: verify the plan, check it against chain_bound, take its ratio to lp_star, report.

    stages holds the report fields only the flow knows: the stage costs,
    lp_star_residual, rho_sub and the decomposition.
    """
    t = time.perf_counter()
    plan = _verified(inst, plan, algo)
    wall["verify"] = time.perf_counter() - t
    if not (plan.cost <= chain_bound or costs_agree(inst, plan.cost, chain_bound)):
        raise RuntimeError(f"{algo} plan costs {plan.cost}, above its chain bound {chain_bound}")
    ratio_total = _guarded_ratio(plan.cost, lp_star, "total cost")
    if ratio_total == 0.0:
        ratio_total = 1.0  # zero-cost instance solved at zero cost
    wall["total"] = time.perf_counter() - t_total
    report = SolveReport(
        algo=algo,
        cost_total=plan.cost,
        lp_star=lp_star,
        ratio_total=ratio_total,
        chain_bound=chain_bound,
        chain_slack=chain_bound - plan.cost,
        wall_times=wall,
        counters=counters,
        **stages,
    )
    return plan, report


def split_counts(dec: Decomposition) -> np.ndarray:
    """Residual copies per site: max(max rbar, 2) in reduce mode (openings reach 2), else n - 1."""
    n = dec.yhat.size
    k = max(int(dec.rbar.max()), 2) if dec.mode == "reduce" else n - 1
    return np.full(n, k, dtype=np.int64)


def _guarded_ratio(num: float, den: float, what: str) -> float:
    if den > 0.0:
        return num / den
    if num == 0.0:
        return 0.0
    raise RuntimeError(f"{what} is {num} but its lower bound is zero")


def _rounding_flow(inst: Instance, sub: Subroutine, algo: str) -> tuple[IntegralSolution, SolveReport]:
    wall: dict[str, float] = {}
    counters: dict[str, dict[str, float]] = {}
    t_total = time.perf_counter()
    t = time.perf_counter()
    frac, alpha = solve_lp(build_lp(inst))
    wall["lp"] = time.perf_counter() - t
    lp_star = frac.objective
    counters["lp"] = frac.counters

    t = time.perf_counter()
    frac = trim_to_demand(frac, inst)
    dec = (decompose_reduce if algo == "reduce" else decompose_large)(frac, inst)
    wall["decompose"] = time.perf_counter() - t
    s1 = IntegralSolution(y=dec.yhat, x=dec.xhat, cost=solution_cost(inst, dec.yhat, dec.xhat))

    lp2 = float(dec.rbar @ alpha)  # weak duality: a certified lower bound on the residual LP
    wall["subroutine"] = 0.0
    if dec.residual_empty:
        s2 = IntegralSolution(y=np.zeros_like(dec.yhat), x=np.zeros_like(dec.xhat), cost=0.0)
    else:
        t = time.perf_counter()
        s2 = sub.fn(to_capped(residual_instance(dec, inst), split_counts(dec), alpha, dec.ybar))
        wall["subroutine"] = time.perf_counter() - t
        counters["subroutine"] = dict(s2.counters)

    rho = _guarded_ratio(s2.cost, lp2, "residual stage cost")
    if algo == "reduce":
        chain_bound = max(1.0, rho) * lp_star
    else:
        chain_bound = (1.0 + rho * inst.n / inst.min_demand) * lp_star
    # the stages add pointwise, and so do their costs, which are linear
    plan = IntegralSolution(y=s1.y + s2.y, x=s1.x + s2.x, cost=s1.cost + s2.cost)
    return _report(
        inst, algo, plan, wall, t_total, counters, lp_star=lp_star, chain_bound=chain_bound,
        cost_s1=s1.cost, cost_s2=s2.cost, lp_star_residual=lp2, rho_sub=rho, decomposition=dec,
    )


def solve_reduce(inst: Instance, sub: Subroutine = EXACT) -> tuple[IntegralSolution, SolveReport]:
    """Rounding pipeline with the hold-one-back decomposition."""
    return _rounding_flow(inst, sub, "reduce")


def solve_large(inst: Instance, sub: Subroutine = EXACT) -> tuple[IntegralSolution, SolveReport]:
    """Rounding pipeline with the flooring decomposition; needs min demand >= 1."""
    if inst.min_demand < 1:
        raise ValueError("the flooring pipeline requires every demand >= 1")
    return _rounding_flow(inst, sub, "large")


def solve_oracle(inst: Instance) -> tuple[IntegralSolution, SolveReport]:
    """Exact optimum; caps every site at the largest demand, which is lossless."""
    wall: dict[str, float] = {}
    t_total = time.perf_counter()
    t = time.perf_counter()
    frac, alpha = solve_lp(build_lp(inst))
    lp_star = frac.objective
    wall["lp"] = time.perf_counter() - t
    t = time.perf_counter()
    caps = np.full(inst.n, inst.max_demand, dtype=np.int64)
    sol = solve_exact(to_capped(inst, caps, alpha, frac.y))
    wall["oracle"] = time.perf_counter() - t
    counters = {"lp": frac.counters, "oracle": dict(sol.counters)}
    return _report(
        inst, "oracle", sol, wall, t_total, counters, lp_star=lp_star, chain_bound=sol.cost,
        cost_s1=sol.cost, cost_s2=0.0, lp_star_residual=0.0, rho_sub=0.0,
    )


def serialize_solution(sol: IntegralSolution) -> str:
    n, m = sol.x.shape
    return format_records("ftfp-sol 1", n, m, [sol.y, *sol.x])


def parse_solution(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a `ftfp-sol 1` file back as (y, x); cost is not stored on disk."""

    def body(row, n: int, m: int):
        y = row("openings", n, "opening count", int)
        return y, [row(f"connection row {i + 1}", m, "connection count", int) for i in range(n)]

    y, x = read_records(text, "ftfp-sol", "solution", body)
    return np.array(y, dtype=np.int64), np.array(x, dtype=np.int64)
