"""End-to-end solve flows: LP, decompose, residual stage, combine, verify.

Three ways to produce an integral plan for an instance:

solve_reduce  LP optimum -> reduce-mode decomposition -> residual solved
              as a capped instance (max(max rbar, 2) copies per site) by
              a pluggable subroutine -> combined with the integral part.
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
from files.  Every LP value used as a bound (lp_star, and the residual
LP behind rho_sub) is certified with check_duality, and a failed
certificate raises RuntimeError.  Reports carry the LP lower bound,
per-stage costs, the subroutine ratio, the proven chain bound with its
slack, wall times and LP counters, and serialize to JSON with exactly
those field names.
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field

import numpy as np

from .decompose import (
    Decomposition,
    decompose_large,
    decompose_reduce,
    integral_part_cost,
    residual_instance,
)
from .ftfl_bridge import to_capped, split_counts_large, split_counts_reduce
from .ftfl_solvers import EXACT, IntegralSolution, Subroutine, solution_cost, solve_exact
from .instance import Instance, ParseError, _ints, _take, _tokens
from .lp_core import FractionalSolution, build_lp, check_duality, solve_lp, trim_to_demand

COST_REL_TOL = 1e-6
_ZERO_COST_TOL = 1e-9


@dataclass(frozen=True)
class SolveReport:
    """Cost accounting for one solve; s1 is the integral part, s2 the residual stage.

    lp_star_residual_capped equals lp_star_residual by construction: the
    residual caps are at least max rbar, and some LP optimum opens at
    most max rbar at every site (cut each x_ij to r_j, then each y_i to
    max_j x_ij; neither raises the cost), so the caps never bind.
    counters maps each LP solved ("lp", "residual_lp") to its shape,
    pivot counts and certified duality gap (see solve_lp).
    """

    algo: str  # "reduce" | "large" | "oracle"
    cost_s1: float
    cost_s2: float
    cost_total: float
    lp_star: float
    lp_star_residual: float
    lp_star_residual_capped: float
    rho_sub: float
    ratio_total: float
    chain_bound: float
    chain_slack: float
    wall_times: dict[str, float] = field(default_factory=dict)
    counters: dict[str, dict[str, float]] = field(default_factory=dict)


@dataclass
class SolveTrace:
    """Intermediate results of the last rounding flow run inside solve_trace()."""

    decomposition: Decomposition | None = None


_ACTIVE_TRACE: ContextVar[SolveTrace | None] = ContextVar("ftfp_solve_trace", default=None)


@contextmanager
def solve_trace() -> Iterator[SolveTrace]:
    """Collect what solve_reduce / solve_large computed inside the block.

    The trace travels in a context variable rather than a parameter, so
    callers and wrappers of the solve functions keep their (inst, sub)
    signature; it is set only for the block and only in this context.
    """
    trace = SolveTrace()
    token = _ACTIVE_TRACE.set(trace)
    try:
        yield trace
    finally:
        _ACTIVE_TRACE.reset(token)


def report_to_json(report: SolveReport) -> str:
    return json.dumps(asdict(report), indent=2) + "\n"


def parse_report(text: str) -> SolveReport:
    data = json.loads(text)
    return SolveReport(**data)


def combine(s1: IntegralSolution, s2: IntegralSolution) -> IntegralSolution:
    """Pointwise sum of two plans; stage costs add because costs are linear."""
    if s1.y.shape != s2.y.shape or s1.x.shape != s2.x.shape:
        raise ValueError("stage solutions have mismatched shapes")
    return IntegralSolution(y=s1.y + s2.y, x=s1.x + s2.x, cost=s1.cost + s2.cost)


def trim_surplus(sol: IntegralSolution, inst: Instance) -> IntegralSolution:
    """Drop the most expensive surplus connections until coverage is exact."""
    x = np.array(sol.x)
    changed = False
    for j in range(inst.m):
        surplus = int(x[:, j].sum()) - int(inst.demands[j])
        if surplus <= 0:
            continue
        changed = True
        for i in sorted(range(inst.n), key=lambda i: (-inst.dist[i, j], -i)):
            drop = min(int(x[i, j]), surplus)
            x[i, j] -= drop
            surplus -= drop
            if surplus == 0:
                break
    if not changed:
        return sol
    return IntegralSolution(y=sol.y, x=x, cost=solution_cost(inst, sol.y, x))


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
    got = sol.x.sum(axis=0)
    for j in np.nonzero(got != inst.demands)[0]:
        bad.append(f"client {j} gets {int(got[j])} connections, demand is {int(inst.demands[j])}")
    recomputed = solution_cost(inst, sol.y, sol.x)
    if abs(recomputed - sol.cost) > COST_REL_TOL * (1.0 + abs(recomputed)):
        bad.append(f"stated cost {sol.cost} disagrees with recomputed {recomputed}")
    return bad


def _verified(inst: Instance, sol: IntegralSolution, algo: str) -> IntegralSolution:
    sol = trim_surplus(sol, inst)
    bad = verify_solution(inst, sol)
    if bad:
        raise RuntimeError(f"{algo} produced an invalid plan: " + "; ".join(bad))
    return sol


def _guarded_ratio(num: float, den: float, what: str) -> float:
    if den > _ZERO_COST_TOL:
        return num / den
    if num <= _ZERO_COST_TOL:
        return 0.0
    raise RuntimeError(f"{what} is {num} but its lower bound is zero")


def _certified_lp(inst: Instance, what: str) -> tuple[FractionalSolution, dict[str, float]]:
    """LP optimum of inst whose dual certificate passed; raises RuntimeError if not."""
    counters: dict[str, float] = {}
    primal, dual = solve_lp(build_lp(inst), counters)
    cert = check_duality(primal, dual, inst)
    if not cert.ok:
        raise RuntimeError(f"{what} failed its duality check: " + "; ".join(cert.messages))
    counters["duality_gap"] = abs(cert.gap)
    return primal, counters


def _live_clients(inst: Instance) -> Instance:
    """The clients with demand left; the others add nothing to the LP optimum."""
    live = np.nonzero(inst.demands > 0)[0]
    return Instance(inst.site_costs, inst.demands[live], inst.dist[:, live], name=inst.name)


def _rounding_flow(inst: Instance, sub: Subroutine, algo: str) -> tuple[IntegralSolution, SolveReport]:
    wall: dict[str, float] = {}
    counters: dict[str, dict[str, float]] = {}
    t_total = time.perf_counter()
    t = time.perf_counter()
    frac, counters["lp"] = _certified_lp(inst, "LP relaxation")
    wall["lp"] = time.perf_counter() - t
    lp_star = frac.objective

    t = time.perf_counter()
    frac = trim_to_demand(frac, inst)
    if algo == "reduce":
        dec = decompose_reduce(frac, inst)
        copies = split_counts_reduce(dec)
    else:
        dec = decompose_large(frac, inst)
        copies = split_counts_large(dec)
    wall["decompose"] = time.perf_counter() - t
    trace = _ACTIVE_TRACE.get()
    if trace is not None:
        trace.decomposition = dec
    s1 = IntegralSolution(y=dec.yhat, x=dec.xhat, cost=integral_part_cost(dec, inst))

    lp2 = 0.0
    wall["residual_lp"] = wall["subroutine"] = 0.0
    if dec.residual_empty:
        s2 = IntegralSolution(
            y=np.zeros(inst.n, dtype=np.int64),
            x=np.zeros((inst.n, inst.m), dtype=np.int64),
            cost=0.0,
        )
    else:
        res = residual_instance(dec, inst)
        t = time.perf_counter()
        res_lp, counters["residual_lp"] = _certified_lp(_live_clients(res), "residual LP")
        lp2 = res_lp.objective
        wall["residual_lp"] = time.perf_counter() - t
        t = time.perf_counter()
        s2 = sub.solve(to_capped(res, copies))
        wall["subroutine"] = time.perf_counter() - t

    total = combine(s1, s2)
    t = time.perf_counter()
    total = _verified(inst, total, algo)
    wall["verify"] = time.perf_counter() - t

    rho = _guarded_ratio(s2.cost, lp2, "residual stage cost")
    if algo == "reduce":
        chain_bound = max(1.0, rho) * lp_star
    else:
        chain_bound = (1.0 + rho * inst.n / inst.min_demand) * lp_star
    ratio_total = _guarded_ratio(total.cost, lp_star, "total cost")
    if ratio_total == 0.0:
        ratio_total = 1.0  # zero-cost instance solved at zero cost
    wall["total"] = time.perf_counter() - t_total
    report = SolveReport(
        algo=algo,
        cost_s1=s1.cost,
        cost_s2=s2.cost,
        cost_total=total.cost,
        lp_star=lp_star,
        lp_star_residual=lp2,
        lp_star_residual_capped=lp2,
        rho_sub=rho,
        ratio_total=ratio_total,
        chain_bound=chain_bound,
        chain_slack=chain_bound - total.cost,
        wall_times=wall,
        counters=counters,
    )
    return total, report


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
    frac, lp_counters = _certified_lp(inst, "LP relaxation")
    lp_star = frac.objective
    wall["lp"] = time.perf_counter() - t
    t = time.perf_counter()
    caps = np.full(inst.n, inst.max_demand, dtype=np.int64)
    sol = solve_exact(to_capped(inst, caps))
    wall["oracle"] = time.perf_counter() - t
    t = time.perf_counter()
    sol = _verified(inst, sol, "oracle")
    wall["verify"] = time.perf_counter() - t
    ratio = _guarded_ratio(sol.cost, lp_star, "optimal cost")
    if ratio == 0.0:
        ratio = 1.0
    wall["total"] = time.perf_counter() - t_total
    report = SolveReport(
        algo="oracle",
        cost_s1=sol.cost,
        cost_s2=0.0,
        cost_total=sol.cost,
        lp_star=lp_star,
        lp_star_residual=0.0,
        lp_star_residual_capped=0.0,
        rho_sub=0.0,
        ratio_total=ratio,
        chain_bound=sol.cost,
        chain_slack=0.0,
        wall_times=wall,
        counters={"lp": lp_counters},
    )
    return sol, report


def serialize_solution(sol: IntegralSolution) -> str:
    n, m = sol.x.shape
    lines = ["ftfp-sol 1", f"{n} {m}"]
    lines.append(" ".join(str(int(v)) for v in sol.y))
    for i in range(n):
        lines.append(" ".join(str(int(v)) for v in sol.x[i]))
    return "\n".join(lines) + "\n"


def parse_solution(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a `ftfp-sol 1` file back as (y, x); cost is not stored on disk."""
    rows = _tokens(text)
    ln, toks = _take(rows, "header", 2)
    if toks[0] != "ftfp-sol":
        raise ParseError(f"line {ln}: not an ftfp solution (header {' '.join(toks)!r})")
    if toks[1] != "1":
        raise ParseError(f"line {ln}: unsupported ftfp-sol version {toks[1]!r}")
    ln, toks = _take(rows, "size line", 2)
    try:
        n, m = int(toks[0]), int(toks[1])
    except ValueError:
        raise ParseError(f"line {ln}: sizes must be integers") from None
    if n < 1 or m < 1:
        raise ParseError(f"line {ln}: need n >= 1 and m >= 1, got {n} {m}")
    ln, toks = _take(rows, "openings", n)
    y = _ints(ln, toks, "opening count")
    x = np.zeros((n, m), dtype=np.int64)
    for i in range(n):
        ln, toks = _take(rows, f"connection row {i + 1}", m)
        x[i] = _ints(ln, toks, "connection count")
    extra = next(rows, None)
    if extra is not None:
        raise ParseError(f"line {extra[0]}: unexpected trailing tokens")
    return np.array(y, dtype=np.int64), x
