"""Integral solvers for capped placement instances.

Both solvers exploit the same structural fact: once the opening vector
y is fixed, the best connection plan decomposes per client, and for one
client it is greedy.  Client j needs r_j units on pairwise distinct
facilities, site i offers min(y_i, remaining) of them at d_ij apiece,
so scanning sites by ascending distance is optimal (an exchange
argument: any plan skipping a cheaper available facility can swap one
unit onto it without losing feasibility).

solve_exact   Depth-first branch and bound over opening vectors, sites
              in index order, y_i from 0 upward.  A node's lower bound
              is the opening cost of the decided sites plus the optimal
              connection cost when every undecided site is opened to
              its cap; capacities only shrink deeper in the tree, so
              the bound is valid, and because costs accumulate in the
              same order as at the leaves it is monotone in floats too.
              Pruning is strictly greater-than and improvements are
              strictly less-than, so the first optimum found, hence the
              one returned, has the lexicographically smallest y.

solve_greedy  Ratio greedy.  Each round either opens one more facility
              at some site together with a best prefix of undersupplied
              clients (ratio: opening cost plus their connections, per
              client served) or routes one undersupplied client to an
              already-open facility with spare room (ratio: the
              distance).  Lowest ratio wins, ties go to the lowest site
              index, then to reusing open capacity.  Final connections
              are re-derived from the opening vector, which can only
              improve on the tentative routing.

The exact search is budgeted: it refuses instances whose opening-vector
space prod_i (caps_i + 1) exceeds the node budget (FTFP_NODE_BUDGET in
the environment, default 10^7) and counts visited nodes against the
same budget while running.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ftfl_bridge import CappedInstance
from .instance import Instance

NODE_BUDGET_ENV = "FTFP_NODE_BUDGET"
DEFAULT_NODE_BUDGET = 10_000_000


class InfeasibleError(ValueError):
    """Total capacity cannot meet some client's demand."""


class BudgetExceededError(RuntimeError):
    """The exact search space or node count exceeds the configured budget."""


@dataclass(frozen=True)
class IntegralSolution:
    """Integral plan: openings y (n,), connections x (n, m), and its cost."""

    y: np.ndarray
    x: np.ndarray
    cost: float


def solution_cost(inst: Instance, y: np.ndarray, x: np.ndarray) -> float:
    return float(inst.site_costs @ y + (inst.dist * x).sum())


def node_budget() -> int:
    raw = os.environ.get(NODE_BUDGET_ENV)
    if raw is None:
        return DEFAULT_NODE_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        raise ValueError(f"{NODE_BUDGET_ENV} must be an integer, got {raw!r}") from None
    if budget < 1:
        raise ValueError(f"{NODE_BUDGET_ENV} must be >= 1, got {budget}")
    return budget


def _client_site_order(inst: Instance) -> list[np.ndarray]:
    # per client: site indices by ascending distance, index as tie-break
    return [np.lexsort((np.arange(inst.n), inst.dist[:, j])) for j in range(inst.m)]


def optimal_assignment(y: np.ndarray, inst: Instance) -> tuple[np.ndarray, float]:
    """Optimal connections for a fixed opening vector (greedy per client)."""
    y = np.asarray(y, dtype=np.int64)
    order = _client_site_order(inst)
    x = np.zeros((inst.n, inst.m), dtype=np.int64)
    total = 0.0
    for j in range(inst.m):
        rem = int(inst.demands[j])
        for i in order[j]:
            if rem == 0:
                break
            take = min(int(y[i]), rem)
            if take:
                x[i, j] = take
                rem -= take
                total += take * float(inst.dist[i, j])
        if rem > 0:
            raise InfeasibleError(
                f"client {j} needs {int(inst.demands[j])} distinct facilities, "
                f"only {int(y.sum())} are open"
            )
    return x, total


def _check_caps_cover(ci: CappedInstance) -> None:
    """Raise InfeasibleError when all caps together cannot serve the largest demand."""
    total = int(ci.caps.sum())
    if total < ci.base.max_demand:
        j = int(np.argmax(ci.base.demands))
        raise InfeasibleError(
            f"client {j} needs {ci.base.max_demand} distinct facilities, caps sum to {total}"
        )


def solve_exact(ci: CappedInstance) -> IntegralSolution:
    """Provably optimal plan by branch and bound over opening vectors."""
    inst, caps = ci.base, ci.caps
    n, m = inst.n, inst.m
    budget = node_budget()
    space = math.prod(int(c) + 1 for c in caps)
    if space > budget:
        raise BudgetExceededError(
            f"opening-vector space {space} exceeds node budget {budget}"
        )
    _check_caps_cover(ci)
    order = _client_site_order(inst)
    dist = inst.dist
    demands = [int(r) for r in inst.demands]
    f = [float(v) for v in inst.site_costs]
    caps_list = [int(c) for c in caps]

    def relaxed_connection_cost(capvec: list[int]) -> float | None:
        total = 0.0
        for j in range(m):
            rem = demands[j]
            if rem == 0:
                continue
            for i in order[j]:
                take = capvec[i] if capvec[i] < rem else rem
                if take:
                    rem -= take
                    total += take * float(dist[i, j])
                    if rem == 0:
                        break
            if rem > 0:
                return None
        return total

    best_cost = math.inf
    best_y: list[int] | None = None
    nodes = 0
    capvec = caps_list.copy()
    y = [0] * n

    def walk(depth: int, opening_cost: float):
        nonlocal best_cost, best_y, nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"visited nodes exceed budget {budget}")
        conn = relaxed_connection_cost(capvec)
        if conn is None:
            return  # even fully open this subtree cannot cover everyone
        bound = opening_cost + conn
        if bound > best_cost:
            return
        if depth == n:
            if bound < best_cost:
                best_cost = bound
                best_y = y.copy()
            return
        for v in range(caps_list[depth] + 1):
            y[depth] = v
            capvec[depth] = v
            walk(depth + 1, opening_cost + f[depth] * v)
        y[depth] = 0
        capvec[depth] = caps_list[depth]

    walk(0, 0.0)
    if best_y is None:
        raise InfeasibleError("no opening vector within caps covers all demands")
    yv = np.array(best_y, dtype=np.int64)
    x, _ = optimal_assignment(yv, inst)
    return IntegralSolution(y=yv, x=x, cost=solution_cost(inst, yv, x))


def solve_greedy(ci: CappedInstance) -> IntegralSolution:
    """Fast feasible plan; no optimality guarantee, used as a drop-in subroutine."""
    inst, caps = ci.base, ci.caps
    n, m = inst.n, inst.m
    _check_caps_cover(ci)
    order = _client_site_order(inst)
    by_site = [np.lexsort((np.arange(m), inst.dist[i, :])) for i in range(n)]
    y = np.zeros(n, dtype=np.int64)
    a = np.zeros((n, m), dtype=np.int64)  # tentative connections
    served = np.zeros(m, dtype=np.int64)
    while True:
        under = served < inst.demands
        if not under.any():
            break
        best = None  # (ratio, site, kind, payload); kind 0 = connect, 1 = open
        for i in range(n):
            if y[i] > 0:
                for j in by_site[i]:
                    if under[j] and a[i, j] < y[i]:
                        cand = (float(inst.dist[i, j]), i, 0, int(j))
                        if best is None or cand < best:
                            best = cand
                        break
            if y[i] < caps[i]:
                run = float(inst.site_costs[i])
                count = 0
                take: list[int] = []
                cand_k = None
                for j in by_site[i]:
                    if not under[j]:
                        continue
                    run += float(inst.dist[i, j])
                    count += 1
                    take.append(int(j))
                    ratio = run / count
                    if cand_k is None or ratio < cand_k[0]:
                        cand_k = (ratio, i, 1, list(take))
                if cand_k is not None and (best is None or cand_k < best):
                    best = cand_k
        if best is None:
            raise InfeasibleError("greedy ran out of moves with unmet demand")
        _, i, kind, payload = best
        if kind == 0:
            a[i, payload] += 1
            served[payload] += 1
        else:
            y[i] += 1
            for j in payload:
                a[i, j] += 1
                served[j] += 1
    x, _ = optimal_assignment(y, inst)
    return IntegralSolution(y=y, x=x, cost=solution_cost(inst, y, x))


@dataclass(frozen=True)
class Subroutine:
    """A pluggable residual-stage solver: maps a CappedInstance to a plan."""

    kind: str
    fn: Callable[[CappedInstance], IntegralSolution]

    def solve(self, ci: CappedInstance) -> IntegralSolution:
        return self.fn(ci)


EXACT = Subroutine("exact", solve_exact)
GREEDY = Subroutine("greedy", solve_greedy)
_BY_KIND = {s.kind: s for s in (EXACT, GREEDY)}


def subroutine(kind: str) -> Subroutine:
    try:
        return _BY_KIND[kind]
    except KeyError:
        raise ValueError(f"unknown subroutine {kind!r}; expected exact or greedy") from None
