"""Integral solvers for capped placement instances.

The paper hands each residual to a facility-location solver that opens
a site at most once, by splitting site i into K copies with the same
opening cost and distances; a plan over copies merges back by summing
per site.  The solvers never see the split form.  A CappedInstance is
the original instance plus caps y_i <= cap_i, the same problem: a split
plan merges to a capped one and a capped plan spreads over the copies,
at equal cost.  tests/oracles.py keeps the split form as the reference
for that equivalence.

Both solvers exploit the same structural fact: once the opening vector
y is fixed, the best connection plan decomposes per client, and for one
client it takes y's facilities in scan order (instance.scan_fill over
Instance.scan_order).

solve_exact   Depth-first branch and bound over opening vectors.  It
              branches on the dearest sites first (descending f_i,
              lower index on ties), y_i from 0 upward; the order
              depends on f alone, so searches with and without
              multipliers branch alike.  A node is tested in three
              steps, cheapest first; steps 2 and 3 prune only when
              their bound exceeds the incumbent cost by more than
              PRUNE_MARGIN relative (the cutoff):
              1. Cover.  Any client may use any site, so the subtree
                 can serve everyone iff the decided openings plus the
                 undecided caps sum to at least max_j r_j; a running
                 sum makes this O(1).
              2. Lagrangian bound (Geoffrion 1974; Cornuejols, Fisher
                 and Nemhauser 1977).  Relax the coverage rows with
                 multipliers alpha_j >= 0 (CappedInstance.alpha).  For
                 fixed y each x_ij in [0, y_i] then costs at least
                 -y_i max(0, alpha_j - d_ij), so with
                 rho_i = f_i - sum_j max(0, alpha_j - d_ij), the site
                 budget slack of the certificate alpha (lp_core's
                 dual_terms), a node whose
                 decided sites D are fixed to v_i is bounded below by
                 L = sum_j r_j alpha_j + sum_{i in D} v_i rho_i
                     + sum_{i not in D} min(0, cap_i rho_i),
                 the last sum a suffix array over the branching order
                 built once per call and the rest carried down the
                 walk, so the test is O(1).
                 L is valid for every alpha >= 0.  With the coverage
                 duals of a certified uncapped LP, the site budget gives
                 rho_i >= 0 up to rounding, so L at the root is about
                 sum_j r_j alpha_j, the LP value when the LP is this
                 instance's.
                 A CappedInstance built without alpha stores zeros:
                 then rho = f - 0.0 = f bit for bit (f >= 0), L is the
                 opening cost of the decided sites in the same float
                 operations as step 3, and a node it prunes step 3
                 would prune too, so callers without duals get the
                 same counters.  Every leaf below a node it prunes
                 costs more than the incumbent, is never accepted, and
                 the sequence of incumbents, hence the plan returned,
                 is the one without this step; the nodes visited are a
                 subset.
              3. Opening cost of the decided sites, summed in branching
                 order, plus the optimal connection cost when every
                 undecided site is opened to its cap; capacities only
                 shrink deeper in the tree, so the bound is valid.  It
                 walks one row per client with demand, built once per
                 call: r_j and its (site, distance) pairs in scan order
                 as python ints and floats, so no node indexes a numpy
                 array.
              A leaf's cost is its opening costs summed in index order
              plus its step-3 connection cost, so it does not depend on
              the branching order.  The first incumbent, valued the
              same way, is the LP's fractional opening
              (CappedInstance.opening) rounded up under the caps,
              min(ceil(y_i - OPENING_TOL), cap_i).  It covers every
              client when the LP's connections x fit under the caps:
              sum_i min(ceil y_i, cap_i) >= sum_i x_ij = r_j.  When it
              sums to less than max_j r_j (step 1's test), or there is
              no opening, every site at its cap is the first incumbent
              instead, which the cap check has proved covers.  The
              search does not call the greedy solver.  Either incumbent
              is a leaf of the tree, so it moves the nodes visited and
              not the plan returned.  A leaf replaces the
              incumbent when it is strictly cheaper, or when it costs
              the same and its y is lexicographically smaller in index
              order, so the plan returned has the lexicographically
              smallest y among the cheapest leaves, the one that
              enumerate_optimum returns on exact ties.  The bounds of a
              leaf's ancestors sum in other orders than its cost and
              can exceed it by rounding, a few ulps; strict pruning
              against the incumbent cost would then cut off a leaf that
              ties the incumbent and is lexicographically smaller.  The
              margin is far wider than that rounding, so every leaf at
              or below the incumbent cost is reached; the nodes it lets
              through whose leaves cost more are visited and none of
              those leaves is accepted.

solve_greedy  Ratio greedy.  Each round either opens one more facility
              at some site together with a best prefix of undersupplied
              clients (ratio: opening cost plus their connections, per
              client served) or routes one undersupplied client to an
              already-open facility with spare room (ratio: the
              distance).  Lowest ratio wins, ties go to the lowest site
              index, then to reusing open capacity.  Final connections
              are re-derived from the opening vector, which can only
              improve on the tentative routing.

Both solvers count their work in IntegralSolution.counters: solve_exact
the nodes visited ("nodes"), those cut by step 2 or 3 ("pruned_bound")
and those cut by step 1 ("pruned_infeasible");
solve_greedy its rounds, one move each ("rounds").

The exact search is budgeted by the work it does, not by the size of its
space: it counts visited nodes against the node budget (FTFP_NODE_BUDGET
in the environment, default 10^7) and raises BudgetExceededError when the
count overruns it.  The walk recurses once per site, so a search deeper
than Python's recursion limit is refused the same way.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .instance import Instance, as_counts, require_range, scan_fill, solution_cost
from .lp_core import dual_terms

NODE_BUDGET_ENV = "FTFP_NODE_BUDGET"
DEFAULT_NODE_BUDGET = 10_000_000
# relative margin by which a node's lower bound must exceed the incumbent to prune it
PRUNE_MARGIN = 1e-9
# an LP opening at most this above an integer rounds down to it for the first incumbent
OPENING_TOL = 1e-9


class InfeasibleError(ValueError):
    """Total capacity cannot meet some client's demand."""


class BudgetExceededError(RuntimeError):
    """The exact search visited more nodes than the budget, or recursed deeper than Python allows."""


@dataclass(frozen=True)
class CappedInstance:
    """An instance plus per-site opening caps: open at most caps_i at site i."""

    base: Instance
    caps: np.ndarray  # (n,) int
    alpha: np.ndarray | None = None  # (m,) coverage multipliers for solve_exact's bound; None stores zeros
    opening: np.ndarray | None = None  # (n,) fractional LP opening for solve_exact's first incumbent

    def __post_init__(self):
        n, m = self.base.n, self.base.m
        alpha = self.alpha if self.alpha is not None else np.zeros(m)
        kept = {"caps": as_counts(np.asarray(self.caps), "caps", (n,)), "alpha": _finite_nonnegative(alpha, m, "alpha")}
        if self.opening is not None:
            kept["opening"] = _finite_nonnegative(self.opening, n, "opening")
        for attr, a in kept.items():
            a.setflags(write=False)
            object.__setattr__(self, attr, a)


def _finite_nonnegative(values, size: int, what: str) -> np.ndarray:
    """A new float64 copy of values; ValueError unless it is a finite nonnegative vector of length size."""
    a = np.array(values, dtype=np.float64)
    require_range(what, a, math.inf, f"{what} finite and >= 0", (size,))
    return a


def to_capped(
    inst: Instance, copies: np.ndarray, alpha: np.ndarray | None = None, opening: np.ndarray | None = None
) -> CappedInstance:
    """The split instance with `copies` copies per site, in capped form, with optional multipliers and LP opening."""
    return CappedInstance(base=inst, caps=copies, alpha=alpha, opening=opening)


@dataclass(frozen=True)
class IntegralSolution:
    """Integral plan: openings y (n,), connections x (n, m), and its cost.

    counters holds the work the solver did (see the module docstring);
    plans built outside a solver leave it empty.
    """

    y: np.ndarray
    x: np.ndarray
    cost: float
    counters: dict[str, int] = field(default_factory=dict)


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


def _assign(y: np.ndarray, inst: Instance) -> np.ndarray:
    """scan_fill of y's facilities; raises InfeasibleError when a client stays short."""
    y = np.asarray(y, dtype=np.int64)
    x = scan_fill(np.broadcast_to(y[:, None], (inst.n, inst.m)), inst)
    short = np.nonzero(x.sum(axis=0) < inst.demands)[0]
    if short.size:
        j = int(short[0])
        raise InfeasibleError(
            f"client {j} needs {int(inst.demands[j])} distinct facilities, "
            f"only {int(y.sum())} are open"
        )
    return x


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
    n = inst.n
    budget = node_budget()
    _check_caps_cover(ci)
    # per client with demand: (r_j, [(site, d_ij), ...]) in scan order, as python scalars
    rows = [
        (r, [(i, d[i]) for i in order])
        for r, order, d in zip(inst.demands.tolist(), inst.scan_order.T.tolist(), inst.dist.T.tolist())
        if r > 0
    ]
    f = [float(v) for v in inst.site_costs]
    caps_list = [int(c) for c in caps]
    need = inst.max_demand  # a subtree can cover every client iff capvec sums to at least this
    perm = sorted(range(n), key=lambda i: (-f[i], i))  # branching order: dearest site first
    # the Lagrangian bound: per-site rates rho_i, and suffix[k] the least the sites perm[k:] add
    rho = (inst.site_costs - dual_terms(ci.alpha, inst)[0].sum(axis=1)).tolist()
    lag_root = float(inst.demands @ ci.alpha)
    suffix = [0.0] * (n + 1)
    for k in reversed(range(n)):
        suffix[k] = suffix[k + 1] + min(0.0, caps_list[perm[k]] * rho[perm[k]])

    def relaxed_connection_cost(capvec: list[int]) -> float:
        """Connection cost with capvec facilities open; capvec must cover every demand."""
        total = 0.0
        for rem, row in rows:
            for i, d in row:
                c = capvec[i]
                take = c if c < rem else rem
                if take:
                    rem -= take
                    total += take * d
                    if rem == 0:
                        break
        return total

    def opening_cost_in_index_order(y: list[int]) -> float:
        total = 0.0
        for fi, v in zip(f, y):
            total = total + fi * v
        return total

    # the first incumbent, valued in the leaf arithmetic of the walk below: the LP opening
    # rounded up under the caps, or every site at its cap, which _check_caps_cover proved covers
    best_y = caps_list.copy()
    if ci.opening is not None:
        rounded = np.minimum(np.ceil(ci.opening - OPENING_TOL), caps).astype(np.int64).tolist()
        if sum(rounded) >= need:
            best_y = rounded
    best_cost = opening_cost_in_index_order(best_y) + relaxed_connection_cost(best_y)
    cutoff = best_cost + PRUNE_MARGIN * (1.0 + abs(best_cost))
    nodes = pruned_bound = pruned_infeasible = 0
    capvec = caps_list.copy()  # decided sites at their opening, undecided ones at their cap

    def walk(depth: int, opening_cost: float, lag: float, room: int, conn: float | None):
        """Visit the node with sites perm[:depth] decided; conn is relaxed_connection_cost(capvec)
        when the parent already has it (the last child keeps the parent's capvec), else None."""
        nonlocal best_cost, cutoff, best_y, nodes, pruned_bound, pruned_infeasible
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"visited nodes exceed budget {budget}")
        if room < need:
            pruned_infeasible += 1
            return  # even fully open this subtree cannot cover everyone
        if lag + suffix[depth] > cutoff:
            pruned_bound += 1
            return
        if conn is None:
            conn = relaxed_connection_cost(capvec)
        if opening_cost + conn > cutoff:
            pruned_bound += 1
            return
        if depth == n:  # capvec is the leaf's opening vector
            cost = opening_cost_in_index_order(capvec) + conn
            if cost < best_cost or (cost == best_cost and capvec < best_y):
                best_cost = cost
                cutoff = best_cost + PRUNE_MARGIN * (1.0 + abs(best_cost))
                best_y = capvec.copy()
            return
        i = perm[depth]
        cap, fi, ri = caps_list[i], f[i], rho[i]
        for v in range(cap + 1):
            capvec[i] = v
            walk(depth + 1, opening_cost + fi * v, lag + ri * v, room - cap + v, conn if v == cap else None)

    try:
        walk(0, 0.0, lag_root, sum(caps_list), None)
    except RecursionError:
        raise BudgetExceededError(f"a search over {n} sites exceeds Python's recursion limit") from None
    yv = np.array(best_y, dtype=np.int64)
    x = _assign(yv, inst)
    counters = {"nodes": nodes, "pruned_bound": pruned_bound, "pruned_infeasible": pruned_infeasible}
    return IntegralSolution(y=yv, x=x, cost=solution_cost(inst, yv, x), counters=counters)


def solve_greedy(ci: CappedInstance) -> IntegralSolution:
    """Fast feasible plan; no optimality guarantee, used as a drop-in subroutine."""
    inst = ci.base
    n, m = inst.n, inst.m
    _check_caps_cover(ci)
    caps = [int(c) for c in ci.caps]
    demands = [int(r) for r in inst.demands]
    f = [float(v) for v in inst.site_costs]
    # per site: (client, d_ij) by ascending distance, client index as tie-break
    order = np.argsort(inst.dist, axis=1, kind="stable")
    sorted_dist = np.take_along_axis(inst.dist, order, axis=1)
    by_site = [list(zip(js, ds)) for js, ds in zip(order.tolist(), sorted_dist.tolist())]
    y = [0] * n
    a = [[0] * m for _ in range(n)]  # tentative connections
    served = [0] * m
    rounds = 0
    while True:
        under = [s < r for s, r in zip(served, demands)]
        if not any(under):
            break
        rounds += 1
        # (ratio, site, kind, payload): kind 0 connects client payload, kind 1 opens
        # a facility for the first payload undersupplied clients in by_site order;
        # no two candidates share (site, kind), so the payload never breaks a tie
        best = None
        for i in range(n):
            if y[i] > 0:
                for j, d in by_site[i]:
                    if under[j] and a[i][j] < y[i]:
                        cand = (d, i, 0, j)
                        if best is None or cand < best:
                            best = cand
                        break
            if y[i] < caps[i]:
                run = f[i]
                count = best_len = 0
                best_ratio = math.inf
                for j, d in by_site[i]:
                    if under[j]:
                        run += d
                        count += 1
                        ratio = run / count
                        if count == 1 or ratio < best_ratio:
                            best_ratio, best_len = ratio, count
                if best_len:
                    cand = (best_ratio, i, 1, best_len)
                    if best is None or cand < best:
                        best = cand
        if best is None:
            raise InfeasibleError("greedy ran out of moves with unmet demand")
        _, i, kind, payload = best
        if kind == 0:
            a[i][payload] += 1
            served[payload] += 1
        else:
            y[i] += 1
            for j in [j for j, _ in by_site[i] if under[j]][:payload]:
                a[i][j] += 1
                served[j] += 1
    yv = np.array(y, dtype=np.int64)
    x = _assign(yv, inst)
    return IntegralSolution(y=yv, x=x, cost=solution_cost(inst, yv, x), counters={"rounds": rounds})


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
