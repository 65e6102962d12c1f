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
              lower index on ties), y_i upward; the order depends on f
              alone, so searches with and without multipliers branch
              alike.  Any client may use any site, so a subtree can
              serve everyone iff its room, the decided openings plus
              the undecided caps, is at least max_j r_j.  The cover rule
              proves that at the root, and site i's children run from
              max(0, max_j r_j - room + cap_i) to cap_i, so every node
              visited can cover.  A node is pruned when its bound B
              exceeds the cutoff, the incumbent cost plus PRUNE_MARGIN
              (cost_unit + |incumbent cost|).  B uses multipliers
              alpha_j >= 0 on the coverage rows (CappedInstance.alpha), with
              beta_ij = max(0, alpha_j - d_ij) and the site budget slack
              rho_i = f_i - sum_j beta_ij (lp_core's site_slack), which
              is >= 0 up to rounding for the coverage duals of a
              certified uncapped LP; it holds for every alpha >= 0.  At
              a node, D are the decided sites, at v_i, and U the
              undecided ones, at cap_k.  The priced bound (Erlenkotter
              1978, DUALOC) is
                 B = sum_{i in D} f_i v_i + sum_{k in U} min(0, cap_k rho_k)
                     + sum_j fill_j,
              the middle sum a suffix array over the branching order
              built once per call, and fill_j client j's cheapest fill of
              r_j units when a decided site i offers v_i units at d_ij
              and an undecided site k offers cap_k units at
              d_kj + beta_kj = max(d_kj, alpha_j).  Valid: for a leaf y
              below the node, f_k = rho_k + sum_j beta_kj gives
                 cost(y) = f_D v_D + sum_U y_k rho_k
                           + sum_j [conn_j(y) + sum_U y_k beta_kj],
              and if client j takes u_kj <= y_k units at site k, its
              bracket is at least sum_D u_ij d_ij
              + sum_U u_kj max(d_kj, alpha_j) >= fill_j.  B is at least
              the Lagrangian bound (Geoffrion 1974; Cornuejols, Fisher
              and Nemhauser 1977), which relaxes the coverage rows so
              that each x_ij in [0, y_i] costs at least -y_i beta_ij,
                 L = sum_j r_j alpha_j + sum_{i in D} v_i rho_i
                     + sum_{k in U} min(0, cap_k rho_k),
              as every unit costs at least alpha_j - beta_ij, so B alone
              is tested (L serves only the root's fixing below).  The
              sites with d_ij < alpha_j (near) are a prefix of client j's
              scan order, so each row is split once per call and the
              fill takes the decided near sites in scan order, then the
              undecided near units at alpha_j each, then the far sites
              in scan order at d_ij.
              A leaf's cost is its opening costs summed in index order
              plus its fill; every site is decided there, so the fill
              adds the terms of the scan-order connection cost in scan
              order, and the cost does not depend on the branching
              order or on alpha.  A CappedInstance built without alpha
              stores zeros: then every site is far, rho = f - 0.0 = f
              bit for bit (f >= 0), the suffix is 0, and B is the
              opening cost of the decided sites plus the connection cost
              with every undecided site open to its cap.  The first
              incumbent, valued by the same fill, is the LP's
              fractional opening (CappedInstance.opening) rounded up
              under the caps, min(ceil(y_i - OPENING_TOL), cap_i).  It
              covers every client when the LP's connections x fit under
              the caps: sum_i min(ceil y_i, cap_i) >= sum_i x_ij = r_j.
              When it sums to less than max_j r_j (the cover test), or
              there is no opening, every site at its cap is the first
              incumbent instead, which the cover rule has proved covers.
              Either incumbent is a leaf of the tree, so it moves the
              nodes visited and not the plan returned.
              Root reduced-cost fixing: a leaf with y_i = v has
              L >= free + v rho_i, free = sum_j r_j alpha_j
              + sum_k min(0, cap_k rho_k) (L at the root, whose term for
              a site with rho_i > 0 is 0).  So once the first incumbent
              sets the cutoff, each site with rho_i > 0 and
              cutoff - free < cap_i rho_i keeps only the v up to
              max(0, floor((cutoff - free) / rho_i)), testing before it
              divides so a subnormal rho_i cannot overflow.  This cuts
              those leaves before the walk reaches them and tightens
              B's undecided caps; the suffix array holds only
              sites with rho_k < 0, so it stays as built.  Caps that sum
              to less than max_j r_j after fixing (by rounding only) are
              kept as they were.
              A leaf replaces the incumbent when it is strictly cheaper,
              or when it costs the same and its y is lexicographically
              smaller in index order, so the plan returned has the
              lexicographically smallest y among the cheapest leaves,
              the one that enumerate_optimum returns on exact ties.
              Every leaf the bound or the fixing cuts costs more than the
              incumbent, so the sequence of incumbents, hence the plan
              returned, is the one of the search without them, and
              only the nodes visited change.  The bounds of a leaf's
              ancestors sum in other orders than its cost and can
              exceed it by rounding, a few ulps; strict pruning against
              the incumbent cost would then cut off a leaf that ties
              the incumbent and is lexicographically smaller.  That
              rounding scales with the costs, as the margin does, and
              the margin is far wider, so every leaf at or below the
              incumbent cost is reached; the nodes it lets through
              whose leaves cost more are visited and none of those
              leaves is accepted.

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
the nodes visited ("nodes") and those cut by the bound
("pruned_bound"); solve_greedy its rounds, one move each ("rounds").

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

from .instance import InfeasibleError, Instance, as_counts, as_reals, require_cover, scan_fill, solution_cost
from .lp_core import site_slack

NODE_BUDGET_ENV = "FTFP_NODE_BUDGET"
DEFAULT_NODE_BUDGET = 10_000_000
# a node is pruned when its lower bound exceeds the incumbent cost by more than
# PRUNE_MARGIN * (cost_unit + |incumbent cost|)
PRUNE_MARGIN = 1e-9
# an LP opening at most this above an integer rounds down to it for the first incumbent
OPENING_TOL = 1e-9


class BudgetExceededError(RuntimeError):
    """The exact search visited more nodes than the budget, or recursed deeper than Python allows."""


@dataclass(frozen=True)
class CappedInstance:
    """An instance plus per-site opening caps (open at most caps_i at site i), kept as read-only
    copies; caps that cannot serve the largest demand raise InfeasibleError (require_cover)."""

    base: Instance
    caps: np.ndarray  # (n,) int
    alpha: np.ndarray | None = None  # (m,) coverage multipliers for solve_exact's bound; None stores zeros
    opening: np.ndarray | None = None  # (n,) fractional LP opening for solve_exact's first incumbent

    def __post_init__(self):
        n, m = self.base.n, self.base.m
        object.__setattr__(self, "caps", as_counts(self.caps, "caps", (n,)))
        require_cover(self.base, self.caps)
        object.__setattr__(self, "alpha", as_reals(np.zeros(m) if self.alpha is None else self.alpha, "alpha", (m,)))
        if self.opening is not None:
            object.__setattr__(self, "opening", as_reals(self.opening, "opening", (n,)))


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


def _plan(y: np.ndarray | list[int], inst: Instance, counters: dict[str, int]) -> IntegralSolution:
    """The plan of y with the scan_fill of its facilities, which serves every client:
    each solver's y sums to at least max_j r_j."""
    y = np.array(y, dtype=np.int64)
    x = scan_fill(np.broadcast_to(y[:, None], (inst.n, inst.m)), inst)
    assert np.array_equal(x.sum(axis=0), inst.demands), f"{int(y.sum())} open facilities leave a client short"
    return IntegralSolution(y=y, x=x, cost=solution_cost(inst, y, x), counters=counters)


def solve_exact(ci: CappedInstance) -> IntegralSolution:
    """Provably optimal plan by branch and bound over opening vectors."""
    inst, caps = ci.base, ci.caps
    n = inst.n
    budget = node_budget()
    # per client with demand: (r_j, alpha_j, near, far), its (site, d_ij) pairs in scan order
    # as python scalars, split before the first d_ij >= alpha_j (the near sites are a prefix)
    rows = []
    for r, a, k, order, d in zip(
        inst.demands.tolist(),
        ci.alpha.tolist(),
        (inst.dist < ci.alpha).sum(axis=0).tolist(),
        inst.scan_order.T.tolist(),
        inst.dist.T.tolist(),
    ):
        if r > 0:
            row = [(i, d[i]) for i in order]
            rows.append((r, a, row[:k], row[k:]))
    f = [float(v) for v in inst.site_costs]
    caps_list = [int(c) for c in caps]
    need = inst.max_demand  # a subtree can cover every client iff capvec sums to at least this
    perm = sorted(range(n), key=lambda i: (-f[i], i))  # branching order: dearest site first
    # per-site rates rho_i, and suffix[k] the least the undecided sites perm[k:] add to a bound
    rho = site_slack(ci.alpha, inst).tolist()
    suffix = [0.0] * (n + 1)
    for k in reversed(range(n)):
        suffix[k] = suffix[k + 1] + min(0.0, caps_list[perm[k]] * rho[perm[k]])

    def priced_connection_cost(capvec: list[int], decided: list[bool]) -> float:
        """Sum over clients of the cheapest fill of r_j units: site i offers capvec[i] units
        at d_ij when decided[i], else at max(d_ij, alpha_j); capvec must cover every demand."""
        total = 0.0
        for rem, a, near, far in rows:
            spare = 0  # the undecided near units, at alpha_j each
            for i, d in near:
                c = capvec[i]
                if decided[i]:
                    take = c if c < rem else rem
                    if take:
                        rem -= take
                        total += take * d
                        if rem == 0:
                            break
                else:
                    spare += c
            if rem and spare:
                take = spare if spare < rem else rem
                rem -= take
                total += take * a
            if rem:
                for i, d in far:
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
    # rounded up under the caps, or every site at its cap, which require_cover proved covers
    best_y = caps_list.copy()
    if ci.opening is not None:
        rounded = np.minimum(np.ceil(ci.opening - OPENING_TOL), caps).astype(np.int64).tolist()
        if sum(rounded) >= need:
            best_y = rounded
    best_cost = opening_cost_in_index_order(best_y) + priced_connection_cost(best_y, [True] * n)
    cutoff = best_cost + PRUNE_MARGIN * (inst.cost_unit + abs(best_cost))
    # reduced-cost fixing: a leaf with y_i = v has a Lagrangian bound of at least the root's
    # plus v rho_i, so a site with rho_i > 0 keeps only the v that leave it within the cutoff;
    # suffix sums only sites with rho_i < 0, so it holds for the fixed caps as built
    lag_root = float(inst.demands @ ci.alpha)
    slack = cutoff - (lag_root + suffix[0])
    fixed = caps_list.copy()
    for i, (c, r) in enumerate(zip(caps_list, rho)):
        if r > 0.0 and slack < c * r:  # tested first: slack / r overflows when r is subnormal
            fixed[i] = min(c, math.floor(slack / r)) if slack > 0.0 else 0
    if sum(fixed) >= need:  # less only by rounding: the incumbent's own bound is below the cutoff
        caps_list = fixed
    nodes = pruned_bound = 0
    capvec = caps_list.copy()  # decided sites at their opening, undecided ones at their cap
    decided = [False] * n

    def walk(depth: int, opening_cost: float, room: int):
        """Visit the node with sites perm[:depth] decided."""
        nonlocal best_cost, cutoff, best_y, nodes, pruned_bound
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"visited nodes exceed budget {budget}")
        conn = priced_connection_cost(capvec, decided)
        if opening_cost + suffix[depth] + conn > cutoff:
            pruned_bound += 1
            return
        if depth == n:  # capvec is the leaf's opening vector, and conn its connection cost
            cost = opening_cost_in_index_order(capvec) + conn
            if cost < best_cost or (cost == best_cost and capvec < best_y):
                best_cost = cost
                cutoff = best_cost + PRUNE_MARGIN * (inst.cost_unit + abs(best_cost))
                best_y = capvec.copy()
            return
        i = perm[depth]
        cap, fi = caps_list[i], f[i]
        decided[i] = True
        for v in range(max(0, need - room + cap), cap + 1):  # the children whose room stays >= need
            capvec[i] = v
            walk(depth + 1, opening_cost + fi * v, room - cap + v)
        decided[i] = False

    try:
        walk(0, 0.0, sum(caps_list))
    except RecursionError:
        raise BudgetExceededError(f"a search over {n} sites exceeds Python's recursion limit") from None
    return _plan(best_y, inst, {"nodes": nodes, "pruned_bound": pruned_bound})


def solve_greedy(ci: CappedInstance) -> IntegralSolution:
    """Fast feasible plan; no optimality guarantee, used as a drop-in subroutine."""
    inst = ci.base
    n, m = inst.n, inst.m
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
        # require_cover: a site below its cap can open, or every site is at its cap and
        # sum_i y_i >= r_j > sum_i a_ij leaves a facility with room for client j
        assert best is not None, "an undersupplied client always has a move under covering caps"
        _, i, kind, payload = best
        if kind == 0:
            a[i][payload] += 1
            served[payload] += 1
        else:
            y[i] += 1
            for j in [j for j, _ in by_site[i] if under[j]][:payload]:
                a[i][j] += 1
                served[j] += 1
    return _plan(y, inst, {"rounds": rounds})


@dataclass(frozen=True)
class Subroutine:
    """A pluggable residual-stage solver: maps a CappedInstance to a plan."""

    kind: str
    fn: Callable[[CappedInstance], IntegralSolution]


EXACT = Subroutine("exact", solve_exact)
GREEDY = Subroutine("greedy", solve_greedy)
_BY_KIND = {s.kind: s for s in (EXACT, GREEDY)}


def subroutine(kind: str) -> Subroutine:
    try:
        return _BY_KIND[kind]
    except KeyError:
        raise ValueError(f"unknown subroutine {kind!r}; expected exact or greedy") from None
