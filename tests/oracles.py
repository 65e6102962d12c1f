"""Independent reference implementations used to cross-check the package.

Everything in this module is deliberately written with a different toolchain
(scipy) or a different algorithmic shape (plain loops, exhaustive search,
bipartite matching) than the code under test, so agreement between the two is
meaningful evidence rather than a tautology.  The two exceptions are
reference_simplex_min, the simplex as it stood before its pivot loop was
rewritten, which pins the rewrite to the same pivots and the same bits,
and reference_check_duality, the certificate check as it stood when it
took the whole dual (alpha, beta, gamma), which pins check_duality's
alpha-only form to the same verdicts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog

from ftfp import lp_core
from ftfp.ftfl_solvers import CappedInstance, IntegralSolution
from ftfp.instance import COST_REL_TOL, Instance


def lp_oracle(inst: Instance, caps: np.ndarray | None = None) -> float:
    """LP optimum via scipy's HiGHS backend.

    Variables are ordered [y_0..y_{n-1}, x_00, x_01, ..] with x in site-major
    order.  Constraints: x_ij <= y_i, sum_i x_ij >= r_j, optional y_i <= cap_i.
    """
    n, m = inst.n, inst.m
    nv = n + n * m
    c = np.concatenate([inst.site_costs, inst.dist.ravel()])

    rows = []
    rhs = []
    for i in range(n):
        for j in range(m):
            row = np.zeros(nv)
            row[n + i * m + j] = 1.0
            row[i] = -1.0
            rows.append(row)
            rhs.append(0.0)
    for j in range(m):
        row = np.zeros(nv)
        for i in range(n):
            row[n + i * m + j] = -1.0
        rows.append(row)
        rhs.append(-float(inst.demands[j]))
    if caps is not None:
        for i in range(n):
            row = np.zeros(nv)
            row[i] = 1.0
            rows.append(row)
            rhs.append(float(caps[i]))

    res = linprog(c, A_ub=np.array(rows), b_ub=np.array(rhs), bounds=(0, None), method="highs")
    if not res.success:
        raise ValueError(f"oracle LP did not solve: {res.message}")
    return float(res.fun)


def cheapest_fill_cost(ci: CappedInstance, y: np.ndarray) -> float | None:
    """Connection cost of an opening vector, or None if some client cannot be served.

    Each client takes units from its cheapest sites first, at most y_i units
    per site.  Written with plain python loops on purpose.
    """
    total = 0.0
    for j in range(ci.base.m):
        need = int(ci.base.demands[j])
        by_price = sorted(range(ci.base.n), key=lambda i: (ci.base.dist[i, j], i))
        for i in by_price:
            take = min(int(y[i]), need)
            total += take * float(ci.base.dist[i, j])
            need -= take
            if need == 0:
                break
        if need > 0:
            return None
    return total


def keep_cheapest(x: np.ndarray, inst: Instance) -> np.ndarray:
    """x with every over-covered column cut to its demand r_j, cheapest connections kept.

    A column j whose sum exceeds r_j is rebuilt by keeping connections in
    ascending d_ij (lowest site index on ties) up to r_j; other columns
    stay as they are.  Works on float and integer x alike.  Plain loops on
    purpose; the package's trims refill the columns with a cumulative sum.
    """
    x = np.array(x)
    for j in range(inst.m):
        if x[:, j].sum() <= inst.demands[j]:
            continue
        remaining = x.dtype.type(inst.demands[j])
        for i in sorted(range(inst.n), key=lambda i: (inst.dist[i, j], i)):
            take = min(x[i, j], remaining)
            x[i, j] = take
            remaining -= take
    return x


def enumerate_optimum(ci: CappedInstance) -> tuple[float, np.ndarray]:
    """Exhaustive optimum over all opening vectors 0 <= y_i <= cap_i.

    Returns (cost, y) with y the lexicographically smallest vector attaining
    the optimum.  Only usable when prod(cap_i + 1) is small.
    """
    best_cost = None
    best_y = None
    ranges = [range(int(c) + 1) for c in ci.caps]
    for combo in itertools.product(*ranges):
        y = np.array(combo, dtype=np.int64)
        conn = cheapest_fill_cost(ci, y)
        if conn is None:
            continue
        cost = float(ci.base.site_costs @ y) + conn
        if best_cost is None or cost < best_cost - 1e-12:
            best_cost = cost
            best_y = y
    if best_cost is None:
        raise ValueError("no feasible opening vector")
    return best_cost, best_y


def matching_assignment_cost(inst: Instance, y: np.ndarray) -> float:
    """Connection cost via per-client bipartite matching (Hungarian method).

    Client j's demand units are matched to distinct facility slots; site i
    contributes y_i identical slots at price d_ij.  Optimal per client because
    clients do not compete for slots.
    """
    slots = np.repeat(np.arange(inst.n), y.astype(int))
    total = 0.0
    for j in range(inst.m):
        r = int(inst.demands[j])
        if r == 0:
            continue
        if slots.size < r:
            raise ValueError(f"client {j} cannot reach {r} facilities")
        cost = np.tile(inst.dist[slots, j], (r, 1))
        rows, cols = linear_sum_assignment(cost)
        total += float(cost[rows, cols].sum())
    return total


def metric_violation(dist: np.ndarray) -> float:
    """Worst violation of d_ij <= d_il + d_kl + d_kj over all (i, j, k, l).

    Quadruple loop on purpose; the package uses a vectorized min-reduction.
    """
    n, m = dist.shape
    worst = 0.0
    for i in range(n):
        for j in range(m):
            for k in range(n):
                for l in range(m):
                    worst = max(worst, dist[i, j] - (dist[i, l] + dist[k, l] + dist[k, j]))
    return worst


# ---------------------------------------------------------------------------
# site splitting: the textbook form the capped instances stand in for


@dataclass(frozen=True)
class SplitMap:
    """Bookkeeping for site splitting: which copy belongs to which site."""

    copies: np.ndarray  # (n,) int
    site_of_copy: np.ndarray  # (total_copies,) int

    @property
    def total_copies(self) -> int:
        return self.site_of_copy.size


def materialize_split(inst: Instance, copies: np.ndarray) -> tuple[Instance, SplitMap]:
    """Actually build the split instance (copy counts multiply n)."""
    copies = np.asarray(copies, dtype=np.int64)
    if copies.shape != (inst.n,) or np.any(copies < 0):
        raise ValueError("copies must be a nonnegative integer vector of length n")
    if copies.sum() < 1:
        raise ValueError("split instance needs at least one copy overall")
    site_of_copy = np.repeat(np.arange(inst.n), copies)
    split = Instance(
        inst.site_costs[site_of_copy],
        inst.demands,
        inst.dist[site_of_copy, :],
        name=f"{inst.name}/split",
    )
    return split, SplitMap(copies=copies, site_of_copy=site_of_copy)


def merge_solution(sol: IntegralSolution, smap: SplitMap) -> IntegralSolution:
    """Collapse a solution over split copies back to the original sites.

    The input must be feasible for the split instance with y <= 1 per
    copy; distances are identical across copies of a site, so the merged
    plan costs exactly the same.
    """
    k = smap.total_copies
    if sol.y.shape != (k,) or sol.x.shape[0] != k:
        raise ValueError("solution shape does not match the split map")
    if np.any(sol.y < 0) or np.any(sol.y > 1):
        raise ValueError("split solution must open each copy at most once")
    if np.any(sol.x < 0) or np.any(sol.x > sol.y[:, None]):
        raise ValueError("split solution connects through an unopened copy")
    n = smap.copies.size
    m = sol.x.shape[1]
    y = np.zeros(n, dtype=np.int64)
    x = np.zeros((n, m), dtype=np.int64)
    np.add.at(y, smap.site_of_copy, sol.y)
    np.add.at(x, smap.site_of_copy, sol.x)
    return IntegralSolution(y=y, x=x, cost=sol.cost)


def reference_simplex_min(A: np.ndarray, b: np.ndarray, c: np.ndarray):
    """lp_core._simplex_min as it stood before its pivot loop was rewritten.

    The loop prices, picks and updates with whole-array numpy operations:
    a masked argmin for Dantzig's column, a ratio vector with a tie mask
    for the leaving row, one fancy-indexed subtraction per pivot.  The
    package's loop must make the same choices and return the same bits;
    _PIVOT_EPS and _DEGENERATE_RUN are read from lp_core at call time, so
    a test that patches them patches both.
    """
    _PIVOT_EPS, _DEGENERATE_RUN = lp_core._PIVOT_EPS, lp_core._DEGENERATE_RUN
    if np.any(b > 0):
        raise ValueError("the slack basis is feasible only for b <= 0")
    nrows, nv = A.shape
    ncols = nv + nrows
    # rows -A v + s = -b, s >= 0 the slacks, which start basic at s = -b >= 0
    T = np.zeros((nrows, ncols + 1))
    np.negative(A, out=T[:, :nv])
    T[np.arange(nrows), nv + np.arange(nrows)] = 1.0
    T[:, -1] = -b
    basis = nv + np.arange(nrows)
    cost = np.zeros(ncols)
    cost[:nv] = c
    counters = {"pivots": 0, "degenerate_pivots": 0, "bland_pivots": 0}
    degenerate_run = 0
    for _ in range(500 + 50 * (nrows + ncols)):
        red = cost - cost[basis] @ T[:, :-1]
        eligible = red < -_PIVOT_EPS
        if not eligible.any():
            break
        bland = degenerate_run >= _DEGENERATE_RUN
        if bland:
            col = int(np.argmax(eligible))  # Bland: lowest eligible index enters
        else:
            col = int(np.argmin(np.where(eligible, red, np.inf)))  # Dantzig, lowest index on ties
        pos = T[:, col] > _PIVOT_EPS
        if not pos.any():
            raise lp_core.SimplexError("the dual is unbounded, which no LP that passed the cover rule can be")
        ratios = np.full(nrows, np.inf)
        ratios[pos] = T[pos, -1] / T[pos, col]
        rmin = ratios.min()
        tied = np.nonzero(ratios <= rmin)[0]
        row = int(tied[np.argmin(basis[tied])])  # lowest basic index leaves
        T[row] /= T[row, col]
        hit = np.nonzero(T[:, col])[0]
        hit = hit[hit != row]
        T[hit] -= T[hit, col][:, None] * T[row]
        T[:, col] = 0.0
        T[row, col] = 1.0
        basis[row] = col
        degenerate = bool(rmin <= _PIVOT_EPS)
        degenerate_run = degenerate_run + 1 if degenerate else 0
        counters["pivots"] += 1
        counters["degenerate_pivots"] += degenerate
        counters["bland_pivots"] += bland
    else:
        raise lp_core.SimplexError("iteration limit hit; pivoting is stuck")

    # Re-solve the final basis system against the original data: this
    # strips accumulated pivot error from both primal and dual values.
    # B holds the basic columns of [-A, I].
    B = np.zeros((nrows, nrows))
    structural = basis < nv
    B[:, structural] = -A[:, basis[structural]]
    B[basis[~structural] - nv, np.nonzero(~structural)[0]] = 1.0
    v = np.zeros(ncols)
    v[basis] = np.linalg.solve(B, -b)
    return v[:nv], -np.linalg.solve(B.T, cost[basis]), counters


def reference_check_duality(
    primal, alpha: np.ndarray, beta: np.ndarray, gamma: np.ndarray | None, inst: Instance,
    caps: np.ndarray | None = None,
) -> list[str]:
    """lp_core.check_duality as it stood when it took the whole dual (alpha, beta, gamma).

    Seven families, each a slack that must be >= -FEAS_TOL: primal
    nonnegativity, linking, coverage, caps (under caps), dual
    nonnegativity, the site budget sum_j beta_ij - gamma_i <= f_i and the
    edge alpha_j - beta_ij <= d_ij; then the gap between the primal cost
    and r.alpha - cap.gamma.  Returns the names of the failing families
    ("gap" for the gap test).
    """
    n = inst.n
    gamma = gamma if caps is not None else np.zeros(n)
    slacks = {
        "primal_nonneg": np.concatenate([primal.y, primal.x.ravel()]),
        "linking": (primal.y[:, None] - primal.x).ravel(),
        "coverage": primal.x.sum(axis=0) - inst.demands,
        "caps": np.asarray(caps, float) - primal.y if caps is not None else np.zeros(0),
        "dual_nonneg": np.concatenate([alpha, beta.ravel(), gamma]),
        "site_budget": inst.site_costs + gamma - beta.sum(axis=1),
        "edge": (inst.dist - alpha[None, :] + beta).ravel(),
    }
    bad = [name for name, slack in slacks.items() if slack.size and not slack.min() >= -lp_core.FEAS_TOL]
    primal_cost = float(inst.site_costs @ primal.y + (inst.dist * primal.x).sum())
    dual_value = float(inst.demands @ alpha) - (float(np.asarray(caps, float) @ gamma) if caps is not None else 0.0)
    if not abs(primal_cost - dual_value) <= COST_REL_TOL * (1.0 + abs(primal_cost)):
        bad.append("gap")
    return bad
