"""LP relaxation of fault-tolerant facility placement, with dual certificates.

The relaxation over site openings y_i and connections x_ij is

    min  sum_i f_i y_i + sum_ij d_ij x_ij
    s.t. y_i - x_ij >= 0          (linking, one row per site-client pair)
         sum_i x_ij >= r_j        (coverage, one row per client)
         -y_i >= -cap_i           (optional per-site opening caps)
         x, y >= 0

and its dual carries multipliers beta_ij (linking), alpha_j (coverage),
and gamma_i (caps), giving the lower-bound certificate

    max  sum_j r_j alpha_j - sum_i cap_i gamma_i
    s.t. sum_j beta_ij - gamma_i <= f_i
         alpha_j - beta_ij <= d_ij
         alpha, beta, gamma >= 0.

Without caps, most site-client pairs cannot carry flow at any LP
optimum.  Let u_j = min_k (f_k + d_kj).  Every dual-feasible point has
beta_kj <= sum_j' beta_kj' <= f_k, hence alpha_j <= d_kj + beta_kj <=
d_kj + f_k for every site k, so alpha_j <= u_j.  candidate_pairs keeps
P = {(i, j) : d_ij <= u_j}, which holds each client's minimizing pair.
The LP restricted to the x columns of P therefore has duals that obey
the same bound, and every dropped pair has d_ij > u_j >= alpha_j: its
edge constraint alpha_j - beta_ij <= d_ij holds with beta_ij = 0.  The
restricted primal optimum padded with zeros and the restricted duals
padded with beta_ij = 0 are thus feasible for the full relaxation with
equal objectives, i.e. optimal for it, and check_duality on the full
instance certifies them.  Caps break the bound (gamma_i lets sum_j
beta_ij exceed f_i), so pruning applies to uncapped LPs only.

The solver is a dense two-phase full-tableau simplex.  The entering
column is the one with the most negative reduced cost (Dantzig's rule),
ties going to the lowest column index; the leaving row is the minimum
ratio, ties going to the lowest basic variable index.  After
_DEGENERATE_RUN consecutive degenerate pivots (minimum ratio at most
_PIVOT_EPS, so the objective does not move) the entering rule switches
to Bland's, the lowest eligible column, until the next non-degenerate
pivot.  Every choice is fixed by the data and the pivots made so far,
with no randomness, so repeated runs agree bit for bit.  The method cannot cycle: a non-degenerate pivot strictly
lowers the objective, so no basis repeats across one, and within a run
of degenerate pivots Bland's rule, which never cycles (Bland 1977),
takes over after finitely many steps.  Instances here are desk-sized,
which makes the dense tableau the simplest correct choice.  The phase-1
matrix [A sigma, -diag sigma] (rows scaled by sigma = +-1 so the RHS is
nonnegative, then one surplus column per row) has full row rank because
its surplus block alone is nonsingular, so no row is redundant: every
tableau row has a nonzero entry outside the artificial columns, and an
artificial still basic after phase 1 can always be pivoted out.  At
optimality the basis system is re-solved directly (numpy linalg) so
reported primal and dual values carry no accumulated pivot drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Instance

FEAS_TOL = 1e-7
DUAL_GAP_REL_TOL = 1e-6
_PIVOT_EPS = 1e-9
# consecutive degenerate pivots after which Bland's rule picks the entering column
_DEGENERATE_RUN = 16


class SimplexError(RuntimeError):
    """Iteration limit or unbounded ray: indicates a solver bug for these LPs."""


class LpInfeasibleError(ValueError):
    """Phase 1 could not zero the artificials; the LP has no feasible point."""


@dataclass(frozen=True)
class LinearProgram:
    """Dense min c.v subject to A v >= b, v >= 0, plus the instance shape.

    pairs is the (n, m) mask of the site-client pairs that have an x
    column.  Column i holds y_i and column n + t holds x_ij for the t-th
    kept pair in site-major order, so with every pair kept x_ij is
    column n + i * m + j.
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    n: int
    m: int
    pairs: np.ndarray
    caps: np.ndarray | None = None


@dataclass(frozen=True)
class FractionalSolution:
    """Primal LP point: openings y (n,), connections x (n, m), objective."""

    x: np.ndarray
    y: np.ndarray
    objective: float


@dataclass(frozen=True)
class DualSolution:
    """Dual certificate: alpha (m,), beta (n, m), gamma (n,) when capped."""

    alpha: np.ndarray
    beta: np.ndarray
    objective: float
    gamma: np.ndarray | None = None


@dataclass(frozen=True)
class DualityReport:
    """Result of checking a primal/dual pair against each other."""

    ok: bool
    gap: float
    worst_slack: dict[str, float]
    messages: list[str]


def candidate_pairs(inst: Instance) -> np.ndarray:
    """(n, m) mask of the pairs with d_ij <= min_k (f_k + d_kj).

    An optimum of the uncapped LP built over these pairs, padded with
    zeros, is optimal for the full relaxation, and its duals padded with
    beta_ij = 0 certify it (proof in the module docstring).  Each client
    keeps at least its minimizing site; with all opening costs zero only
    each client's nearest sites remain.
    """
    bound = (inst.site_costs[:, None] + inst.dist).min(axis=0)
    return inst.dist <= bound[None, :]


def build_lp(
    inst: Instance, caps: np.ndarray | None = None, pairs: np.ndarray | None = None
) -> LinearProgram:
    """Assemble the relaxation; caps, when given, adds -y_i >= -cap_i rows.

    pairs, an (n, m) boolean mask, limits the x columns and linking rows
    to the masked pairs (see candidate_pairs); None keeps every pair.
    The mask is valid for uncapped LPs only, so giving both raises.
    """
    n, m = inst.n, inst.m
    if pairs is None:
        pairs = np.ones((n, m), dtype=bool)
    elif caps is not None:
        raise ValueError("a pair mask is exact for uncapped LPs only; caps given too")
    pairs = np.asarray(pairs, dtype=bool)
    if pairs.shape != (n, m):
        raise ValueError("pairs must be an (n, m) boolean mask")
    if caps is not None:
        caps = np.asarray(caps, dtype=float)
        if caps.shape != (n,) or np.any(caps < 0):
            raise ValueError("caps must be a nonnegative (n,) vector")
    site, client = np.nonzero(pairs)  # site-major
    k = site.size
    x_col = n + np.arange(k)
    rows = k + m + (n if caps is not None else 0)
    A = np.zeros((rows, n + k))
    b = np.zeros(rows)
    c = np.concatenate([inst.site_costs, inst.dist[site, client]])
    A[np.arange(k), site] = 1.0  # linking: y_i - x_ij >= 0
    A[np.arange(k), x_col] = -1.0
    A[k + client, x_col] = 1.0  # coverage: sum_i x_ij >= r_j
    b[k : k + m] = inst.demands
    if caps is not None:
        A[k + m + np.arange(n), np.arange(n)] = -1.0
        b[k + m :] = -caps
    return LinearProgram(c=c, A=A, b=b, n=n, m=m, pairs=pairs, caps=caps)


def _simplex_min(A: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Two-phase simplex for min c.v, A v >= b, v >= 0 (dense; pricing as above).

    Returns (v, duals, pivots) where duals are the multipliers of the >=
    rows and pivots counts the work done (see solve_lp).
    """
    nrows, nv = A.shape
    sigma = np.where(b > 0.0, 1.0, -1.0)  # rows scaled so RHS >= 0
    rhs = b * sigma
    art_rows = np.nonzero(sigma > 0)[0]
    n_art = art_rows.size
    ncols = nv + nrows + n_art
    T = np.zeros((nrows, ncols + 1))
    np.multiply(A, sigma[:, None], out=T[:, :nv])
    T[np.arange(nrows), nv + np.arange(nrows)] = -sigma
    T[art_rows, nv + nrows + np.arange(n_art)] = 1.0
    T[:, -1] = rhs
    basis = np.empty(nrows, dtype=np.int64)
    basis[sigma < 0] = nv + np.nonzero(sigma < 0)[0]
    basis[art_rows] = nv + nrows + np.arange(n_art)
    pivots = {"phase1_pivots": 0, "phase2_pivots": 0, "degenerate_pivots": 0, "bland_pivots": 0}

    max_iter = 500 + 50 * (nrows + ncols)

    def pivot(row: int, col: int):
        T[row] /= T[row, col]
        hit = np.nonzero(T[:, col])[0]
        hit = hit[hit != row]
        T[hit] -= T[hit, col][:, None] * T[row]
        T[:, col] = 0.0
        T[row, col] = 1.0
        basis[row] = col

    def run_phase(cost: np.ndarray, allowed: np.ndarray, phase: str):
        degenerate_run = 0
        for _ in range(max_iter):
            red = cost - cost[basis] @ T[:, :-1]
            eligible = (red < -_PIVOT_EPS) & allowed
            if not eligible.any():
                return
            bland = degenerate_run >= _DEGENERATE_RUN
            if bland:
                col = int(np.argmax(eligible))  # Bland: lowest eligible index enters
            else:
                col = int(np.argmin(np.where(eligible, red, np.inf)))  # Dantzig, lowest index on ties
            pos = T[:, col] > _PIVOT_EPS
            if not pos.any():
                raise SimplexError("unbounded direction; the relaxation should be bounded")
            ratios = np.full(T.shape[0], np.inf)
            ratios[pos] = T[pos, -1] / T[pos, col]
            rmin = ratios.min()
            tied = np.nonzero(ratios <= rmin)[0]
            row = int(tied[np.argmin(basis[tied])])  # lowest basic index leaves
            pivot(row, col)
            degenerate = bool(rmin <= _PIVOT_EPS)
            degenerate_run = degenerate_run + 1 if degenerate else 0
            pivots[phase] += 1
            pivots["degenerate_pivots"] += degenerate
            pivots["bland_pivots"] += bland
        raise SimplexError("iteration limit hit; pivoting is stuck")

    # Phase 1: drive artificials to zero.
    if n_art:
        cost1 = np.zeros(ncols)
        cost1[nv + nrows :] = 1.0
        run_phase(cost1, np.ones(ncols, dtype=bool), "phase1_pivots")
        if float(cost1[basis] @ T[:, -1]) > FEAS_TOL:
            raise LpInfeasibleError("no feasible point (phase 1 stalled above zero)")
        for row in range(nrows):
            if basis[row] < nv + nrows:
                continue
            nz = np.nonzero(np.abs(T[row, : nv + nrows]) > _PIVOT_EPS)[0]
            if not nz.size:  # impossible at full row rank, see the module docstring
                raise SimplexError("a basic artificial cannot be pivoted out; the basis is singular")
            pivot(row, int(nz[0]))
            pivots["phase1_pivots"] += 1

    # Phase 2: original objective, artificial columns barred from entering.
    cost2 = np.zeros(ncols)
    cost2[:nv] = c
    allowed = np.ones(ncols, dtype=bool)
    allowed[nv + nrows :] = False
    run_phase(cost2, allowed, "phase2_pivots")

    # Re-solve the final basis system against the original data: this
    # strips accumulated pivot error from both primal and dual values.
    # B holds the basic columns of [A * sigma, -diag(sigma)].
    B = np.zeros((nrows, nrows))
    structural = basis < nv
    B[:, structural] = A[:, basis[structural]] * sigma[:, None]
    slack_row = basis[~structural] - nv
    B[slack_row, np.nonzero(~structural)[0]] = -sigma[slack_row]
    xb = np.linalg.solve(B, rhs)
    ybar = np.linalg.solve(B.T, cost2[basis])
    v = np.zeros(ncols)
    v[basis] = xb
    return v[:nv], sigma * ybar, pivots


def solve_lp(
    lp: LinearProgram, counters: dict[str, int] | None = None
) -> tuple[FractionalSolution, DualSolution]:
    """Solve to optimality; returns primal point and matching dual certificate.

    When `counters` is given it receives the LP shape (rows, cols) and
    the simplex work: phase1_pivots (including pivots that drive basic
    artificials out), phase2_pivots, degenerate_pivots (ratio zero) and
    bland_pivots (entering column chosen by the anti-cycling fallback).
    """
    v, duals, pivots = _simplex_min(lp.A, lp.b, lp.c)
    if counters is not None:
        counters.update(rows=lp.A.shape[0], cols=lp.A.shape[1], **pivots)
    n, m, k = lp.n, lp.m, lp.A.shape[1] - lp.n
    if v.min() < -FEAS_TOL or duals.min() < -FEAS_TOL:
        raise SimplexError("negative primal or dual values beyond tolerance")
    v = np.maximum(v, 0.0)
    duals = np.maximum(duals, 0.0)
    y = v[:n]
    # pairs without a column carry x_ij = 0 and beta_ij = 0
    x = np.zeros((n, m))
    x[lp.pairs] = v[n:]
    objective = float(lp.c @ v)
    beta = np.zeros((n, m))
    beta[lp.pairs] = duals[:k]
    alpha = duals[k : k + m]
    gamma = None
    r = lp.b[k : k + m]  # coverage RHS block
    dual_obj = float(alpha @ r)
    if lp.caps is not None:
        gamma = duals[k + m :]
        dual_obj -= float(gamma @ lp.caps)
    primal = FractionalSolution(x=x, y=y, objective=objective)
    dual = DualSolution(alpha=alpha, beta=beta, gamma=gamma, objective=dual_obj)
    return primal, dual


def check_duality(
    primal: FractionalSolution,
    dual: DualSolution,
    inst: Instance,
    caps: np.ndarray | None = None,
) -> DualityReport:
    """Validate a primal/dual pair as a certificate of LP optimality.

    Slack convention: every constraint is written as slack >= 0, and the
    report records the worst (most negative) slack per family.  ok means
    both points are feasible within 1e-7 and the objectives agree within
    1e-6 relative, which certifies optimality by weak duality.
    """
    n, m = inst.n, inst.m
    worst: dict[str, float] = {}
    messages: list[str] = []

    def family(name: str, slack: np.ndarray, what: str):
        w = float(slack.min()) if slack.size else 0.0
        worst[name] = w
        if w < -FEAS_TOL:
            idx = np.unravel_index(int(np.argmin(slack)), slack.shape)
            messages.append(f"{name}: {what} violated by {-w:.3e} at {tuple(int(v) for v in idx)}")

    family("primal_nonneg", np.concatenate([primal.y, primal.x.ravel()]), "x, y >= 0")
    family("linking", (primal.y[:, None] - primal.x).ravel(), "y_i >= x_ij")
    family("coverage", primal.x.sum(axis=0) - inst.demands, "sum_i x_ij >= r_j")
    if caps is not None:
        family("caps", np.asarray(caps, float) - primal.y, "y_i <= cap_i")
    dual_parts = [dual.alpha, dual.beta.ravel()]
    gamma = dual.gamma if dual.gamma is not None else np.zeros(n)
    if caps is not None:
        dual_parts.append(gamma)
    family("dual_nonneg", np.concatenate(dual_parts), "alpha, beta, gamma >= 0")
    family("site_budget", inst.site_costs + gamma - dual.beta.sum(axis=1), "sum_j beta_ij - gamma_i <= f_i")
    family("edge", (inst.dist - dual.alpha[None, :] + dual.beta).ravel(), "alpha_j - beta_ij <= d_ij")

    primal_cost = float(inst.site_costs @ primal.y + (inst.dist * primal.x).sum())
    dual_value = float(inst.demands @ dual.alpha)
    if caps is not None:
        dual_value -= float(np.asarray(caps, float) @ gamma)
    if abs(primal_cost - primal.objective) > DUAL_GAP_REL_TOL * (1.0 + abs(primal_cost)):
        messages.append(
            f"objective field {primal.objective} disagrees with recomputed cost {primal_cost}"
        )
    if abs(dual_value - dual.objective) > DUAL_GAP_REL_TOL * (1.0 + abs(dual_value)):
        messages.append(
            f"dual objective field {dual.objective} disagrees with recomputed value {dual_value}"
        )
    gap = primal_cost - dual_value
    worst["gap"] = gap
    if abs(gap) > DUAL_GAP_REL_TOL * (1.0 + abs(primal_cost)):
        messages.append(f"duality gap {gap:.3e} exceeds tolerance")
    ok = not messages
    return DualityReport(ok=ok, gap=gap, worst_slack=worst, messages=messages)


def keep_cheapest(x: np.ndarray, inst: Instance) -> np.ndarray:
    """Cut every over-covered column of x, in place, down to its demand r_j.

    A column j whose sum exceeds r_j is rebuilt by keeping connections
    cheapest-first (lowest site index on equal distances) up to r_j,
    which removes exactly the most expensive surplus.  Works on float and
    integer x alike; returns each column's sum before the cut.
    """
    have = np.empty(inst.m, dtype=x.dtype)
    for j in range(inst.m):
        have[j] = x[:, j].sum()
        if have[j] <= inst.demands[j]:
            continue
        remaining = x.dtype.type(inst.demands[j])
        for i in sorted(range(inst.n), key=lambda i: (inst.dist[i, j], i)):
            take = min(x[i, j], remaining)
            x[i, j] = take
            remaining -= take
    return have


def trim_to_demand(sol: FractionalSolution, inst: Instance) -> FractionalSolution:
    """Shrink coverage surplus so every client meets its demand with equality.

    Degenerate LP vertices can over-cover a client (strict inequality in
    the coverage row at zero marginal cost).  keep_cheapest removes the
    most expensive surplus; y is untouched, so linking still holds.
    """
    x = np.array(sol.x, dtype=float)
    have = keep_cheapest(x, inst)
    short = np.nonzero(have < inst.demands - FEAS_TOL)[0]
    if short.size:
        j = int(short[0])
        raise ValueError(f"client {j} is undercovered: {float(have[j])} < {float(inst.demands[j])}")
    objective = float(inst.site_costs @ sol.y + (inst.dist * x).sum())
    return FractionalSolution(x=x, y=np.array(sol.y, dtype=float), objective=objective)
