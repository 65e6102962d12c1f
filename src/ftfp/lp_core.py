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
The LP restricted to the pairs of P therefore has duals that obey the
same bound, and every dropped pair has d_ij > u_j >= alpha_j: its edge
constraint alpha_j - beta_ij <= d_ij holds with beta_ij = 0.  The
restricted primal optimum padded with zeros and the restricted duals
padded with beta_ij = 0 are thus feasible for the full relaxation with
equal objectives, i.e. optimal for it, and check_duality on the full
instance certifies them.  Caps break the bound (gamma_i lets sum_j
beta_ij exceed f_i), so build_lp keeps P for every uncapped LP and
every pair for a capped one.

The x variables never reach the solver.  With y fixed, client j's best
connection cost over its kept sites P_j is, by LP duality,

    g_j(y) = max_{a >= 0} [ r_j a - sum_{i in P_j} y_i max(0, a - d_ij) ],

concave and piecewise linear in a with breakpoints at the d_lj.  When
sum_{i in P_j} y_i >= r_j its slope past the last breakpoint is <= 0,
so the maximum sits at a = 0 or at some a = d_lj, l in P_j.  The
relaxation is therefore exactly the cut form (Benders 1962)

    min  f.y + sum_j theta_j
    s.t. sum_{i in P_j} y_i >= r_j                                 (lambda_j)
         theta_j + sum_{i in P_j} max(0, d_lj - d_ij) y_i >= r_j d_lj
                                              for l in P_j         (mu_lj)
         -y_i >= -cap_i                                            (gamma_i)
         y, theta >= 0,

one optimality cut per kept pair.  build_lp returns its dual as min
c.v, A v >= b, v >= 0: a row per y_i and per theta_j, a column per
lambda_j, mu_lj and gamma_i, c = -(r_j, r_j d_lj, -cap_i) and b =
-(f, 1).  As f >= 0, b <= 0 and the slack basis v = 0 is feasible, so
the simplex needs no phase 1.  The cut form is feasible iff the caps
sum to at least max_j r_j, and build_lp refuses caps that do not
(instance.require_cover), so the dual of every LP it returns is bounded:
an unbounded one is a solver failure, and the simplex raises SimplexError.

solve_lp maps the optimum back to the paper's variables.  y is the
multiplier vector of the y rows.  x_ij fills each client's demand from
y in scan order over its kept pairs (ascending d_ij, lowest site on
ties), which attains g_j(y), so (x, y) costs the optimum.  The
certificate is alpha alone, alpha_j = lambda_j + sum_l mu_lj d_lj.
dual_terms extends it by the least beta and gamma the dual constraints
allow, beta_ij = max(0, alpha_j - d_ij) and, under caps, gamma_i =
max(0, sum_j beta_ij - f_i).  Every feasible extension is at least as
large entrywise, so alpha extends to a feasible dual iff this one is,
and its value r.alpha - cap.gamma is the largest: testing alpha >= 0
and the uncapped site budget sum_j beta_ij <= f_i (gamma meets it under
caps) is as strong as testing a whole dual.  The optimum's alpha
extends: the simplex's own beta_ij = lambda_j + sum_l mu_lj max(0,
d_lj - d_ij) on kept pairs meets each site budget (its y_i row) and
alpha_j - beta_ij = sum_l mu_lj min(d_lj, d_ij) <= d_ij, as the theta_j
row bounds sum_l mu_lj by 1.  solve_lp checks the primal point and
alpha with check_duality on the full instance, under the LP's caps,
and raises SimplexError if the check fails, so every value it reports
is certified.  Its cost tests are measured in Instance.cost_unit, so a
certificate means the same whatever unit f and d are written in.

The solver is a dense full-tableau simplex.  The entering column is
the one with the most negative reduced cost (Dantzig's rule), ties
going to the lowest column index; the leaving row is the minimum ratio,
ties going to the lowest basic variable index.  The ratio test runs
over the pivot column as python floats, each quotient the same IEEE
division as numpy's, so the leaving row is the same as over a numpy
ratio vector.  Reduced costs are recomputed in floats from the tableau
before every pivot, so columns whose reduced costs agree in exact
arithmetic can differ in the last bits: "lowest column index" only
separates bitwise-equal reduced costs, and rounding decides the rest.  After _DEGENERATE_RUN
consecutive degenerate pivots (minimum ratio at most _PIVOT_EPS, so the
objective does not move) the entering rule switches to Bland's, the
lowest eligible column, until the next non-degenerate pivot.  Every
choice is fixed by the data and the pivots made so far, with no
randomness, so repeated runs agree bit for bit.  The method cannot
cycle: a non-degenerate pivot strictly lowers the objective, so no
basis repeats across one, and within a run of degenerate pivots Bland's
rule, which never cycles (Bland 1977), takes over after finitely many
steps.  Instances here are desk-sized, which makes the dense tableau
the simplest correct choice.  At optimality the basis system is
re-solved directly (numpy linalg) so reported values carry no
accumulated pivot drift.

The simplex's tolerance _PIVOT_EPS is absolute, but only three parts of
the LP carry the cost unit: mu's block of the y rows, b's y rows (-f)
and mu's costs r_j d_lj.  So solve_lp normalises by a power of two, as
Curtis and Reid (1972) scale matrices: when Instance.cost_unit is not 0
and lies outside [0.5, 2), it multiplies those parts of copies by 2^k,
k chosen so that the unit lands in [1, 2).  The result is the LP of the
instance with f and d times 2^k, whose lambda and gamma are 2^k times
the original ones and whose mu and y are the same, so solve_lp divides
lambda by 2^k.  Multiplying by a power of two is exact unless an entry
underflows, and check_duality runs on the original instance, so the
certificate decides either way.  An LP whose unit lies in [0.5, 2) is
solved as build_lp returned it, to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .instance import Instance, as_reals, costs_agree, require_cover, scan_fill, solution_cost

FEAS_TOL = 1e-7
_PIVOT_EPS = 1e-9
# consecutive degenerate pivots after which Bland's rule picks the entering column
_DEGENERATE_RUN = 16


class SimplexError(RuntimeError):
    """A solver bug: iteration limit, unbounded dual, singular basis or refuted certificate."""


@dataclass(frozen=True)
class LinearProgram:
    """Dense min c.v subject to A v >= b, v >= 0: the dual of inst's cut form.

    pairs is the (n, m) mask of the site-client pairs that are kept.
    Row i is y_i and row n + j theta_j.  Column j is lambda_j, column
    m + t mu_lj for the t-th kept pair (l, j) in site-major order, and
    column m + |P| + i gamma_i when caps are given.
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    inst: Instance
    pairs: np.ndarray
    caps: np.ndarray | None = None


@dataclass(frozen=True)
class FractionalSolution:
    """Primal LP point: openings y (n,), connections x (n, m), objective.

    counters holds the work solve_lp did for it (see solve_lp); points
    built elsewhere leave it empty.
    """

    x: np.ndarray
    y: np.ndarray
    objective: float
    counters: dict[str, float] = field(default_factory=dict)


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


def build_lp(inst: Instance, caps: np.ndarray | None = None) -> LinearProgram:
    """Assemble the dual of the cut form; caps, when given, adds a gamma_i column per site.

    Uncapped, each client keeps only its candidate_pairs sites, which
    leaves the optimum unchanged; capped, every pair is kept, as the
    mask is proven for uncapped LPs only, and caps that cannot serve the
    largest demand raise InfeasibleError.
    """
    n, m = inst.n, inst.m
    if caps is None:
        pairs = candidate_pairs(inst)
    else:
        caps = as_reals(caps, "caps", (n,))
        require_cover(inst, caps)
        pairs = np.ones((n, m), dtype=bool)
    site, client = np.nonzero(pairs)  # kept pair t is the cut of (l, j) = (site[t], client[t])
    k = site.size
    r = inst.demands.astype(float)
    d_cut = inst.dist[site, client]
    A = np.zeros((n + m, m + k + (n if caps is not None else 0)))
    A[:n, :m] = -pairs.astype(float)  # lambda_j: -sum_{i in P_j} y_i
    A[:n, m : m + k] = -np.where(pairs[:, client], np.maximum(d_cut - inst.dist[:, client], 0.0), 0.0)
    A[n + client, m + np.arange(k)] = -1.0  # mu_lj: -theta_j
    c = np.concatenate([-r, -r[client] * d_cut])
    if caps is not None:
        A[np.arange(n), m + k + np.arange(n)] = 1.0  # gamma_i: +y_i
        c = np.concatenate([c, caps])
    b = -np.concatenate([inst.site_costs, np.ones(m)])
    return LinearProgram(c=c, A=A, b=b, inst=inst, pairs=pairs, caps=caps)


def _simplex_min(A: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Simplex for min c.v, A v >= b, v >= 0 with b <= 0, from the slack basis (pricing as above).

    build_lp's b = -(f, 1) is <= 0, as Instance keeps f >= 0.
    Returns (v, duals, counters) where duals are the multipliers of the
    >= rows and counters the work done (see solve_lp).
    """
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
    basic = basis.tolist()  # basis as python ints, for the ratio test
    for _ in range(500 + 50 * (nrows + ncols)):
        red = cost - cost[basis] @ T[:, :-1]
        bland = degenerate_run >= _DEGENERATE_RUN
        if bland:
            col = int((red < -_PIVOT_EPS).argmax())  # Bland: lowest eligible index enters
        else:
            col = int(red.argmin())  # Dantzig, lowest index on ties
        if not red[col] < -_PIVOT_EPS:
            break  # no eligible column: optimal
        # the least (ratio, basic index) leaves; hit collects the rows to update
        column = T[:, col].tolist()
        rhs = T[:, -1].tolist()
        row, rmin, hit = -1, 0.0, []
        for i, a in enumerate(column):
            if a:
                hit.append(i)
                if a > _PIVOT_EPS:
                    q = rhs[i] / a
                    if row < 0 or q < rmin or (q == rmin and basic[i] < basic[row]):
                        row, rmin = i, q
        if row < 0:
            raise SimplexError("the dual is unbounded, which no LP that passed the cover rule can be")
        T[row] /= column[row]
        hit.remove(row)
        hit = np.array(hit, dtype=np.intp)
        T[hit] -= T[hit, col][:, None] * T[row]
        T[:, col] = 0.0
        T[row, col] = 1.0
        basis[row] = basic[row] = col
        degenerate = rmin <= _PIVOT_EPS
        degenerate_run = degenerate_run + 1 if degenerate else 0
        counters["pivots"] += 1
        counters["degenerate_pivots"] += degenerate
        counters["bland_pivots"] += bland
    else:
        raise SimplexError("iteration limit hit; pivoting is stuck")

    # Re-solve the final basis system against the original data: this
    # strips accumulated pivot error from both primal and dual values.
    # B holds the basic columns of [-A, I].
    B = np.zeros((nrows, nrows))
    structural = basis < nv
    B[:, structural] = -A[:, basis[structural]]
    B[basis[~structural] - nv, np.nonzero(~structural)[0]] = 1.0
    v = np.zeros(ncols)
    try:
        v[basis] = np.linalg.solve(B, -b)
        duals = -np.linalg.solve(B.T, cost[basis])
    except np.linalg.LinAlgError as exc:
        raise SimplexError(f"the final basis cannot be re-solved: {exc}") from None
    return v[:nv], duals, counters


def solve_lp(lp: LinearProgram) -> tuple[FractionalSolution, np.ndarray]:
    """Solve to optimality; returns the primal point and the coverage duals alpha that passed check_duality.

    Both are in the paper's variables (recovery in the module docstring),
    read from the simplex's values clipped at 0 and checked on lp.inst
    under lp.caps; a refuted certificate raises SimplexError.  The simplex
    solves the LP normalised by a power of two (module docstring).  The
    primal point's counters hold the LP shape (rows, cols), the simplex
    work: pivots, degenerate_pivots (ratio zero) and bland_pivots
    (entering column chosen by the anti-cycling fallback), and the
    certified duality_gap |primal.objective - dual value|.
    """
    inst, n, m = lp.inst, lp.inst.n, lp.inst.m
    site, client = np.nonzero(lp.pairs)
    mus = slice(m, m + site.size)
    A, b, c = lp.A, lp.b, lp.c
    unit = inst.cost_unit
    k = 0 if unit == 0 or 0.5 <= unit < 2 else 1 - math.frexp(unit)[1]  # unit * 2^k in [1, 2)
    if k:  # the parts in the cost unit (module docstring): mu's block of the y rows, b's y rows, mu's costs
        A, b, c = A.copy(), b.copy(), c.copy()
        A[:n, mus] = np.ldexp(A[:n, mus], k)
        b[:n] = np.ldexp(b[:n], k)
        c[mus] = np.ldexp(c[mus], k)
    v, duals, work = _simplex_min(A, b, c)
    v = np.maximum(v, 0.0)
    y = np.maximum(duals[:n], 0.0)
    x = scan_fill(np.where(lp.pairs, y[:, None], 0.0), inst)
    # the normalised LP's lambda is 2^k times this one's; mu is a weight and y an opening, so
    # neither moves (gamma moves like lambda, but nothing reads it: dual_terms rebuilds it)
    alpha = np.ldexp(v[:m], -k) + np.bincount(client, weights=v[mus] * inst.dist[site, client], minlength=m)
    objective = solution_cost(inst, y, x)
    gap = abs(objective - _dual_value(alpha, inst, lp.caps))
    counters = dict(rows=lp.A.shape[0], cols=lp.A.shape[1], **work, duality_gap=gap)
    primal = FractionalSolution(x=x, y=y, objective=objective, counters=counters)
    bad = check_duality(primal, alpha, inst, lp.caps)
    if bad:
        raise SimplexError(f"LP of {inst.name!r} failed its duality check: " + "; ".join(bad))
    return primal, alpha


def dual_terms(
    alpha: np.ndarray, inst: Instance, caps: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """The least (beta, gamma) that alpha extends to: beta_ij = max(0, alpha_j - d_ij),
    and under caps gamma_i = max(0, sum_j beta_ij - f_i), else None (module docstring)."""
    beta = np.maximum(alpha[None, :] - inst.dist, 0.0)
    if caps is None:
        return beta, None
    return beta, np.maximum(beta.sum(axis=1) - inst.site_costs, 0.0)


def site_slack(alpha: np.ndarray, inst: Instance) -> np.ndarray:
    """rho_i = f_i - sum_j max(0, alpha_j - d_ij): site i's uncapped budget left by alpha's least beta."""
    return inst.site_costs - dual_terms(alpha, inst)[0].sum(axis=1)


def _dual_value(alpha: np.ndarray, inst: Instance, caps: np.ndarray | None) -> float:
    """The certificate's value sum_j r_j alpha_j, less cap.gamma of the least gamma under caps."""
    value = float(inst.demands @ alpha)
    if caps is not None:
        value -= float(np.asarray(caps, float) @ dual_terms(alpha, inst, caps)[1])
    return value


def _violations(name: str, slack: np.ndarray, what: str, tol: float = FEAS_TOL) -> list[str]:
    """A message led by the family's name unless the worst (most negative) slack is >= -tol; NaN fails."""
    w = float(slack.min()) if slack.size else 0.0
    if w >= -tol:
        return []
    idx = np.unravel_index(int(np.argmin(slack)), slack.shape)
    return [f"{name}: {what} violated by {-w:.3e} at {tuple(int(v) for v in idx)}"]


def primal_violations(x: np.ndarray, y: np.ndarray, inst: Instance, caps: np.ndarray | None = None) -> list[str]:
    """Test (x, y) as a feasible fractional point within FEAS_TOL; one message per failing family:
    primal_nonneg, linking (x_ij <= y_i), coverage and, under caps, caps (y_i <= cap_i)."""
    bad = _violations("primal_nonneg", np.concatenate([y, x.ravel()]), "x, y >= 0")
    bad += _violations("linking", (y[:, None] - x).ravel(), "y_i >= x_ij")
    bad += _violations("coverage", x.sum(axis=0) - inst.demands, "sum_i x_ij >= r_j")
    if caps is not None:
        bad += _violations("caps", np.asarray(caps, float) - y, "y_i <= cap_i")
    return bad


def check_duality(
    primal: FractionalSolution,
    alpha: np.ndarray,
    inst: Instance,
    caps: np.ndarray | None = None,
) -> list[str]:
    """Validate a primal point and coverage duals alpha as a certificate of LP optimality; one message per failure.

    The primal point is tested by primal_violations; alpha by its least extension (dual_terms),
    feasible iff any extension is, with the costs alpha >= 0 and the uncapped site budget within
    FEAS_TOL * inst.cost_unit.  No message means both are feasible and the objectives agree
    (costs_agree), which certifies optimality by weak duality; a NaN or infinite value fails.
    """
    messages = primal_violations(primal.x, primal.y, inst, caps)
    tol = FEAS_TOL * inst.cost_unit
    messages += _violations("dual_nonneg", alpha, "alpha >= 0", tol)
    if caps is None:  # under caps the least gamma meets every site budget
        messages += _violations("site_budget", site_slack(alpha, inst), "sum_j max(0, alpha_j - d_ij) <= f_i", tol)
    primal_cost = solution_cost(inst, primal.y, primal.x)
    dual_value = _dual_value(alpha, inst, caps)
    if not costs_agree(inst, primal_cost, primal.objective):
        messages.append(f"objective field {primal.objective} disagrees with recomputed cost {primal_cost}")
    if not costs_agree(inst, primal_cost, dual_value):
        messages.append(f"duality gap {primal_cost - dual_value:.3e} exceeds tolerance")
    return messages


def trim_to_demand(sol: FractionalSolution, inst: Instance) -> FractionalSolution:
    """Cut every over-covered client of sol.x back to its demand, dearest connections first.

    solve_lp's x already meets each demand with equality (it is a scan
    fill), so this guards an x supplied by the caller: it is refilled
    from itself in scan order (scan_fill), which keeps the cheapest r_j
    units of each column; y is untouched, so linking still holds.
    Raises ValueError when primal_violations' coverage family fails (only
    that one: a negative entry is left for the verifier).
    """
    x = np.asarray(sol.x, dtype=float)
    short = [msg for msg in primal_violations(x, sol.y, inst) if msg.startswith("coverage:")]
    if short:
        raise ValueError(short[0])
    x = scan_fill(x, inst)
    return FractionalSolution(x=x, y=np.array(sol.y, dtype=float), objective=solution_cost(inst, sol.y, x))
