"""Problem instances for fault-tolerant facility placement.

An instance has n sites and m clients.  Opening one facility at site i
costs f_i, and any number of facilities may be opened at the same site.
Client j must connect its r_j units of demand to r_j pairwise distinct
facilities (two facilities at the same site count as distinct), paying
d_ij per unit routed to site i.  Distances must satisfy the bipartite
metric condition

    d_ij <= d_il + d_kl + d_kj   for all sites i, k and clients j, l,

which is what the triangle inequality looks like when only site-client
distances exist.  The Instance constructor checks the values (f and d
finite and >= 0, r integers in [0, 2^53], a finite cost scale); validate checks
the metric condition.

Instances travel as plain text, one logical line per record, with `#`
starting a comment that runs to end of line and blank lines ignored:

    ftfp 1           header: format name and version
    n m              site count, client count (both >= 1)
    f_1 ... f_n      opening costs, reals >= 0
    r_1 ... r_m      demands, integers in [0, 2^53]
    d_11 ... d_1m    distance row of site 1
    ...              (n rows total)

Serialization writes floats with repr so parse(serialize(inst)) is an
exact round trip.  Random instances are generated from site and client
points drawn uniformly in the unit square (numpy PCG64 generator, fixed
draw order), so the metric condition holds by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

METRIC_TOL = 1e-9  # validate's tolerance, relative to the largest distance
COST_REL_TOL = 1e-6  # costs_agree's tolerance, relative to the cost unit
# the largest plain upper bound on an instance's optimum (see Instance); the rest of
# the float range is headroom for the sums the LP, its certificate and the search form
COST_LIMIT = 1e300
# entries (8 MB of float64) in one block of sites of the metric check's min-reductions
_METRIC_BLOCK = 1 << 20


class ParseError(ValueError):
    """Malformed instance or solution text; message names the line."""


def require_range(what: str, values: np.ndarray, end: float, need: str, shape: tuple | None = None) -> None:
    """Raise ValueError naming what and its first entry outside [0, end) (NaN is outside),
    or its shape when it is not `shape` (when given); values must be nonempty."""
    if shape is not None and values.shape != shape:
        raise ValueError(f"{what} has shape {values.shape}, need {shape}")
    if not 0 <= values.min() <= values.max() < end:
        at = np.unravel_index(np.argmax(~((values >= 0) & (values < end))), values.shape)
        raise ValueError(f"{what}[{','.join(map(str, at))}] = {values[at]} violates {need}")


def as_counts(values, what: str, shape: tuple | None = None) -> np.ndarray:
    """A fresh read-only int64 copy of a nonempty array; ValueError unless it has shape `shape`
    (when given) and every entry is an integer in [0, 2^63) (a bool or a string is not)."""
    a = np.asarray(values)
    if a.dtype.kind not in "iuf" or (a.dtype.kind != "i" and not np.array_equal(np.rint(a), a)):
        raise ValueError(f"{what} must be integers")
    require_range(what, a, 2**63, f"0 <= {what} < 2^63", shape)
    a = a.astype(np.int64)
    a.setflags(write=False)
    return a


def as_reals(values, what: str, shape: tuple | None = None) -> np.ndarray:
    """A fresh read-only float64 copy of a nonempty array; ValueError unless it has shape `shape`
    (when given) and every entry is a finite real >= 0 (a bool or a string is not)."""
    a = np.asarray(values)
    if a.dtype.kind not in "iuf":
        raise ValueError(f"{what} must be reals")
    a = a.astype(np.float64)
    require_range(what, a, math.inf, f"{what} finite and >= 0", shape)
    a.setflags(write=False)
    return a


class InfeasibleError(ValueError):
    """Total capacity cannot meet some client's demand."""


def require_cover(inst: Instance, caps: np.ndarray) -> None:
    """Raise InfeasibleError unless the caps sum to at least max_j r_j, which decides whether they
    admit a plan, integral or fractional (y = caps, x_ij = cap_i r_j / sum caps)."""
    total = sum(caps.tolist())  # python ints: an int64 sum can wrap below the demand
    if total < inst.max_demand:
        j = int(np.argmax(inst.demands))
        raise InfeasibleError(f"client {j} needs {inst.max_demand} distinct facilities, caps sum to {total}")


@dataclass(frozen=True)
class Instance:
    """Immutable FTFP instance: costs, demands, and a distance table.

    The constructor raises ValueError, naming the field and its first bad
    entry, unless f and d are finite and >= 0 and r are integers in [0, 2^53].
    It also raises when the plain upper bound on the optimum, opening max_j r_j
    facilities at every site plus each client's demand at its farthest site,
    max_j r_j * sum_i f_i + sum_j r_j max_i d_ij, reaches COST_LIMIT, or
    when a sum in it overflows: such values overflow the LP and its
    certificate.  It keeps read-only copies; the caller's arrays are left alone.
    """

    site_costs: np.ndarray  # (n,) float
    demands: np.ndarray  # (m,) int
    dist: np.ndarray  # (n, m) float
    name: str = ""

    def __post_init__(self):
        fs, rs, ds = (np.shape(a) for a in (self.site_costs, self.demands, self.dist))
        if len(fs) != 1 or len(rs) != 1 or ds != fs + rs:
            raise ValueError("shape mismatch: need f (n,), r (m,), d (n, m)")
        if not fs[0] or not rs[0]:
            raise ValueError("need at least one site and one client")
        f, d = as_reals(self.site_costs, "site_costs"), as_reals(self.dist, "dist")
        r = as_counts(self.demands, "demands")
        # the LP takes demands as float64, which holds every integer up to 2^53 exactly
        require_range("demands", r, 2**53 + 1, "r_j <= 2^53")
        with np.errstate(over="ignore"):  # a sum that overflows is inf, refused below
            bound = float(r.max()) * float(f.sum()) + float(r @ d.max(axis=0))
        if not bound < COST_LIMIT:
            raise ValueError(
                f"values too large: the plain cost bound max_j r_j sum_i f_i + sum_j r_j max_i d_ij "
                f"is {bound:.3g}, not below {COST_LIMIT:.0e}"
            )
        for attr, a in (("site_costs", f), ("demands", r), ("dist", d)):
            object.__setattr__(self, attr, a)

    @property
    def n(self) -> int:
        return self.site_costs.size

    @property
    def m(self) -> int:
        return self.demands.size

    @property
    def max_demand(self) -> int:
        return int(self.demands.max())

    @property
    def min_demand(self) -> int:
        return int(self.demands.min())

    @cached_property
    def cost_unit(self) -> float:
        """The largest opening cost or distance: the scale every cost tolerance is measured in."""
        return max(float(self.site_costs.max()), float(self.dist.max()))

    @cached_property
    def scan_order(self) -> np.ndarray:
        """(n, m) read-only site indices; column j lists the sites by ascending d_ij, lowest index on ties.

        Sorted once; every per-client fill (scan_fill: the LP's connections, the integral
        assignments, both surplus trims) and the exact solver's bound take the sites in this order.
        """
        order = np.argsort(self.dist, axis=0, kind="stable")
        order.setflags(write=False)
        return order


def scan_fill(offer: np.ndarray, inst: Instance) -> np.ndarray:
    """(n, m) fill x_ij = min(offer_ij, max(0, r_j - what the sites before i in inst.scan_order offer j)).

    It is client j's cheapest way to take r_j units from offer_ij per
    site: a plan that skips a nearer unit can move one unit onto it at no
    loss.  x has offer's dtype, float or integer.
    A nonnegative column that offers at most r_j in all comes back as it
    is (for floats, up to the rounding of the running sum), and so does a
    negative offer, which a verifier then still sees.
    """
    order = inst.scan_order
    ordered = np.take_along_axis(offer, order, axis=0)
    before = np.zeros_like(ordered)  # what the sites earlier in scan order offer
    np.cumsum(ordered[:-1], axis=0, out=before[1:])
    x = np.zeros_like(ordered)
    np.put_along_axis(x, order, np.minimum(ordered, np.maximum(inst.demands - before, 0)), axis=0)
    return x


def solution_cost(inst: Instance, y: np.ndarray, x: np.ndarray) -> float:
    """f.y + sum_ij d_ij x_ij, the cost of openings y and connections x, integral or fractional."""
    return float(inst.site_costs @ y + (inst.dist * x).sum())


def costs_agree(inst: Instance, value: float, other: float) -> bool:
    """Whether |value - other| <= COST_REL_TOL (cost_unit + |value|); a NaN never agrees."""
    return abs(value - other) <= COST_REL_TOL * (inst.cost_unit + abs(value))


@dataclass(frozen=True)
class GenParams:
    """Parameters for the seeded unit-square instance generator."""

    sites: int
    clients: int
    demand_min: int
    demand_max: int
    seed: int
    cost_min: float = 0.0
    cost_max: float = 1.0

    def __post_init__(self):
        if self.sites < 1 or self.clients < 1:
            raise ValueError("sites and clients must be >= 1")
        if self.demand_min < 0 or self.demand_min > self.demand_max:
            raise ValueError("need 0 <= demand_min <= demand_max")
        if not (math.isfinite(self.cost_min) and math.isfinite(self.cost_max)):
            raise ValueError("cost_min and cost_max must be finite")
        if self.cost_min < 0 or self.cost_min > self.cost_max:
            raise ValueError("need 0 <= cost_min <= cost_max")


def _tokens(text: str):
    """Yield (line_number, token_list) for non-empty lines, comments stripped."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield ln, line.split()


def _take(rows, what: str, count: int):
    try:
        ln, toks = next(rows)
    except StopIteration:
        raise ParseError(f"unexpected end of input: missing {what}") from None
    if len(toks) != count:
        raise ParseError(f"line {ln}: expected {count} token(s) for {what}, got {len(toks)}")
    return ln, toks


def _reals(ln: int, toks, what: str) -> list[float]:
    out = []
    for t in toks:
        try:
            v = float(t)
        except ValueError:
            raise ParseError(f"line {ln}: bad real {t!r} in {what}") from None
        if not math.isfinite(v) or v < 0:
            raise ParseError(f"line {ln}: {what} must be finite and >= 0, got {t}")
        out.append(v)
    return out


def _ints(ln: int, toks, what: str) -> list[int]:
    out = []
    for t in toks:
        try:
            out.append(int(t))
        except ValueError:
            raise ParseError(f"line {ln}: {what} must be an integer, got {t!r}") from None
        if not 0 <= out[-1] < 2**63:
            raise ParseError(f"line {ln}: {what} must be >= 0 and below 2^63 (int64), got {t}")
    return out


def read_records(text: str, magic: str, kind: str, body: Callable[..., tuple]) -> tuple:
    """Read the layout format_records writes; raises ParseError naming the bad line.

    Checks the `magic 1` header and the `n m` line, then returns
    body(row, n, m), where row(what, count, item, dtype) reads the next
    line as count values of dtype int or float, each >= 0 (floats finite).
    A line left over after body is an error.
    """
    rows = _tokens(text)
    ln, toks = _take(rows, "header", 2)
    if toks[0] != magic:
        raise ParseError(f"line {ln}: not an ftfp {kind} (header {' '.join(toks)!r})")
    if toks[1] != "1":
        raise ParseError(f"line {ln}: unsupported {magic} version {toks[1]!r}")
    ln, toks = _take(rows, "size line", 2)
    try:
        n, m = int(toks[0]), int(toks[1])
    except ValueError:
        raise ParseError(f"line {ln}: sizes must be integers") from None
    if n < 1 or m < 1:
        raise ParseError(f"line {ln}: need n >= 1 and m >= 1, got {n} {m}")

    def row(what: str, count: int, item: str, dtype: type) -> list:
        return (_ints if dtype is int else _reals)(*_take(rows, what, count), item)

    out = body(row, n, m)
    extra = next(rows, None)
    if extra is not None:
        raise ParseError(f"line {extra[0]}: unexpected trailing tokens")
    return out


def parse_instance(text: str, name: str = "") -> Instance:
    """Parse the `ftfp 1` text format; raises ParseError naming the bad line."""

    def body(row, n: int, m: int):
        f = row("site costs", n, "site cost", float)
        r = row("demands", m, "demand", int)
        return f, r, [row(f"distance row {i + 1}", m, "distance", float) for i in range(n)]

    f, r, d = read_records(text, "ftfp", "instance", body)
    return Instance(np.array(f), np.array(r, dtype=np.int64), np.array(d), name=name)


def format_records(header: str, n: int, m: int, rows: list[np.ndarray]) -> str:
    """The layout of the instance, solution, LP and decomposition files: header, `n m`, rows.

    Each row is a vector or one row of a matrix; floats are written with
    repr (an exact round trip) and integers as plain decimals.
    """
    lines = [header, f"{n} {m}"]
    lines.extend(" ".join(map(repr, np.asarray(row).tolist())) for row in rows)
    return "\n".join(lines) + "\n"


def serialize_instance(inst: Instance) -> str:
    return format_records("ftfp 1", inst.n, inst.m, [inst.site_costs, inst.demands, *inst.dist])


def validate(inst: Instance) -> list[str]:
    """Check the bipartite metric condition; returns one message per violation.

    The constructor has already checked the values.  The tightest
    right-hand side min_{k,l} (d_il + d_kl + d_kj) comes from two
    min-reductions over whole rows, taken one block of sites i at a time:
    pair_ik = min_l (d_il + d_kl), then bound_ij = min_k (pair_ik + d_kj).
    That is O(n^2 m) time, and beyond d itself the memory of one block,
    at most max(_METRIC_BLOCK, n m) entries.  So a wide instance is cheap,
    and one with more sites than clients pays time, not memory.  Entries
    above the bound by more than METRIC_TOL times the largest distance are
    reported with the witnessing (i, j, k, l), so the verdict does not
    depend on the scale; the stated sum, added left to right, is the bound
    bit for bit.
    """
    bad = []
    d = inst.dist
    tol = METRIC_TOL * float(d.max())
    step = max(1, _METRIC_BLOCK // d.size)  # each temporary is (step, n, m)
    for s in range(0, inst.n, step):
        pair = np.min(d[s : s + step, None, :] + d[None, :, :], axis=2)
        bound = np.min(pair[:, :, None] + d[None, :, :], axis=1)
        for a, j in zip(*np.nonzero(d[s : s + step] > bound + tol)):
            i, k = s + a, int(np.argmin(pair[a] + d[:, j]))
            l = int(np.argmin(d[i] + d[k]))
            bad.append(
                f"metric violated at d[{i},{j}] = {d[i, j]}: "
                f"d[{i},{l}] + d[{k},{l}] + d[{k},{j}] = {bound[a, j]} (sites {i},{k}, clients {j},{l})"
            )
    return bad


def generate(params: GenParams) -> Instance:
    """Seeded random instance on the unit square.

    Draw order is fixed so a seed pins the instance byte for byte: site
    points, client points, opening costs, demands.
    """
    rng = np.random.default_rng(params.seed)
    sites = rng.random((params.sites, 2))
    clients = rng.random((params.clients, 2))
    f = rng.uniform(params.cost_min, params.cost_max, params.sites)
    r = rng.integers(params.demand_min, params.demand_max + 1, params.clients)
    d = np.sqrt(((sites[:, None, :] - clients[None, :, :]) ** 2).sum(axis=2))
    name = f"gen-s{params.seed}-n{params.sites}-m{params.clients}"
    return Instance(f, r.astype(np.int64), d, name=name)

