"""Problem instances for fault-tolerant facility placement.

An instance has n sites and m clients.  Opening one facility at site i
costs f_i, and any number of facilities may be opened at the same site.
Client j must connect its r_j units of demand to r_j pairwise distinct
facilities (two facilities at the same site count as distinct), paying
d_ij per unit routed to site i.  Distances must satisfy the bipartite
metric condition

    d_ij <= d_il + d_kl + d_kj   for all sites i, k and clients j, l,

which is what the triangle inequality looks like when only site-client
distances exist.

Instances travel as plain text, one logical line per record, with `#`
starting a comment that runs to end of line and blank lines ignored:

    ftfp 1           header: format name and version
    n m              site count, client count (both >= 1)
    f_1 ... f_n      opening costs, reals >= 0
    r_1 ... r_m      demands, integers >= 0
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
from functools import reduce
from typing import Callable

import numpy as np

METRIC_TOL = 1e-9
# entries (8 MB of float64) in one block of the metric check's min-reductions
_METRIC_BLOCK = 1 << 20


class ParseError(ValueError):
    """Malformed instance or solution text; message names the line."""


@dataclass(frozen=True)
class Instance:
    """Immutable FTFP instance: costs, demands, and a distance table."""

    site_costs: np.ndarray  # (n,) float
    demands: np.ndarray  # (m,) int
    dist: np.ndarray  # (n, m) float
    name: str = ""

    def __post_init__(self):
        f = np.asarray(self.site_costs, dtype=float)
        d = np.asarray(self.dist, dtype=float)
        r = np.asarray(self.demands)
        if r.dtype.kind not in "iu":
            rounded = np.rint(r)
            if not np.array_equal(rounded, r):
                raise ValueError("demands must be integers")
            r = rounded
        r = r.astype(np.int64)
        if f.ndim != 1 or r.ndim != 1 or d.shape != (f.size, r.size):
            raise ValueError("shape mismatch: need f (n,), r (m,), d (n, m)")
        if f.size < 1 or r.size < 1:
            raise ValueError("need at least one site and one client")
        for a in (f, r, d):
            a.setflags(write=False)
        object.__setattr__(self, "site_costs", f)
        object.__setattr__(self, "demands", r)
        object.__setattr__(self, "dist", d)

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


def scan_order(inst: Instance) -> np.ndarray:
    """(n, m) site indices; column j lists the sites by ascending d_ij, lowest index on ties.

    Every per-client fill (scan_fill, and through it the LP's connections,
    the integral assignments and both surplus trims; the exact solver's
    bound) takes the sites in this order.
    """
    return np.argsort(inst.dist, axis=0, kind="stable")


def scan_fill(offer: np.ndarray, inst: Instance, order: np.ndarray) -> np.ndarray:
    """(n, m) fill x_ij = min(offer_ij, max(0, r_j - what the sites before i in order offer j)).

    With order = scan_order(inst) it is client j's cheapest way to take r_j
    units from offer_ij per site: a plan that skips a nearer unit can move
    one unit onto it at no loss.  x has offer's dtype, float or integer.
    A nonnegative column that offers at most r_j in all comes back as it
    is (for floats, up to the rounding of the running sum), and so does a
    negative offer, which a verifier then still sees.
    """
    ordered = np.take_along_axis(offer, order, axis=0)
    before = np.zeros_like(ordered)  # what the sites earlier in scan order offer
    np.cumsum(ordered[:-1], axis=0, out=before[1:])
    x = np.zeros_like(ordered)
    np.put_along_axis(x, order, np.minimum(ordered, np.maximum(inst.demands - before, 0)), axis=0)
    return x


def solution_cost(inst: Instance, y: np.ndarray, x: np.ndarray) -> float:
    """f.y + sum_ij d_ij x_ij, the cost of openings y and connections x, integral or fractional."""
    return float(inst.site_costs @ y + (inst.dist * x).sum())


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
        if out[-1] < 0:
            raise ParseError(f"line {ln}: {what} must be >= 0, got {t}")
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
    """Check all instance invariants; returns one message per violation.

    The bipartite metric check is O(n^2 m^2) time in O(m^2) memory: the
    tightest right-hand side min_{k,l} (d_il + d_kl + d_kj) is built from
    two min-reductions, each taken over blocks of sites, and offending
    entries are reported with the witnessing (i, j, k, l).
    """
    bad = []
    for i, v in enumerate(inst.site_costs.tolist()):
        if not math.isfinite(v) or v < 0:
            bad.append(f"site cost f[{i}] = {v} violates f_i >= 0")
    for j, v in enumerate(inst.demands.tolist()):
        if v < 0:
            bad.append(f"demand r[{j}] = {v} violates r_j >= 0")
    if not np.all(np.isfinite(inst.dist)):
        bad.append("distance table contains non-finite entries")
        return bad
    for i, j in zip(*np.nonzero(inst.dist < 0)):
        bad.append(f"distance d[{i},{j}] = {inst.dist[i, j]} violates d_ij >= 0")
    if bad:
        return bad
    d = inst.dist
    # through[l, j] = min_k (d_kl + d_kj); bound[i, j] = min_l (d_il + through[l, j]);
    # both reductions run over blocks of sites, so no temporary exceeds
    # _METRIC_BLOCK entries unless a single site's (m, m) slab does
    step = max(1, _METRIC_BLOCK // (inst.m * inst.m))
    blocks = [d[s : s + step] for s in range(0, inst.n, step)]
    through = reduce(np.minimum, (np.min(b[:, :, None] + b[:, None, :], axis=0) for b in blocks))
    bound = np.concatenate([np.min(b[:, :, None] + through[None, :, :], axis=1) for b in blocks])
    for i, j in zip(*np.nonzero(d > bound + METRIC_TOL)):
        l = int(np.argmin(d[i, :] + through[:, j]))
        k = int(np.argmin(d[:, l] + d[:, j]))
        bad.append(
            f"metric violated at d[{i},{j}] = {d[i, j]}: "
            f"d[{i},{l}] + d[{k},{l}] + d[{k},{j}] = {bound[i, j]} (sites {i},{k}, clients {j},{l})"
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

