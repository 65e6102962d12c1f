"""Split an optimal fractional solution into an integral part and a residual.

Both rounding pipelines start the same way: carve out of (x*, y*) an
integral chunk (x-hat, y-hat) that is trivially feasible to open as-is,
and leave a small fractional residual (x-bar, y-bar) = (x* - x-hat,
y* - y-hat) to be handled by a bounded follow-up problem.  Two recipes:

reduce mode   y-hat_i = max(floor(y*_i) - 1, 0)
              x-hat_ij = min(floor(x*_ij), y-hat_i)
    Holding one unit back from every opened site keeps the residual
    fractionally feasible (x-bar <= y-bar entrywise) at the price of
    residual values reaching up to 2, so residual demands stay <= 2n.

large mode    y-hat_i = floor(y*_i)
              x-hat_ij = min(floor(x*_ij), y-hat_i)
    Flooring everything keeps residual values below 1 and residual
    demands <= n - 1, but the residual need not be fractionally
    feasible on its own: with 0 < x*_ij < 1 = y*_i the floor takes the
    whole opening and strands the fractional connection.  The min() is
    an identity here whenever x* <= y* holds exactly; it only guards
    against sub-tolerance noise in snapped inputs.

Both accept exactly the points the certificate's primal families accept
(lp_core.primal_violations), trimmed to the demands (trim_to_demand), and
raise ValueError for any other.

Values are snapped to nearby integers (within 1e-6) before flooring so
that a connection of 1.9999999 is not floored to 1.  After the snap all
arithmetic is exact: the inputs stay well below 2^52, so subtracting an
integer part loses nothing and x-hat + x-bar reproduces the snapped
input bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Instance
from .lp_core import FractionalSolution, primal_violations

SNAP_TOL = 1e-6
RESIDUAL_TOL = 1e-9

Mode = str  # "reduce" | "large"


def snap(a: np.ndarray) -> np.ndarray:
    """Round entries to the nearest integer when within 1e-6; reject entries < -1e-6.

    Snapped zeros are positive zeros (-0.0 never escapes).
    """
    if float(a.min(initial=0.0)) < -SNAP_TOL:
        raise ValueError(f"snap expects entries >= -1e-6, got {a.min()}")
    nearest = np.rint(a)
    out = np.where(np.abs(a - nearest) <= SNAP_TOL, nearest, a)
    return out + 0.0


@dataclass(frozen=True)
class Decomposition:
    """Integral part (hat), fractional residual (bar), and the demand split."""

    mode: Mode
    xhat: np.ndarray  # (n, m) int
    yhat: np.ndarray  # (n,) int
    xbar: np.ndarray  # (n, m) float
    ybar: np.ndarray  # (n,) float
    rhat: np.ndarray  # (m,) int, demand already served by the integral part
    rbar: np.ndarray  # (m,) int, demand left for the residual stage

    @property
    def residual_is_feasible(self) -> bool:
        """Whether (x-bar, y-bar) is itself a feasible fractional opening."""
        return bool(np.all(self.xbar <= self.ybar[:, None] + RESIDUAL_TOL))

    @property
    def residual_empty(self) -> bool:
        return bool(self.rbar.sum() == 0)


def _decompose(sol: FractionalSolution, inst: Instance, mode: Mode) -> Decomposition:
    n, m = inst.n, inst.m
    if sol.x.shape != (n, m) or sol.y.shape != (n,):
        raise ValueError("solution shape does not match instance")
    bad = primal_violations(sol.x, sol.y, inst)
    if bad:
        raise ValueError("; ".join(bad))
    xs = snap(sol.x)  # a negative entry the check lets through snaps to +0.0
    ys = snap(sol.y)
    # the tolerance, or a snap of y alone, may leave x just above y; pin it back
    xs = np.minimum(xs, ys[:, None])
    yhat = np.floor(ys).astype(np.int64)
    if mode == "reduce":
        yhat = np.maximum(yhat - 1, 0)
    xhat = np.minimum(np.floor(xs).astype(np.int64), yhat[:, None])
    xbar = xs - xhat
    ybar = ys - yhat
    rhat = xhat.sum(axis=0)
    rbar = inst.demands - rhat
    if np.any(rbar < 0):
        j = int(np.argmin(rbar))
        raise ValueError(
            f"client {j} over-covered (integral part already serves {int(rhat[j])} "
            f"of demand {int(inst.demands[j])}); trim the input solution first"
        )
    dec = Decomposition(mode=mode, xhat=xhat, yhat=yhat, xbar=xbar, ybar=ybar, rhat=rhat, rbar=rbar)
    if mode == "reduce" and not dec.residual_is_feasible:
        raise AssertionError("reduce-mode residual must be fractionally feasible")
    return dec


def decompose_reduce(sol: FractionalSolution, inst: Instance) -> Decomposition:
    """Hold-one-back decomposition; residual is always fractionally feasible."""
    return _decompose(sol, inst, "reduce")


def decompose_large(sol: FractionalSolution, inst: Instance) -> Decomposition:
    """Plain flooring; small residual demands, feasibility not guaranteed."""
    return _decompose(sol, inst, "large")


def residual_instance(dec: Decomposition, inst: Instance) -> Instance:
    """Same geometry, demands replaced by what is left for the residual stage."""
    return Instance(inst.site_costs, dec.rbar, inst.dist, name=f"{inst.name}/residual")
