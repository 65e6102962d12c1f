"""Bridge from the residual placement problem to fault-tolerant facility location.

A residual instance still allows many facilities per site, but its
demands are small, so it can be handed to a facility-location solver
that opens each site at most once.  The textbook reduction splits site
i into K identical copies (same opening cost, same distances); a
solution over copies merges back by summing per original site.

Splitting multiplies the site count by K, so the solvers here never see
the split form.  Instead the same problem is expressed as the original
instance plus per-site opening caps y_i <= cap_i, which is equivalent:
any split solution merges to a capped one and any capped solution
spreads over copies, at identical cost.  The tests keep a split
materializer and merge as the reference that certifies that
equivalence; everything here runs on the capped form.

Copy counts come from the decomposition mode: reduce-mode residuals
need max(max_j rbar_j, 2) copies per site (residual openings can exceed
1, so two unit copies must be available even when residual demands are
1), large-mode residuals need n - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .decompose import Decomposition
from .instance import Instance, scan_order


@dataclass(frozen=True)
class CappedInstance:
    """An instance plus per-site opening caps: open at most caps_i at site i."""

    base: Instance
    caps: np.ndarray  # (n,) int

    def __post_init__(self):
        caps = np.asarray(self.caps, dtype=np.int64)
        if caps.shape != (self.base.n,) or np.any(caps < 0):
            raise ValueError("caps must be a nonnegative integer vector of length n")
        caps.setflags(write=False)
        object.__setattr__(self, "caps", caps)

    @cached_property
    def scan_order(self) -> list[list[int]]:
        """Per client, base's sites in scan order (see instance.scan_order), sorted on first use.

        Both solvers scan sites per client in this order; a solve_exact
        call and the greedy incumbent it starts from share one sort.
        """
        return scan_order(self.base).T.tolist()


def split_counts(dec: Decomposition) -> np.ndarray:
    """Copies per site for the residual: max(max rbar, 2) in reduce mode, n - 1 in large mode."""
    n = dec.yhat.size
    k = max(int(dec.rbar.max()), 2) if dec.mode == "reduce" else n - 1
    return np.full(n, k, dtype=np.int64)


def to_capped(inst: Instance, copies: np.ndarray) -> CappedInstance:
    """Capped view of the split instance; solvers should prefer this form."""
    return CappedInstance(base=inst, caps=np.asarray(copies, dtype=np.int64))
