"""Spans around the calls into each ftfp layer, recorded from outside the package.

Nothing under src/ changes.  ftfp.pipeline and ftfp.cli bind the layer
functions they call by name at import, so `Tracer.patched()` swaps those
names in those two modules for timing wrappers and puts the originals
back on exit.  The residual-stage subroutine is reached through a
`Subroutine` object rather than a module name, so it is timed by passing
`Tracer.subroutine(kind)` to the pipeline (and by swapping
`ftfp.cli.subroutine`, which the CLI uses to build one).

A span records its name, start, end, the span that caused it and the
benchmark call it belongs to.  Spans stay in memory; `layer_metrics`
turns them into per-layer figures when the run ends.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

from ftfp import cli, pipeline
from ftfp.ftfl_solvers import BudgetExceededError, Subroutine, solve_exact, solve_greedy

# module -> {name bound in that module: span name "<layer>.<function>"}
PATCHED_NAMES = {
    pipeline: {
        "build_lp": "lp_core.build_lp",
        "solve_lp": "lp_core.solve_lp",
        "trim_to_demand": "lp_core.trim_to_demand",
        "decompose_reduce": "decompose",
        "to_capped": "ftfl_bridge.to_capped",
        "solve_exact": "ftfl_solvers.solve_exact",
        "trim_surplus": "pipeline.trim_surplus",
        "verify_solution": "pipeline.verify_solution",
    },
    cli: {
        "build_lp": "lp_core.build_lp",
        "solve_lp": "lp_core.solve_lp",
        "trim_to_demand": "lp_core.trim_to_demand",
        "decompose_reduce": "decompose",
        "parse_instance": "instance.parse_instance",
        "validate": "instance.validate",
        "solve_reduce": "pipeline.solve",
        "verify_solution": "pipeline.verify_solution",
    },
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    call: int  # benchmark call the span belongs to
    error: str | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder plus the values observed at layer boundaries.

    A disabled tracer records nothing: `run` calls straight through and
    `patched` swaps no names, so traced and untraced calls go through
    the same benchmark code.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.call = 0
        self._open: list[int] = []
        self.lp_shapes: list[tuple[int, int, int]] = []  # rows, cols, artificial columns
        self.residuals: list[tuple[int, int, int]] = []  # sum rbar, clients with rbar > 0, clients
        self.log10_spaces: list[float] = []  # log10 prod(caps + 1) of each capped instance

    def run(self, name: str, fn, /, *args, **kwargs):
        """Call fn inside a span named `name`."""
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = self._open[-1] if self._open else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.call)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._open.pop()
        self._observe(name, result)
        return result

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.run(name, fn, *args, **kwargs)

        return traced

    def _observe(self, name: str, result) -> None:
        if name == "lp_core.build_lp":
            rows, cols = result.A.shape
            self.lp_shapes.append((rows, cols, int((result.b > 0).sum())))
        elif name == "decompose":
            rbar = result.rbar
            self.residuals.append((int(rbar.sum()), int((rbar > 0).sum()), rbar.size))
        elif name == "ftfl_bridge.to_capped":
            self.log10_spaces.append(sum(math.log10(int(c) + 1) for c in result.caps))

    def subroutine(self, kind: str) -> Subroutine:
        """A residual-stage subroutine whose solver runs inside a span."""
        fn = {"exact": solve_exact, "greedy": solve_greedy}[kind]
        return Subroutine(kind, self.wrap(f"ftfl_solvers.solve_{kind}", fn))

    @contextmanager
    def patched(self):
        """Swap the bound layer names in ftfp.pipeline and ftfp.cli for traced ones."""
        if not self.enabled:
            yield self
            return
        saved = []
        try:
            for module, names in PATCHED_NAMES.items():
                for attr, span_name in names.items():
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(span_name, original))
            saved.append((cli, "subroutine", cli.subroutine))
            cli.subroutine = self.subroutine
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_seconds(spans: list[Span], name: str) -> float:
    """Time in spans called `name` minus the time their direct children cover."""
    owners = {i for i, s in enumerate(spans) if s.name == name}
    total = sum(spans[i].seconds for i in owners)
    return total - sum(s.seconds for s in spans if s.parent in owners)


def layer_metrics(tracer: Tracer, attempts: int, setup: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer figures for the traced calls, as {name: (value, unit)}.

    Times and call counts are per attempted benchmark call.  The instance
    layer mostly runs while the inputs are built, so its figures are
    seconds per call of the function over `setup` and the traced calls.
    """
    spans = tracer.spans

    def total(name: str) -> float:
        return sum(s.seconds for s in spans if s.name == name) / attempts

    def count(name: str, error: str | None = None) -> float:
        hits = [s for s in spans if s.name == name and (error is None or s.error == error)]
        return len(hits) / attempts

    def mean(values) -> float:
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    def per_call(name: str) -> float:
        return mean(s.seconds for s in setup.spans + spans if s.name == name)

    shapes, residuals = tracer.lp_shapes, tracer.residuals
    return {
        "lp_core.solve_lp.calls": (count("lp_core.solve_lp"), "count/attempt"),
        "lp_core.solve_lp.s": (total("lp_core.solve_lp"), "s/attempt"),
        "lp_core.build_lp.s": (total("lp_core.build_lp"), "s/attempt"),
        "lp_core.trim_to_demand.s": (total("lp_core.trim_to_demand"), "s/attempt"),
        "lp_core.lp_rows.mean": (mean(r for r, _, _ in shapes), "count"),
        "lp_core.lp_cols.mean": (mean(c for _, c, _ in shapes), "count"),
        # computed from the LP shape, not measured: the dense phase-1 tableau
        # of rows x (structural + surplus + artificial + rhs) float64 entries
        "lp_core.tableau_mb.max": (max((r * (c + r + a + 1) * 8 / 1e6 for r, c, a in shapes), default=0.0), "MB"),
        "decompose.s": (total("decompose"), "s/attempt"),
        "decompose.residual_demand.sum": (mean(d for d, _, _ in residuals), "count"),
        "decompose.residual_client_share": (
            sum(k for _, k, _ in residuals) / max(1, sum(m for _, _, m in residuals)),
            "share",
        ),
        "decompose.residual_empty_share": (mean(d == 0 for d, _, _ in residuals), "share"),
        "ftfl_bridge.to_capped.s": (total("ftfl_bridge.to_capped"), "s/attempt"),
        "ftfl_bridge.log10_space.max": (max(tracer.log10_spaces, default=0.0), "log10"),
        "ftfl_solvers.solve_exact.calls": (count("ftfl_solvers.solve_exact"), "count/attempt"),
        "ftfl_solvers.solve_exact.s": (total("ftfl_solvers.solve_exact"), "s/attempt"),
        "ftfl_solvers.solve_exact.refused": (
            count("ftfl_solvers.solve_exact", BudgetExceededError.__name__),
            "count/attempt",
        ),
        "ftfl_solvers.solve_greedy.calls": (count("ftfl_solvers.solve_greedy"), "count/attempt"),
        "ftfl_solvers.solve_greedy.s": (total("ftfl_solvers.solve_greedy"), "s/attempt"),
        "pipeline.verify_solution.s": (total("pipeline.verify_solution"), "s/attempt"),
        "pipeline.trim_surplus.s": (total("pipeline.trim_surplus"), "s/attempt"),
        "pipeline.self_s": (self_seconds(spans, "pipeline.solve") / attempts, "s/attempt"),
        "instance.generate.s": (per_call("instance.generate"), "s/call"),
        "instance.parse_instance.s": (per_call("instance.parse_instance"), "s/call"),
        "instance.validate.s": (per_call("instance.validate"), "s/call"),
        "cli.main.s": (total("cli.main"), "s/attempt"),
        "cli.self_s": (self_seconds(spans, "cli.main") / attempts, "s/attempt"),
    }
