"""Set up, run the closed loop, check the answers and compute the metrics."""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from spans import Tracer, layer_metrics
from workloads import Input, Outcome, Workload, call, check, check_references, prepare
from ftfp.instance import serialize_instance

SETUP_REPEATS = 5
SRC = Path(__file__).resolve().parent.parent / "src"
IMPORT_PROBE = "import time; t0 = time.perf_counter(); import numpy, ftfp; print(time.perf_counter() - t0)"
WARMUP_SEED = 7  # the reference seed of the ROADMAP's grid
FAILURE_CLASSES = ("refused", "infeasible", "invalid")


@dataclass
class Attempt:
    seconds: float
    status: str


@dataclass
class Run:
    """Every answer of one invocation, keyed by (generator seed, variant)."""

    wl: Workload
    inputs: list[Input]
    workdir: Path
    records: dict[tuple[int, str], tuple[Input, Outcome]] = field(default_factory=dict)

    def attempt(self, inp: Input, variant: str, tracer: Tracer) -> Attempt:
        """One timed call; checks its answer after the clock stops."""
        with tracer.patched():
            t0 = time.perf_counter()
            collect = call(self.wl, inp, variant, self.workdir, tracer)
            seconds = time.perf_counter() - t0
        outcome = collect()
        if outcome.status == "plan":
            check(self.wl, inp, outcome)
        self._record(inp, variant, outcome)
        return Attempt(seconds, outcome.status)

    def _record(self, inp: Input, variant: str, outcome: Outcome) -> None:
        _, first = self.records.setdefault((inp.seed, variant), (inp, outcome))
        if _fingerprint(first) != _fingerprint(outcome):
            raise checks.WrongAnswer(
                f"{self.wl.name} k={inp.k} seed={inp.seed} {variant}: answer changed between calls, "
                f"{_fingerprint(first)} then {_fingerprint(outcome)}"
            )

    def check_references(self) -> None:
        for inp, outcome in self.records.values():
            if outcome.status == "plan":
                check_references(self.wl, inp, outcome)

    def outcomes(self) -> list[Outcome]:
        return [outcome for _, outcome in self.records.values()]

    def determinism_lines(self) -> list[str]:
        lines = []
        for (seed, variant), (inp, outcome) in sorted(self.records.items()):
            head = f"plan k={inp.k} seed={seed} variant={variant}"
            if outcome.status == "plan":
                lines.append(f"{head} cost_total={outcome.cost!r} digest={outcome.digest()}")
            else:
                lines.append(f"{head} {outcome.status}")
        return lines


def _fingerprint(outcome: Outcome):
    if outcome.status != "plan":
        return (outcome.status,)
    return (outcome.status, outcome.cost, outcome.digest())


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import numpy and ftfp (the interpreter's start is not counted)."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout)


def setup(wl: Workload, base: int, workdir: Path, tracer: Tracer):
    """Build the inputs and warm up, SETUP_REPEATS times; returns (run, seconds per repeat).

    Each repeat imports numpy and ftfp in a fresh interpreter, then
    generates, serializes, reads back and validates the whole pool, then
    makes one untimed warm-up call; its time is the import time plus the
    rest.  The warm-up instance has the workload's shape and the fixed
    seed WARMUP_SEED, so set-up costs the same whatever the base seed.
    Repeats must rebuild identical inputs and get identical warm-up answers.
    """
    run, warm, times = None, None, []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        t0 = time.perf_counter()
        inputs = [prepare(wl, k, base + k, workdir, tracer) for k in range(wl.pool)]
        warm_input = prepare(wl, -1, WARMUP_SEED, workdir, tracer)
        if run is None:
            run, warm = Run(wl, inputs, workdir), Run(wl, [warm_input], workdir)
        warm.attempt(warm_input, wl.variants[0], Tracer(enabled=False))
        times.append(imported + time.perf_counter() - t0)
        if [serialize_instance(i.inst) for i in inputs] != [serialize_instance(i.inst) for i in run.inputs]:
            raise checks.WrongAnswer(f"{wl.name}: seed {base} generated different instances on a repeat")
    return run, times


def loop(run: Run, seconds: float, tracer: Tracer) -> tuple[list[Attempt], list[Attempt]]:
    """Cycle the pool until `seconds` have passed; returns (plain, traced) attempts.

    With an enabled tracer, every call is made twice in a row, untraced
    and traced, each going first on alternate calls, so the two lists
    cover the same calls and their time ratio is the tracing overhead.
    """
    calls = [(inp, v) for inp in run.inputs for v in run.wl.variants]
    plain_tracer = Tracer(enabled=False)
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        inp, variant = calls[i % len(calls)]
        if tracer.enabled and i % 2:
            tracer.call += 1
            traced.append(run.attempt(inp, variant, tracer))
        plain.append(run.attempt(inp, variant, plain_tracer))
        if tracer.enabled and not i % 2:
            tracer.call += 1
            traced.append(run.attempt(inp, variant, tracer))
        i += 1
        if time.perf_counter() >= deadline:
            break
    return plain, traced


def finish_pool(run: Run) -> None:
    """Answer every pool entry the loop did not reach (untimed), so quality covers the pool."""
    quiet = Tracer(enabled=False)
    for inp in run.inputs:
        for variant in run.wl.variants:
            if (inp.seed, variant) not in run.records:
                run.attempt(inp, variant, quiet)


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least ten samples
    beyond it, capped at p90; the maximum when there are ten samples or fewer."""
    s = sorted(times)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    idx = min(n - 11, (9 * n + 9) // 10 - 1)  # nearest-rank p90 is ceil(0.9 n) - 1
    return s[idx], 100.0 * (idx + 1) / n, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB


def end_to_end(run: Run, attempts: list[Attempt], setup_s: float, rss_mb: float) -> dict:
    solved = [a.seconds for a in attempts if a.status == "plan"]
    if not solved:
        raise RuntimeError(f"{run.wl.name}: no call produced a plan")
    ratios = [o.report.ratio_total for o in run.outcomes() if o.status == "plan"]
    value, _, _ = tail(solved)
    return {
        "setup_s": (setup_s, "s"),
        "plans_per_s": (len(solved) / sum(a.seconds for a in attempts), "1/s"),
        "solve_s.p50": (statistics.median(solved), "s"),
        "solve_s.tail": (value, "s"),
        "planned_frac": (len(solved) / len(attempts), "share"),
        "ratio_total.mean": (statistics.fmean(ratios), "ratio"),
        "ratio_total.max": (max(ratios), "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def failed_fractions(attempts: list[Attempt]) -> dict[str, float]:
    return {c: sum(a.status == c for a in attempts) / len(attempts) for c in FAILURE_CLASSES}


def errors(attempts: list[Attempt]) -> int:
    """Calls that ended in an error; a budget refusal is an outcome, not an error."""
    return sum(a.status in ("infeasible", "invalid") for a in attempts)


def traced_metrics(plain: list[Attempt], traced: list[Attempt], tracer: Tracer, setup_tracer: Tracer) -> dict:
    out = layer_metrics(tracer, len(traced), setup_tracer)
    out["trace.overhead"] = (sum(a.seconds for a in traced) / sum(a.seconds for a in plain), "ratio")
    return out
