"""The benchmark's workloads: how inputs are built and how one call is made.

Every workload is a closed loop with one caller: the next call starts
when the previous one has returned.  Instance k of a run comes from the
package generator with seed `base + k`; the pool of instances is cycled
in order, so a faster program solves the same mix more times over.

Each call ends in one outcome class:

    plan        a verified plan came back
    refused     BudgetExceededError (the CLI's exit code 3)
    infeasible  InfeasibleError
    invalid     the pipeline's own re-verification raised RuntimeError

Any other exception aborts the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ftfp import cli
from ftfp.ftfl_solvers import BudgetExceededError, InfeasibleError
from ftfp.instance import GenParams, Instance, generate, parse_instance, serialize_instance, validate
from ftfp.pipeline import SolveReport, parse_report, parse_solution, solve_oracle

import checks
from spans import Tracer

INVALID_PLAN = "produced an invalid plan"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "cli-reduce" | "oracle"
    sites: int
    clients: int
    demand_min: int
    demand_max: int
    pool: int  # distinct instances per run
    variants: tuple[str, ...]  # calls made on each instance, in order

    def params(self, seed: int) -> GenParams:
        return GenParams(self.sites, self.clients, self.demand_min, self.demand_max, seed)


# A pool holds a little less than one 50-second loop solves at the baseline, so
# every instance is answered and a faster program cycles the same mix.
# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli-reduce-15x20", "cli-reduce", 15, 20, 1, 5, 64, ("greedy", "exact")),
        Workload("oracle-6x12", "oracle", 6, 12, 1, 4, 384, ("oracle",)),
    )
}


@dataclass
class Input:
    k: int
    seed: int
    inst: Instance
    path: Path | None = None  # instance file, for the CLI workload


@dataclass
class Outcome:
    status: str  # "plan" or a failure class
    y: np.ndarray | None = None
    x: np.ndarray | None = None
    cost: float | None = None  # as the plan states it; plan files carry none, so the report's
    report: SolveReport | None = None
    dump: str | None = None  # the CLI's decomposition file

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.y, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(self.x, dtype=np.int64).tobytes())
        return h.hexdigest()[:16]


def failure_class(exc: BaseException) -> str | None:
    """Counted class of an exception from the public API, or None to abort."""
    if isinstance(exc, BudgetExceededError):
        return "refused"
    if isinstance(exc, InfeasibleError):
        return "infeasible"
    if type(exc) is RuntimeError and INVALID_PLAN in str(exc):
        return "invalid"
    return None


def prepare(wl: Workload, k: int, seed: int, workdir: Path, tracer: Tracer) -> Input:
    """Generate instance k with `seed`, serialize it, read it back and validate it."""
    inst = tracer.run("instance.generate", generate, wl.params(seed))
    text = serialize_instance(inst)
    inst = tracer.run("instance.parse_instance", parse_instance, text, name=inst.name)
    bad = tracer.run("instance.validate", validate, inst)
    if bad:
        raise checks.WrongAnswer(f"generated instance seed={seed} is invalid: {bad[0]}")
    path = None
    if wl.kind == "cli-reduce":
        path = workdir / f"inst-{k}.txt"
        path.write_text(text)
    return Input(k, seed, inst, path)


def call(wl: Workload, inp: Input, variant: str, workdir: Path, tracer: Tracer):
    """Make one call and return a function that collects its Outcome.

    Only this function is timed; reading result files back happens in
    the returned collector, after the clock has stopped.
    """
    if wl.kind == "cli-reduce":
        return _call_cli(inp, variant, workdir, tracer)
    try:
        sol, report = tracer.run("pipeline.solve", solve_oracle, inp.inst)
    except Exception as exc:
        status = failure_class(exc)
        if status is None:
            raise
        return lambda: Outcome(status)
    return lambda: Outcome("plan", sol.y, sol.x, sol.cost, report)


def _call_cli(inp: Input, variant: str, workdir: Path, tracer: Tracer):
    out, rep, dec = (workdir / name for name in ("plan.sol", "report.json", "dec.txt"))
    argv = [
        "solve", "--in", str(inp.path), "--algo", "reduce", "--ftfl", variant,
        "--out", str(out), "--report", str(rep), "--dump-decomposition", str(dec),
    ]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = tracer.run("cli.main", cli.main, argv)

    def collect() -> Outcome:
        if code == 3:
            return Outcome("refused")
        if code == 1 and INVALID_PLAN in stderr.getvalue():
            return Outcome("invalid")
        if code != 0:
            # exit 2 folds InfeasibleError together with usage and file
            # errors, so it cannot be counted as one class: abort
            raise RuntimeError(f"ftfp solve exited {code}: {stderr.getvalue().strip()}")
        y, x = parse_solution(out.read_text())
        report = parse_report(rep.read_text())
        return Outcome("plan", y, x, report.cost_total, report, dec.read_text())

    return collect


def check(wl: Workload, inp: Input, outcome: Outcome) -> None:
    """The per-call checks that need no reference solver."""
    what = f"{wl.name} k={inp.k} seed={inp.seed}"
    checks.check_plan(inp.inst, outcome.y, outcome.x, outcome.cost, what)
    checks.check_report(outcome.report, outcome.cost, what)
    if outcome.dump is not None:
        checks.check_decomposition_dump(outcome.dump, inp.inst, outcome.report.cost_s1, what)


def check_references(wl: Workload, inp: Input, outcome: Outcome) -> None:
    """Checks against scipy, made once per distinct instance after the loop."""
    what = f"{wl.name} k={inp.k} seed={inp.seed}"
    lp = checks.lp_reference(inp.inst)
    checks.check_lp_star(outcome.report.lp_star, lp, what)
    checks.check_lower_bound(outcome.cost, lp, what)
    if wl.kind == "oracle":
        caps = np.full(inp.inst.n, inp.inst.max_demand)
        checks.check_optimum(outcome.cost, checks.optimum_reference(inp.inst, caps), what)
