"""Seeded closed-loop benchmark of ftfp's public API.

Run from the repository root:

    python3 benchmark/run.py --workload cli-reduce-15x20 --seed 7 --seconds 50 --trace 0

--seed is the base generator seed: instance k of the run is generated
with seed base + k.  With --trace 0 the run prints the end-to-end
metrics; with --trace 1 it calls every instance twice, untraced and
traced, and prints the per-layer metrics and the tracing overhead.
Every answer is checked (see checks.py); a wrong answer exits 1.  The
last line of stdout is one JSON object:

    {"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}

`failed` counts calls that ended in an error (infeasible, or a plan
the pipeline's own re-verification rejected).  A refusal by the exact
solver's budget is a documented outcome (the CLI's exit code 3), not an
error: it lowers `planned_frac` and shows in the `failed_frac` line.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# pinned before numpy loads its BLAS: one caller, one thread, so timings do not depend on core count
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# ftfl_solvers.NODE_BUDGET_ENV; removed so the exact solver runs with the package's own default budget
NODE_BUDGET_VAR = "FTFP_NODE_BUDGET"


def pin_environment() -> None:
    """One BLAS thread, and no caller override of the exact solver's node budget."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop(NODE_BUDGET_VAR, None)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=7, help="base generator seed (default 7)")
    p.add_argument("--seconds", type=float, default=50.0, help="length of the measured loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment_line() -> str:
    import platform
    from importlib.metadata import version

    import numpy as np
    from ftfp.ftfl_solvers import node_budget

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"env python={platform.python_version()} numpy={np.__version__} scipy={version('scipy')} "
        f"blas={blas.get('name')}-{blas.get('version')} "
        f"blas_config={blas.get('openblas configuration', '').strip()!r} "
        f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
        + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
        + f" {NODE_BUDGET_VAR}={os.environ.get(NODE_BUDGET_VAR, '<unset>')} node_budget={node_budget()}"
    )


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds, so the scratch directory is removed


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    if not (ROOT / "src" / "ftfp" / "__init__.py").is_file():
        print(f"error: no ftfp sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import harness
    from checks import WrongAnswer
    from spans import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    print(environment_line())
    print(
        f"workload {wl.name} seeds={args.seed}..{args.seed + wl.pool - 1} "
        f"shape={wl.sites}x{wl.clients} demands={wl.demand_min}-{wl.demand_max} "
        f"seconds={args.seconds:g} trace={int(trace)} loop=closed callers=1"
    )
    attempts = []
    try:
        with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
            setup_tracer = Tracer(enabled=trace)
            run, setup_times = harness.setup(wl, args.seed, Path(tmp), setup_tracer)
            tracer = Tracer(enabled=trace)
            attempts, traced = harness.loop(run, args.seconds, tracer)
            rss_mb = harness.peak_rss_mb()
            if not trace:
                harness.finish_pool(run)
            run.check_references()
    except WrongAnswer as exc:
        print(f"WRONG ANSWER: {exc}", file=sys.stderr)
        print(result_line(False, max(1, len(attempts)), harness.errors(attempts), {}))
        return 1

    for line in run.determinism_lines():
        print(line)
    fractions = harness.failed_fractions(attempts)
    print(f"failed_frac attempted={len(attempts)} " + " ".join(f"{c}={v!r}" for c, v in fractions.items()))
    if trace:
        metrics = harness.traced_metrics(attempts, traced, tracer, setup_tracer)
        print(f"traced attempts={len(traced)} s/attempt={sum(a.seconds for a in traced) / len(traced)!r}")
    else:
        print(f"setup repeats_s={setup_times!r}")
        metrics = harness.end_to_end(run, attempts, statistics.median(setup_times), rss_mb)
        _, pct, n = harness.tail([a.seconds for a in attempts if a.status == "plan"])
        print(f"solve_s.tail percentile={pct:.1f} n={n}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(result_line(True, len(attempts), harness.errors(attempts), metrics))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
