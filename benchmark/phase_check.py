"""Compare traced phase times with SolveReport.wall_times on one reference instance.

Run from the repository root:

    python3 benchmark/phase_check.py

Solves the ROADMAP's reference instance (20x30, demands 1-5, seed 7)
with solve_reduce and the greedy subroutine, REPEATS times under the
tracer, and prints the median of each pipeline phase as the spans see
it and as the report states it, in ms.
The phases map to spans as follows:

    lp           the first build_lp + solve_lp
    decompose    trim_to_demand + decompose
    residual_lp  the later build_lp + solve_lp calls
    subroutine   to_capped + the subroutine's solver
    verify       trim_surplus + verify_solution
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

from run import pin_environment

HERE = Path(__file__).resolve().parent
SITES, CLIENTS, SEED, REPEATS = 20, 30, 7, 5


def phases(spans) -> dict[str, float]:
    lps = [s for s in spans if s.name in ("lp_core.build_lp", "lp_core.solve_lp")]
    groups = {
        "lp": lps[:2],
        "decompose": [s for s in spans if s.name in ("lp_core.trim_to_demand", "decompose")],
        "residual_lp": lps[2:],
        "subroutine": [s for s in spans if s.name in ("ftfl_bridge.to_capped", "ftfl_solvers.solve_greedy")],
        "verify": [s for s in spans if s.name in ("pipeline.trim_surplus", "pipeline.verify_solution")],
        "total": [s for s in spans if s.name == "pipeline.solve"],
    }
    return {k: sum(s.seconds for s in v) for k, v in groups.items()}


def main() -> int:
    pin_environment()
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

    from ftfp import GenParams, generate
    from ftfp import pipeline
    from spans import Tracer

    inst = generate(GenParams(SITES, CLIENTS, 1, 5, SEED))
    traced, reported = [], []
    for _ in range(REPEATS):
        tracer = Tracer()
        with tracer.patched():
            _, report = tracer.run("pipeline.solve", pipeline.solve_reduce, inst, tracer.subroutine("greedy"))
        traced.append(phases(tracer.spans))
        reported.append(report.wall_times)
    print(f"instance {SITES}x{CLIENTS} seed={SEED} repeats={REPEATS} (median ms)")
    print(f"{'phase':12s} {'traced':>9s} {'report':>9s} {'traced/report':>14s}")
    for phase in traced[0]:
        t = statistics.median(r[phase] for r in traced) * 1e3
        w = statistics.median(r[phase] for r in reported) * 1e3
        print(f"{phase:12s} {t:9.2f} {w:9.2f} {t / w if w else float('nan'):14.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
