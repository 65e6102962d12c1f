"""Command-line front end: gen, lp, solve, verify, bench.

Thin wrappers over the library; consumers are scripts and CI, so every
command is non-interactive and exits with a stable code:

    0  success (for verify: the plan is feasible)
    1  verification failure, a pipeline's own output failed its
       internal re-verification, or the simplex failed (an LP bound
       that failed its duality certificate, pivoting hit its iteration
       limit, the final basis could not be re-solved, or an unbounded
       dual)
    2  bad usage: unknown flags, unreadable or malformed files, invalid
       parameter combinations, invalid instances, infeasible caps
    3  the work does not fit: the exact search visited more nodes than
       its budget (FTFP_NODE_BUDGET, default 10^7), or the process ran
       out of memory

Summary lines are key=value pairs on stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

# decompose_reduce and trim_to_demand are bound only for the benchmark:
# benchmark/spans.py times the layers by swapping module names.
from .decompose import decompose_reduce  # noqa: F401
from .ftfl_solvers import BudgetExceededError, IntegralSolution, subroutine
from .instance import GenParams, Instance, format_records, generate, parse_instance
from .instance import serialize_instance, solution_cost, validate
from .lp_core import build_lp, dual_terms, solve_lp, trim_to_demand  # noqa: F401
from .pipeline import (
    SolveReport,
    parse_solution,
    report_to_json,
    serialize_solution,
    solve_large,
    solve_oracle,
    solve_reduce,
    verify_solution,
)


def _load_instance(path: str) -> Instance:
    inst = parse_instance(Path(path).read_text(), name=Path(path).stem)
    bad = validate(inst)
    if bad:
        for msg in bad:
            print(f"invalid instance: {msg}", file=sys.stderr)
        raise ValueError(f"{path} is not a valid instance")
    return inst


def _parse_caps(raw: str, n: int) -> np.ndarray:
    kind, _, value = raw.partition(":")
    if kind != "uniform" or not value:
        raise ValueError(f"caps must look like uniform:K, got {raw!r}")
    try:
        k = int(value)
    except ValueError:
        raise ValueError(f"caps must look like uniform:K with integer K, got {raw!r}") from None
    try:
        return np.full(n, float(k))
    except OverflowError:
        raise ValueError(f"caps must fit in a float, got a {len(str(k))}-digit K") from None


def _fmt(v: float) -> str:
    return repr(float(v))


def _gen_params(args, seed: int) -> GenParams:
    """The generator knobs gen and bench share (see add_gen_knobs), with the given seed."""
    return GenParams(
        sites=args.sites,
        clients=args.clients,
        demand_min=args.demand_min,
        demand_max=args.demand_max,
        seed=seed,
        cost_min=args.cost_min,
        cost_max=args.cost_max,
    )


def cmd_gen(args) -> int:
    inst = generate(_gen_params(args, args.seed))
    Path(args.out).write_text(serialize_instance(inst))
    print(
        f"wrote {args.out} n={inst.n} m={inst.m} "
        f"R={inst.min_demand} P={inst.max_demand} seed={args.seed}"
    )
    return 0


def cmd_lp(args) -> int:
    inst = _load_instance(getattr(args, "in"))
    caps = _parse_caps(args.caps, inst.n) if args.caps else None
    primal, alpha = solve_lp(build_lp(inst, caps))
    print(f"lp_objective={_fmt(primal.objective)}")
    if args.dump:
        beta, gamma = dual_terms(alpha, inst, caps)
        rows = [primal.y, *primal.x, alpha, *beta]
        if gamma is not None:
            rows.append(gamma)
        Path(args.dump).write_text(format_records("ftfp-lpsol 1", inst.n, inst.m, rows))
    return 0


def _solve(inst: Instance, algo: str, ftfl: str) -> tuple[IntegralSolution, SolveReport]:
    """Run the flow --algo names.  The solvers are looked up in this module at
    call time, so a replacement bound to cli.solve_reduce takes effect."""
    if algo == "oracle":
        return solve_oracle(inst)
    return (solve_reduce if algo == "reduce" else solve_large)(inst, subroutine(ftfl))


def cmd_solve(args) -> int:
    inst = _load_instance(getattr(args, "in"))
    if args.algo == "oracle" and args.dump_decomposition:
        raise ValueError("the oracle does not decompose; drop --dump-decomposition")
    sol, report = _solve(inst, args.algo, args.ftfl)
    if args.out:
        Path(args.out).write_text(serialize_solution(sol))
    if args.report:
        Path(args.report).write_text(report_to_json(report))
    if args.dump_decomposition:
        dec = report.decomposition
        rows = [dec.yhat, *dec.xhat, dec.ybar, *dec.xbar]
        Path(args.dump_decomposition).write_text(format_records("ftfp-dec 1", inst.n, inst.m, rows))
    print(
        f"algo={report.algo} cost_total={_fmt(report.cost_total)} "
        f"lp_star={_fmt(report.lp_star)} ratio_total={_fmt(report.ratio_total)} "
        f"chain_slack={_fmt(report.chain_slack)}"
    )
    return 0


def cmd_verify(args) -> int:
    inst = _load_instance(getattr(args, "in"))
    y, x = parse_solution(Path(args.sol).read_text())
    shapes_fit = y.shape == (inst.n,) and x.shape == (inst.n, inst.m)
    cost = solution_cost(inst, y, x) if shapes_fit else 0.0
    sol = IntegralSolution(y=y, x=x, cost=cost)
    bad = verify_solution(inst, sol)
    if bad:
        for msg in bad:
            print(f"violation: {msg}", file=sys.stderr)
        return 1
    print(f"ok cost={_fmt(sol.cost)}")
    return 0


# the report fields each bench row carries, in CSV column order
_BENCH_REPORT_COLUMNS = ("lp_star", "cost_total", "rho_sub", "ratio_total", "chain_slack")


def cmd_bench(args) -> int:
    import csv

    if args.trials < 0:
        raise ValueError(f"--trials must be >= 0, got {args.trials}")
    rows, reports = [], []
    for seed in range(args.seed, args.seed + args.trials):
        inst = generate(_gen_params(args, seed))
        _, report = _solve(inst, args.algo, args.ftfl)
        reports.append(report)
        rows.append([
            seed, inst.n, inst.m, inst.min_demand, inst.max_demand, report.algo, args.ftfl,
            *(_fmt(getattr(report, name)) for name in _BENCH_REPORT_COLUMNS),
            _fmt(report.wall_times["total"] * 1000.0),
        ])
    with open(args.csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "n", "m", "R", "P", "algo", "ftfl", *_BENCH_REPORT_COLUMNS, "wall_ms"])
        writer.writerows(rows)
    worst_ratio = max((r.ratio_total for r in reports), default=float("nan"))
    min_slack = min((r.chain_slack for r in reports), default=float("nan"))
    print(f"trials={args.trials} max_ratio_total={worst_ratio!r} min_chain_slack={min_slack!r}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each subcommand binds its cmd_* handler here."""
    parser = argparse.ArgumentParser(
        prog="ftfp",
        description="Fault-tolerant facility placement: generate, relax, round, verify, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_gen_knobs(p):
        p.add_argument("--sites", type=int, required=True, help="number of sites")
        p.add_argument("--clients", type=int, required=True, help="number of clients")
        p.add_argument("--demand-min", type=int, default=1, help="smallest demand (default 1)")
        p.add_argument("--demand-max", type=int, default=3, help="largest demand (default 3)")
        p.add_argument("--seed", type=int, required=True, help="generator seed")
        p.add_argument("--cost-min", type=float, default=0.0, help="smallest opening cost")
        p.add_argument("--cost-max", type=float, default=1.0, help="largest opening cost")

    def add_flow_flags(p, ftfl_help=None):
        """--algo and --ftfl, which solve and bench share."""
        p.add_argument("--algo", choices=["reduce", "large", "oracle"], default="reduce")
        p.add_argument("--ftfl", choices=["exact", "greedy"], default="exact", help=ftfl_help)

    p = sub.add_parser("gen", help="generate a random instance file")
    add_gen_knobs(p)
    p.add_argument("--out", required=True, help="instance file to write")
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("lp", help="solve the LP relaxation, print its objective")
    p.add_argument("--in", required=True, help="instance file")
    p.add_argument("--caps", help="per-site opening caps, uniform:K")
    p.add_argument("--dump", help="write primal and dual values to this file")
    p.set_defaults(handler=cmd_lp)

    p = sub.add_parser("solve", help="produce a verified integral plan")
    p.add_argument("--in", required=True, help="instance file")
    add_flow_flags(p, "residual-stage subroutine (ignored by the oracle)")
    p.add_argument("--out", help="solution file to write")
    p.add_argument("--report", help="JSON report file to write")
    p.add_argument("--dump-decomposition", help="write hat/bar matrices to this file")
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("verify", help="check a solution file against an instance")
    p.add_argument("--in", required=True, help="instance file")
    p.add_argument("--sol", required=True, help="solution file")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("bench", help="run seeded trials and write a CSV")
    add_gen_knobs(p)
    p.add_argument("--trials", type=int, required=True, help="number of seeded trials")
    add_flow_flags(p)
    p.add_argument("--csv", required=True, help="CSV file to write")
    p.set_defaults(handler=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (BudgetExceededError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
