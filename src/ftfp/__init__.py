"""Fault-tolerant facility placement toolkit.

Clients must route each unit of an integer demand to a distinct open
facility; sites may host any number of facilities.  The package builds
and solves the LP relaxation with dual certificates, rounds fractional
optima to verified integral plans through two decomposition pipelines,
computes exact optima on small instances, and benchmarks the lot.

The root exports the solve entry points, their inputs, results and
errors; every other name is imported from the module that defines it.
"""

from .ftfl_solvers import BudgetExceededError, IntegralSolution, subroutine
from .instance import GenParams, InfeasibleError, Instance, generate
from .pipeline import SolveReport, solve_large, solve_oracle, solve_reduce, verify_solution

__all__ = [
    "BudgetExceededError",
    "GenParams",
    "InfeasibleError",
    "Instance",
    "IntegralSolution",
    "SolveReport",
    "generate",
    "solve_large",
    "solve_oracle",
    "solve_reduce",
    "subroutine",
    "verify_solution",
]
