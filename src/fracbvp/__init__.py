"""Fractional-order integration and finite-difference BVP solvers.

The package solves second-order two-point boundary-value problems on [0, 1]
two ways: a staged fractional-order integration method that reaches the
double integral of the forcing through a schedule of partial fractional
integrations, and classical finite differences as the reference.  A small
CLI benchmarks both on four canonical cases and emits CSV tables and SVG
plots.
"""

from .bench import RunConfig, run, run_quiet, sweep, table1
from .cases import (CaseSpec, SolveReport, get_case, make_case3,
                    oracle_solution, sup_error)
from .fdm import (NewtonConvergenceError, SingularSystemError,
                  TridiagonalSystem, fdm_linear, fdm_newton,
                  solve_tridiagonal)
from .fracops import apply_scheme, gl_coefficients
from .grid import GridFunction, sup_distance
from .ifoi import (AlphaPartition, ComposedOperator, IfoiDivergenceError,
                   IfoiTrace, IvpProblem, compose_check, ifoi_solve_ivp,
                   make_alpha_partition, make_ivp_solver)
from .shooting import (BoundaryCondition, ShootingPair, SingularShootingError,
                       combine, decompose, dirichlet, match_coefficient,
                       robin, solve_bvp)

__version__ = "0.1.0"

__all__ = [
    "AlphaPartition", "BoundaryCondition", "CaseSpec", "ComposedOperator",
    "GridFunction", "IfoiDivergenceError", "IfoiTrace", "IvpProblem",
    "NewtonConvergenceError", "RunConfig", "ShootingPair",
    "SingularShootingError", "SingularSystemError", "SolveReport",
    "TridiagonalSystem", "apply_scheme", "combine", "compose_check",
    "decompose", "dirichlet", "fdm_linear", "fdm_newton", "get_case",
    "gl_coefficients", "ifoi_solve_ivp", "make_alpha_partition", "make_case3",
    "make_ivp_solver", "match_coefficient", "oracle_solution", "robin", "run",
    "run_quiet", "solve_bvp", "solve_tridiagonal", "sup_distance",
    "sup_error", "sweep", "table1",
]
