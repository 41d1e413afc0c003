from dataclasses import replace

import numpy as np
import pytest

import fracbvp.ifoi as ifoi_mod
from fracbvp import (ComposedOperator, GridFunction, SingularShootingError,
                     fdm_linear, get_case, ifoi_solve_ivp,
                     make_alpha_partition, solve_bvp, sup_error)
from fracbvp.cases import CaseSpec, gauss_second_integral
from fracbvp.ifoi import IfoiTrace, IvpProblem
from fracbvp.shooting import (BoundaryCondition, _end_slope, _shoot,
                              dirichlet, robin, solve_right_row)

from oracles import rk4_dense, rk4_solve_ivp


def default_operator(case, n=None):
    return ComposedOperator(case.default_scheme, case.default_partition,
                            n or case.default_n)


def record_ivps(monkeypatch, solve=ifoi_solve_ivp):
    """Route every IVP of a shooting solve through ``solve``, which has the
    call form of ``ifoi_solve_ivp``, and return the list that each
    ``(problem, solution)`` is appended to, in solve order."""
    solved = []

    def recorded(problem, operator):
        solution, trace = solve(problem, operator)
        solved.append((problem, solution))
        return solution, trace

    monkeypatch.setattr(ifoi_mod, "ifoi_solve_ivp", recorded)
    return solved


def classical_ivp(problem, operator, substeps=200):
    """RK4 on the operator's grid, the reference alternative to the staged
    IVP solver, in its call form."""
    n = operator.n
    values = rk4_solve_ivp(lambda x, u: float(problem.rhs(x, u)),
                           problem.u0, problem.s0, n, substeps)
    return GridFunction(values), IfoiTrace(0)


def right_row_coefficient(u1, u2, right_bc):
    """``t`` of ``u1 + t u2`` on the right row, from end values and
    backward-difference end slopes, as :func:`solve_bvp` reads them."""
    h = 1.0 / (u1.size - 1)
    return solve_right_row(right_bc, (u1[-1], u2[-1]),
                           (_end_slope(u1, h), _end_slope(u2, h)))


def affine_grid(n, end_value, end_slope):
    """u(x) = end_value + end_slope * (x - 1) on n+1 nodes."""
    x = np.arange(n + 1) / n
    return end_value + end_slope * (x - 1.0)


# ---------------------------------------------------------------------------
# boundary conditions
# ---------------------------------------------------------------------------

def test_condition_validation():
    # slope * u' + weight * u = value with no u' and no u constrains nothing
    with pytest.raises(ValueError, match="constrains nothing"):
        BoundaryCondition(0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="finite constants"):
        BoundaryCondition(1.0, np.inf, 0.0)
    with pytest.raises(ValueError, match="finite constants"):
        BoundaryCondition(np.nan, 1.0, 0.0)


def test_constructors_state_the_linear_form():
    assert dirichlet(1.5) == BoundaryCondition(0.0, 1.0, 1.5)
    assert robin(200.0, 0.1) == BoundaryCondition(1.0, 200.0, 0.1)
    # a Neumann end is a Robin one of weight 0
    assert robin(0.0, 2.0) == BoundaryCondition(1.0, 0.0, 2.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_condition_rejects_non_finite_value(value):
    with pytest.raises(ValueError, match="finite constants"):
        dirichlet(value)
    with pytest.raises(ValueError, match="finite constants"):
        robin(1.0, value)


# ---------------------------------------------------------------------------
# the two IVPs of a shooting solve
# ---------------------------------------------------------------------------

def test_case1_homogeneous_solution_is_the_identity_ramp(monkeypatch):
    """Through RK4 IVPs, case 1 solves its particular IVP only, from the
    left value, and adds a multiple of the ramp ``x``."""
    solved = record_ivps(monkeypatch, classical_ivp)
    case = get_case(1)
    solution, _ = solve_bvp(case, default_operator(case, 50))
    [(problem, u1)] = solved
    assert (problem.u0, problem.s0) == (case.left_bc.value, 0.0)
    assert u1.values[0] == case.left_bc.value
    u2 = u1.nodes
    t = right_row_coefficient(u1.values, u2, case.right_bc)
    assert np.max(np.abs(solution.values - u1.values - t * u2)) <= 1e-12
    assert solution.values[0] == case.left_bc.value


@pytest.mark.parametrize("case_id", ["1", "2", "3"])
def test_forcing_only_cases_solve_one_ivp(case_id, monkeypatch):
    """The homogeneous half of a forcing-only case is the line ``x``,
    bit for bit what the staged solver returns for its zero right-hand
    side, so only the particular half is solved."""
    case = get_case(case_id)
    operator = default_operator(case, 50)
    zero = IvpProblem(lambda x: np.zeros_like(x), None, u0=0.0, s0=1.0)
    u2 = ifoi_solve_ivp(zero, operator)[0].values
    solved = record_ivps(monkeypatch)
    solution, traces = solve_bvp(case, operator)
    [(problem, u1)] = solved
    assert problem.s0 == 0.0 and len(traces) == 1
    t = right_row_coefficient(u1.values, u2, case.right_bc)
    assert np.array_equal(solution.values, u1.values + t * u2)


def test_case4_homogeneous_endpoint_matches_brute_force_integration(
        monkeypatch):
    solved = record_ivps(monkeypatch, classical_ivp)
    case = get_case(4)
    _shoot(case, default_operator(case, 50))
    [_, (problem, u2)] = solved
    assert (problem.g, problem.u0, problem.s0) == (None, 0.0, 1.0)
    reference = rk4_dense(lambda x, u: -2.0 * x * u, 0.0, 1.0, 1_000_000)
    assert abs(u2.values[-1] - reference[-1]) <= 1e-10


def test_case4_homogeneous_endpoint_via_staged_solver(monkeypatch):
    solved = record_ivps(monkeypatch)
    case = get_case(4)
    _, traces = _shoot(case, ComposedOperator(
        "abm", make_alpha_partition("regular", 10), 50))
    [_, (_, u2)] = solved
    assert len(traces) == 2
    reference = rk4_dense(lambda x, u: -2.0 * x * u, 0.0, 1.0, 1_000_000)
    assert abs(u2.values[-1] - reference[-1]) <= 1e-3


def test_zero_forcing_zero_left_value_gives_zero_particular(monkeypatch):
    solved = record_ivps(monkeypatch, classical_ivp)
    case = CaseSpec(id="null", g=lambda x: 0.0 * x, k=None,
                    left_bc=dirichlet(0.0),
                    right_bc=dirichlet(1.0), default_scheme="gl",
                    default_partition=make_alpha_partition("regular", 10),
                    oracle=lambda x: x)
    solve_bvp(case, default_operator(case, 50))
    [(_, u1)] = solved
    assert np.max(np.abs(u1.values)) <= 1e-14


def test_solve_needs_dirichlet_left():
    case = CaseSpec(id="bad", g=lambda x: 0.0 * x, k=None,
                    left_bc=robin(1.0, 0.0),
                    right_bc=dirichlet(1.0), default_scheme="gl",
                    default_partition=make_alpha_partition("regular", 10),
                    oracle=lambda x: x)
    with pytest.raises(ValueError, match="requires a Dirichlet left"):
        solve_bvp(case, default_operator(case, 50))


# ---------------------------------------------------------------------------
# coefficient matching
# ---------------------------------------------------------------------------

def test_dirichlet_coefficient_arithmetic():
    t = right_row_coefficient(affine_grid(50, 0.3, 0.0),
                              affine_grid(50, 1.0, 1.0),
                              dirichlet(-2.0))
    assert t == pytest.approx(-2.3, abs=1e-12)


def test_robin_coefficient_formula_instantiation():
    p, q = 0.37, -1.8
    t = right_row_coefficient(affine_grid(64, p, q),
                              np.arange(65) / 64, robin(200.0, 0.1))
    assert t == pytest.approx((0.1 - q - 200.0 * p) / 201.0, abs=1e-12)


def test_null_correction_when_particular_already_matches():
    assert right_row_coefficient(affine_grid(50, -2.0, 0.0),
                                 affine_grid(50, 1.0, 1.0),
                                 dirichlet(-2.0)) == 0.0


def test_singular_combination_detected():
    """``singular`` is relative to the direction ``u2``: a zero ``u2``
    meets every homogeneous condition, while ``u2 = 1e-13 x`` only has a
    small scale and solves, with ``t = 0.5 / 1e-13``."""
    u1 = affine_grid(50, 0.5, 0.0)
    with pytest.raises(SingularShootingError):
        right_row_coefficient(u1, affine_grid(50, 0.0, 0.0),
                              dirichlet(1.0))
    t = right_row_coefficient(u1, 1e-13 * np.arange(51) / 50,
                              dirichlet(1.0))
    assert t == pytest.approx(0.5 / 1e-13, rel=1e-14)


# ---------------------------------------------------------------------------
# whole-pipeline properties
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case_id", [1, 2, 3, 4])
def test_boundary_residuals_of_combined_solution(case_id):
    """The matching step is exact linear algebra: residuals at both ends
    are rounding-level regardless of the IVP error."""
    case = get_case(case_id)
    solution, _ = solve_bvp(case, default_operator(case))
    assert solution.values[0] == case.left_bc.value
    right = case.right_bc
    v = solution.values
    end_slope = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * solution.h)
    residual = right.slope * end_slope + right.weight * v[-1] - right.value
    assert abs(residual) <= 1e-9


def _scaled(bc, factor):
    return BoundaryCondition(factor * bc.slope, factor * bc.weight,
                             factor * bc.value)


@pytest.mark.parametrize("case_id", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [None, 200, 1023])
def test_scaled_conditions_state_the_same_problem(case_id, n):
    """A condition is its line ``slope u' + weight u = value``, whatever the
    scale it is written at: scaling by 2 is exact in binary and keeps every
    solve's bits, and scaling by 3 or by a factor near either end of the
    float range moves them by rounding only (measured at most 8.5e-16
    relative), with no solve reading ``singular``."""
    case = get_case(case_id)
    n = n or case.default_n

    def solves(c):
        return fdm_linear(c, n).values, \
            solve_bvp(c, default_operator(c, n))[0].values

    plain = solves(case)
    for factor, rtol in [(2.0, 0.0), (3.0, 1e-14), (1e-13, 1e-14),
                         (1e13, 1e-14), (1e-300, 1e-14), (1e300, 1e-14)]:
        scaled = replace(case, left_bc=_scaled(case.left_bc, factor),
                         right_bc=_scaled(case.right_bc, factor))
        for got, want in zip(solves(scaled), plain):
            gap = np.max(np.abs(got - want))
            assert gap <= rtol * np.max(np.abs(want))


def test_combined_error_bounded_by_amplified_ivp_error():
    """sup-error of the combination stays within (1+|t|) times the worst
    IVP error, case 1 with its closed-form IVP references."""
    case = get_case(1)
    operator = ComposedOperator("gl", make_alpha_partition("regular", 10), 100)
    u, _ = solve_bvp(case, operator)
    u1 = ifoi_solve_ivp(IvpProblem(case.g, None, case.left_bc.value, 0.0),
                        operator)[0]
    x = u1.nodes
    t = right_row_coefficient(u1.values, x, case.right_bc)
    e1 = np.max(np.abs(u1.values
                       - (case.left_bc.value + gauss_second_integral(x))))
    # u2 is the line x itself, with no error
    assert sup_error(u, case) <= (1.0 + abs(t)) * e1
