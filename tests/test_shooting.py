import numpy as np
import pytest

from fracbvp import (GridFunction, SingularShootingError, combine, decompose,
                     get_case, make_alpha_partition, make_ivp_solver,
                     match_coefficient, solve_bvp, sup_error)
from fracbvp.cases import CaseSpec, gauss_second_integral
from fracbvp.ifoi import IvpProblem
from fracbvp.shooting import BoundaryCondition, ShootingPair, dirichlet, robin

from oracles import rk4_dense, rk4_solve_ivp


def classical_solver(n=50, substeps=200):
    """RK4-based IVP handle, the reference alternative to the staged solver."""
    def solve(problem):
        return GridFunction(1.0 / n, rk4_solve_ivp(
            lambda x, u: float(problem.rhs(x, u)), problem.u0, problem.s0,
            n, substeps))
    return solve


def affine_grid(n, end_value, end_slope):
    """u(x) = end_value + end_slope * (x - 1) on n+1 nodes."""
    x = np.arange(n + 1) / n
    return GridFunction(1.0 / n, end_value + end_slope * (x - 1.0))


# ---------------------------------------------------------------------------
# boundary conditions
# ---------------------------------------------------------------------------

def test_condition_validation():
    with pytest.raises(ValueError):
        BoundaryCondition("mixed", 0.0)
    with pytest.raises(ValueError):
        BoundaryCondition("robin", 0.0, robin_weight=np.inf)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_condition_rejects_non_finite_value(value):
    with pytest.raises(ValueError, match="finite constants"):
        BoundaryCondition("dirichlet", value)
    with pytest.raises(ValueError, match="finite constants"):
        BoundaryCondition("robin", value, robin_weight=1.0)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_case1_homogeneous_solution_is_the_identity_ramp():
    pair = decompose(get_case(1), classical_solver())
    assert np.max(np.abs(pair.u2.values - pair.u2.nodes)) <= 1e-12
    assert pair.u1.values[0] == get_case(1).left_bc.value
    assert pair.u2.values[0] == 0.0


@pytest.mark.parametrize("case_id", ["1", "2", "3"])
def test_forcing_only_cases_solve_one_ivp(case_id):
    """The homogeneous half of a forcing-only case is the line ``x``,
    bit for bit what the staged solver returns for its zero right-hand
    side, so only the particular half is solved."""
    case = get_case(case_id)
    staged = make_ivp_solver(case.default_partition, 50, case.default_scheme)
    problems = []

    def counted(problem):
        problems.append(problem)
        return staged(problem)

    pair = decompose(case, counted)
    assert len(problems) == 1 and problems[0].s0 == 0.0
    zero = IvpProblem(lambda x: np.zeros_like(x), None, u0=0.0, s0=1.0)
    assert np.array_equal(pair.u2.values, staged(zero).values)


def test_case4_homogeneous_endpoint_matches_brute_force_integration():
    pair = decompose(get_case(4), classical_solver())
    reference = rk4_dense(lambda x, u: -2.0 * x * u, 0.0, 1.0, 1_000_000)
    assert abs(pair.u2.values[-1] - reference[-1]) <= 1e-10


def test_case4_homogeneous_endpoint_via_staged_solver():
    solver = make_ivp_solver(make_alpha_partition("regular", 10), 50, "abm")
    pair = decompose(get_case(4), solver)
    reference = rk4_dense(lambda x, u: -2.0 * x * u, 0.0, 1.0, 1_000_000)
    assert abs(pair.u2.values[-1] - reference[-1]) <= 1e-3


def test_zero_forcing_zero_left_value_gives_zero_particular():
    case = CaseSpec(id="null", g=lambda x: 0.0 * x, k=None,
                    left_bc=dirichlet(0.0),
                    right_bc=dirichlet(1.0), default_scheme="gl",
                    default_partition=make_alpha_partition("regular", 10),
                    oracle=lambda x: x)
    pair = decompose(case, classical_solver())
    assert np.max(np.abs(pair.u1.values)) <= 1e-14


def test_decompose_needs_dirichlet_left():
    case = CaseSpec(id="bad", g=lambda x: 0.0 * x, k=None,
                    left_bc=robin(1.0, 0.0),
                    right_bc=dirichlet(1.0), default_scheme="gl",
                    default_partition=make_alpha_partition("regular", 10),
                    oracle=lambda x: x)
    with pytest.raises(ValueError):
        decompose(case, classical_solver())


# ---------------------------------------------------------------------------
# coefficient matching
# ---------------------------------------------------------------------------

def test_dirichlet_coefficient_arithmetic():
    pair = ShootingPair(affine_grid(50, 0.3, 0.0),
                        affine_grid(50, 1.0, 1.0))
    c = match_coefficient(pair, dirichlet(-2.0), pair.u1.h)
    assert c == pytest.approx(-2.3, abs=1e-12)


def test_robin_coefficient_formula_instantiation():
    p, q = 0.37, -1.8
    pair = ShootingPair(affine_grid(64, p, q),
                        GridFunction(1.0 / 64, np.arange(65) / 64))
    c = match_coefficient(pair, robin(200.0, 0.1), pair.u1.h)
    assert c == pytest.approx((0.1 - q - 200.0 * p) / 201.0, abs=1e-12)


def test_null_correction_when_particular_already_matches():
    pair = ShootingPair(affine_grid(50, -2.0, 0.0),
                        affine_grid(50, 1.0, 1.0))
    assert match_coefficient(pair, dirichlet(-2.0),
                             pair.u1.h) == 0.0


def test_singular_combination_detected():
    pair = ShootingPair(affine_grid(50, 0.5, 0.0),
                        affine_grid(50, 0.0, 0.0))
    with pytest.raises(SingularShootingError):
        match_coefficient(pair, dirichlet(1.0), pair.u1.h)


# ---------------------------------------------------------------------------
# combination
# ---------------------------------------------------------------------------

def test_combine_zero_coefficient_returns_particular():
    pair = ShootingPair(affine_grid(20, 0.3, 1.1), affine_grid(20, 1.0, 1.0))
    assert np.array_equal(combine(pair, 0.0).values, pair.u1.values)


def test_combine_recovers_homogeneous():
    zeros = GridFunction(0.05, np.zeros(21))
    pair = ShootingPair(zeros, affine_grid(20, 1.0, 1.0))
    assert np.allclose(combine(pair, 1.0).values, pair.u2.values, atol=0)


def test_combine_is_linear_in_the_coefficient():
    pair = ShootingPair(affine_grid(20, 0.3, 1.1), affine_grid(20, 1.0, 2.0))
    lhs = combine(pair, 0.7 + 1.3)
    rhs = combine(pair, 0.7).values + 1.3 * pair.u2.values
    assert np.allclose(lhs.values, rhs, atol=1e-14)


# ---------------------------------------------------------------------------
# whole-pipeline properties
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case_id", [1, 2, 3, 4])
def test_boundary_residuals_of_combined_solution(case_id):
    """The matching step is exact linear algebra: residuals at both ends
    are rounding-level regardless of the IVP error."""
    case = get_case(case_id)
    solver = make_ivp_solver(case.default_partition, case.default_n,
                             case.default_scheme)
    solution, _ = solve_bvp(case, solver)
    assert solution.values[0] == case.left_bc.value
    right = case.right_bc
    if right.kind == "dirichlet":
        assert abs(solution.values[-1] - right.value) <= 1e-9
    else:
        v = solution.values
        slope = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * solution.h)
        residual = slope + right.robin_weight * v[-1] - right.value
        assert abs(residual) <= 1e-9


def test_combined_error_bounded_by_amplified_ivp_error():
    """sup-error of the combination stays within (1+|c|) times the worst
    IVP error, case 1 with its closed-form IVP references."""
    case = get_case(1)
    solver = make_ivp_solver(make_alpha_partition("regular", 10), 100, "gl")
    pair = decompose(case, solver)
    c = match_coefficient(pair, case.right_bc, pair.u1.h)
    u = combine(pair, c)

    x = pair.u1.nodes
    e1 = np.max(np.abs(pair.u1.values
                       - (case.left_bc.value + gauss_second_integral(x))))
    e2 = np.max(np.abs(pair.u2.values - x))
    assert sup_error(u, case) <= (1.0 + abs(c)) * max(e1, e2)
