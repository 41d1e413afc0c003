from dataclasses import replace

import numpy as np
import pytest

from fracbvp import (GridFunction, SingularShootingError, combine, decompose,
                     fdm_linear, get_case, make_alpha_partition,
                     make_ivp_solver, match_coefficient, solve_bvp, sup_error)
from fracbvp.cases import CaseSpec, gauss_second_integral
from fracbvp.ifoi import IvpProblem
from fracbvp.shooting import BoundaryCondition, ShootingPair, dirichlet, robin

from oracles import rk4_dense, rk4_solve_ivp


def classical_solver(n=50, substeps=200):
    """RK4-based IVP handle, the reference alternative to the staged solver."""
    def solve(problem):
        return GridFunction(rk4_solve_ivp(
            lambda x, u: float(problem.rhs(x, u)), problem.u0, problem.s0,
            n, substeps))
    return solve


def affine_grid(n, end_value, end_slope):
    """u(x) = end_value + end_slope * (x - 1) on n+1 nodes."""
    x = np.arange(n + 1) / n
    return GridFunction(end_value + end_slope * (x - 1.0))


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

def test_pair_shares_one_grid_of_three_samples_or_more():
    # the match reads a three-point end slope, whatever the condition
    with pytest.raises(ValueError, match="share one grid"):
        ShootingPair(affine_grid(20, 0.3, 1.1), affine_grid(21, 1.0, 1.0))
    with pytest.raises(ValueError, match="3\\+ samples"):
        ShootingPair(affine_grid(1, 0.3, 1.1), affine_grid(1, 1.0, 1.0))
    pair = ShootingPair(affine_grid(2, 0.0, 1.0), affine_grid(2, 1.0, 1.0))
    assert match_coefficient(pair, dirichlet(1.0)) == 1.0


def test_dirichlet_coefficient_arithmetic():
    pair = ShootingPair(affine_grid(50, 0.3, 0.0),
                        affine_grid(50, 1.0, 1.0))
    c = match_coefficient(pair, dirichlet(-2.0))
    assert c == pytest.approx(-2.3, abs=1e-12)


def test_robin_coefficient_formula_instantiation():
    p, q = 0.37, -1.8
    pair = ShootingPair(affine_grid(64, p, q),
                        GridFunction(np.arange(65) / 64))
    c = match_coefficient(pair, robin(200.0, 0.1))
    assert c == pytest.approx((0.1 - q - 200.0 * p) / 201.0, abs=1e-12)


def test_null_correction_when_particular_already_matches():
    pair = ShootingPair(affine_grid(50, -2.0, 0.0),
                        affine_grid(50, 1.0, 1.0))
    assert match_coefficient(pair, dirichlet(-2.0)) == 0.0


def test_singular_combination_detected():
    """``singular`` is relative to the direction ``u2``: a zero ``u2``
    meets every homogeneous condition, while ``u2 = 1e-13 x`` only has a
    small scale and solves, with ``c = 0.5 / 1e-13``."""
    pair = ShootingPair(affine_grid(50, 0.5, 0.0),
                        affine_grid(50, 0.0, 0.0))
    with pytest.raises(SingularShootingError):
        match_coefficient(pair, dirichlet(1.0))
    small = ShootingPair(affine_grid(50, 0.5, 0.0),
                         GridFunction(1e-13 * np.arange(51) / 50))
    c = match_coefficient(small, dirichlet(1.0))
    assert c == pytest.approx(0.5 / 1e-13, rel=1e-14)


# ---------------------------------------------------------------------------
# combination
# ---------------------------------------------------------------------------

def test_combine_zero_coefficient_returns_particular():
    pair = ShootingPair(affine_grid(20, 0.3, 1.1), affine_grid(20, 1.0, 1.0))
    assert np.array_equal(combine(pair, 0.0).values, pair.u1.values)


def test_combine_recovers_homogeneous():
    zeros = GridFunction(np.zeros(21))
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
        ifoi = make_ivp_solver(c.default_partition, n, c.default_scheme)
        return fdm_linear(c, n).values, solve_bvp(c, ifoi)[0].values

    plain = solves(case)
    for factor, rtol in [(2.0, 0.0), (3.0, 1e-14), (1e-13, 1e-14),
                         (1e13, 1e-14), (1e-300, 1e-14), (1e300, 1e-14)]:
        scaled = replace(case, left_bc=_scaled(case.left_bc, factor),
                         right_bc=_scaled(case.right_bc, factor))
        for got, want in zip(solves(scaled), plain):
            gap = np.max(np.abs(got - want))
            assert gap <= rtol * np.max(np.abs(want))


def test_combined_error_bounded_by_amplified_ivp_error():
    """sup-error of the combination stays within (1+|c|) times the worst
    IVP error, case 1 with its closed-form IVP references."""
    case = get_case(1)
    solver = make_ivp_solver(make_alpha_partition("regular", 10), 100, "gl")
    pair = decompose(case, solver)
    c = match_coefficient(pair, case.right_bc)
    u = combine(pair, c)

    x = pair.u1.nodes
    e1 = np.max(np.abs(pair.u1.values
                       - (case.left_bc.value + gauss_second_integral(x))))
    e2 = np.max(np.abs(pair.u2.values - x))
    assert sup_error(u, case) <= (1.0 + abs(c)) * max(e1, e2)
