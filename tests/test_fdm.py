from dataclasses import replace

import numpy as np
import pytest

from fracbvp import (NewtonConvergenceError, SingularSystemError,
                     TridiagonalSystem, fdm_linear, fdm_newton, get_case,
                     make_alpha_partition, solve_tridiagonal, sup_error)
from fracbvp.cases import CaseSpec
from fracbvp.fdm import _march_solver, _newton_iterate
from fracbvp.grid import GridFunction
from fracbvp.ifoi import IfoiDivergenceError, make_ivp_solver
from fracbvp.shooting import (SingularShootingError, decompose, dirichlet,
                              robin, solve_bvp)

from oracles import rk4_solve_ivp


def synthetic_case(g, left, right, k=None):
    return CaseSpec(id="synthetic", g=g, k=k, left_bc=left, right_bc=right,
                    default_scheme="abm",
                    default_partition=make_alpha_partition("regular", 10),
                    oracle=lambda x: np.zeros_like(x))


# ---------------------------------------------------------------------------
# tridiagonal solver
# ---------------------------------------------------------------------------

def test_tridiagonal_matches_dense_solve():
    rng = np.random.default_rng(11)
    n = 40
    sub = rng.uniform(0.5, 1.0, n)
    diag = rng.uniform(4.0, 5.0, n)
    sup = rng.uniform(0.5, 1.0, n)
    rhs = rng.normal(size=n)
    A = np.diag(diag) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
    x = solve_tridiagonal(TridiagonalSystem(sub, diag, sup, rhs))
    assert np.allclose(x, np.linalg.solve(A, rhs), atol=1e-12)


def test_tridiagonal_guards_zero_pivot():
    # second pivot cancels exactly: diag[1] - sub[1]*sup[0]/diag[0] = 0
    system = TridiagonalSystem(
        sub=np.array([0.0, 1.0, 1.0]),
        diag=np.array([1.0, 2.0, 3.0]),
        sup=np.array([2.0, 1.0, 0.0]),
        rhs=np.ones(3))
    with pytest.raises(SingularSystemError):
        solve_tridiagonal(system)


# ---------------------------------------------------------------------------
# linear solver
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [4, 10, 37, 100])
def test_exact_on_quadratic_dirichlet(n):
    case = synthetic_case(lambda x: 2.0 + 0.0 * x,
                          dirichlet(0.0), dirichlet(1.0))
    sol = fdm_linear(case, n)
    assert np.max(np.abs(sol.values - sol.nodes**2)) <= 1e-12


@pytest.mark.parametrize("n", [4, 25, 100])
def test_exact_on_quadratic_robin(n):
    # u = x^2 satisfies u'(1) + 3 u(1) = 5
    case = synthetic_case(lambda x: 2.0 + 0.0 * x,
                          dirichlet(0.0), robin(3.0, 5.0))
    sol = fdm_linear(case, n)
    assert np.max(np.abs(sol.values - sol.nodes**2)) <= 1e-12


def test_case1_error_scale():
    err = sup_error(fdm_linear(get_case(1), 100), get_case(1))
    assert 1.2e-4 / 3.0 <= err <= 1.2e-4 * 3.0


def test_case3_error_scale():
    err = sup_error(fdm_linear(get_case(3), 200), get_case(3))
    assert 8.6e-6 / 3.0 <= err <= 8.6e-6 * 3.0


def test_second_order_convergence_case1():
    case = get_case(1)
    e1 = sup_error(fdm_linear(case, 100), case)
    e2 = sup_error(fdm_linear(case, 200), case)
    assert 3.2 <= e1 / e2 <= 5.0


def test_second_order_convergence_case3_past_forcing_resolution():
    case = get_case(3)
    e1 = sup_error(fdm_linear(case, 200), case)
    e2 = sup_error(fdm_linear(case, 400), case)
    assert 3.2 <= e1 / e2 <= 5.0


def test_linear_solver_rejects_tiny_grid():
    with pytest.raises(ValueError):
        fdm_linear(get_case(1), 3)


def _plain_march(problem, n):
    # the recurrence that fdm._march solves by blocks, one step at a time
    h = 1.0 / n
    x = np.arange(n + 1) * h
    g = np.broadcast_to(problem.rhs(x, np.zeros(n + 1)), x.shape).tolist()
    g1 = np.broadcast_to(problem.rhs(x, np.ones(n + 1)), x.shape).tolist()
    U = [problem.u0, problem.u0 + problem.s0 * h]
    D = problem.s0 * h
    for i in range(1, n):
        D += h * h * (g[i] + (g1[i] - g[i]) * U[i])
        U.append(U[i] + D)
    return GridFunction(h, np.array(U))


AFFINE_ROBIN = synthetic_case(
    lambda x: 50.0 * np.exp(x), dirichlet(3.0),
    robin(2.0, -1.0), k=lambda x: -2.0 * (1.0 + x * x))


# every n from 4 to 70, and n - 1 prime or a perfect square plus or minus
# one, so that the last block is ragged (or, at n = 1024, whole) at larger
# widths too
@pytest.mark.parametrize("n", list(range(4, 71))
                         + [102, 1010, 1024, 1026, 4100, 10_000, 10_002])
@pytest.mark.parametrize("case", [get_case(4), AFFINE_ROBIN],
                         ids=["case4", "affine-robin"])
def test_blocked_march_equals_plain_march(case, n):
    # both IVP solutions agree to rounding, and so does the solution under
    # a Dirichlet right end; a Robin match reads an end slope, which scales
    # rounding by about n (there Newton and the plain march differ by
    # 7e-13 at n = 10^4), so it is compared through its IVPs only
    blocked = decompose(case, _march_solver(case, n))
    plain = decompose(case, lambda problem: _plain_march(problem, n))
    pairs = [(blocked.u1, plain.u1), (blocked.u2, plain.u2)]
    if case.right_bc.kind == "dirichlet":
        shot = solve_bvp(case, lambda problem: _plain_march(problem, n))[0]
        pairs.append((fdm_linear(case, n), shot))
    for got, want in pairs:
        scale = np.max(np.abs(want.values))
        assert np.max(np.abs(got.values - want.values)) <= 1e-13 * scale


@pytest.mark.parametrize("case", [get_case(4), AFFINE_ROBIN],
                         ids=["case4", "affine-robin"])
def test_coupled_solve_marches_once(case):
    """Both IVPs of a solve join one march, so ``g`` and ``k`` are each
    sampled once per solve; a new solve marches again, so nothing is kept
    between solves."""
    calls = []

    def counted(name, f):
        def sample(x):
            calls.append(name)
            return f(x)
        return sample

    counted_case = replace(case, g=counted("g", case.g),
                           k=counted("k", case.k))
    for solves in (1, 2):
        solution = fdm_linear(counted_case, 50)
        assert sorted(calls) == ["g"] * solves + ["k"] * solves
    np.testing.assert_array_equal(solution.values, fdm_linear(case, 50).values)


def test_march_guard_runs_before_values_turn_non_finite():
    # k = 1e200 overflows the march; its guard must report that as
    # divergence before GridFunction refuses the non-finite values
    case = synthetic_case(lambda x: 1.0 + 0.0 * x,
                          dirichlet(1.0), dirichlet(0.0),
                          k=lambda x: 1e200 + 0.0 * x)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(IfoiDivergenceError):
        fdm_linear(case, 50)


@pytest.mark.parametrize("n", [40, 100, 400, 1000])
def test_singular_at_the_discrete_dirichlet_eigenvalue(n):
    """Central differences on ``u'' = -lam u`` have the first Dirichlet
    eigenvalue ``(4/h^2) sin^2(pi h/2)``.  There the homogeneous march ends
    at ``u2(1) = 0`` to rounding (measured within 1.5e-16), so shooting
    cannot match ``u(1) = 1``; a relative ``1e-6`` away, ``u2(1)`` is
    ``-+5.0e-7`` and the solve goes through."""
    lam_1 = 4.0 * n * n * np.sin(np.pi / (2 * n)) ** 2

    def case(lam):
        return synthetic_case(np.zeros_like, dirichlet(1.0), dirichlet(1.0),
                              k=lambda x: np.full_like(x, -lam))

    with pytest.raises(SingularShootingError):
        fdm_linear(case(lam_1), n)
    for shift in (1e-6, -1e-6):
        near = case(lam_1 * (1.0 + shift))
        assert decompose(near, _march_solver(near, n)).u2.values[-1] \
            == pytest.approx(-0.5 * shift, rel=0.01)
        u = fdm_linear(near, n).values
        assert u[0] == 1.0 and u[-1] == pytest.approx(1.0, abs=1e-9)


def test_absent_forcing_reads_as_zero():
    # u'' = -u, u(0) = u(1) = 1, with g = None: both methods solve it near
    # cos x + B sin x, measured 8.1e-6 (fdm) and 5.0e-5 (ifoi, abm)
    b = (1.0 - np.cos(1.0)) / np.sin(1.0)
    case = replace(synthetic_case(None, dirichlet(1.0), dirichlet(1.0),
                                  k=lambda x: -np.ones_like(x)),
                   oracle=lambda x: np.cos(x) + b * np.sin(x))
    assert sup_error(fdm_linear(case, 40), case) <= 1e-5
    assert sup_error(_shoot(case, "ifoi", 40), case) <= 1e-4


# ---------------------------------------------------------------------------
# Newton solver
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case_id, n", [
    (case_id, n) for case_id in (1, 2, 3, 4) for n in (100, 1000)
] + [(4, 10_000)])
def test_newton_equals_linear_solve(case_id, n):
    # Newton assembles the Robin row and solves it by the Thomas sweep, an
    # independent route to the same three-point solution: measured within
    # 4e-15 for cases 1-3 and, through case 4's blocked march and exact
    # shooting match, within 1.2e-13
    case = get_case(case_id)
    direct = fdm_linear(case, n)
    newton = fdm_newton(case, n)
    assert np.max(np.abs(direct.values - newton.values)) <= 1e-12


def _shoot(case, route, n):
    if route == "fdm":
        return fdm_linear(case, n)
    solver = make_ivp_solver(case.default_partition, n, case.default_scheme)
    return solve_bvp(case, solver)[0]


def test_shooting_accepts_affine_rhs_in_u():
    # a coupled case whose forcing outweighs its u term: the shooting solves
    # land where Newton does (measured 1.4e-12 relative for fdm, 3.4e-4 for
    # the staged abm route)
    newton = fdm_newton(AFFINE_ROBIN, 50).values
    scale = np.max(np.abs(newton))
    for route, rtol in (("fdm", 1e-10), ("ifoi", 1e-3)):
        shot = _shoot(AFFINE_ROBIN, route, 50).values
        assert np.max(np.abs(shot - newton)) <= rtol * scale


def test_newton_one_step_on_affine_rhs():
    # the discrete system is linear in U, so the first correction lands
    _, norms = _newton_iterate(get_case(4), 400, 1e-10, 50)
    assert len(norms) <= 5
    assert norms[-1] < 1e-10


def test_newton_case4_against_classical_shooting_oracle():
    case = get_case(4)
    sol = fdm_newton(case, 400)
    v = rk4_solve_ivp(lambda x, u: 2.0 * x * (5.0 - u), 3.0, 0.0, 400, 500)
    w = rk4_solve_ivp(lambda x, u: -2.0 * x * u, 0.0, 1.0, 400, 500)
    c = (case.right_bc.value - v[-1]) / w[-1]
    reference = v + c * w
    assert np.max(np.abs(sol.values - reference)) <= 1e-4


def test_newton_refuses_a_robin_left_end():
    # its first row would read the condition as u(0) = value
    case = synthetic_case(np.ones_like, robin(1.0, 1.0), dirichlet(1.0))
    with pytest.raises(ValueError,
                       match="requires a Dirichlet left condition"):
        fdm_newton(case, 40)


def test_newton_reports_non_convergence():
    with pytest.raises(NewtonConvergenceError) as err:
        fdm_newton(get_case(4), 50, max_iter=1)
    assert err.value.residual_norm > 0.0
    assert err.value.iterations == 1
