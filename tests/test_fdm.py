import gc
from dataclasses import replace

import numpy as np
import pytest

from fracbvp import (NewtonConvergenceError, SingularSystemError,
                     TridiagonalSystem, bench, fdm_linear, fdm_newton,
                     get_case, make_alpha_partition, solve_tridiagonal,
                     sup_error)
from fracbvp import shooting
from fracbvp.cases import CaseSpec
from fracbvp.fdm import _newton_iterate
from fracbvp.grid import nodes
from fracbvp.ifoi import (ComposedOperator, DivergenceError, IvpProblem,
                          ifoi_solve_ivp)
from fracbvp.shooting import (SingularShootingError, _end_slope, _layout,
                              dirichlet, left_value, robin, solve_bvp,
                              solve_right_row)

from oracles import (central_march, compensated_rows, fdm_dense,
                     rk4_solve_ivp)


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


def plain_march_shot(case, n):
    """The rows that fdm_linear marches by blocks, marched one step at a
    time from the left value and from the free direction, and joined on the
    right row by ``solve_right_row``."""
    x = np.arange(n + 1) * (1.0 / n)
    g, k = case.g(x), case.k(x)
    u1 = central_march(g, k, left_value(case), 0.0, n)
    u2 = central_march(0.0, k, 0.0, 1.0, n)
    t = solve_right_row(case.right_bc, (u1[-1], u2[-1]),
                        (_end_slope(u1, 1.0 / n), _end_slope(u2, 1.0 / n)))
    return u1 + t * u2


def dense_rows(case, n):
    """``fdm_dense`` on the rows of ``case``."""
    right = case.right_bc
    return fdm_dense(case.g or np.zeros_like, case.k or np.zeros_like,
                     case.left_bc.value / case.left_bc.weight,
                     (right.slope, right.weight, right.value), n)


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
    # up to n = 1026 the blocked march and sweep solve the dense rows
    # (measured within 3e-15 of max|u|); past it, where a dense matrix
    # would take up to 800 MB, the step-by-step march joined by shooting,
    # whose end slope in a u' term scales rounding by about n (measured: at
    # most 4e-16 n relative on the affine-robin rows, 3.5e-12 at n = 10,002)
    if n <= 1026:
        want, rtol = dense_rows(case, n), 1e-13
    else:
        want = plain_march_shot(case, n)
        rtol = 1e-13 * (1.0 + case.right_bc.slope * n)
    got = fdm_linear(case, n).values
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


FORCED_ROBIN = replace(AFFINE_ROBIN, k=None)


# the coupled test's grids, and at the forcing-only width rule every lead of
# widths 2 (n = 1010, 1025) and 3 (n = 1200, 1201, 1202), lead 7 at 10,002
# and lead 18 at 99,991; up to n = 512 a block is one step
@pytest.mark.parametrize("n", list(range(4, 71))
                         + [102, 1010, 1024, 1025, 1026, 1200, 1201, 1202,
                            4100, 10_000, 10_002, 99_991])
@pytest.mark.parametrize("case", [get_case(1), get_case(2), get_case(3),
                                  FORCED_ROBIN],
                         ids=["case1", "case2", "case3", "forced-robin"])
def test_forcing_only_blocks_solve_the_rows(case, n):
    # up to n = 1026 the dense rows (measured within 2.6e-15 of max|u|);
    # past it the same rows summed with compensation, which the blocked
    # sums meet within 5.4e-15 of max|u| up to n = 99,991, where the plain
    # cumulative sums they replace, whose Robin end slope came from rounded
    # values, were 1.3e-11 off (forced-robin, n = 99,991)
    right = case.right_bc
    if n <= 1026:
        want, rtol = dense_rows(case, n), 1e-13
    else:
        want = compensated_rows(case.g, left_value(case),
                                (right.slope, right.weight, right.value), n)
        rtol = 2e-14
    got = fdm_linear(case, n).values
    assert got.shape == (n + 1,)
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


@pytest.mark.parametrize("case", [get_case(4), AFFINE_ROBIN],
                         ids=["case4", "affine-robin"])
def test_coupled_solve_marches_once(case):
    """A solve marches its rows once, so ``g`` and ``k`` are each sampled
    once per solve; a new solve marches again, so nothing is kept between
    solves."""
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


@pytest.mark.parametrize("n", [40, 1026, 20_011])
@pytest.mark.parametrize("case", [get_case(4), AFFINE_ROBIN],
                         ids=["case4", "affine-robin"])
def test_ifoi_correction_starts_from_the_fdm_solve(monkeypatch, case, n):
    """A coupled IFOI solve builds one sweep, whose solution is
    ``fdm_linear``'s byte for byte, and corrects from it: its first
    remainder is applied to ``g + k u`` at that solution.  It marches the
    three rows once and one particular row per correction pass."""
    want = fdm_linear(case, n).values
    sweeps, marched, applied = [], [], []

    class Recorded(shooting._Sweep):
        def __init__(self, *args):
            super().__init__(*args)
            sweeps.append(self)

    march = shooting._march
    remainder = ComposedOperator.apply_remainder
    monkeypatch.setattr(shooting, "_Sweep", Recorded)
    monkeypatch.setattr(shooting, "_march", lambda kh, forcing, h, rows:
                        marched.append(rows) or march(kh, forcing, h, rows))
    monkeypatch.setattr(ComposedOperator, "apply_remainder",
                        lambda self, values: applied.append(values)
                        or remainder(self, values))
    operator = ComposedOperator(case.default_scheme, case.default_partition,
                                n)
    _, [trace] = solve_bvp(case, operator)
    [sweep] = sweeps
    assert sweep.values.tobytes() == want.tobytes()
    x = nodes(n)
    np.testing.assert_array_equal(applied[0], case.g(x) + case.k(x) * want)
    assert trace.picard_iterations >= 1
    assert marched == [3] + [1] * trace.picard_iterations


@pytest.mark.parametrize("n", [40, 2000])
@pytest.mark.parametrize("case", [get_case(4), AFFINE_ROBIN],
                         ids=["case4", "affine-robin"])
def test_coupled_solve_transforms_no_kernel(monkeypatch, case, n):
    """A coupled IFOI solve that the correction settles applies only the
    remainder: one transform of the remainder's kernel and one of the data
    per pass, none of the composed kernel."""
    scheme, partition = case.default_scheme, case.default_partition
    solve_bvp(case, ComposedOperator(scheme, partition, n))  # builds pairs
    operator = ComposedOperator(scheme, partition, n)
    rfft, transformed = np.fft.rfft, []
    monkeypatch.setattr(np.fft, "rfft", lambda a, *args: transformed.append(
        np.shape(a)) or rfft(a, *args))
    _, [trace] = solve_bvp(case, operator)
    assert trace.picard_iterations >= 1
    assert transformed == [(n + 1,)] * (1 + trace.picard_iterations)


def test_coupled_solve_runs_no_garbage_collection():
    """A coupled solve at n = 99,991 (901 blocks) allocates numpy arrays
    and plain floats, not a tuple or list per block, so it never reaches
    the collector's first threshold (700 tracked allocations)."""
    case = get_case(4)
    fdm_linear(case, 40)  # any first-call set-up happens outside the count
    generations = []

    def record(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    assert gc.isenabled()
    gc.collect()
    gc.callbacks.append(record)
    try:
        fdm_linear(case, 99_991)
    finally:
        gc.callbacks.remove(record)
    assert generations == []


@pytest.mark.parametrize("n", [40, 20_011])
@pytest.mark.parametrize("coupled", [True, False],
                         ids=["coupled", "uncoupled"])
def test_scalar_valued_coefficients_solve_as_arrays(n, coupled):
    # g and k may return one Python float for the whole grid
    def case(as_array):
        def sampled(value):
            if as_array:
                return lambda x: np.full_like(x, value)
            return lambda x: value
        return synthetic_case(sampled(3.0), dirichlet(1.0), robin(2.0, -1.0),
                              k=sampled(-2.0) if coupled else None)

    want = fdm_linear(case(True), n).values
    assert fdm_linear(case(False), n).values.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [40, 1000, 1026, 20_011])
def test_coupling_is_never_sampled_outside_the_interval(n):
    # -sqrt(x) warns below x = 0, and warnings are errors in this suite;
    # the first block of each of these grids leads with zero steps
    width, blocks, lead = _layout(n)
    assert lead > 0 and blocks * width == n - 1 + lead
    case = synthetic_case(np.ones_like, dirichlet(1.0), dirichlet(0.0),
                          k=lambda x: -np.sqrt(x))
    got = fdm_linear(case, n).values
    if n <= 1026:
        want = dense_rows(case, n)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_overflowing_march_reads_as_divergence():
    # k = 1e200 overflows the march; the solve must report that as
    # divergence before GridFunction refuses the non-finite values
    case = synthetic_case(lambda x: 1.0 + 0.0 * x,
                          dirichlet(1.0), dirichlet(0.0),
                          k=lambda x: 1e200 + 0.0 * x)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DivergenceError):
        fdm_linear(case, 50)


@pytest.mark.parametrize("n", [100, 20_011])
def test_overflowing_forcing_only_sum_reads_as_divergence(n):
    # the forcing is summed in its own units, as a cumulative sum of the
    # samples is: 1e305 sums past the largest float by n = 60
    case = synthetic_case(lambda x: np.full_like(x, 1e305),
                          dirichlet(0.0), robin(2.0, 1.0))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DivergenceError, match="the sum overflowed"):
        fdm_linear(case, n)


def test_overflowing_forcing_only_march_reads_as_divergence():
    # finite sums, but the line through u(0) = 1e308 and u(1) = -1e308
    # overflows on the way
    case = synthetic_case(None, dirichlet(1e308), dirichlet(-1e308))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DivergenceError, match="the march overflowed"):
        fdm_linear(case, 40)


@pytest.mark.parametrize("n", [40, 100, 400, 1000])
def test_singular_at_the_discrete_dirichlet_eigenvalue(n):
    """Central differences on ``u'' = -lam u`` have the first Dirichlet
    eigenvalue ``(4/h^2) sin^2(pi h/2)``.  There the sweep's homogeneous
    line ends on ``u(1) = 0`` to rounding (the right row's normalised
    coefficient measured within 2.4e-16), so no slope meets ``u(1) = 1``;
    a relative ``1e-6`` away the solve goes through."""
    lam_1 = 4.0 * n * n * np.sin(np.pi / (2 * n)) ** 2

    def case(lam):
        return synthetic_case(np.zeros_like, dirichlet(1.0), dirichlet(1.0),
                              k=lambda x: np.full_like(x, -lam))

    with pytest.raises(SingularShootingError):
        fdm_linear(case(lam_1), n)
    for shift in (1e-6, -1e-6):
        u = fdm_linear(case(lam_1 * (1.0 + shift)), n).values
        assert u[0] == 1.0 and u[-1] == pytest.approx(1.0, abs=1e-9)


def test_a_vanishing_right_row_is_singular():
    # h^2 k = 2 at node n - 1 and u' - n u = 1: the right row's two
    # coefficients are both exactly 0, so no slope can meet it
    n = 32
    case = synthetic_case(np.ones_like, dirichlet(0.0), robin(-n, 1.0),
                          k=lambda x: np.full_like(x, 2.0 * n * n))
    with pytest.raises(SingularShootingError):
        fdm_linear(case, n)


def test_absent_forcing_reads_as_zero():
    # u'' = -u, u(0) = u(1) = 1, with g = None: both methods solve it near
    # cos x + B sin x, measured 8.1e-6 (fdm) and 5.0e-5 (ifoi, abm)
    b = (1.0 - np.cos(1.0)) / np.sin(1.0)
    case = replace(synthetic_case(None, dirichlet(1.0), dirichlet(1.0),
                                  k=lambda x: -np.ones_like(x)),
                   oracle=lambda x: np.cos(x) + b * np.sin(x))
    assert sup_error(fdm_linear(case, 40), case) <= 1e-5
    assert sup_error(_shoot(case, "ifoi", 40), case) <= 1e-4


def test_unforced_march_is_the_initial_line():
    # the staged solver solves an IVP without forcing or coupling as
    # u0 + s0 x, bit for bit
    line = IvpProblem(None, None, 0.0, 1.0)
    staged, _ = ifoi_solve_ivp(line, ComposedOperator(
        "gl", make_alpha_partition("regular", 10), 40))
    assert staged.values.tobytes() == staged.nodes.tobytes()


def test_linear_solver_refuses_a_robin_left_end():
    # its rows start from the left value; a u'(0) term has no row to enter
    for k in (None, np.ones_like):
        case = synthetic_case(np.ones_like, robin(1.0, 1.0), dirichlet(1.0),
                              k=k)
        with pytest.raises(ValueError,
                           match="requires a Dirichlet left condition"):
            fdm_linear(case, 40)


# u'' = lam u, u(0) = u(1) = 1: cosh(sqrt(lam) (x - 1/2)) / cosh(sqrt(lam)/2)
# never exceeds 1, while the IVPs of a shooting solve grow like
# exp(sqrt(lam)); sup errors measured at n = 400 and 4,000
COSH_ERRORS = {400.0: (3.83e-5, 3.83e-7), 1600.0: (1.53e-4, 1.53e-6),
               1e4: (9.53e-4, 9.58e-6)}


@pytest.mark.parametrize("lam", sorted(COSH_ERRORS))
def test_strong_growing_coupling_converges_at_second_order(lam, monkeypatch):
    root = np.sqrt(lam)
    case = replace(synthetic_case(None, dirichlet(1.0), dirichlet(1.0),
                                  k=lambda x: np.full_like(x, lam)),
                   oracle=lambda x: np.cosh(root * (x - 0.5))
                   / np.cosh(root / 2))
    monkeypatch.setattr(bench, "get_case", lambda case_id: case)
    errors = []
    for n, expected in zip((400, 4000), COSH_ERRORS[lam]):
        report, = bench.run_quiet(bench.RunConfig(case.id, method="fdm",
                                                  n=n))
        assert report.status == "converged"
        assert report.sup_error == pytest.approx(expected, rel=0.1)
        errors.append(report.sup_error)
    assert 1.95 <= np.log10(errors[0] / errors[1]) <= 2.05


# ---------------------------------------------------------------------------
# Newton solver
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case_id, n", [
    (case_id, n) for case_id in (1, 2, 3, 4) for n in (100, 1000)
] + [(4, 10_000)])
def test_newton_equals_linear_solve(case_id, n):
    # Newton assembles the Robin row and solves it by the Thomas sweep, an
    # independent route to the same three-point solution: measured within
    # 4e-15 for cases 1-3 and, through case 4's blocked march and sweep,
    # within 2.7e-14
    case = get_case(case_id)
    direct = fdm_linear(case, n)
    newton = fdm_newton(case, n)
    assert np.max(np.abs(direct.values - newton.values)) <= 1e-12


def _shoot(case, route, n):
    if route == "fdm":
        return fdm_linear(case, n)
    return solve_bvp(case, ComposedOperator(
        case.default_scheme, case.default_partition, n))[0]


def test_shooting_accepts_affine_rhs_in_u():
    # a coupled case whose forcing outweighs its u term: the swept fdm solve
    # and the shooting ifoi one land where Newton does (measured 2.4e-15
    # relative for fdm, 3.4e-4 for the staged abm route)
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
