import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from fracbvp import GridFunction, get_case, make_case3, oracle_solution, sup_error
from fracbvp.cases import (CASE3_CONSTANTS, _erf, gauss_first_integral,
                           gauss_forcing, gauss_second_integral,
                           oscillatory_first_integral, oscillatory_forcing,
                           oscillatory_second_integral)
from fracbvp.grid import sup_distance
from fracbvp.ifoi import IvpProblem

from oracles import (CASE4_SERIES, case4_operator_series, case4_series,
                     rk4_dense, simpson, simpson_double)


def case_rhs(case, x, u):
    """``g(x) + k(x) u`` of a case."""
    return IvpProblem(case.g, case.k, 0.0, 0.0).rhs(x, u)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_case1_forcing_peak():
    case = get_case(1)
    assert case_rhs(case, 0.7, 0.0) == pytest.approx(-20.0, abs=1e-14)
    assert case.left_bc.value == -3.0
    assert case.right_bc.value == -2.0


def test_case2_constants():
    case = get_case(2)
    assert case.left_bc.value == 5.0
    assert case.right_bc.robin_weight == 200.0
    assert case.right_bc.value == 0.1
    assert case.default_scheme == "rect"


def test_case3_forcing_vanishes_at_origin():
    case = get_case(3)
    assert case_rhs(case, 0.0, 0.0) == 0.0
    assert case.default_scheme == "abm"
    assert case.default_partition.spacing == "quadratic"


def test_case3_forcing_identity():
    # -x(1 - sin^2) == -x(1 + cos(200x))/2 pointwise
    x = np.linspace(0.0, 1.0, 777)
    lhs = oscillatory_forcing(x)
    rhs = -x * (1.0 + np.cos(200.0 * x)) / 2.0
    assert np.max(np.abs(lhs - rhs)) <= 1e-14


def test_case4_forcing_annihilated_at_five():
    case = get_case(4)
    x = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(case_rhs(case, x, 5.0 * np.ones_like(x)))) == 0.0
    assert case.k is not None


def test_get_case_id_forms():
    assert get_case(1).id == "case1"
    assert get_case("2").id == "case2"
    assert get_case("case3").id == "case3"


def test_unknown_case_rejected():
    with pytest.raises(ValueError):
        get_case("case9")
    with pytest.raises(ValueError):
        get_case("poisson")


# ---------------------------------------------------------------------------
# closed forms against brute-force quadrature
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x", [0.3, 0.7, 1.0])
def test_gauss_antiderivatives_vs_simpson(x):
    assert abs(gauss_first_integral(x)
               - simpson(gauss_forcing, x, 1e-7)) <= 1e-9
    assert abs(gauss_second_integral(x)
               - simpson_double(gauss_forcing, x, 1e-7)) <= 1e-9


@pytest.mark.parametrize("x", [0.25, 0.55, 1.0])
def test_oscillatory_antiderivatives_vs_simpson(x):
    assert abs(oscillatory_first_integral(x)
               - simpson(oscillatory_forcing, x, 1e-7)) <= 1e-9
    assert abs(oscillatory_second_integral(x)
               - simpson_double(oscillatory_forcing, x, 1e-7)) <= 1e-9


TINY = np.finfo(float).smallest_subnormal
ERF_SPECIALS = np.array([
    0.0, -0.0, np.inf, -np.inf, np.nan, TINY, -TINY, 3.0 * TINY, 1e-310,
    -2e-320, np.finfo(float).tiny, -np.finfo(float).tiny, 1e-300, 1e-20,
    1.0, -1.0, np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0), 5.9, 6.0,
    -6.0, np.nextafter(6.0, 7.0), 26.0, -1e300])


@pytest.mark.parametrize("x", [0.3, np.float64(-1.2), np.array(0.5),
                               np.linspace(-3.0, 3.0, 6001),
                               np.linspace(-1.0, 1.0, 12).reshape(3, 4),
                               np.linspace(-6.5, 6.5, 400_001),
                               ERF_SPECIALS])
def test_erf_is_math_erf_at_every_element(x):
    """Within 2 ulp of ``math.erf`` (1 ulp measured), with its zeros,
    signs, infinities and nans."""
    out = _erf(x)
    assert isinstance(out, np.ndarray) and out.shape == np.shape(x)
    ref = np.vectorize(math.erf, otypes=[float])(x)
    assert np.array_equal(np.isnan(out), np.isnan(ref))
    out, ref = out[~np.isnan(ref)], ref[~np.isnan(ref)]
    assert np.all(np.abs(out - ref) <= 2.0 * np.spacing(np.abs(ref)))
    assert np.array_equal(np.signbit(out), np.signbit(ref))


# ---------------------------------------------------------------------------
# oracle self-consistency
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case_id,a_res,b_res", [
    (1, -3.0, -2.0), (4, 3.0, -2.0)])
def test_dirichlet_oracle_boundary_values(case_id, a_res, b_res):
    assert abs(oracle_solution(case_id, 0.0) - a_res) <= 1e-10
    assert abs(oracle_solution(case_id, 1.0) - b_res) <= 1e-10


@pytest.mark.parametrize("case_id,first,second", [
    (2, gauss_first_integral, gauss_second_integral),
    (3, oscillatory_first_integral, oscillatory_second_integral)])
def test_robin_oracle_boundary_residual(case_id, first, second):
    """u'(1) + w u(1) - C at rounding level, with the slope reconstructed
    from oracle values and the independently validated antiderivatives."""
    case = get_case(case_id)
    a = case.left_bc.value
    assert abs(oracle_solution(case_id, 0.0) - a) <= 1e-10
    u1 = float(oracle_solution(case_id, 1.0))
    affine_slope = u1 - a - float(second(1.0))
    slope_1 = affine_slope + float(first(1.0))
    residual = slope_1 + case.right_bc.robin_weight * u1 - case.right_bc.value
    assert abs(residual) <= 1e-10


@pytest.mark.parametrize("case_id,tol", [(2, 1e-7), (3, 1e-5)])
def test_robin_oracle_slope_numerically(case_id, tol):
    """Same residual with a five-point one-sided slope, no closed forms."""
    case = get_case(case_id)
    d = 1e-3
    pts = 1.0 - d * np.arange(5)
    u = oracle_solution(case_id, pts)
    slope_1 = (25 * u[0] - 48 * u[1] + 36 * u[2] - 16 * u[3] + 3 * u[4]) / (12 * d)
    residual = slope_1 + case.right_bc.robin_weight * u[0] - case.right_bc.value
    assert abs(residual) <= tol


@pytest.mark.parametrize("case_id,d,tol", [
    (1, 1e-4, 1e-5), (2, 1e-4, 1e-5), (3, 1e-4, 1e-3), (4, 1e-2, 5e-3)])
def test_oracle_satisfies_its_equation(case_id, d, tol):
    """Central second difference of the oracle matches rhs(x, oracle(x))."""
    case = get_case(case_id)
    rng = np.random.default_rng(42)
    x = rng.uniform(2 * d, 1.0 - 2 * d, 1000)
    up = oracle_solution(case, x + d)
    u0 = oracle_solution(case, x)
    um = oracle_solution(case, x - d)
    second = (up - 2.0 * u0 + um) / d**2
    target = case_rhs(case, x, u0)
    assert np.max(np.abs(second - target)) <= tol


def test_case4_oracle_matches_rk4_shooting():
    """The series oracle against classical RK4 shooting at one million
    steps, at the RK4 nodes; RK4's own error there is about 1e-13."""
    steps = 1_000_000
    v = rk4_dense(lambda x, u: 2.0 * x * (5.0 - u), 3.0, 0.0, steps)
    w = rk4_dense(lambda x, u: -2.0 * x * u, 0.0, 1.0, steps)
    shot = v + (-2.0 - v[-1]) / w[-1] * w
    x = np.linspace(0.0, 1.0, steps + 1)
    assert np.max(np.abs(oracle_solution(4, x) - shot)) <= 1e-10


def test_case4_series_solves_its_boundary_value_problems():
    """The Taylor helper meets ``y'' + 2x y = r`` and both end values, for
    case 4 itself and for a polynomial forcing like the truncation-error
    correction's."""
    x = np.linspace(0.0, 1.0, 1001)
    forcing = np.array([1.0, -3.0, 0.5, 2.0])
    for coeffs, r, ends in ((CASE4_SERIES, [0.0, 10.0], (3.0, -2.0)),
                            (case4_operator_series(forcing, 0.0, 0.0),
                             forcing, (0.0, 0.0))):
        residual = P.polyval(x, P.polyder(coeffs, 2)) \
            + 2.0 * x * P.polyval(x, coeffs) - P.polyval(x, r)
        assert np.max(np.abs(residual)) <= 1e-12
        assert P.polyval(np.array([0.0, 1.0]), coeffs) == \
            pytest.approx(ends, abs=1e-13)


def test_case4_oracle_matches_power_series():
    """The series oracle that scores case 4 against the independent
    Taylor series in ``x`` of ``tests/oracles.py``."""
    x = np.linspace(0.0, 1.0, 100_001)
    assert np.max(np.abs(oracle_solution(4, x) - case4_series(x))) <= 1e-12


def _gauss_integrals(x):
    """The Gaussian forcing's two antiderivatives, by ``math`` at one point."""
    c, r = 0.7, math.sqrt(10.0)
    erf = math.erf(r * (x - c)) + math.erf(r * c)
    first = -math.sqrt(10.0 * math.pi) * erf
    second = first * (x - c) - (math.exp(-10.0 * (x - c) ** 2)
                                - math.exp(-10.0 * c * c))
    return first, second


def _oscillatory_integrals(x):
    w = 200.0
    first = -x ** 2 / 4 - (math.cos(w * x) - 1) / (2 * w ** 2) \
        - x * math.sin(w * x) / (2 * w)
    second = -x ** 3 / 12 + x * (1 + math.cos(w * x)) / (2 * w ** 2) \
        - math.sin(w * x) / w ** 3
    return first, second


def _scalar_oracle(case_id):
    """The exact solution of a case as a function of one float, built from
    ``math`` and plain Python powers only."""
    case = get_case(case_id)
    a = case.left_bc.value
    if case_id == 4:
        # w = u - 5 solves w'' = -2x w: c[k+3] = -2 c[k] / ((k+2)(k+3))
        even, odd = [1.0], [1.0]
        for k in range(0, 27, 3):
            even.append(-2.0 * even[-1] / ((k + 2) * (k + 3)))
            odd.append(-2.0 * odd[-1] / ((k + 3) * (k + 4)))
        w0, w1 = a - 5.0, case.right_bc.value - 5.0
        weight = (w1 - w0 * math.fsum(even)) / math.fsum(odd)
        return lambda x: math.fsum(
            [5.0] + [w0 * e * x ** (3 * k) for k, e in enumerate(even)]
            + [weight * o * x ** (3 * k + 1) for k, o in enumerate(odd)])
    integrals = _oscillatory_integrals if case_id == 3 else _gauss_integrals
    first, second = integrals(1.0)
    right = case.right_bc
    if right.kind == "dirichlet":
        slope = right.value - a - second
    else:
        B = right.robin_weight
        slope = (right.value - first - B * (a + second)) / (1.0 + B)
    return lambda x: a + slope * x + integrals(x)[1]


@pytest.mark.parametrize("case_id", [1, 2, 3, 4])
def test_oracle_matches_scalar_reference(case_id):
    """Each vectorized oracle at 10^5 nodes, within a few ulp of the largest
    value of the solution (measured: 2, 1, 2 and 5.5 ulp for cases 1-4; case
    4's sums pass through values near 5 on their way to |u| <= 3)."""
    x = np.linspace(0.0, 1.0, 100_001)
    ref = np.array([_scalar_oracle(case_id)(v) for v in x.tolist()])
    gap = np.max(np.abs(oracle_solution(case_id, x) - ref))
    assert gap <= 8.0 * np.spacing(np.max(np.abs(ref)))


def test_oracle_domain_guard():
    with pytest.raises(ValueError):
        oracle_solution(1, -0.1)
    with pytest.raises(ValueError):
        oracle_solution(1, 1.1)


# ---------------------------------------------------------------------------
# custom case-3 constants
# ---------------------------------------------------------------------------

def test_case3_override_keeps_oracle_consistent():
    custom = make_case3(a=1.0, b=7.0, c=-0.5)
    assert custom.oracle(0.0) == pytest.approx(1.0, abs=1e-12)
    d = 1e-4
    x = np.linspace(2 * d, 1.0 - 2 * d, 200)
    second = (custom.oracle(x + d) - 2 * custom.oracle(x)
              + custom.oracle(x - d)) / d**2
    assert np.max(np.abs(second - case_rhs(custom, x, 0.0))) <= 1e-3


@pytest.mark.parametrize("a,b,c", [(1e308, 200.0, -1e308), (1e151, 0.0, 0.0),
                                   (0.0, 0.0, -1e151), (1e80, 1e80, 0.0)])
def test_case3_constants_beyond_the_scale_are_refused(a, b, c):
    with pytest.raises(ValueError, match="case-3 constants .* out of range"):
        make_case3(a=a, b=b, c=c)


def test_case3_constants_at_the_scale_are_kept():
    custom = make_case3(a=1e150, b=0.0, c=-1e150)
    assert custom.oracle(0.0) == 1e150


def test_case3_defaults_recorded():
    assert CASE3_CONSTANTS == {"a": 0.0, "b": 200.0, "c": 0.0}


# ---------------------------------------------------------------------------
# the error metric
# ---------------------------------------------------------------------------

def test_sup_error_zero_for_sampled_oracle():
    case = get_case(1)
    g = GridFunction.sample(case.oracle, 100)
    assert sup_error(g, case) == 0.0


def test_sup_error_sees_constant_offset():
    case = get_case(1)
    g = GridFunction.sample(case.oracle, 100)
    shifted = g.with_values(g.values + 1e-3)
    assert sup_error(shifted, case) == pytest.approx(1e-3, rel=1e-9)


def test_sup_error_triangle_inequality():
    case = get_case(1)
    rng = np.random.default_rng(5)
    f = GridFunction(0.01, rng.normal(size=101))
    g = GridFunction(0.01, rng.normal(size=101))
    assert sup_error(f, case) <= sup_distance(f, g) + sup_error(g, case) + 1e-15


def test_sup_error_nonnegative_and_uses_own_grid():
    case = get_case(3)
    for n in (17, 40, 233):
        g = GridFunction.sample(case.oracle, n)
        assert sup_error(g, case) == 0.0
