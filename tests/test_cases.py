import ast
import inspect
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from fracbvp import (GridFunction, fdm_linear, get_case, make_case3,
                     sup_error)
from fracbvp.cases import (_erf, gauss_first_integral, gauss_forcing,
                           gauss_second_integral, oscillatory_first_integral,
                           oscillatory_forcing, oscillatory_second_integral)
from fracbvp.grid import nodes
from fracbvp.ifoi import IvpProblem
from fracbvp.shooting import dirichlet, robin

import oracles
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
    assert case.right_bc == robin(200.0, 0.1)
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
    assert abs(get_case(case_id).oracle(0.0) - a_res) <= 1e-10
    assert abs(get_case(case_id).oracle(1.0) - b_res) <= 1e-10


@pytest.mark.parametrize("case_id,first,second", [
    (2, gauss_first_integral, gauss_second_integral),
    (3, oscillatory_first_integral, oscillatory_second_integral)])
def test_robin_oracle_boundary_residual(case_id, first, second):
    """slope u'(1) + weight u(1) - value at rounding level, with u'(1)
    reconstructed from oracle values and the independently validated
    antiderivatives."""
    case = get_case(case_id)
    a = case.left_bc.value
    assert abs(case.oracle(0.0) - a) <= 1e-10
    u1 = float(case.oracle(1.0))
    affine_slope = u1 - a - float(second(1.0))
    slope_1 = affine_slope + float(first(1.0))
    right = case.right_bc
    residual = right.slope * slope_1 + right.weight * u1 - right.value
    assert abs(residual) <= 1e-10


@pytest.mark.parametrize("case_id,tol", [(2, 1e-7), (3, 1e-5)])
def test_robin_oracle_slope_numerically(case_id, tol):
    """Same residual with a five-point one-sided slope, no closed forms."""
    case = get_case(case_id)
    d = 1e-3
    pts = 1.0 - d * np.arange(5)
    u = case.oracle(pts)
    slope_1 = (25 * u[0] - 48 * u[1] + 36 * u[2] - 16 * u[3] + 3 * u[4]) / (12 * d)
    right = case.right_bc
    residual = right.slope * slope_1 + right.weight * u[0] - right.value
    assert abs(residual) <= tol


@pytest.mark.parametrize("case_id,d,tol", [
    (1, 1e-4, 1e-5), (2, 1e-4, 1e-5), (3, 1e-4, 1e-3), (4, 1e-2, 5e-3)])
def test_oracle_satisfies_its_equation(case_id, d, tol):
    """Central second difference of the oracle matches rhs(x, oracle(x))."""
    case = get_case(case_id)
    rng = np.random.default_rng(42)
    x = rng.uniform(2 * d, 1.0 - 2 * d, 1000)
    up = case.oracle(x + d)
    u0 = case.oracle(x)
    um = case.oracle(x - d)
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
    assert np.max(np.abs(get_case(4).oracle(x) - shot)) <= 1e-10


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
    assert np.max(np.abs(get_case(4).oracle(x) - case4_series(x))) <= 1e-12


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
    # the line a + s x + second meets slope u'(1) + weight u(1) = value
    right = case.right_bc
    slope = ((right.value - right.slope * first - right.weight * (a + second))
             / (right.slope + right.weight))
    return lambda x: a + slope * x + integrals(x)[1]


@pytest.mark.parametrize("case_id", [1, 2, 3, 4])
def test_oracle_matches_scalar_reference(case_id):
    """Each vectorized oracle at 10^5 nodes, within a few ulp of the largest
    value of the solution (measured: 2, 1, 2 and 5.5 ulp for cases 1-4; case
    4's sums pass through values near 5 on their way to |u| <= 3)."""
    x = np.linspace(0.0, 1.0, 100_001)
    ref = np.array([_scalar_oracle(case_id)(v) for v in x.tolist()])
    gap = np.max(np.abs(get_case(case_id).oracle(x) - ref))
    assert gap <= 8.0 * np.spacing(np.max(np.abs(ref)))


@pytest.mark.parametrize("case_id", [1, 2, 3, 4])
def test_interpolated_score_matches_scalar_reference(case_id):
    """The reference that scores a grid of 10^5 intervals, a blockwise
    Chebyshev interpolant of the oracle, within 16 ulp of the largest value
    of the solution (measured: 6.5, 5, 7 and 7 ulp for cases 1-4)."""
    x = nodes(100_000)
    ref = np.array([_scalar_oracle(case_id)(v) for v in x.tolist()])
    gap = sup_error(GridFunction(ref), get_case(case_id))
    assert gap <= 16.0 * np.spacing(np.max(np.abs(ref)))


def test_oracles_import_nothing_from_the_package():
    """The references in ``tests/oracles.py`` stand apart from fracbvp: no
    import statement in the module, at any depth, names the package."""
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    modules = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert "numpy" in modules
    assert [m for m in modules if m.split(".")[0] == "fracbvp"] == []


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
    defaults = {name: p.default for name, p
                in inspect.signature(make_case3).parameters.items()}
    assert defaults == {"a": 0.0, "b": 200.0, "c": 0.0}
    case = get_case(3)
    assert (case.left_bc, case.right_bc) == (dirichlet(0.0), robin(200.0, 0.0))


# ---------------------------------------------------------------------------
# the error metric
# ---------------------------------------------------------------------------

def test_sup_error_zero_for_sampled_oracle():
    case = get_case(1)
    g = GridFunction(case.oracle(nodes(100)))
    assert sup_error(g, case) == 0.0


def test_sup_error_sees_constant_offset():
    case = get_case(1)
    g = GridFunction(case.oracle(nodes(100)))
    shifted = GridFunction(g.values + 1e-3)
    assert sup_error(shifted, case) == pytest.approx(1e-3, rel=1e-9)


def test_sup_error_triangle_inequality():
    case = get_case(1)
    rng = np.random.default_rng(5)
    f = GridFunction(rng.normal(size=101))
    g = GridFunction(rng.normal(size=101))
    distance = np.max(np.abs(f.values - g.values))
    assert sup_error(f, case) <= distance + sup_error(g, case) + 1e-15


def test_sup_error_nonnegative_and_uses_own_grid():
    case = get_case(3)
    for n in (17, 40, 233):
        g = GridFunction(case.oracle(nodes(n)))
        assert sup_error(g, case) == 0.0


# the switch to the interpolated reference: 4 nodes per sample, 128 * 15
SWITCH = 4 * 128 * 15
SCORED_CASES = [get_case(i) for i in (1, 2, 3, 4)] + [
    make_case3(a=1e147), make_case3(b=-1.0000001),
    make_case3(a=0.5, b=0.0, c=-1.0)]


@pytest.mark.parametrize("n", [SWITCH - 1, 20_011, 65_536, 99_991])
@pytest.mark.parametrize("case", SCORED_CASES,
                         ids=["1", "2", "3", "4", "3-a1e147", "3-b-near-resonant",
                              "3-a0.5-b0-c-1"])
def test_interpolated_score_matches_the_oracle_at_every_node(case, n):
    """From ``SWITCH`` nodes up, the reference is within ``4e-15 max|u|`` of
    the oracle at every node (2.0e-15 measured), and a spike at node ``n``,
    in the padded last block when the block width does not divide
    ``n + 1`` (here 20,011 and 99,991), is scored at its size."""
    u = case.oracle(nodes(n))
    scale = np.max(np.abs(u))
    assert sup_error(GridFunction(u), case) <= 4e-15 * scale
    spike = u.copy()
    spike[-1] += 1e-6 * scale
    assert sup_error(GridFunction(spike), case) \
        == pytest.approx(1e-6 * scale, abs=4e-15 * scale)


@pytest.mark.parametrize("n", [4, 40, 4_000, SWITCH - 2])
@pytest.mark.parametrize("case_id", [1, 2, 3, 4])
def test_score_below_the_switch_is_pointwise_to_the_bit(case_id, n):
    case = get_case(case_id)
    solution = fdm_linear(case, n)
    pointwise = np.max(np.abs(solution.values - case.oracle(nodes(n))))
    assert sup_error(solution, case) == float(pointwise)


@pytest.mark.parametrize("case_id", [1, 2, 3, 4])
def test_interpolated_score_is_bit_identical_whatever_ran_before(case_id):
    case = get_case(case_id)

    def score(n):
        solution = fdm_linear(case, n)
        return solution.values, sup_error(solution, case)

    first_values, first = score(20_011)
    assert sup_error(GridFunction(first_values), case) == first
    for n in (99_991, 40, SWITCH, 65_536):
        score(n)
    again_values, again = score(20_011)
    assert np.array_equal(again_values, first_values) and again == first


@pytest.mark.parametrize("n", [SWITCH - 1, 20_011, 20_095])
def test_nodes_on_sample_points_divide_by_nothing(n):
    """The first and last node of every block are sample points, and so is
    the middle node of an odd block width (157 at n = 20,011); each takes
    its sample's value with no division by zero."""
    case = get_case(3)
    with np.errstate(divide="raise", invalid="raise"):
        assert sup_error(GridFunction(case.oracle(nodes(n))), case) \
            <= 4e-15 * np.max(np.abs(case.oracle(nodes(n))))
