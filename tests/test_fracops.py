import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from fracbvp import GridFunction, apply_scheme, gl_coefficients
from fracbvp.cases import gauss_forcing, oscillatory_forcing
from fracbvp.fracops import ABM_SERIES_FROM, apply_pair, stage_kernels
from fracbvp.grid import nodes

from oracles import (abm_weights_decimal, direct_gl_weight, direct_rect_sum,
                     simpson, simpson_double)

ALL_SCHEMES = ("gl", "rect", "abm")


# ---------------------------------------------------------------------------
# series coefficients
# ---------------------------------------------------------------------------

def test_gl_coefficients_examples():
    assert gl_coefficients(-0.5, 3) == pytest.approx([1.0, 0.5, 0.375])
    assert gl_coefficients(-1.0, 4) == pytest.approx([1.0, 1.0, 1.0, 1.0])
    assert gl_coefficients(-2.0, 4) == pytest.approx([1.0, 2.0, 3.0, 4.0])


@pytest.mark.parametrize("alpha", [-2.0, -1.3, -0.2, -0.05])
def test_gl_coefficients_equal_the_recursion(alpha):
    expect = [1.0]
    for j in range(1, 5000):
        expect.append(expect[-1] * (1.0 - (alpha + 1.0) / j))
    assert np.array_equal(gl_coefficients(alpha, 5000), expect)
    assert np.array_equal(gl_coefficients(alpha, 1), [1.0])


def test_gl_coefficients_needs_positive_count():
    with pytest.raises(ValueError):
        gl_coefficients(-0.5, 0)


@pytest.mark.parametrize("alpha", np.linspace(-2.0, -0.05, 14).tolist())
def test_gl_coefficients_match_gamma_formula(alpha):
    w = gl_coefficients(alpha, 51)
    for j in range(51):
        assert w[j] == pytest.approx(direct_gl_weight(alpha, j), rel=1e-10)


# ---------------------------------------------------------------------------
# series operator
# ---------------------------------------------------------------------------

def test_gl_constant_half_order(unit_grid):
    out = apply_scheme("gl", unit_grid, -0.5)
    assert abs(out.values[-1] - 1.0 / math.gamma(1.5)) <= 5e-3


def test_gl_ramp_full_order(ramp_grid):
    out = apply_scheme("gl", ramp_grid, -1.0)
    assert abs(out.values[-1] - 0.5) <= 2e-3


def test_gl_double_order_vs_brute_force_quadrature():
    # First-order rule: the h * int(f) term dominates and is ~0.1 here, so
    # the honest bound sits at 0.12, not tighter.
    f = GridFunction(gauss_forcing(nodes(100)))
    out = apply_scheme("gl", f, -2.0)
    reference = simpson_double(gauss_forcing, 1.0)
    assert abs(out.values[-1] - reference) <= 0.12


def test_gl_rejects_orders_outside_contract(unit_grid):
    for alpha in (0.0, 0.5, 1.0, -2.5):
        with pytest.raises(ValueError):
            apply_scheme("gl", unit_grid, alpha)


# ---------------------------------------------------------------------------
# product rectangle operator
# ---------------------------------------------------------------------------

def test_rect_constant_full_order_matches_weight_formula(unit_grid):
    out = apply_scheme("rect", unit_grid, -1.0)
    reference = direct_rect_sum(unit_grid.values, unit_grid.h, 1.0)
    assert abs(out.values[-1] - reference) <= 1e-12
    # the stated weights telescope to exactly n*h = 1 for a constant
    assert abs(out.values[-1] - 1.0) <= 1e-12


def test_rect_constant_half_order(unit_grid):
    out = apply_scheme("rect", unit_grid, -0.5)
    assert abs(out.values[-1] - 1.0 / math.gamma(1.5)) <= 5e-3


def test_rect_ramp_half_order(ramp_grid):
    out = apply_scheme("rect", ramp_grid, -0.5)
    expect = math.gamma(2.0) / math.gamma(2.5)
    assert abs(out.values[-1] - expect) <= 5e-3


def test_rect_matches_direct_summation_on_arbitrary_data():
    rng = np.random.default_rng(7)
    f = GridFunction(rng.normal(size=51))
    for alpha in (-0.3, -1.0, -1.7):
        out = apply_scheme("rect", f, alpha)
        assert out.values[-1] == pytest.approx(
            direct_rect_sum(f.values, f.h, -alpha), abs=1e-12)


# ---------------------------------------------------------------------------
# product trapezoid (predictor-corrector) operator
# ---------------------------------------------------------------------------

def test_abm_constant_half_order():
    f = GridFunction(np.ones_like(nodes(100)))
    out = apply_scheme("abm", f, -0.5)
    assert abs(out.values[-1] - 1.0 / math.gamma(1.5)) <= 1e-4


def test_abm_ramp_full_order():
    f = GridFunction(nodes(100))
    out = apply_scheme("abm", f, -1.0)
    assert abs(out.values[-1] - 0.5) <= 1e-6


def test_abm_weights_integrate_the_linear_interpolant():
    """The trapezoid-product weights are, by definition, the exact kernel
    integral of the piecewise-linear interpolant; reproduce that integral
    by dense quadrature on the reconstructed interpolant."""
    rng = np.random.default_rng(19)
    f = GridFunction(rng.normal(size=21))
    for mu, tol in ((2.0, 1e-9), (1.5, 1e-7)):
        out = apply_scheme("abm", f, -mu)
        t = np.linspace(0.0, 1.0, 2_000_001)
        interp = np.interp(t, f.nodes, f.values)
        kernel = (1.0 - t) ** (mu - 1.0) / math.gamma(mu)
        w = np.ones(t.size)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        reference = float(np.sum(w * kernel * interp) * (t[1] - t[0]) / 3.0)
        assert abs(out.values[-1] - reference) <= tol


def test_rect_weights_integrate_the_left_step_interpolant():
    """Same idea for the rectangle rule, whose defining interpolant is the
    left-value step function."""
    rng = np.random.default_rng(23)
    f = GridFunction(rng.normal(size=21))
    mu = 1.5
    out = apply_scheme("rect", f, -mu)
    t = np.linspace(0.0, 1.0, 2_000_001)
    idx = np.minimum((t / f.h).astype(int), f.n - 1)
    step = f.values[idx]
    kernel = (1.0 - t) ** (mu - 1.0) / math.gamma(mu)
    w = np.ones(t.size)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    reference = float(np.sum(w * kernel * step) * (t[1] - t[0]) / 3.0)
    assert abs(out.values[-1] - reference) <= 1e-5


def _pointwise_kernels(mu, n, h):
    """The rect and abm kernels with one ``**`` per shifted index, the
    reference for kernels that share their powers between neighbouring
    weights."""
    k = np.arange(n + 1, dtype=float)
    rect = np.zeros(n + 1)
    rect[1:] = k[1:] ** mu - (k[1:] - 1.0) ** mu
    d = np.ones(n + 1)
    d[1:] = (k[1:] + 1.0) ** (mu + 1.0) + (k[1:] - 1.0) ** (mu + 1.0) \
        - 2.0 * k[1:] ** (mu + 1.0)
    e = np.zeros(n + 1)
    e[1:] = (k[1:] - 1.0) ** (mu + 1.0) - k[1:] ** mu * (k[1:] - mu - 1.0)
    scale = h**mu / math.gamma(mu + 2.0)
    return h**mu / math.gamma(mu + 1.0) * rect, scale * d, scale * (e - d)


@pytest.mark.parametrize("n", [8, 50, 4000])
@pytest.mark.parametrize("alpha", [-0.06000000000000001, -0.19999999999999996,
                                   -0.2, -0.4, -1.0, -1.5, -2.0])
def test_shared_power_kernels_equal_the_pointwise_formulas(n, alpha):
    """rect everywhere, and abm below the index where its series take over
    (see test_abm_weights_match_a_40_digit_reference for the rest)."""
    h = 1.0 / n
    rect, d, col0 = _pointwise_kernels(-alpha, n, h)
    col0[0] = -d[0]
    assert np.array_equal(stage_kernels("rect", alpha, n, h)[0], rect)
    kernel, correction = stage_kernels("abm", alpha, n, h)
    head = slice(0, ABM_SERIES_FROM)
    assert np.array_equal(kernel[head], d[head])
    assert np.array_equal(correction[head], col0[head])


@pytest.mark.parametrize("mu", [0.04, 0.2, 0.36, 1.5])
def test_abm_weights_match_a_40_digit_reference(mu):
    """Against the weights evaluated as written in 40-digit decimal: from
    the series' start on, every interior weight and every column-0
    correction is within 16 ulp (measured: 4.3), and the whole kernel,
    whose closed-form head still loses up to 2.1e4 ulp at mu = 0.04, is
    within 1e-12 relative in the l1 norm (measured: 4.1e-14).  The
    cancelling closed forms evaluated in doubles at every index were off
    here by up to 4e9 ulp in the kernel, 2e10 ulp in the corrections and
    6.0e-9 in l1."""
    n = 10_000
    h = 1.0 / n
    kernel, col0 = stage_kernels("abm", -mu, n, h)
    d, e = abm_weights_decimal(mu, n)
    with localcontext() as ctx:
        ctx.prec = 40
        scale = Decimal(h**mu / math.gamma(mu + 2.0))
        for computed, weights in ((kernel, d),
                                  (col0, [b - a for a, b in zip(d, e)])):
            reference = [scale * w for w in weights]
            ulps = max(abs(Decimal(float(c)) - r) / Decimal(math.ulp(float(r)))
                       for c, r in zip(computed[ABM_SERIES_FROM:],
                                       reference[ABM_SERIES_FROM:]))
            assert ulps <= 16, ulps
        exact = np.array([float(r) for r in (scale * w for w in d)])
    assert np.sum(np.abs(kernel - exact)) <= 1e-12 * np.sum(np.abs(exact))


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
@pytest.mark.parametrize("n", [8, 4000])
def test_apply_pair_takes_one_row_or_a_batch(scheme, n):
    """A stage's pair is two arrays of ``n + 1`` terms, and one pair
    applied alone gives the bits of its row of a batched apply."""
    pairs = [stage_kernels(scheme, alpha, n, 1.0 / n)
             for alpha in (-0.06, -0.9, -2.0)]
    assert all(a.shape == (n + 1,) for pair in pairs for a in pair)
    f = 1.0 + np.random.default_rng(n).random(n + 1)
    batch = apply_pair(*map(np.stack, zip(*pairs)), f)
    for pair, row in zip(pairs, batch):
        assert apply_pair(*pair, f).tobytes() == row.tobytes()


def test_abm_oscillatory_vs_quadrature():
    # The aliased tail of the oscillation costs ~1.8e-4 at this resolution;
    # 3e-4 is the honest bound for the rule as defined.
    f = GridFunction(oscillatory_forcing(nodes(200)))
    out = apply_scheme("abm", f, -1.0)
    reference = simpson(oscillatory_forcing, 1.0)
    assert abs(out.values[-1] - reference) <= 3e-4


# ---------------------------------------------------------------------------
# shared contracts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_output_grid_matches_input(scheme, ramp_grid):
    out = apply_scheme(scheme, ramp_grid, -0.5)
    assert out.h == ramp_grid.h
    assert out.values.size == ramp_grid.values.size


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_left_node_is_zero(scheme, unit_grid):
    assert apply_scheme(scheme, unit_grid, -0.7).values[0] == 0.0


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_operators_are_linear(scheme):
    rng = np.random.default_rng(3)
    f = GridFunction(rng.normal(size=101))
    g = GridFunction(rng.normal(size=101))
    both = apply_scheme(scheme, GridFunction(2.0 * f.values - 3.0 * g.values),
                        -0.8)
    parts = 2.0 * apply_scheme(scheme, f, -0.8).values \
        - 3.0 * apply_scheme(scheme, g, -0.8).values
    assert np.allclose(both.values, parts, atol=1e-12)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("alpha", [-0.25, -0.5, -1.0, -1.5])
def test_monomial_law(scheme, p, alpha):
    """Value at x = 1 approaches Gamma(p+1)/Gamma(p+1-alpha); halving the
    step must not increase the error."""
    expect = math.gamma(p + 1.0) / math.gamma(p + 1.0 - alpha)
    errs = []
    for n in (64, 128):
        f = GridFunction(nodes(n)**p)
        out = apply_scheme(scheme, f, alpha)
        errs.append(abs(out.values[-1] - expect))
    assert errs[1] <= errs[0] * 1.05 + 1e-12
    assert errs[1] <= 0.06


def test_semigroup_two_half_orders_match_one_full_order():
    gaps = []
    for n in (100, 200):
        f = GridFunction(nodes(n)**2)
        twice = apply_scheme("abm", apply_scheme("abm", f, -0.5), -0.5)
        once = apply_scheme("abm", f, -1.0)
        gaps.append(abs(twice.values[-1] - once.values[-1]))
    assert gaps[0] <= 1e-3
    assert gaps[1] < gaps[0]


def test_gl_composition_is_exact():
    # binomial weight sequences convolve exactly across orders, so the
    # series operator inherits the semigroup law to rounding
    f = GridFunction(nodes(100)**2)
    twice = apply_scheme("gl", apply_scheme("gl", f, -0.5), -0.5)
    once = apply_scheme("gl", f, -1.0)
    assert np.max(np.abs(twice.values - once.values)) <= 1e-12


def test_gl_first_order_error_decay():
    expect = math.gamma(3.0) / math.gamma(3.5)
    errs = []
    for n in (100, 200):
        f = GridFunction(nodes(n)**2)
        errs.append(abs(apply_scheme("gl", f, -0.5).values[-1] - expect))
    assert 1.6 <= errs[0] / errs[1] <= 2.4


# ---------------------------------------------------------------------------
# memory policy
# ---------------------------------------------------------------------------

def test_truncated_memory_converges_to_full(unit_grid):
    full = apply_scheme("gl", unit_grid, -0.5)
    gaps = []
    for window in (0.2, 0.4, 0.6, 0.8, 1.0):
        trunc = apply_scheme("gl", unit_grid, -0.5, window=window)
        gaps.append(np.max(np.abs(trunc.values - full.values)))
    assert all(b <= a for a, b in zip(gaps, gaps[1:]))
    assert gaps[0] > 0.0
    assert gaps[-1] == 0.0


def test_truncated_memory_rejects_tiny_window(unit_grid):
    with pytest.raises(ValueError):
        apply_scheme("gl", unit_grid, -0.5, window=5 * unit_grid.h)


@pytest.mark.parametrize("scheme", ["rect", "abm"])
def test_truncated_memory_is_refused_off_the_series(scheme):
    """The short-memory principle is stated for the binomial series: a
    truncated policy with another scheme is an error, not a full-memory
    result."""
    f = GridFunction(np.cos(nodes(200)))
    with pytest.raises(ValueError, match="'gl' series only"):
        apply_scheme(scheme, f, -0.5, window=0.1)


def test_memory_policy_validation(unit_grid):
    for window in (-1.0, math.nan):
        with pytest.raises(ValueError, match="grid steps"):
            apply_scheme("gl", unit_grid, -0.5, window=window)


def test_unknown_scheme_rejected(unit_grid):
    with pytest.raises(ValueError):
        apply_scheme("simpson", unit_grid, -0.5)
