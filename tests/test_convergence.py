"""Observed convergence orders.

Case 4 is measured against the package-independent series of
``tests/oracles.py``; cases 1-3 against their closed forms, which
``test_cases.py`` checks against brute-force quadrature; a seeded family of
coupled problems against Chebyshev collocation.
"""

import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from fracbvp import (CaseSpec, ComposedOperator, IvpProblem, dirichlet,
                     fdm_linear, get_case, ifoi_solve_ivp,
                     make_alpha_partition, make_ivp_solver, robin, solve_bvp,
                     sup_error)

from oracles import case4_series, chebyshev_bvp

GRIDS = (50, 100, 200, 400)
COARSE = (100, 200, 400, 800)
FINE = (800, 1600, 3200, 6400)
LARGE = (10_000, 20_000, 40_000, 80_000)


def _observed_orders(errors: list[float]) -> list[float]:
    return [math.log2(a / b) for a, b in zip(errors, errors[1:])]


def _case4_error(solution) -> float:
    return float(np.max(np.abs(solution.values
                               - case4_series(solution.nodes))))


def _case4_fdm(n):
    return fdm_linear(get_case(4), n)


def _case4_ifoi(n):
    case = get_case(4)
    solver = make_ivp_solver(make_alpha_partition("regular", 10), n, "abm")
    return solve_bvp(case, solver)[0]


@pytest.mark.parametrize("solve,grids,low,high", [
    # three-point differences are second order and case 4 is smooth:
    # measured 2.00 on every halving
    (_case4_fdm, GRIDS, 1.95, 2.05),
    # the product trapezoid is second order on smooth data; the ten-stage
    # composition approaches 2 from below, measured 1.96-1.97 here
    (_case4_ifoi, GRIDS, 1.9, 2.05),
    # the Picard-summed march keeps the order where a Thomas sweep inside
    # Newton loses it to rounding (2.000, 1.991, 1.953): measured 2.000,
    # 2.000, 2.000
    (_case4_fdm, LARGE, 1.98, 2.02),
    # with the abm weights summed as series from j = 32 on the order holds
    # where the cancelling closed forms lost it (1.961, 2.029, 0.697):
    # measured 1.989, 1.990, 1.991
    (_case4_ifoi, LARGE, 1.9, 2.05),
], ids=["fdm", "ifoi-abm", "fdm-large", "ifoi-abm-large"])
def test_case4_convergence_order(solve, grids, low, high):
    orders = _observed_orders([_case4_error(solve(n)) for n in grids])
    assert all(low <= p <= high for p in orders), orders


def _closed_form_errors(case_id, method, grids) -> list[float]:
    """Sup errors of a linear case with its default scheme and schedule."""
    case = get_case(case_id)

    def solve(n):
        if method == "fdm":
            return fdm_linear(case, n)
        solver = make_ivp_solver(case.default_partition, n,
                                 case.default_scheme)
        return solve_bvp(case, solver)[0]

    return [sup_error(solve(n), case) for n in grids]


@pytest.mark.parametrize("case_id,method,grids,low,high", [
    # the Grunwald-Letnikov series is first order and approaches 1 from
    # below: measured 0.994, 0.997, 0.999
    (1, "ifoi", COARSE, 0.95, 1.05),
    # the product rectangle rule is first order and approaches 1 from
    # above: measured 1.052, 1.031, 1.020
    (2, "ifoi", COARSE, 0.95, 1.1),
    # the product trapezoid is second order, but the cos(200x) part of the
    # forcing is under-resolved on these grids (h*200 = 2 .. 0.25), so the
    # order climbs slowly: measured 1.686, 1.699, 1.727 ...
    (3, "ifoi", COARSE, 1.6, 1.8),
    # ... and 1.802, 1.855, 1.888 once h*200 <= 0.25
    (3, "ifoi", FINE, 1.75, 1.95),
    # three-point differences are second order: measured 2.000-2.001
    (1, "fdm", COARSE, 1.95, 2.05),
    (2, "fdm", COARSE, 1.95, 2.05),
    # the first halving, from h*200 = 2, is pre-asymptotic: measured
    # 1.731, 2.010, 2.045 ...
    (3, "fdm", COARSE, 1.65, 2.1),
    # ... and 2.033, 2.019, 2.010 on the finer grids
    (3, "fdm", FINE, 1.95, 2.05),
    # far past the paper's grids the closed-form summation keeps the order:
    # measured 2.000, 2.000, 2.000 (case 1), 2.000, 2.000, 1.999 (case 2)
    # and 2.003, 2.002, 2.001 (case 3)
    (1, "fdm", LARGE, 1.95, 2.05),
    (2, "fdm", LARGE, 1.95, 2.05),
    (3, "fdm", LARGE, 1.95, 2.05),
], ids=["case1-ifoi-gl", "case2-ifoi-rect", "case3-ifoi-abm-coarse",
        "case3-ifoi-abm-fine", "case1-fdm", "case2-fdm", "case3-fdm-coarse",
        "case3-fdm-fine", "case1-fdm-large", "case2-fdm-large",
        "case3-fdm-large"])
def test_closed_form_case_convergence_order(case_id, method, grids, low,
                                            high):
    orders = _observed_orders(_closed_form_errors(case_id, method, grids))
    assert all(low <= p <= high for p in orders), orders


def test_case3_ifoi_order_climbs_towards_two():
    """Case 3's slow approach, as a whole: the observed order of the staged
    trapezoid solve rises on every halving from n = 100 to 6400 and stays
    below 2."""
    orders = _observed_orders(
        _closed_form_errors(3, "ifoi", COARSE + FINE[1:]))
    assert all(a < b for a, b in zip(orders, orders[1:])), orders
    assert orders[-1] < 2.0, orders


# ---------------------------------------------------------------------------
# a seeded family of coupled problems off the four cases
# ---------------------------------------------------------------------------

def _family_case(seed: int, right_kind: str, terms: int = 60) -> CaseSpec:
    """``u'' = g + k u`` with ``g`` a quadratic plus ``sin 5x`` and ``k`` a
    quadratic, all coefficients drawn from ``seed`` in [-2, 2], so that
    ``|k| <= 6`` stays below the first Dirichlet resonance ``pi^2``; a
    Dirichlet right end or a Robin one with weight in [0.5, 3].  Scored
    against Chebyshev collocation with ``terms`` terms."""
    rng = np.random.default_rng(seed)
    ga, ka = rng.uniform(-2.0, 2.0, 4), rng.uniform(-2.0, 2.0, 3)
    left, value = rng.uniform(-2.0, 2.0, 2)
    weight = rng.uniform(0.5, 3.0)

    def g(x):
        return P.polyval(x, ga[:3]) + ga[3] * np.sin(5.0 * x)

    def k(x):
        return P.polyval(x, ka)

    if right_kind == "dirichlet":
        right_bc, end = dirichlet(value), (0.0, 1.0, value)
    else:
        right_bc, end = robin(weight, value), (1.0, weight, value)
    return CaseSpec(id=f"family{seed}-{right_kind}", g=g, k=k,
                    left_bc=dirichlet(left), right_bc=right_bc,
                    default_scheme="abm",
                    default_partition=make_alpha_partition("regular", 10),
                    oracle=chebyshev_bvp(g, k, left, end, terms))


FAMILY = [(1, "dirichlet"), (2, "robin"), (3, "dirichlet"), (4, "robin")]
FAMILY_GRIDS = (200, 400, 800, 1600, 3200)


@pytest.mark.parametrize("seed,right_kind", FAMILY)
def test_family_reference_is_converged(seed, right_kind):
    # measured within 2.3e-16 (seed 1), 1.2e-15 (seed 2) and 1.5e-15
    # (seeds 3 and 4) of 80 terms
    x = np.linspace(0.0, 1.0, 1001)
    coarse = _family_case(seed, right_kind).oracle(x)
    fine = _family_case(seed, right_kind, terms=80).oracle(x)
    assert np.max(np.abs(coarse - fine)) <= 1e-13 * np.max(np.abs(fine))


@pytest.mark.parametrize("seed,right_kind", FAMILY)
def test_family_fdm_convergence_order(seed, right_kind):
    # three-point differences are second order on smooth coupled problems,
    # Robin end included: measured 2.000 on every halving (seeds 1 and 3),
    # 2.016, 2.008, 2.004, 2.002 (seed 2) and 2.009 ... 2.001 (seed 4)
    case = _family_case(seed, right_kind)
    orders = _observed_orders([sup_error(fdm_linear(case, n), case)
                               for n in FAMILY_GRIDS])
    assert all(1.95 <= p <= 2.05 for p in orders), orders


@pytest.mark.parametrize("seed,right_kind", FAMILY)
@pytest.mark.parametrize("scheme,stages", [("gl", 10), ("rect", 5)])
def test_family_ifoi_first_order_schemes(seed, right_kind, scheme, stages):
    # the binomial series and the product rectangle rule stay first order
    # on coupled problems, Robin end included, under a regular schedule:
    # measured 0.993-1.004 (gl) and 1.011-1.033 (rect) over the four seeds
    case = _family_case(seed, right_kind)
    partition = make_alpha_partition("regular", stages)
    orders = _observed_orders([
        sup_error(solve_bvp(case, make_ivp_solver(partition, n, scheme))[0],
                  case) for n in FAMILY_GRIDS])
    assert all(0.9 <= p <= 1.15 for p in orders), orders


@pytest.mark.parametrize("seed,right_kind", FAMILY)
@pytest.mark.parametrize("spacing", ["regular", "quadratic"])
def test_family_ifoi_abm_second_order(seed, right_kind, spacing):
    # the family's forcing is not 0 at x = 0, so only a composed trapezoid
    # operator that is exact on constants keeps the order: measured
    # 1.943-1.972 on seeds 1, 2 and 4, and 1.852-1.931 on seed 3, still
    # rising (the stage-by-stage column read 0.525-2.813)
    case = _family_case(seed, right_kind)
    partition = make_alpha_partition(spacing, 10)
    orders = _observed_orders([
        sup_error(solve_bvp(case, make_ivp_solver(partition, n, "abm"))[0],
                  case) for n in FAMILY_GRIDS])
    assert all(1.8 <= p <= 2.05 for p in orders), orders


# ---------------------------------------------------------------------------
# the composed trapezoid operator on forcing that is not 0 at x = 0
# ---------------------------------------------------------------------------

ABM_SCHEDULES = [make_alpha_partition(spacing, 10)
                 for spacing in ("regular", "quadratic")]


def _ivp_error(forcing, exact, partition, n) -> float:
    """Sup error of the ``abm`` IVP ``u'' = forcing``, ``u(0) = u'(0) = 0``."""
    solution, _ = ifoi_solve_ivp(IvpProblem(forcing, None, 0.0, 0.0),
                                 ComposedOperator("abm", partition, n))
    return float(np.max(np.abs(solution.values - exact(solution.nodes))))


@pytest.mark.parametrize("n", [100, 1600, 9973])
@pytest.mark.parametrize("partition", ABM_SCHEDULES,
                         ids=lambda p: p.spacing)
def test_abm_composition_is_exact_on_constants(partition, n):
    # measured at most 5e-16; the stage-by-stage column left 5.8e-5
    # (regular) and 2.7e-4 (quadratic) at n = 1600
    error = _ivp_error(np.ones_like, lambda x: x * x / 2, partition, n)
    assert error <= 1e-14


@pytest.mark.parametrize("forcing,exact", [
    (np.cos, lambda x: 1.0 - np.cos(x)),
    (np.exp, lambda x: np.exp(x) - 1.0 - x),
], ids=["cos", "exp"])
@pytest.mark.parametrize("partition", ABM_SCHEDULES,
                         ids=lambda p: p.spacing)
def test_abm_composition_is_second_order_for_every_forcing(partition,
                                                           forcing, exact):
    # measured 1.926-1.961, rising; the stage-by-stage column converged at
    # order 1 + mu_1, 0.997-1.198
    orders = _observed_orders([_ivp_error(forcing, exact, partition, n)
                               for n in COARSE + (1600,)])
    assert all(1.9 <= p <= 2.05 for p in orders), orders
