"""Acceptance gate: reference error figures and structural guarantees.

Each test prints one ``ACCEPTANCE <criterion>: PASS/FAIL`` line, at the
start of a line of its own (run with ``pytest -s`` to see them as they
happen, and ``grep '^ACCEPTANCE'`` to collect them).  Their text depends on
no clock: wall times go on separate ``TIMING <criterion>:`` lines.  Each
line must equal the one recorded in ``tests/golden_numbers.json``, which
``tests/make_golden.py`` writes.
Criteria 5a, 5b and 5c concern case 4.  The benchmark's recorded case-4
figures (IFOI ``9.0e-2``, FDM ``4.9e-1``, and divergence under a quadratic
order schedule) are printed beside the measured ones and gated only as
upper bounds: a correct solve of the stated problem cannot reach them.
The criteria gate instead on what a correct solve does reach, checked
against a package-independent power-series reference
(``oracles.case4_series``): the FDM truncation-error prediction, IFOI's
second-order convergence, and the spectral radius of the discrete Picard
map.  The README's acceptance notes give the analysis.
"""

import math
import time

import numpy as np
import pytest

from fracbvp import (ComposedOperator, GridFunction, RunConfig, apply_scheme,
                     fdm_linear, fdm_newton, get_case, gl_coefficients,
                     make_alpha_partition, run, run_quiet, solve_bvp,
                     sup_error)
from fracbvp.cases import (gauss_forcing, gauss_second_integral,
                           oscillatory_second_integral)
from fracbvp.fdm import _newton_iterate
from fracbvp.grid import nodes
from fracbvp.ifoi import DivergenceError
from fracbvp.shooting import dirichlet

from make_golden import recorded_numbers
from oracles import (case4_fdm_error_prediction, direct_gl_weight,
                     read_results_csv, simpson_double)

# reference sup-norm error figures for the four benchmark problems
CASE3_FDM_TARGETS = {40: 4.8e-4, 80: 5.9e-5, 200: 8.6e-6}
CASE3_IFOI_TARGETS = {40: 6.1e-5, 80: 5.7e-5, 200: 3.5e-5}
CASE1_FDM_TARGET = 1.2e-4
CASE1_IFOI_TARGET = 6.2e-2
CASE2_FDM_TARGET = 7.3e-5
CASE2_IFOI_TARGET = 5.9e-2
# recorded case-4 figures: printed beside the measurements, gated only as
# upper bounds (see the module docstring)
CASE4_IFOI_TARGET = 9.0e-2
CASE4_FDM_RECORDED = 4.9e-1


def _line(tag: str, ok: bool, detail: str) -> bool:
    """Print the criterion's line and require it to read as recorded."""
    line = f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}  ({detail})"
    print("\n" + line)
    assert line == recorded_numbers()["acceptance"][tag]
    return ok


def _timing(criterion: str, name: str, seconds: float) -> None:
    print(f"\nTIMING {criterion}: {name}={seconds:.2f}s")


def _within_factor(value: float, target: float, factor: float) -> bool:
    return target / factor <= value <= target * factor


def _fmt(value, spec: str = ".2e") -> str:
    """An error for a detail string; it is None when the solve failed."""
    return "None" if value is None else format(value, spec)


def _decade(value: float) -> int:
    return math.floor(math.log10(value))


@pytest.fixture(scope="module")
def case3_errors():
    errors = {}
    t0 = time.perf_counter()
    for method in ("fdm", "ifoi"):
        for n in (40, 80, 200):
            report = run_quiet(RunConfig("3", method=method, n=n))[0]
            errors[(method, n)] = report.sup_error
    errors["elapsed"] = time.perf_counter() - t0
    return errors


@pytest.fixture(scope="module")
def case4_reports():
    return {r.method: r for r in run_quiet(RunConfig("4", method="both",
                                                     n=50, m=10,
                                                     spacing="regular",
                                                     scheme="abm"))}


@pytest.fixture(scope="module")
def case1_ifoi_error():
    case = get_case(1)
    solution, _ = solve_bvp(case, ComposedOperator(
        "gl", make_alpha_partition("regular", 10), 100))
    return sup_error(solution, case)


def test_criterion_1_case3_fdm_errors(case3_errors):
    errs = [case3_errors[("fdm", n)] for n in (40, 80, 200)]
    in_range = all(_within_factor(e, CASE3_FDM_TARGETS[n], 3.0)
                   for e, n in zip(errs, (40, 80, 200)))
    decreasing = errs[0] > errs[1] > errs[2]
    ok = _line("1 (case-3 FDM table)", in_range and decreasing,
               f"errors={[f'{e:.2e}' for e in errs]} targets="
               f"{list(CASE3_FDM_TARGETS.values())}")
    _timing("1", "table_time", case3_errors["elapsed"])
    assert ok


def test_criterion_2_case3_ifoi_errors(case3_errors):
    errs = [case3_errors[("ifoi", n)] for n in (40, 80, 200)]
    in_range = all(_within_factor(e, CASE3_IFOI_TARGETS[n], 10.0)
                   for e, n in zip(errs, (40, 80, 200)))
    beats_fdm = case3_errors[("ifoi", 40)] < case3_errors[("fdm", 40)]
    ok = _line("2 (case-3 staged-integration table)", in_range and beats_fdm,
               f"errors={[f'{e:.2e}' for e in errs]} "
               f"ifoi(40) {'<' if beats_fdm else '>='} fdm(40)")
    assert ok


def test_criterion_3_case1(case1_ifoi_error):
    case = get_case(1)
    e_fdm = sup_error(fdm_linear(case, 100), case)
    e_ifoi = case1_ifoi_error
    ok = _line(
        "3 (case 1)",
        _within_factor(e_fdm, CASE1_FDM_TARGET, 3.0)
        and _within_factor(e_ifoi, CASE1_IFOI_TARGET, 10.0)
        and e_fdm < e_ifoi,
        f"fdm={e_fdm:.2e} (target {CASE1_FDM_TARGET}) "
        f"ifoi={e_ifoi:.2e} (target {CASE1_IFOI_TARGET})")
    assert ok


def test_criterion_4_case2(case1_ifoi_error):
    case = get_case(2)
    e_fdm = sup_error(fdm_linear(case, 100), case)
    solution, _ = solve_bvp(case, ComposedOperator(
        "rect", case.default_partition, 100))
    e_ifoi = sup_error(solution, case)
    same_decade = _decade(e_ifoi) == _decade(case1_ifoi_error)
    ok = _line(
        "4 (case 2)",
        _within_factor(e_fdm, CASE2_FDM_TARGET, 3.0)
        and _within_factor(e_ifoi, CASE2_IFOI_TARGET, 10.0)
        and same_decade,
        f"fdm={e_fdm:.2e} ifoi={e_ifoi:.2e} "
        f"decades: case2={_decade(e_ifoi)} case1={_decade(case1_ifoi_error)}")
    assert ok


def test_criterion_5a_case4_method_ordering(case4_reports):
    """Case-4 method ordering at ``h = 0.02``.

    The recorded figures put staged integration ahead of FDM.  A converged
    Newton solve of this smooth, affine-in-``u`` problem is second-order,
    and its error is predicted to leading order by the truncation-error
    equation, solved here by power series without the package.  FDM must
    meet that prediction, beat the second-order staged solve, and both
    errors must lie below their recorded figures.
    """
    e_ifoi = case4_reports["ifoi"].sup_error
    e_fdm = case4_reports["fdm"].sup_error
    predicted = case4_fdm_error_prediction(50)
    ok = _line("5a (case-4 ordering)",
               e_fdm is not None and e_ifoi is not None
               and abs(e_fdm / predicted - 1.0) <= 0.02
               and e_fdm < e_ifoi
               and e_ifoi < CASE4_IFOI_TARGET
               and e_fdm < CASE4_FDM_RECORDED,
               f"fdm={_fmt(e_fdm, '.3e')} predicted={predicted:.3e} "
               f"ifoi={_fmt(e_ifoi)}; recorded ifoi={CASE4_IFOI_TARGET:.1e} "
               f"fdm={CASE4_FDM_RECORDED:.1e}")
    assert ok


def test_criterion_5b_case4_ifoi_decade(case4_reports):
    """Size of the staged case-4 error: second order over ``n = 25, 50,
    100`` and, at ``n = 50``, in the ``1e-4`` decade, below the recorded
    figure."""
    e_ifoi = case4_reports["ifoi"].sup_error
    errors = [run_quiet(RunConfig("4", method="ifoi", n=n, m=10,
                                  spacing="regular", scheme="abm"))[0].sup_error
              for n in (25, 100)]
    errors.insert(1, e_ifoi)
    solved = None not in errors
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])] \
        if solved else []
    ok = _line("5b (case-4 error decade)",
               solved and all(1.9 <= p <= 2.1 for p in orders)
               and _decade(e_ifoi) == -4
               and e_ifoi < CASE4_IFOI_TARGET,
               f"ifoi={_fmt(e_ifoi)} orders={[f'{p:.3f}' for p in orders]}; "
               f"recorded {CASE4_IFOI_TARGET:.1e}")
    assert ok


def test_criterion_5c_case4_quadratic_divergence(case4_reports):
    """Case 4 under a quadratic order schedule, recorded as diverging.

    The discrete Picard map is ``u <- g + K u`` with ``K = S diag(-2x)``,
    ``S`` the staged operator.  ``K`` is built column by column from unit
    vectors and is lower triangular, so its spectral radius is the largest
    magnitude on its diagonal; a radius below 1 means the iteration settles
    for every start, so the run must converge, with an error close to the
    regular schedule's.
    """
    n = 50
    partition = make_alpha_partition("quadratic", 10)
    h = 1.0 / n
    x = np.arange(n + 1) * h
    staged = np.empty((n + 1, n + 1))
    for j, unit in enumerate(np.eye(n + 1)):
        g = GridFunction(unit)
        for alpha in partition.stage_orders:
            g = apply_scheme("abm", g, alpha)
        staged[:, j] = g.values
    picard_map = staged * (-2.0 * x)
    # lower triangular, so its spectrum is its diagonal, whatever rounding
    # the apply leaves above it
    upper = np.max(np.abs(np.triu(picard_map, 1)))
    assert upper < 1e-15 * np.max(np.abs(picard_map))
    radius = float(np.max(np.abs(np.diag(picard_map))))

    try:
        report = run_quiet(RunConfig("4", method="ifoi", n=n, m=10,
                                     spacing="quadratic", scheme="abm"))[0]
        status = report.status
    except DivergenceError:  # would be a bug: run_quiet maps this
        status = "diverged"
    e_quad = report.sup_error if status == "converged" else math.inf
    e_regular = case4_reports["ifoi"].sup_error
    ok = _line("5c (case-4 quadratic spacing)",
               status == "converged" and radius < 1.0
               and _within_factor(e_quad, e_regular, 2.0),
               f"status={status} (recorded: diverged) "
               f"spectral_radius={radius:.1e} "
               f"error={e_quad:.2e} regular={e_regular:.2e}")
    assert ok


def test_criterion_5d_case4_fdm_figure_recorded(case4_reports):
    e_fdm = case4_reports["fdm"].sup_error
    _line("5d (case-4 FDM figure, recorded, not gated)", True,
          f"fdm={e_fdm:.2e} vs recorded figure {CASE4_FDM_RECORDED}")


def test_criterion_6_operator_property_suite():
    t0 = time.perf_counter()
    failures = []

    # monomial law at halving steps
    for scheme in ("gl", "rect", "abm"):
        for p in (0, 1, 2):
            for alpha in (-0.25, -0.5, -1.0, -1.5):
                expect = math.gamma(p + 1.0) / math.gamma(p + 1.0 - alpha)
                errs = [abs(apply_scheme(
                    scheme, GridFunction(nodes(n)**p),
                    alpha).values[-1] - expect) for n in (64, 128)]
                if errs[1] > errs[0] * 1.05 + 1e-12:
                    failures.append(f"monomial {scheme} p={p} a={alpha}")

    # semigroup convergence under step halving
    gaps = []
    for n in (100, 200):
        f = GridFunction(nodes(n)**2)
        twice = apply_scheme("abm", apply_scheme("abm", f, -0.5), -0.5)
        once = apply_scheme("abm", f, -1.0)
        gaps.append(abs(twice.values[-1] - once.values[-1]))
    if not gaps[1] < gaps[0]:
        failures.append("semigroup gap did not shrink")

    # coefficient recursion against the gamma formula
    for alpha in np.linspace(-2.0, -0.1, 8):
        w = gl_coefficients(float(alpha), 51)
        worst = max(abs(w[j] - direct_gl_weight(float(alpha), j))
                    / max(abs(w[j]), 1e-300) for j in range(51))
        if worst > 1e-10:
            failures.append(f"coefficients alpha={alpha:.2f}")

    # memory truncation monotonicity
    f = GridFunction(np.ones_like(nodes(1000)))
    full = apply_scheme("gl", f, -0.5)
    last = np.inf
    for window in (0.2, 0.4, 0.6, 0.8, 1.0):
        trunc = apply_scheme("gl", f, -0.5, window=window)
        gap = float(np.max(np.abs(trunc.values - full.values)))
        if gap > last:
            failures.append(f"truncation window={window}")
        last = gap

    # brute-force quadrature oracle against the closed forms
    if abs(simpson_double(gauss_forcing, 1.0, 1e-6)
           - float(gauss_second_integral(1.0))) > 1e-9:
        failures.append("gaussian quadrature oracle")
    if abs(simpson_double(lambda t: -t * (1 - np.sin(100 * t) ** 2), 1.0, 1e-6)
           - float(oscillatory_second_integral(1.0))) > 1e-9:
        failures.append("oscillatory quadrature oracle")

    elapsed = time.perf_counter() - t0
    ok = _line("6 (operator property suite)", not failures,
               f"{len(failures)} failures {failures or ''}")
    _timing("6", "elapsed", elapsed)
    assert ok
    assert elapsed < 30.0


def test_criterion_7_structural_suite(tmp_path):
    failures = []

    # quadratic exactness of the reference solver
    from fracbvp.cases import CaseSpec
    quad = CaseSpec(id="quad", g=lambda x: 2.0 + 0.0 * x, k=None,
                    left_bc=dirichlet(0.0),
                    right_bc=dirichlet(1.0), default_scheme="gl",
                    default_partition=make_alpha_partition("regular", 10),
                    oracle=lambda x: x**2)
    if sup_error(fdm_linear(quad, 64), quad) > 1e-12:
        failures.append("quadratic exactness")

    # shooting boundary residuals on every case
    for case_id in (1, 2, 3, 4):
        case = get_case(case_id)
        solution, _ = solve_bvp(case, ComposedOperator(
            case.default_scheme, case.default_partition, case.default_n))
        left = abs(solution.values[0] - case.left_bc.value)
        v, bc = solution.values, case.right_bc
        end_slope = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * solution.h)
        right = abs(bc.slope * end_slope + bc.weight * v[-1] - bc.value)
        if left > 1e-9 or right > 1e-9:
            failures.append(f"bc residual case{case_id}")

    # Newton lands in one step when the rhs ignores u
    case1 = get_case(1)
    gap = float(np.max(np.abs(fdm_newton(case1, 100).values
                              - fdm_linear(case1, 100).values)))
    if gap > 1e-12:
        failures.append("newton one-step")
    if len(_newton_iterate(get_case(4), 50, 1e-10, 50)[1]) > 5:
        failures.append("newton step count")

    # CSV round-trip bit-exactness
    reports = run(RunConfig("1", method="both", n=50,
                            output_dir=tmp_path / "csv"))
    rows = read_results_csv(tmp_path / "csv" / "results.csv")
    for report, row in zip(reports, rows):
        if float(row["error"]) != report.sup_error:
            failures.append("csv error column")
        if float(row["time_s"]) != report.wall_time:
            failures.append("csv time column")

    # SVG determinism
    for sub in ("a", "b"):
        run(RunConfig("1", method="both", n=50, emit_trace=True,
                      output_dir=tmp_path / sub))
    for name in ("case1_evolution.svg", "case1_comparison.svg"):
        if (tmp_path / "a" / name).read_bytes() \
                != (tmp_path / "b" / name).read_bytes():
            failures.append(f"svg determinism {name}")

    ok = _line("7 (structural suite)", not failures,
               f"{len(failures)} failures {failures or ''}")
    assert ok
