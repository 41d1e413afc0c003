import numpy as np
import pytest

import fracbvp.bench as bench_mod
from fracbvp import cli
from fracbvp import (AlphaPartition, CaseSpec, ComposedOperator, GridFunction,
                     IfoiDivergenceError, IvpProblem, RunConfig,
                     apply_scheme, compose_check, dirichlet, fdm_linear,
                     get_case, ifoi_solve_ivp, make_alpha_partition,
                     make_ivp_solver, run_quiet, solve_bvp)
from fracbvp.cases import gauss_forcing
from fracbvp.fracops import stage_kernels
from fracbvp.ifoi import COMPOSED_CACHE_SIZE, _composed_sequence, staged

from oracles import rk4_solve_ivp, simpson_double, total_variation


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def test_regular_partition_of_ten():
    p = make_alpha_partition("regular", 10)
    assert p.stage_orders == pytest.approx([-0.2] * 10)
    assert p.cumulative == pytest.approx([0.0, 0.2, 0.4, 0.6, 0.8, 1.0,
                                          1.2, 1.4, 1.6, 1.8, 2.0])
    assert p.cumulative[-1] == 2.0


def test_quadratic_partition_of_five():
    p = make_alpha_partition("quadratic", 5)
    assert p.cumulative[1:] == pytest.approx([0.08, 0.32, 0.72, 1.28, 2.0])


def test_single_stage_partition():
    p = make_alpha_partition("regular", 1)
    assert p.stage_orders == (-2.0,)


def test_partition_rejects_zero_stages():
    with pytest.raises(ValueError):
        make_alpha_partition("regular", 0)


def test_partition_rejects_unknown_spacing():
    with pytest.raises(ValueError):
        make_alpha_partition("cubic", 4)


@pytest.mark.parametrize("spacing", ["regular", "quadratic"])
@pytest.mark.parametrize("m", [1, 2, 5, 10, 25])
def test_partition_invariants(spacing, m):
    p = make_alpha_partition(spacing, m)
    cum = p.cumulative
    assert cum[0] == 0.0 and cum[-1] == 2.0
    assert all(b > a for a, b in zip(cum, cum[1:]))
    assert all(-2.0 <= a < 0.0 for a in p.stage_orders)
    assert p.stage_count == m


# ---------------------------------------------------------------------------
# the staged IVP solver
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", ["gl", "rect", "abm"])
@pytest.mark.parametrize("spacing,m", [("regular", 10), ("quadratic", 5)])
def test_zero_forcing_gives_the_line(scheme, spacing, m):
    problem = IvpProblem(lambda x: 0.0 * x, None, u0=3.0, s0=-1.0)
    sol, trace = ifoi_solve_ivp(problem, ComposedOperator(
        scheme, make_alpha_partition(spacing, m), 50))
    assert np.allclose(sol.values, 3.0 - sol.nodes, atol=1e-13)
    assert trace.picard_iterations == 0


def test_gaussian_forcing_endpoint_vs_brute_force_quadrature():
    # Staged first-order series integration carries ~0.1 absolute error at
    # this resolution (the per-stage first-order constants add up to the
    # single order-2 constant); 0.15 is the honest ceiling.
    problem = IvpProblem(gauss_forcing, None, u0=-3.0, s0=0.0)
    sol, _ = ifoi_solve_ivp(problem, ComposedOperator(
        "gl", make_alpha_partition("regular", 10), 100))
    expect = -3.0 + simpson_double(gauss_forcing, 1.0)
    assert abs(sol.values[-1] - expect) <= 0.15


def test_u_dependent_forcing_vs_classical_integration():
    problem = IvpProblem(lambda x: 10.0 * x, lambda x: -2.0 * x, u0=3.0,
                         s0=0.0)
    sol, trace = ifoi_solve_ivp(problem, ComposedOperator(
        "abm", make_alpha_partition("regular", 10), 50))
    reference = rk4_solve_ivp(lambda x, u: 2.0 * x * (5.0 - u), 3.0, 0.0,
                              50, substeps=2000)
    assert np.max(np.abs(sol.values - reference)) <= 1e-1
    assert 1 <= trace.picard_iterations <= 200


def test_rejects_coarse_grid():
    with pytest.raises(ValueError, match="too coarse"):
        ComposedOperator("gl", make_alpha_partition("regular", 2), 4)
    with pytest.raises(ValueError, match="too coarse"):
        make_ivp_solver(make_alpha_partition("regular", 2), 7, "gl")


def _rect_case3_argv(n, out):
    return ["run", "--case", "3", "--method", "ifoi", "--scheme", "rect",
            "--alpha-spacing", "quadratic", "--m", "10", "--n", str(n),
            "--out", str(out)]


@pytest.mark.parametrize("n", [8, 9])
def test_rect_stages_that_compose_to_zero_are_refused(n, tmp_path, capsys):
    """Every ``rect`` stage is strictly lower triangular, so ten of them on
    ``n + 1 <= 10`` nodes compose to the zero matrix: the operator is
    refused, and the command line exits 2 naming ``n`` and ``m``."""
    partition = make_alpha_partition("quadratic", 10)
    with pytest.raises(ValueError, match=rf"m = 10 stages on n = {n} "):
        ComposedOperator("rect", partition, n)
    with pytest.raises(ValueError, match="zero operator"):
        make_ivp_solver(partition, n, "rect")
    assert cli.main(_rect_case3_argv(n, tmp_path)) == 2
    assert f"m = 10 stages on n = {n} " in capsys.readouterr().err


def test_rect_with_as_many_stages_as_steps_solves(tmp_path):
    assert run_quiet(RunConfig("case3", method="ifoi", n=10, scheme="rect",
                               spacing="quadratic", m=10))[0].status \
        == "converged"
    assert cli.main(_rect_case3_argv(10, tmp_path)) == 0


# ---------------------------------------------------------------------------
# anchoring and trace
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", ["gl", "rect", "abm"])
def test_left_value_is_anchored_exactly(scheme):
    problem = IvpProblem(gauss_forcing, None, u0=-3.0, s0=0.5)
    sol, _ = ifoi_solve_ivp(problem, ComposedOperator(
        scheme, make_alpha_partition("regular", 10), 64))
    assert sol.values[0] == -3.0


def test_initial_slope_anchors_first_order_scheme():
    errs = []
    for n in (100, 200):
        problem = IvpProblem(gauss_forcing, None, u0=-3.0, s0=0.5)
        sol, _ = ifoi_solve_ivp(problem, ComposedOperator(
            "gl", make_alpha_partition("regular", 10), n))
        v = sol.values
        slope = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * sol.h)
        errs.append(abs(slope - 0.5))
    assert errs[0] <= 2e-3
    assert errs[1] <= errs[0] / 1.5


def test_initial_slope_anchors_second_order_scheme():
    problem = IvpProblem(gauss_forcing, None, u0=-3.0, s0=0.5)
    sol, _ = ifoi_solve_ivp(problem, ComposedOperator(
        "abm", make_alpha_partition("regular", 10), 100))
    v = sol.values
    slope = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * sol.h)
    assert abs(slope - 0.5) <= 1e-4


def test_trace_orders_and_final_snapshot():
    """One snapshot per stage of the schedule over the trace's forcing; the
    last, lifted by ``u0``, is the returned solution to rounding."""
    problem = IvpProblem(gauss_forcing, None, u0=-3.0, s0=0.0)
    partition = make_alpha_partition("regular", 10)
    sol, trace = ifoi_solve_ivp(problem,
                                ComposedOperator("gl", partition, 100))
    stages = staged(GridFunction(sol.h, trace.forcing), partition, "gl")
    assert len(stages) == partition.stage_count
    gap = np.max(np.abs(-3.0 + stages[-1].values - sol.values))
    assert gap <= 1e-12 * np.max(np.abs(sol.values))


def test_stage_snapshots_smooth_monotonically():
    """Integration smooths: total variation never grows along the stages."""
    problem = IvpProblem(gauss_forcing, None, u0=-3.0, s0=0.0)
    partition = make_alpha_partition("regular", 10)
    sol, trace = ifoi_solve_ivp(problem, ComposedOperator("gl", partition,
                                                          100))
    forcing = GridFunction.sample(gauss_forcing, 100)
    tvs = [total_variation(g.values) for g in staged(
        GridFunction(sol.h, trace.forcing), partition, "gl")]
    assert tvs[0] <= total_variation(forcing.values)
    assert all(b <= a * (1.0 + 1e-9) for a, b in zip(tvs, tvs[1:]))


@pytest.mark.parametrize("scheme", ["gl", "rect", "abm"])
def test_doubling_stage_count_does_not_blow_up(scheme):
    """Refining the order schedule stays within the scheme's own error scale."""
    from fracbvp import get_case, sup_error, make_ivp_solver, solve_bvp
    case = get_case(1)
    errs = {}
    for m in (10, 20):
        solver = make_ivp_solver(make_alpha_partition("regular", m), 100, scheme)
        solution, _ = solve_bvp(case, solver)
        errs[m] = sup_error(solution, case)
    assert errs[20] <= 3.0 * errs[10] + 1e-12


# ---------------------------------------------------------------------------
# composition diagnostic
# ---------------------------------------------------------------------------

def test_compose_check_quadratic_abm():
    f = GridFunction.sample(lambda x: x**2, 100)
    gap = compose_check(f, make_alpha_partition("regular", 2), "abm")
    assert gap <= 1e-3


def test_compose_check_zero_function():
    f = GridFunction(0.01, np.zeros(101))
    assert compose_check(f, make_alpha_partition("regular", 4), "rect") == 0.0


def test_compose_check_single_stage_is_identity():
    f = GridFunction.sample(lambda x: np.ones_like(x), 100)
    assert compose_check(f, make_alpha_partition("regular", 1), "gl") == 0.0


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------

def test_divergence_guard_trips_on_explosive_feedback():
    problem = IvpProblem(None, lambda x: 1e7 + 0.0 * x, u0=1.0, s0=0.0)
    with pytest.raises(IfoiDivergenceError):
        ifoi_solve_ivp(problem, ComposedOperator(
            "abm", make_alpha_partition("regular", 10), 50))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_rhs_reports_divergence_not_a_type_error():
    # 1e306 * 1000 overflows on the first pass
    problem = IvpProblem(None, lambda x: 1e306 + 0.0 * x, u0=1000.0, s0=0.0)
    with pytest.raises(IfoiDivergenceError,
                       match="right-hand side overflowed"):
        ifoi_solve_ivp(problem, ComposedOperator(
            "abm", make_alpha_partition("regular", 10), 50))


def test_picard_cap_trips_on_non_settling_feedback(monkeypatch):
    # case 4's particular IVP settles in 7 passes here, so a cap of 3 trips
    import fracbvp.ifoi as ifoi_mod
    monkeypatch.setattr(ifoi_mod, "PICARD_MAX_ITER", 3)
    case = get_case(4)
    problem = IvpProblem(case.g, case.k, u0=3.0, s0=0.0)
    with pytest.raises(IfoiDivergenceError) as err:
        ifoi_solve_ivp(problem, ComposedOperator(
            "abm", make_alpha_partition("regular", 10), 50))
    assert err.value.iterations == 3
    assert err.value.last_update > 1e-10


def _cosh_case(lam):
    """``u'' = lam u``, ``u(0) = u(1) = 1``, whose solution
    ``cosh(sqrt(lam)(x - 1/2)) / cosh(sqrt(lam)/2)`` stays below 1 while
    the IVP values grow like ``exp(sqrt(lam))``."""
    r = np.sqrt(lam)
    return CaseSpec(id="cosh", g=np.zeros_like,
                    k=lambda x: np.full_like(x, lam),
                    left_bc=dirichlet(1.0), right_bc=dirichlet(1.0),
                    default_scheme="abm",
                    default_partition=make_alpha_partition("regular", 10),
                    oracle=lambda x: np.cosh(r * (x - 0.5)) / np.cosh(r / 2))


@pytest.mark.parametrize("lam,error", [(100.0, 6.89e-5), (300.0, 1.82e-4)])
def test_relative_picard_stop_solves_a_strong_coupling(lam, error):
    """At ``lam = 100`` the homogeneous IVP reaches 1.1e4, and FFT rounding
    holds its Picard update near 9e-10: an absolute ``1e-10`` stop never
    fires.  The stop relative to ``max|u|`` does, and the BVP is solved to
    its truncation error.  At ``lam = 300`` the error is set by rounding
    instead: the last bits of the ``abm`` column move it between 1.8e-4
    and 9.2e-4."""
    case = _cosh_case(lam)
    u, _ = solve_bvp(case, make_ivp_solver(case.default_partition, 400,
                                           "abm"))
    assert np.max(np.abs(u.values - case.oracle(u.nodes))) \
        == pytest.approx(error, rel=0.1)


def test_picard_still_diverges_past_the_relative_stop():
    """At ``lam = 350`` the update of ``u1`` stalls at about 9e-2, above
    ``1e-10`` of its size, so Picard does not settle."""
    case = _cosh_case(350.0)
    with pytest.raises(IfoiDivergenceError, match="did not settle"):
        solve_bvp(case, make_ivp_solver(case.default_partition, 400, "abm"))


def _constant(value):
    return lambda x: np.full_like(x, value)


@pytest.mark.parametrize("scheme", ["gl", "rect", "abm"])
def test_large_constant_forcing_is_solved_not_guarded(scheme):
    """``u'' = 1e8`` peaks at ``5e7``, under the ``1e8`` guard, and has no
    iteration that could diverge, so it is solved; linearity makes its
    error ``1e8`` times the scheme's own error on ``u'' = 1``.  The
    composed ``abm`` operator is exact on constants, so both of its errors
    are rounding: measured 3 and 6 ulp of the solution's peak."""
    operator = ComposedOperator(scheme, make_alpha_partition("quadratic", 10),
                                100)
    errors = []
    for value in (1.0, 1e8):
        solution, trace = ifoi_solve_ivp(
            IvpProblem(_constant(value), None, 0.0, 0.0), operator)
        assert np.all(np.isfinite(solution.values))
        assert trace.picard_iterations == 0
        errors.append(np.max(np.abs(solution.values
                                    - value * solution.nodes**2 / 2)))
    if scheme == "abm":
        assert errors[0] <= 8 * np.spacing(0.5)
        assert errors[1] <= 8 * np.spacing(0.5e8)
    else:
        assert errors[1] <= 1e8 * errors[0] * (1.0 + 1e-9)


def _constant_forcing_case(value):
    """``u'' = value``, ``u(0) = 0``, ``u(1) = value / 2``: ``value x^2/2``."""
    return CaseSpec(id="constant", g=_constant(value), k=None,
                    left_bc=dirichlet(0.0),
                    right_bc=dirichlet(value / 2),
                    default_scheme="abm",
                    default_partition=make_alpha_partition("quadratic", 10),
                    oracle=lambda x: value * x**2 / 2)


def _statuses(monkeypatch, case, scheme=None):
    monkeypatch.setattr(bench_mod, "get_case", lambda case_id: case)
    return [r.status for r in run_quiet(
        RunConfig(case.id, method="both", scheme=scheme))]


def test_fdm_and_ifoi_report_one_status_on_large_constant_forcing(
        monkeypatch):
    """Neither method iterates on a forcing-only problem, so neither holds
    it to the divergence guard, though its solution peaks at ``5e9``."""
    assert _statuses(monkeypatch, _constant_forcing_case(1e10)) \
        == ["converged", "converged"]


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("scheme", ["gl", "rect", "abm"])
def test_overflowing_forcing_only_solve_is_divergence(monkeypatch, scheme):
    """A finite forcing whose integrals overflow makes both methods report
    divergence, not a ``ValueError`` from a non-finite grid function."""
    case = _constant_forcing_case(1.7e308)
    assert _statuses(monkeypatch, case, scheme) == ["diverged", "diverged"]
    with pytest.raises(IfoiDivergenceError, match="overflowed"):
        ifoi_solve_ivp(IvpProblem(case.g, None, 0.0, 0.0), ComposedOperator(
            scheme, case.default_partition, 50))
    with pytest.raises(IfoiDivergenceError, match="overflowed"):
        fdm_linear(case, 50)


def test_no_solve_runs_the_staged_pass(monkeypatch):
    """Solves apply the composed operator only; no stage is convolved
    directly."""
    import fracbvp.ifoi as ifoi_mod

    def refuse(*args):
        raise AssertionError("a stage was convolved directly")

    monkeypatch.setattr(ifoi_mod, "apply_pair", refuse)
    for case_id in ("1", "2", "3", "4"):
        assert run_quiet(RunConfig(case_id, method="ifoi"))[0].status \
            == "converged"


# ---------------------------------------------------------------------------
# the composed operator against the staged composition
# ---------------------------------------------------------------------------

def _staged(values, partition, scheme, n):
    g = GridFunction(1.0 / n, values)
    for alpha in partition.stage_orders:
        g = apply_scheme(scheme, g, alpha)
    return g.values


# rect keeps its case's five stages: ten rect stages on n = 8 are refused
# one and two stages leave P (the product of stages 2..m) empty or a single
# kernel, in the closed gl form and in the stage-by-stage products alike;
# n = 1023 is the last grid served by a composition of 1024 terms and
# n = 1024 the first served by one of 2048; the two "custom" stage orders
# differ by a relative 4e-13, and composing both with the kernel of one of
# them moves the result by about 3e-12 of its size from n = 1000 on
NEAR_EQUAL_ORDERS = AlphaPartition("custom", (0.0, 1.0 - 2e-13, 2.0))
COMPOSED_ROWS = [
    (scheme, make_alpha_partition(spacing, m)) for scheme, spacing, m in [
        ("gl", "regular", 10), ("gl", "quadratic", 10),
        ("rect", "regular", 5), ("rect", "quadratic", 5),
        ("abm", "regular", 10), ("abm", "quadratic", 10),
        ("gl", "regular", 1), ("gl", "quadratic", 2),
        ("rect", "regular", 1), ("rect", "regular", 2),
        ("abm", "regular", 1), ("abm", "quadratic", 2),
    ]
] + [("rect", NEAR_EQUAL_ORDERS), ("abm", NEAR_EQUAL_ORDERS)]


# each id ends in "False", for "not truncated": the composed operator always
# keeps full memory
@pytest.mark.parametrize("n", [8, 50, 1000, 1023, 1024, 4000, 10_000])
@pytest.mark.parametrize("scheme,partition", COMPOSED_ROWS, ids=[
    f"{scheme}-{p.spacing}-{p.stage_count}-False"
    for scheme, p in COMPOSED_ROWS])
def test_composed_operator_matches_staged_composition(n, scheme, partition):
    values = np.random.default_rng(n).normal(size=n + 1)
    if scheme == "abm":
        # the composed abm operator is exact on constants and its stages are
        # not, so the two agree on data that vanishes at node 0
        x = np.arange(n + 1) / n
        reference = (_staged(values - values[0], partition, scheme, n)
                     + values[0] * x**2 / 2)
    else:
        reference = _staged(values, partition, scheme, n)
    composed = ComposedOperator(scheme, partition, n).apply(values)
    assert composed[0] == 0.0
    gap = np.max(np.abs(composed - reference))
    assert gap <= 1e-12 * np.max(np.abs(reference))


def _staged_reference_solver(partition, n, scheme):
    """The IVP solver as one direct convolution per stage and pass."""
    x = np.arange(n + 1) / n

    def solve(problem):
        ic = problem.u0 + problem.s0 * x

        def one_pass(u):
            rhs = np.broadcast_to(np.asarray(problem.rhs(x, u), dtype=float),
                                  x.shape)
            return ic + _staged(rhs, partition, scheme, n)

        if problem.k is None:
            return GridFunction(1.0 / n, one_pass(np.zeros(n + 1)))
        u = np.full(n + 1, float(problem.u0))
        for _ in range(200):
            unew = one_pass(u)
            update = np.max(np.abs(unew - u))
            u = unew
            if update < 1e-10:
                return GridFunction(1.0 / n, u)
        raise AssertionError("reference Picard did not settle")

    return solve


@pytest.mark.parametrize("n", [50, 400, 3000])
@pytest.mark.parametrize("case_id", ["1", "2", "3", "4"])
def test_case_solutions_match_staged_reference(case_id, n):
    case = get_case(case_id)
    partition, scheme = case.default_partition, case.default_scheme
    solution, _ = solve_bvp(case, make_ivp_solver(partition, n, scheme))
    reference, _ = solve_bvp(case, _staged_reference_solver(partition, n,
                                                            scheme))
    gap = np.max(np.abs(solution.values - reference.values))
    assert gap <= 1e-12 * np.max(np.abs(reference.values))


@pytest.mark.parametrize("case_id", ["1", "2", "3", "4"])
def test_each_length_class_is_composed_once(case_id, monkeypatch):
    """A process composes a schedule once per length class, the smallest
    power of two ``>= n + 1``: later solvers of the same grid, and of other
    grids in its class, read their operators off that composition, and the
    next class composes anew."""
    import fracbvp.ifoi as ifoi_mod
    calls = []

    def counted(scheme, alphas, *args, **kwargs):
        calls.append(len(alphas))
        return stage_kernels(scheme, alphas, *args, **kwargs)

    monkeypatch.setattr(ifoi_mod, "stage_kernels", counted)
    _composed_sequence.cache_clear()
    case = get_case(case_id)
    partition, scheme = case.default_partition, case.default_scheme
    # gl composes in closed form from one call of two kernels; the other
    # schemes build one kernel per stage, one call each
    per_build = [2] if scheme == "gl" else [1] * partition.stage_count
    for n in (50, 33, 63, 50):
        solve_bvp(case, make_ivp_solver(partition, n, scheme))
    assert calls == per_build
    solve_bvp(case, make_ivp_solver(partition, 64, scheme))
    assert calls == per_build * 2


@pytest.mark.parametrize("case_id", ["1", "2", "3", "4"])
def test_repeated_solve_is_bit_identical_whatever_ran_before(case_id):
    """A grid reads the composition of its own length class: one read off
    a longer composition differs in the last bits wherever the build
    multiplies spectra (cases 2-4)."""
    case = get_case(case_id)

    def solve(n):
        return solve_bvp(case, make_ivp_solver(
            case.default_partition, n, case.default_scheme))[0].values

    _composed_sequence.cache_clear()
    first = solve(40)
    solve(200)
    solve(9_000)
    again = solve(40)
    _composed_sequence.cache_clear()
    fresh = solve(40)
    assert np.array_equal(again, first) and np.array_equal(fresh, first)


def test_composition_memo_stays_within_its_bound():
    _composed_sequence.cache_clear()
    for scheme in ("gl", "rect", "abm"):
        for spacing in ("regular", "quadratic"):
            for n in (8, 16, 32, 64, 128, 256, 512):
                ComposedOperator(scheme, make_alpha_partition(spacing, 3),
                                 n).apply(np.ones(n + 1))
    info = _composed_sequence.cache_info()
    assert info.misses == 42 > COMPOSED_CACHE_SIZE
    assert info.currsize == info.maxsize == COMPOSED_CACHE_SIZE


def test_shared_operator_solves_like_a_fresh_one():
    partition = make_alpha_partition("regular", 10)
    shared = ComposedOperator("gl", partition, 50)
    coupled = IvpProblem(_constant(1.0), _constant(-1.0), u0=1.0, s0=0.0)
    forced = IvpProblem(_constant(1.0), None, u0=0.0, s0=0.0)
    for problem in (coupled, forced):
        solution, _ = ifoi_solve_ivp(problem, shared)
        fresh, _ = ifoi_solve_ivp(problem,
                                  ComposedOperator("gl", partition, 50))
        np.testing.assert_array_equal(solution.values, fresh.values)
