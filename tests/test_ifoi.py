import math

import numpy as np
import pytest

import fracbvp.bench as bench_mod
from fracbvp import cli
from fracbvp import (AlphaPartition, CaseSpec, ComposedOperator, GridFunction,
                     DivergenceError, IvpProblem, RunConfig,
                     SingularShootingError, apply_scheme,
                     dirichlet, fdm_linear,
                     get_case, gl_coefficients, ifoi_solve_ivp,
                     make_alpha_partition, robin, run_quiet, solve_bvp)
from fracbvp.cases import gauss_forcing
from fracbvp.fracops import stage_kernels
from fracbvp.grid import nodes
from fracbvp.ifoi import (COMPOSED_CACHE_SIZE, STAGED_TABLE_LENGTH,
                          TOTAL_ORDER, _prefix_pairs, staged)
from fracbvp.shooting import (SINGULAR_TOL, _end_slope, _shoot, left_value,
                              solve_right_row)

from oracles import (central_march, exp_integral, rk4_solve_ivp,
                     simpson_double, total_variation)


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


@pytest.mark.parametrize("cumulative, message", [
    ((0.0, 1.0, 1.5), "run from 0 to 2"),
    ((0.5, 1.0, 2.0), "run from 0 to 2"),
    ((0.0, 1.5, 1.0, 2.0), "increase strictly"),
    ((0.0, 1.0, 1.0, 2.0), "increase strictly"),
    ((0.0, math.nan, 2.0), r"lie in \[-2, 0\)"),
], ids=["short-end", "late-start", "decreasing", "repeated", "nan"])
def test_partition_refuses_a_malformed_schedule(cumulative, message):
    """A NaN passes the ends and the ordering check, since every comparison
    with it is false, and only the stage-order range refuses it."""
    with pytest.raises(ValueError, match=message):
        AlphaPartition("custom", cumulative)


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
        ComposedOperator("gl", make_alpha_partition("regular", 2), 7)


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
    with pytest.raises(ValueError, match=rf"m = 10 stages on n = {n} "
                                         "composes to the zero operator"):
        ComposedOperator("rect", partition, n)
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
    """One snapshot per stage of the schedule over the sampled forcing; the
    last, lifted by ``u0``, is the returned solution to rounding."""
    problem = IvpProblem(gauss_forcing, None, u0=-3.0, s0=0.0)
    partition = make_alpha_partition("regular", 10)
    sol, _ = ifoi_solve_ivp(problem, ComposedOperator("gl", partition, 100))
    stages = staged(GridFunction(gauss_forcing(nodes(100))), partition, "gl")
    assert len(stages) == partition.stage_count
    gap = np.max(np.abs(-3.0 + stages[-1] - sol.values))
    assert gap <= 1e-12 * np.max(np.abs(sol.values))


def test_stage_snapshots_smooth_monotonically():
    """Integration smooths: total variation never grows along the stages."""
    partition = make_alpha_partition("regular", 10)
    forcing = GridFunction(gauss_forcing(nodes(100)))
    tvs = [total_variation(row) for row in staged(forcing, partition, "gl")]
    assert tvs[0] <= total_variation(forcing.values)
    assert all(b <= a * (1.0 + 1e-9) for a, b in zip(tvs, tvs[1:]))


@pytest.mark.parametrize("scheme", ["gl", "rect", "abm"])
def test_doubling_stage_count_does_not_blow_up(scheme):
    """Refining the order schedule stays within the scheme's own error scale."""
    from fracbvp import sup_error
    case = get_case(1)
    errs = {}
    for m in (10, 20):
        solution, _ = solve_bvp(case, ComposedOperator(
            scheme, make_alpha_partition("regular", m), 100))
        errs[m] = sup_error(solution, case)
    assert errs[20] <= 3.0 * errs[10] + 1e-12


def _direct_snapshots(values, partition, scheme):
    """The partial integrals after each stage, one direct convolution with
    the stage's :func:`stage_kernels` pair per stage.  ``abm`` stages
    ``f - f(0)`` and adds the exact integral ``f(0) x**c / Gamma(c + 1)``
    of the constant, ``c`` the cumulative order."""
    n = values.size - 1
    x = np.arange(n + 1) / n
    f0 = values[0] if scheme == "abm" else 0.0
    values = values - f0
    out = []
    for c, alpha in zip(partition.cumulative[1:], partition.stage_orders):
        kernel, col0 = stage_kernels(scheme, alpha, n, 1.0 / n)
        values = np.convolve(kernel, values)[: n + 1] + col0 * values[0]
        values[0] = 0.0
        out.append(values + f0 * x**c / math.gamma(c + 1.0))
    return out


# random data starts away from 0, so the column terms act; the sine
# vanishes at node 0.  n = 40 and 200 read a table of stage prefixes,
# n = 4000 chains the stages
@pytest.mark.parametrize("data", ["random", "sine"])
@pytest.mark.parametrize("spacing", ["regular", "quadratic"])
@pytest.mark.parametrize("scheme", ["gl", "rect", "abm"])
@pytest.mark.parametrize("n", [40, 200, 4000])
def test_stage_snapshots_match_direct_convolution(n, scheme, spacing, data):
    x = np.arange(n + 1) / n
    values = (np.random.default_rng(n).normal(size=n + 1) if data == "random"
              else np.sin(7.0 * x))
    partition = make_alpha_partition(spacing, 10)
    snapshots = staged(GridFunction(values), partition, scheme)
    references = _direct_snapshots(values, partition, scheme)
    # one read-only row per stage, whether read off a table or chained
    assert snapshots.shape == (10, n + 1) and len(references) == 10
    assert not snapshots.flags.writeable
    for snapshot, reference in zip(snapshots, references):
        gap = np.max(np.abs(snapshot - reference))
        assert gap <= 1e-12 * np.max(np.abs(reference))


@pytest.mark.parametrize("spacing", ["regular", "quadratic"])
@pytest.mark.parametrize("n", [40, 200, 4000])
def test_abm_snapshots_are_exact_on_constants(n, spacing):
    """Every ``abm`` snapshot of ``f = 1`` is ``x**c_j / Gamma(c_j + 1)``
    to a few ulp, on a table of stage prefixes (n = 40, 200) and on
    chained stages (n = 4,000): measured at most 3.0 ulp of the row's
    largest value, where snapshots exact only on the last row were off by
    up to 2.8e-2 (regular) and 6.7e-2 (quadratic) of it."""
    partition = make_alpha_partition(spacing, 10)
    x = np.arange(n + 1) / n
    rows = staged(GridFunction(np.ones(n + 1)), partition, "abm")
    for c, row in zip(partition.cumulative[1:], rows):
        exact = x**c / math.gamma(c + 1.0)
        gap = np.max(np.abs(row - exact))
        assert gap <= 8 * np.finfo(float).eps * np.max(exact)


@pytest.mark.parametrize("spacing", ["regular", "quadratic"])
@pytest.mark.parametrize("pair", [(100, 200), (1600, 3200)])
def test_every_abm_snapshot_converges_at_order_one_or_more(pair, spacing):
    """Every ``abm`` snapshot of ``exp x`` converges to ``I**c_j exp``,
    ``c_j`` the cumulative order, at order 1 or more: measured lowest
    1.51 and 1.40 (regular) and 1.23 and 1.09 (quadratic) over
    n = 100 -> 200 and 1,600 -> 3,200, at stage 2 or 3.  Snapshots exact
    on constants only at the last row read ``min(c_j, 1 + mu_1)``, down
    to 0.40 and 0.08 at stage 2."""
    partition = make_alpha_partition(spacing, 10)
    errors = []
    for n in pair:
        x = np.arange(n + 1) / n
        rows = staged(GridFunction(np.exp(x)), partition, "abm")
        errors.append([np.max(np.abs(row - exp_integral(x, c))) for c, row
                       in zip(partition.cumulative[1:], rows)])
    orders = np.log2(np.divide(*errors))
    assert np.all(orders >= 1.0), orders


@pytest.mark.parametrize("scheme", ["gl", "rect", "abm"])
def test_stage_snapshots_do_not_depend_on_earlier_grids(scheme):
    """A grid's snapshots are the same bits whether its table of prefix
    compositions was built for it or for another grid of its length
    class, and whatever else was staged before."""
    partition = make_alpha_partition("quadratic", 10)

    def snapshots(n):
        f = GridFunction(np.cos(3.0 * np.arange(n + 1) / n) + 0.5)
        return staged(f, partition, scheme).tobytes()

    _prefix_pairs.cache_clear()
    fresh = snapshots(200)
    _prefix_pairs.cache_clear()
    for n in (150, 1000, 255, 40):
        snapshots(n)
    assert snapshots(200) == fresh


def test_only_short_grids_keep_a_table_of_stage_prefixes():
    """Grids of up to ``STAGED_TABLE_LENGTH`` nodes read their snapshots
    off a kept table; longer ones chain the stages and keep nothing."""
    partition = make_alpha_partition("regular", 10)
    _prefix_pairs.cache_clear()
    for n in (STAGED_TABLE_LENGTH - 1, STAGED_TABLE_LENGTH):
        staged(GridFunction(np.cos(nodes(n))), partition, "abm")
    assert _prefix_pairs.cache_info().currsize == 1


@pytest.mark.parametrize("length", [16, 32, 64, 128, 256, 1024, 16384])
@pytest.mark.parametrize("spacing", ["regular", "quadratic"])
@pytest.mark.parametrize("scheme", ["gl", "rect", "abm"])
def test_composed_pair_is_the_last_row_of_the_stage_table(
        scheme, spacing, length, monkeypatch):
    """The composed operator and the snapshot table are one chain of
    stages: the one-row build of a length class above
    ``STAGED_TABLE_LENGTH`` is the last row of the table that the class
    builds at or below it, kernel and column, bit for bit.  The bound is
    moved around each class, so short classes, which serve solves from
    their table, and the long ones of large grids are checked alike."""
    import fracbvp.ifoi as ifoi_mod
    partition = make_alpha_partition(spacing, 10)
    builds = []
    for bound in (length // 2, length):
        monkeypatch.setattr(ifoi_mod, "STAGED_TABLE_LENGTH", bound)
        _prefix_pairs.cache_clear()
        builds.append(_prefix_pairs(scheme, partition, length))
    _prefix_pairs.cache_clear()
    pair, table = builds
    assert pair.shape == (2, 1, length) and table.shape == (2, 10, length)
    assert pair[0, 0].tobytes() == table[0, -1].tobytes()
    assert pair[1, 0].tobytes() == table[1, -1].tobytes()


@pytest.mark.parametrize("scheme", ["gl", "rect", "abm"])
@pytest.mark.parametrize("n", [40, 200, 4000])
def test_leading_zeros_of_the_data_stay_exact_zeros(n, scheme):
    """Every stage matrix is lower triangular with a zero first row, so
    data with seven leading zeros gives seven exact zeros in every
    snapshot, on a table of stage prefixes (n = 40, 200) and on chained
    stages (n = 4,000) alike.  Keeping only node 0 exact leaves the FFT's
    rounding at nodes 1-6, up to 2.4e-16 on these data (measured)."""
    values = np.random.default_rng(n).random(n + 1)
    values[:7] = 0.0
    rows = staged(GridFunction(values), make_alpha_partition("regular", 10),
                  scheme)
    assert not rows[:, :7].any()


@pytest.mark.parametrize("scheme", ["gl", "rect", "abm"])
def test_long_grid_snapshots_hold_one_stage_pair_at_a_time(scheme):
    """Past ``STAGED_TABLE_LENGTH`` the stages chain with one stage's pair
    built at a time: at n = 20,000 on ten stages the snapshots peak below
    2.5 times the 1.6 MB of their own rows (measured 1.91 times, 3.06 MB;
    building all ten pairs at once peaked at 5.94 MB, 8.48 MB for
    ``abm``)."""
    import tracemalloc
    partition = make_alpha_partition("regular", 10)
    f = GridFunction(np.cos(nodes(20_000)))
    tracemalloc.start()
    try:
        rows = staged(f, partition, scheme)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * rows.nbytes


def test_staged_and_apply_scheme_convolve_by_fft_only(monkeypatch):
    """Neither the stage snapshots nor a single stage fall back to a direct
    convolution, which costs ``O(n^2)`` per stage."""
    def refuse(*args, **kwargs):
        raise AssertionError("np.convolve was called")

    monkeypatch.setattr(np, "convolve", refuse)
    # n = 100 reads a table of stage prefixes, n = 300 chains the stages
    for n in (100, 300):
        f = GridFunction(np.cos(nodes(n)))
        for scheme in ("gl", "rect", "abm"):
            staged(f, make_alpha_partition("regular", 10), scheme)
            apply_scheme(scheme, f, -0.5)


# ---------------------------------------------------------------------------
# composition diagnostic
# ---------------------------------------------------------------------------

def compose_check(f, partition, scheme):
    """Sup-norm gap between the staged composition and one order-2 pass: how
    well the discrete operators inherit the semigroup law; it vanishes
    identically for a single-stage partition."""
    direct = apply_scheme(scheme, f, -TOTAL_ORDER)
    last = staged(f, partition, scheme)[-1]
    return float(np.max(np.abs(last - direct.values)))


def test_compose_check_quadratic_abm():
    f = GridFunction(nodes(100)**2)
    gap = compose_check(f, make_alpha_partition("regular", 2), "abm")
    assert gap <= 1e-3


def test_compose_check_zero_function():
    f = GridFunction(np.zeros(101))
    assert compose_check(f, make_alpha_partition("regular", 4), "rect") == 0.0


def test_compose_check_single_stage_is_identity():
    f = GridFunction(np.ones_like(nodes(100)))
    assert compose_check(f, make_alpha_partition("regular", 1), "gl") == 0.0


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------

def test_divergence_guard_trips_on_explosive_feedback():
    problem = IvpProblem(None, lambda x: 1e7 + 0.0 * x, u0=1.0, s0=0.0)
    with pytest.raises(DivergenceError):
        ifoi_solve_ivp(problem, ComposedOperator(
            "abm", make_alpha_partition("regular", 10), 50))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_rhs_reports_divergence_not_a_type_error():
    # 1e306 * 1000 overflows on the first pass
    problem = IvpProblem(None, lambda x: 1e306 + 0.0 * x, u0=1000.0, s0=0.0)
    with pytest.raises(DivergenceError,
                       match="right-hand side overflowed"):
        ifoi_solve_ivp(problem, ComposedOperator(
            "abm", make_alpha_partition("regular", 10), 50))


def test_picard_cap_trips_on_non_settling_feedback(monkeypatch):
    # case 4's particular IVP settles in 7 passes here, so a cap of 3 trips
    import fracbvp.ifoi as ifoi_mod
    monkeypatch.setattr(ifoi_mod, "PICARD_MAX_ITER", 3)
    case = get_case(4)
    problem = IvpProblem(case.g, case.k, u0=3.0, s0=0.0)
    with pytest.raises(DivergenceError) as err:
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


def _cosh_error(lam):
    """Sup error of the two-IVP ``abm`` solve of :func:`_cosh_case` at
    n = 400; the solve returns only once Picard has settled on both
    IVPs."""
    case = _cosh_case(lam)
    u, _ = _shoot(case, ComposedOperator("abm", case.default_partition, 400))
    return np.max(np.abs(u.values - case.oracle(u.nodes)))


def _cosh_particular(lam, n):
    """The particular IVP of :func:`_cosh_case`, the one that ends a
    two-IVP solve, solved by Picard iteration on ``n`` intervals."""
    case = _cosh_case(lam)
    return ifoi_solve_ivp(IvpProblem(case.g, case.k, 1.0, 0.0),
                          ComposedOperator("abm", case.default_partition, n))


@pytest.mark.parametrize("lam,error", [(100.0, 6.89e-5)])
def test_relative_picard_stop_solves_a_strong_coupling(lam, error):
    """At ``lam = 100`` the homogeneous IVP reaches 1.1e4, and FFT rounding
    holds its Picard update near 9e-10: an absolute ``1e-10`` stop never
    fires.  The stop relative to ``max|u|`` does, and the BVP is solved to
    its truncation error."""
    assert _cosh_error(lam) == pytest.approx(error, rel=0.1)


def test_relative_picard_stop_converges_where_rounding_sets_the_error():
    """At ``lam = 300`` the IVP ``u1`` grows to about 1.7e7, so the relative
    stop accepts updates near 1.7e-3, and the error is set by rounding, not
    truncation: three roundings of the same ``abm`` column (blocked, plain
    and ``longdouble`` running sums) gave 1.8e-4 to 9.2e-4.  So the solve
    is held to converging within that decade, not to one figure.  Under an
    absolute ``1e-10`` stop it reads ``diverged``."""
    assert 1e-4 <= _cosh_error(300.0) <= 1e-3


def test_picard_still_diverges_past_the_relative_stop():
    """At ``lam = 350`` the update of ``u1`` stalls at about 9e-2, above
    ``1e-10`` of its size, so Picard does not settle."""
    with pytest.raises(DivergenceError, match="did not settle"):
        _cosh_particular(350.0, 400)


@pytest.mark.parametrize("n", [400, 4000])
def test_growing_iterate_ends_at_the_divergence_guard(n):
    """At ``lam = 400`` the particular IVP ``u1`` grows like
    ``cosh(20 x)``, about 2.4e8 at ``x = 1``: Picard iteration 9 passes the
    ``1e8`` guard (measured peaks 1.038e8 at n = 400 and 1.032e8 at
    n = 4,000).  Under a ``1e12`` guard the same solve runs on to end
    "did not settle", which the status ``diverged`` cannot tell apart, so
    the message is what fixes the guard."""
    with pytest.raises(DivergenceError,
                       match="solution exceeded the divergence guard"):
        _cosh_particular(400.0, n)


def _cos_case(lam):
    """``u'' = -lam u``, ``u(0) = 1``, ``u(1) = cos(sqrt(lam)) +
    sin(sqrt(lam))``, whose solution ``cos(sqrt(lam) x) + sin(sqrt(lam)
    x)`` never exceeds ``sqrt(2)``."""
    r = np.sqrt(lam)
    return CaseSpec(id="cos", g=np.zeros_like,
                    k=lambda x: np.full_like(x, -lam),
                    left_bc=dirichlet(1.0),
                    right_bc=dirichlet(np.cos(r) + np.sin(r)),
                    default_scheme="abm",
                    default_partition=make_alpha_partition("regular", 10),
                    oracle=lambda x: np.cos(r * x) + np.sin(r * x))


@pytest.mark.parametrize("case", [
    _cosh_case(1600.0), _cosh_case(1e4), _cos_case(400.0), _cos_case(900.0)],
    ids=["cosh-1600", "cosh-1e4", "cos-400", "cos-900"])
def test_strong_couplings_converge_at_second_order(monkeypatch, case):
    """A coupled BVP is one system on FDM's sweep, so couplings whose IVPs
    grow past the guard (``cosh``) or make Picard diverge (``cos``) read
    ``converged``, at ``abm``'s second order over n = 400 -> 1,600 ->
    6,400: measured 1.90/1.93 (``cosh``, 1,600, errors 9.56e-4, 6.84e-5
    and 4.69e-6), 1.88/1.91 (``cosh``, 1e4), 1.95/1.97 (``cos``, 400) and
    1.93/1.96 (``cos``, 900)."""
    monkeypatch.setattr(bench_mod, "get_case", lambda case_id: case)
    errors = []
    for n in (400, 1600, 6400):
        [report] = run_quiet(RunConfig(case.id, method="ifoi", n=n))
        assert report.status == "converged"
        errors.append(report.sup_error)
    orders = np.log2(np.divide(errors[:-1], errors[1:])) / 2.0
    assert all(1.85 <= p <= 2.05 for p in orders), orders


@pytest.mark.parametrize("n", [40, 200, 4001])
@pytest.mark.parametrize("scheme", ["abm", "gl", "rect"])
def test_coupled_solve_is_the_two_ivp_solution(scheme, n):
    """The correction on the sweep solves the discrete system of the two
    IVPs plus shooting: case 4 agrees with it to 1e-12 relative (measured
    at most 2.0e-14 for ``abm``, 2.8e-13 for ``gl`` and 7.6e-13 for
    ``rect``) and comes back with one trace, its pass count."""
    case = get_case(4)
    operator = ComposedOperator(scheme, case.default_partition, n)
    got, [trace] = solve_bvp(case, operator)
    want, _ = _shoot(case, operator)
    assert 1 <= trace.picard_iterations <= 10
    gap = np.max(np.abs(got.values - want.values))
    assert gap <= 1e-12 * np.max(np.abs(want.values))


def test_a_stalled_correction_hands_the_solve_to_two_ivps(monkeypatch):
    """Within a relative 1e-6 of the first Dirichlet eigenvalue of
    ``u'' = -lam u`` on ``abm``'s rows the correction's second update is
    more than half its first, so the solve goes, after those two passes,
    to the two IVPs, whose result it returns unchanged."""
    operator = ComposedOperator("abm", make_alpha_partition("regular", 10),
                                100)
    lam, _ = _bisect_eigenvalue(
        5.0, 15.0, lambda lam: _homogeneous_end(lam, operator))
    case = CaseSpec(id="near-eigen", g=None, k=_constant(-lam * (1 + 1e-6)),
                    left_bc=dirichlet(1.0), right_bc=dirichlet(1.0),
                    default_scheme="abm",
                    default_partition=operator.partition,
                    oracle=np.zeros_like)
    applies = []
    remainder = ComposedOperator.apply_remainder
    monkeypatch.setattr(ComposedOperator, "apply_remainder",
                        lambda self, values: applies.append(1)
                        or remainder(self, values))
    got, traces = solve_bvp(case, operator)
    want, _ = _shoot(case, operator)
    assert len(applies) == 2 and len(traces) == 2
    assert np.array_equal(got.values, want.values)


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
    with pytest.raises(DivergenceError, match="overflowed"):
        ifoi_solve_ivp(IvpProblem(case.g, None, 0.0, 0.0), ComposedOperator(
            scheme, case.default_partition, 50))
    with pytest.raises(DivergenceError, match="overflowed"):
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
# Sturm-Liouville eigenvalues as the oracle of ``singular``
# ---------------------------------------------------------------------------

def _homogeneous_end(lam, operator):
    """``u2(1)`` of ``u'' = -lam u`` from ``u(0) = 0``, ``u'(0) = 1``."""
    problem = IvpProblem(None, _constant(-lam), 0.0, 1.0)
    return float(ifoi_solve_ivp(problem, operator)[0].values[-1])


def _bisect_eigenvalue(lo, hi, end):
    """The ``lam`` in ``[lo, hi]`` where ``end(lam)`` changes sign, bisected
    until the bracket is two neighbouring doubles: the end of it with the
    smaller ``|end(lam)|``, and that value."""
    f_lo, f_hi = end(lo), end(hi)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        f_mid = end(mid)
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return min((lo, f_lo), (hi, f_hi), key=lambda end: abs(end[1]))


@pytest.mark.parametrize("scheme,band", [("gl", (1.95, 2.05)),
                                         ("abm", (1.85, 2.05))])
def test_dirichlet_eigenvalues_converge_and_read_singular(scheme, band):
    """The first two eigenvalues ``(k pi)^2`` of ``u'' = -lam u``,
    ``u(0) = u(1) = 0``, located on ten regular stages by bisection on the
    homogeneous IVP's ``u2(1)``, converge at second order over
    n = 100 -> 800 (measured 2.000-2.002 for ``gl`` and 1.905-1.941 for
    ``abm``).  At the located ``lam``, ``|u2(1)|`` is at most 1.1e-14, so
    shooting cannot meet ``u(1) = 1`` and the solve ends as singular.
    ``rect`` is left out: its orders are erratic (3.35, 1.51, 0.06 for
    k = 1 on ten stages; 1.01, 0.35, 1.00 on its case's five)."""
    partition = make_alpha_partition("regular", 10)
    for k, bracket in [(1, (5.0, 15.0)), (2, (30.0, 50.0))]:
        errors = []
        for n in (100, 200, 400, 800):
            operator = ComposedOperator(scheme, partition, n)
            lam, end = _bisect_eigenvalue(
                *bracket, lambda lam: _homogeneous_end(lam, operator))
            assert abs(end) <= 1e-13
            case = CaseSpec(id="eigen", g=None, k=_constant(-lam),
                            left_bc=dirichlet(1.0), right_bc=dirichlet(1.0),
                            default_scheme=scheme, default_partition=partition,
                            oracle=np.zeros_like)
            with pytest.raises(SingularShootingError):
                solve_bvp(case, operator)
            errors.append(abs(lam - (k * np.pi) ** 2))
        orders = np.log2(np.divide(errors[:-1], errors[1:]))
        assert all(band[0] <= p <= band[1] for p in orders), (k, orders)


# s cos s + 2 sin s = 0 with lam = s^2, to 14 digits (mpmath, 30 digits)
ROBIN_EIGENVALUES = (5.2391993001955, 25.877417347619)
ROBIN_BRACKETS = ((1.0, 15.0), (15.0, 40.0))


def _robin_case(lam):
    """``u'' = -lam u``, ``u(0) = 0``, ``u'(1) + 2 u(1) = 0`` on ten
    regular stages."""
    return CaseSpec(id="robin-eigen", g=None, k=_constant(-lam),
                    left_bc=dirichlet(0.0), right_bc=robin(2.0, 0.0),
                    default_scheme="abm",
                    default_partition=make_alpha_partition("regular", 10),
                    oracle=np.zeros_like)


def _robin_right_row(method, lam, n):
    """The coefficient of ``c`` in ``u'(1) + 2 u(1) = 0`` relative to the
    norms of the row ``(1, 2)`` and of ``(u2(1), u2'(1))``, signed."""
    spec = _robin_case(lam)
    if method == "fdm":
        u2 = central_march(0.0, spec.k(np.arange(n + 1) / n), 0.0, 1.0, n)
    else:
        u2 = ifoi_solve_ivp(IvpProblem(None, spec.k, 0.0, 1.0),
                            ComposedOperator(method, spec.default_partition,
                                             n))[0].values
    value, slope = u2[-1], _end_slope(u2, 1.0 / n)
    return (slope + 2.0 * value) / (math.hypot(1.0, 2.0)
                                    * math.hypot(value, slope))


def _robin_solve(method, lam, n):
    """The solution of :func:`_robin_case` at ``lam``, as a grid."""
    spec = _robin_case(lam)
    if method == "fdm":
        return fdm_linear(spec, n)
    return solve_bvp(spec, ComposedOperator(method, spec.default_partition,
                                            n))[0]


@pytest.mark.parametrize("method,band", [("fdm", (1.95, 2.05)),
                                         ("abm", (1.85, 2.05)),
                                         ("gl", (0.8, 1.1))])
def test_robin_eigenvalues_converge_and_read_singular(method, band):
    """The first two eigenvalues of ``u'' = -lam u``, ``u(0) = 0``,
    ``u'(1) + 2 u(1) = 0``, located by bisection on the shooting
    denominator ``u2'(1) + 2 u2(1)`` (FDM through the step-by-step
    central march of the oracles, IFOI on ten regular stages), converge
    over n = 100 -> 800 at measured orders 1.975-1.998 (FDM), 1.896-1.930
    (``abm``) and 0.838-0.989 (``gl``).  ``gl`` is first order here though
    second order under Dirichlet ends: the Robin end slope carries its
    first-order error.  At the located ``lam`` the denominator relative
    to ``|(1, 2)| |(u2(1), u2'(1))|``, the number that
    ``shooting.solve_right_row`` holds to ``SINGULAR_TOL``, is at most
    ``SINGULAR_TOL`` (measured at most 1.8e-14 for FDM, 3.0e-13 for
    ``abm`` and 1.4e-13 for ``gl``), so the solve ends as singular:
    ``solve_bvp`` for IFOI, ``fdm_linear`` for FDM.  A dense
    determinant rounds ``-2 - h^2 lam`` and places ``lam`` only to about
    ``1e-16 / h^2``, too coarse for the singular check at n = 800."""
    for exact, bracket in zip(ROBIN_EIGENVALUES, ROBIN_BRACKETS):
        errors = []
        for n in (100, 200, 400, 800):
            lam, end = _bisect_eigenvalue(
                *bracket, lambda lam: _robin_right_row(method, lam, n))
            assert abs(end) <= SINGULAR_TOL
            with pytest.raises(SingularShootingError):
                _robin_solve(method, lam, n)
            errors.append(abs(lam - exact))
        orders = np.log2(np.divide(errors[:-1], errors[1:]))
        assert all(band[0] <= p <= band[1] for p in orders), (exact, orders)


@pytest.mark.parametrize("method", ["fdm", "abm", "gl"])
@pytest.mark.parametrize("n", [100, 800])
def test_detuned_robin_eigenvalues_read_converged(method, n):
    """A located Robin eigenvalue detuned by a relative 3e-11 moves the
    right row's ratio to 3.3e-11-9.6e-11 (measured, both eigenvalues,
    every method, n = 100 and 800), inside the band from the located
    ``lam`` (at most 3.0e-13) to 1e-9: a solve there is well posed and
    reads ``converged``.  A ``SINGULAR_TOL`` of 1e-9 would call it
    singular."""
    for bracket in ROBIN_BRACKETS:
        lam, _ = _bisect_eigenvalue(
            *bracket, lambda lam: _robin_right_row(method, lam, n))
        detuned = lam * (1.0 + 3e-11)
        assert 1e-12 < abs(_robin_right_row(method, detuned, n)) < 1e-9
        assert np.all(np.isfinite(_robin_solve(method, detuned, n).values))


# ---------------------------------------------------------------------------
# the composed operator against the staged composition
# ---------------------------------------------------------------------------

def _staged(values, partition, scheme):
    return _direct_snapshots(values, partition, scheme)[-1]


# rect keeps its case's five stages: ten rect stages on n = 8 are refused
# one and two stages make the chain of stages a single kernel or a single
# product, in the closed gl form and in the stage-by-stage products alike;
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
        reference = (_staged(values - values[0], partition, scheme)
                     + values[0] * x**2 / 2)
    else:
        reference = _staged(values, partition, scheme)
    composed = ComposedOperator(scheme, partition, n).apply(values)
    assert composed[0] == 0.0
    gap = np.max(np.abs(composed - reference))
    assert gap <= 1e-12 * np.max(np.abs(reference))


def _staged_reference(case, partition, n, scheme):
    """The shooting solve of ``case`` with each IVP solved by one direct
    convolution per stage and pass, and ``t`` from ``solve_right_row``."""
    x = np.arange(n + 1) / n

    def solve(problem):
        ic = problem.u0 + problem.s0 * x

        def one_pass(u):
            rhs = np.broadcast_to(np.asarray(problem.rhs(x, u), dtype=float),
                                  x.shape)
            return ic + _staged(rhs, partition, scheme)

        if problem.k is None:
            return one_pass(np.zeros(n + 1))
        u = np.full(n + 1, float(problem.u0))
        for _ in range(200):
            unew = one_pass(u)
            update = np.max(np.abs(unew - u))
            u = unew
            if update < 1e-10:
                return u
        raise AssertionError("reference Picard did not settle")

    u1 = solve(IvpProblem(case.g, case.k, left_value(case), 0.0))
    u2 = x if case.k is None else solve(IvpProblem(None, case.k, 0.0, 1.0))
    t = solve_right_row(case.right_bc, (u1[-1], u2[-1]),
                        (_end_slope(u1, 1.0 / n), _end_slope(u2, 1.0 / n)))
    return u1 + t * u2


@pytest.mark.parametrize("n", [50, 400, 3000])
@pytest.mark.parametrize("case_id", ["1", "2", "3", "4"])
def test_case_solutions_match_staged_reference(case_id, n):
    case = get_case(case_id)
    partition, scheme = case.default_partition, case.default_scheme
    solution, _ = solve_bvp(case, ComposedOperator(scheme, partition, n))
    reference = _staged_reference(case, partition, n, scheme)
    gap = np.max(np.abs(solution.values - reference))
    assert gap <= 1e-12 * np.max(np.abs(reference))


@pytest.mark.parametrize("case_id", ["1", "2", "3", "4"])
def test_each_length_class_is_composed_once(case_id):
    """A process composes a schedule once per length class, the smallest
    power of two ``>= n + 1``: later solves of the same grid, and of other
    grids in its class, read their operators off that composition, and the
    next class composes anew."""
    _prefix_pairs.cache_clear()
    case = get_case(case_id)
    partition, scheme = case.default_partition, case.default_scheme
    for n in (50, 33, 63, 50):
        solve_bvp(case, ComposedOperator(scheme, partition, n))
    assert _prefix_pairs.cache_info().misses == 1
    solve_bvp(case, ComposedOperator(scheme, partition, 64))
    assert _prefix_pairs.cache_info().misses == 2


def test_a_repeated_traced_run_builds_nothing(tmp_path):
    """A traced run of both methods builds one table of stage prefixes,
    whose last row is the composition; the same run again reads it off
    the cache."""
    argv = ["run", "--case", "4", "--n", "200", "--method", "both",
            "--trace", "--out", str(tmp_path)]
    _prefix_pairs.cache_clear()
    assert cli.main(argv) == 0
    assert _prefix_pairs.cache_info().misses == 1
    assert cli.main(argv) == 0
    assert _prefix_pairs.cache_info().misses == 1


@pytest.mark.parametrize("case_id", ["1", "2", "3", "4"])
def test_repeated_solve_is_bit_identical_whatever_ran_before(case_id):
    """A grid reads the composition of its own length class: one read off
    a longer composition differs in the last bits wherever the build
    multiplies spectra (cases 2-4)."""
    case = get_case(case_id)

    def solve(n):
        return solve_bvp(case, ComposedOperator(
            case.default_scheme, case.default_partition, n))[0].values

    _prefix_pairs.cache_clear()
    first = solve(40)
    solve(200)
    solve(9_000)
    again = solve(40)
    _prefix_pairs.cache_clear()
    fresh = solve(40)
    assert np.array_equal(again, first) and np.array_equal(fresh, first)


def test_composition_memo_stays_within_its_bound():
    _prefix_pairs.cache_clear()
    for scheme in ("gl", "rect", "abm"):
        for spacing in ("regular", "quadratic"):
            for n in (8, 16, 32, 64, 128, 256, 512):
                ComposedOperator(scheme, make_alpha_partition(spacing, 3),
                                 n).apply(np.ones(n + 1))
    info = _prefix_pairs.cache_info()
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


# ---------------------------------------------------------------------------
# one account of the composed operators: FDM's double sum J, the kernel
# j + 1 of (1 - z)^-2, plus a remainder set by the scheme
# ---------------------------------------------------------------------------

#: the composed pair of a length class at h = 1, built without the process's
#: cache, which these long classes would otherwise fill
_composed_pair = _prefix_pairs.__wrapped__


@pytest.mark.parametrize("m", [1, 5, 10])
@pytest.mark.parametrize("spacing", ["regular", "quadratic"])
def test_gl_composed_kernel_is_the_double_sum(spacing, m):
    """GL weights are the coefficients of ``(1 - z)^-mu`` (Lubich 1986),
    so any schedule of total order 2 composes to ``(1 - z)^-2``, whose
    coefficients are ``j + 1``: the composed ``gl`` kernel is FDM's double
    sum read one node ahead, to 1e-13 relative in every length class up to
    2^17 (measured at most 3.7e-14)."""
    partition = make_alpha_partition(spacing, m)
    for length in (1 << e for e in range(4, 18)):
        kernel = _composed_pair("gl", partition, length)[0, -1]
        j = np.arange(length, dtype=float)
        assert np.max(np.abs(kernel - (j + 1.0)) / (j + 1.0)) <= 1e-13


@pytest.mark.parametrize("m", [5, 10])
@pytest.mark.parametrize("spacing", ["regular", "quadratic"])
def test_rect_composed_kernel_lags_by_half_the_stage_count(spacing, m):
    """Each ``rect`` stage freezes the integrand at the left of its cell,
    so ``m`` of them lag: ``P_j - j`` rises toward ``-m/2`` from below
    over j = 10^2 ... 10^5 (regular-10 read -6.32, -5.82, -5.52 and -5.33;
    the gap to ``-m/2`` at 10^5 is at most 0.52 of that at 10^2), which is
    why ``rect``'s error grows with the stage count."""
    kernel = _composed_pair("rect", make_alpha_partition(spacing, m),
                            1 << 17)[0, -1]
    j = np.array([10**2, 10**3, 10**4, 10**5])
    gap = kernel[j] - j + m / 2.0
    assert np.all(gap < 0.0) and np.all(np.diff(gap) > 0.0)
    assert gap[0] > -0.2 * m and gap[-1] >= 0.6 * gap[0]


@pytest.mark.parametrize("spacing", ["regular", "quadratic"])
def test_rect_case2_error_grows_with_the_stage_count(spacing):
    """The lag of ``m/2`` nodes shows in a solve: case 2 (``rect``) at
    n = 1,000 errs more with each stage added, by about ``m h`` times a
    factor that rises slowly with ``m`` (measured 1.56-2.29 on regular
    and 1.56-2.37 on quadratic schedules of 1, 2, 5, 10 and 20 stages)."""
    n, stages = 1000, np.array([1, 2, 5, 10, 20])
    errors = np.array([
        run_quiet(RunConfig("case2", method="ifoi", n=n, m=m,
                            spacing=spacing))[0].sup_error for m in stages])
    assert np.all(np.diff(errors) > 0.0)
    factor = errors / (stages / n)
    assert 1.5 <= factor.min() and factor.max() <= 2.5, factor


@pytest.mark.parametrize("m,band", [(10, (0.0853, 0.0855)),
                                    (5, (0.0363, 0.0366))])
def test_abm_composed_remainder_decays_past_the_first_stage_order(m, band):
    """On a regular schedule the ``abm`` remainder ``delta_j = P_j - j``
    decays like ``j^-(1 + mu_1)``: ``delta_j j^(1 + mu_1)`` stays within
    a band over j = 10^2 ... 10^4 (measured 0.08535-0.08545 on regular-10,
    0.03639-0.03652 on regular-5), so ``sum |delta_j|`` is bounded: each
    doubling of the length adds ``2^-mu_1`` times what the one before it
    added, within 2% (the sum read 0.81-0.85 on regular-10 and 0.49-0.50
    on regular-5 over 2^10 ... 2^14 terms).  That is why ``abm`` stays
    second order (Diethelm, Ford & Freed 2002)."""
    partition = make_alpha_partition("regular", m)
    mu_1 = partition.cumulative[1]
    sums = []
    for length in (1 << e for e in range(10, 15)):
        delta = _composed_pair("abm", partition, length)[0, -1] \
            - np.arange(length)
        sums.append(np.sum(np.abs(delta)))
    j = np.arange(10**2, 10**4 + 1)
    scaled = delta[j] * j ** (1.0 + mu_1)
    assert band[0] <= scaled.min() and scaled.max() <= band[1]
    added = np.diff(sums)
    assert np.all(added > 0.0)
    ratios = added[1:] / added[:-1]
    assert np.all(np.abs(ratios / 2.0**-mu_1 - 1.0) <= 0.02), ratios


@pytest.mark.parametrize("n", [200, 1000, 4000])
def test_gl_solve_satisfies_fdm_rows_read_one_node_ahead(n):
    """With the ``gl`` kernel ``j + 1`` and the column ``V``, minus the GL
    kernel of order ``2 - mu_1`` at ``h^2``, an IFOI-``gl`` solve of case 1
    satisfies ``u[i+1] - 2 u[i] + u[i-1] = h^2 g[i+1] + g[0] (V[i+1] -
    2 V[i] + V[i-1])`` at nodes 1 .. n-1, FDM's row with the forcing read
    one node ahead plus a start term that only ``mu_1`` sets, to the
    rounding of ``u / h^2``: 32 ulp of max|u| before the division by
    ``h^2`` (measured 10-16 ulp, 3.5e-10 of max|g| at n = 1,000)."""
    case = get_case(1)
    assert case.default_scheme == "gl"
    operator = ComposedOperator("gl", case.default_partition, n)
    u = solve_bvp(case, operator)[0].values
    g, h = case.g(nodes(n)), 1.0 / n
    mu_1 = case.default_partition.cumulative[1]
    v = -gl_coefficients(mu_1 - 2.0, n + 1) * h**2
    residual = (u[2:] - 2.0 * u[1:-1] + u[:-2]) - h**2 * g[2:] \
        - g[0] * (v[2:] - 2.0 * v[1:-1] + v[:-2])
    assert np.max(np.abs(residual)) <= 32 * np.spacing(np.max(np.abs(u)))
