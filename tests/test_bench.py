import ast
import csv
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracbvp
from fracbvp import (GridFunction, RunConfig, get_case, make_alpha_partition,
                     run, run_quiet, sweep, table1)
from fracbvp import bench as bench_mod
from fracbvp import cli
from fracbvp.ifoi import DivergenceError, staged
from fracbvp.shooting import SingularShootingError, left_value
from fracbvp.svgplot import ramp_color

from oracles import read_results_csv


def test_run_quiet_both_methods():
    reports = run_quiet(RunConfig("1", method="both", n=50))
    assert [r.method for r in reports] == ["fdm", "ifoi"]
    assert all(r.status == "converged" for r in reports)
    assert all(r.sup_error is not None and r.sup_error > 0 for r in reports)
    assert all(r.wall_time >= 0 for r in reports)


def test_fdm_rows_echo_but_ignore_alpha_fields():
    a = run_quiet(RunConfig("1", method="fdm", n=50, m=3, spacing="quadratic",
                            scheme="rect"))[0]
    b = run_quiet(RunConfig("1", method="fdm", n=50))[0]
    assert a.params["m"] == 3
    assert np.array_equal(a.solution.values, b.solution.values)


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        RunConfig("1", method="spectral")
    with pytest.raises(ValueError):
        RunConfig("1", repeats=0)


def test_repeated_timing_reports_one_median(tmp_path):
    reports = run_quiet(RunConfig("1", method="both", n=50, repeats=3))
    assert len(reports) == 2
    single = run_quiet(RunConfig("1", method="both", n=50, repeats=1))
    for timed, once in zip(reports, single):
        assert timed.wall_time >= 0.0
        assert np.array_equal(timed.solution.values, once.solution.values)


def test_solve_report_requires_convergence_for_error():
    from fracbvp import SolveReport
    with pytest.raises(ValueError):
        SolveReport("fdm", "diverged", {}, 0.0, sup_error=1.0)


def test_csv_round_trip_is_exact(tmp_path):
    config = RunConfig("1", method="both", n=50, output_dir=tmp_path)
    reports = run(config)
    rows = read_results_csv(tmp_path / "results.csv")
    assert len(rows) == 2
    for report, row in zip(reports, rows):
        assert float(row["error"]) == report.sup_error
        assert float(row["time_s"]) == report.wall_time
        assert row["status"] == "converged"
        assert row["case"] == "case1"
        assert int(row["n"]) == 50


def test_csv_layout(tmp_path):
    run(RunConfig("2", method="fdm", n=40, output_dir=tmp_path))
    text = (tmp_path / "results.csv").read_text(encoding="utf-8")
    lines = text.split("\n")
    assert lines[0] == "case,method,scheme,n,m,spacing,error,time_s,status"
    assert "\r" not in text
    assert text.endswith("\n")
    # reals in scientific notation with 17 significant digits
    error_field = lines[1].split(",")[6]
    assert re.fullmatch(r"-?\d\.\d{16}e[+-]\d{2}", error_field)


@pytest.mark.parametrize("error", [SingularShootingError])
def test_singular_solve_is_a_reported_status(tmp_path, monkeypatch, error):
    def singular(case, n):
        raise error("synthetic")

    monkeypatch.setattr(bench_mod.fdm, "fdm_linear", singular)
    reports = run(RunConfig("1", method="fdm", n=50, output_dir=tmp_path))
    assert reports[0].status == "singular"
    assert read_results_csv(tmp_path / "results.csv")[0]["status"] == "singular"


def test_numeric_determinism_across_runs(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        run(RunConfig("3", method="both", n=40, repeats=1, output_dir=d))
    rows1 = read_results_csv(d1 / "results.csv")
    rows2 = read_results_csv(d2 / "results.csv")
    for r1, r2 in zip(rows1, rows2):
        for key in ("case", "method", "scheme", "n", "m", "spacing",
                    "error", "status"):
            assert r1[key] == r2[key]


def test_svg_outputs_are_byte_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        run(RunConfig("1", method="both", n=50, emit_trace=True,
                      output_dir=d))
    for name in ("case1_evolution.svg", "case1_comparison.svg"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_evolution_plot_polyline_count(tmp_path):
    run(RunConfig("1", method="ifoi", n=50, m=10, emit_trace=True,
                  output_dir=tmp_path))
    text = (tmp_path / "case1_evolution.svg").read_text(encoding="utf-8")
    # ten stage curves plus the forcing and the final solution
    assert text.count("<polyline") == 12
    assert text.startswith('<?xml version="1.0"')
    assert 'version="1.1"' in text


@pytest.mark.parametrize("case_id", ["1", "2", "3", "4"])
def test_evolution_plot_stages_the_forcing_it_draws(case_id, tmp_path,
                                                    monkeypatch):
    """Every stage curve is the snapshot of the curve drawn as the forcing,
    lifted by the left value, bit for bit; in case 4 that forcing is
    ``2x(5 - u)`` at the exact solution."""
    plotted = {}

    def capture(series, title):
        plotted[title] = series
        return ""

    monkeypatch.setattr(bench_mod, "render_line_plot", capture)
    (report,) = run(RunConfig(case_id, method="ifoi", n=40, emit_trace=True,
                              output_dir=tmp_path))
    case = get_case(case_id)
    forcing, *stages, solution = plotted[f"{case.id}: stage evolution"]
    assert (forcing.label, solution.label) == ("forcing", "solution")
    params = report.params
    rows = staged(GridFunction(forcing.y),
                  make_alpha_partition(params["spacing"], params["m"]),
                  params["scheme"])
    assert len(stages) == len(rows) == params["m"]
    lift = left_value(case)
    for series, row in zip(stages, rows):
        assert np.array_equal(series.y, lift + row)


def test_comparison_plot_series(tmp_path):
    run(RunConfig("1", method="both", n=50, emit_trace=True,
                  output_dir=tmp_path))
    text = (tmp_path / "case1_comparison.svg").read_text(encoding="utf-8")
    assert text.count("<polyline") == 3  # exact, fdm, ifoi


@pytest.mark.parametrize("case_id", ["1", "3"])
def test_traced_plot_sizes_do_not_grow_with_the_grid(case_id, tmp_path):
    """Polylines longer than the plot is wide are reduced to a few points
    per pixel column, so five times the grid writes the same few kilobytes
    (within 0.14% measured)."""
    sizes = {}
    for n in (20_000, 100_000):
        run(RunConfig(case_id, method="both", n=n, emit_trace=True,
                      output_dir=tmp_path / str(n)))
        sizes[n] = [p.stat().st_size
                    for p in sorted((tmp_path / str(n)).glob("*.svg"))]
    assert len(sizes[20_000]) == 2
    for small, large in zip(sizes[20_000], sizes[100_000]):
        assert large <= 1.01 * small


def test_ramp_color_endpoints():
    assert ramp_color(0.0) == "#440154"
    assert ramp_color(1.0) == "#fde725"


def test_table1_shape_and_values(tmp_path):
    path = table1(tmp_path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert [r["method"] for r in rows] == ["fdm"] * 3 + ["ifoi"] * 3
    assert [int(r["N"]) for r in rows] == [40, 80, 200, 40, 80, 200]
    fdm_errors = [float(r["error"]) for r in rows[:3]]
    assert fdm_errors[0] > fdm_errors[1] > fdm_errors[2]


def test_sweep_collects_all_grids(tmp_path):
    reports = sweep([40, 80], RunConfig("3", method="both",
                                        output_dir=tmp_path))
    assert len(reports) == 4
    rows = read_results_csv(tmp_path / "results.csv")
    assert [int(r["n"]) for r in rows] == [40, 40, 80, 80]


def test_divergence_is_a_reported_status_not_an_error(tmp_path, monkeypatch):
    def blow_up(case, operator):
        raise DivergenceError("synthetic", 200, 1.0)

    monkeypatch.setattr(bench_mod.shooting, "solve_bvp", blow_up)
    reports = run(RunConfig("4", method="ifoi", n=50, output_dir=tmp_path))
    assert reports[0].status == "diverged"
    assert reports[0].sup_error is None
    row = read_results_csv(tmp_path / "results.csv")[0]
    assert row["status"] == "diverged"
    assert row["error"] == ""


@pytest.mark.parametrize("method, diverge", [("fdm", False),
                                             ("both", True)],
                         ids=["fdm-only", "ifoi-diverged"])
def test_traced_run_without_a_converged_ifoi_report_writes_no_plot(
        tmp_path, monkeypatch, method, diverge):
    def blow_up(case, operator):
        raise DivergenceError("synthetic", 200, 1.0)

    if diverge:
        monkeypatch.setattr(bench_mod.shooting, "solve_bvp", blow_up)
    run(RunConfig("1", method=method, n=50, emit_trace=True,
                  output_dir=tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["results.csv"]


def test_case4_fdm_divergence_guard_is_a_reported_status(monkeypatch):
    # FDM keeps no guard of its own; an overflowing solve raises
    # DivergenceError, which the report carries as a status with no
    # error, as it does for a singular one
    def overflowed(case, n):
        raise DivergenceError("synthetic", 0, np.inf)

    monkeypatch.setattr(bench_mod.fdm, "fdm_linear", overflowed)
    reports = run_quiet(RunConfig("4", method="fdm", n=50))
    assert reports[0].status == "diverged"
    assert reports[0].sup_error is None


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_run_exit_zero(tmp_path, capsys):
    rc = cli.main(["run", "--case", "1", "--method", "fdm", "--n", "50",
                   "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fdm" in out and "status=converged" in out
    assert (tmp_path / "results.csv").exists()


def test_cli_diverged_run_still_exits_zero(tmp_path, monkeypatch):
    def blow_up(case, operator):
        raise DivergenceError("synthetic", 200, 1.0)

    monkeypatch.setattr(bench_mod.shooting, "solve_bvp", blow_up)
    rc = cli.main(["run", "--case", "4", "--method", "ifoi",
                   "--out", str(tmp_path)])
    assert rc == 0
    assert read_results_csv(tmp_path / "results.csv")[0]["status"] == "diverged"


def test_cli_sweep_requires_n_list(tmp_path, capsys):
    rc = cli.main(["sweep", "--case", "1", "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("n_list", [",", " , "])
def test_cli_sweep_refuses_empty_n_list(tmp_path, n_list):
    done = _cli_process("sweep", "--case", "1", "--n-list", n_list,
                        "--out", str(tmp_path))
    assert done.returncode == 2
    assert "names no grid" in done.stderr
    assert done.stdout == ""
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("options, n_list, message", [
    (["--case", "3", "--scheme", "rect", "--alpha-spacing", "quadratic",
      "--m", "10"], "40,8", "n-list entry 8: rect with m = 10 stages on "
                            "n = 8 composes to the zero operator"),
    (["--case", "3", "--scheme", "rect", "--alpha-spacing", "quadratic",
      "--m", "10"], "8,40", "n-list entry 8: rect with m = 10 stages"),
    (["--case", "1"], "40,3", "n-list entry 3: need at least 4 intervals"),
    (["--case", "1"], "3,40", "n-list entry 3: need at least 4 intervals"),
], ids=["rect-last", "rect-first", "fdm-last", "fdm-first"])
def test_cli_sweep_refuses_a_bad_grid_before_solving_any(
        tmp_path, monkeypatch, capsys, options, n_list, message):
    def solved(*args):
        pytest.fail("sweep solved a grid before refusing another")

    monkeypatch.setattr(bench_mod.fdm, "fdm_linear", solved)
    monkeypatch.setattr(bench_mod.shooting, "solve_bvp", solved)
    rc = cli.main(["sweep", *options, "--n-list", n_list,
                   "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith(f"error: {message}")
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("options, message", [
    (["--case", "1", "--n", "6"], "grid too coarse, need n >= 8"),
    (["--case", "2", "--scheme", "rect", "--m", "10", "--n", "8"],
     "rect with m = 10 stages on n = 8 composes to the zero operator"),
], ids=["ifoi-min-grid", "rect"])
def test_cli_run_both_refuses_a_grid_before_solving_either(
        tmp_path, monkeypatch, capsys, options, message):
    # FDM takes these grids and IFOI refuses them: the run must refuse
    # before the FDM solve, not after it
    def solved(*args):
        pytest.fail("run solved a grid that another method refuses")

    monkeypatch.setattr(bench_mod.fdm, "fdm_linear", solved)
    monkeypatch.setattr(bench_mod.shooting, "solve_bvp", solved)
    rc = cli.main(["run", *options, "--method", "both",
                   "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith(f"error: {message}")
    assert not (tmp_path / "results.csv").exists()


def test_cli_missing_case_is_usage_error(capsys):
    assert cli.main(["run", "--method", "fdm"]) == 2


def test_cli_builds_its_parser_once(tmp_path, monkeypatch, capsys):
    # the parser built at import serves every call, a refused one included
    monkeypatch.setattr(cli, "_build_parser",
                        lambda: pytest.fail("main rebuilt its parser"))
    with pytest.raises(SystemExit):
        cli.main(["run", "--case", "1", "--n", "many"])
    for _ in range(2):
        assert cli.main(["run", "--case", "1", "--method", "fdm", "--n", "40",
                         "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0].split(" time=")[0] \
        == lines[1].split(" time=")[0]


# the child caps its own address space before it imports fracbvp, so that
# a runaway allocation fails fast instead of filling the machine
_CLI_IN_1GIB = ("import resource, runpy; "
                "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
                "runpy.run_module('fracbvp.cli', run_name='__main__')")


def _cli_process(*argv, timeout=120) -> subprocess.CompletedProcess:
    # a real process, so that an uncaught exception would show its traceback
    src = Path(fracbvp.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", _CLI_IN_1GIB, *argv],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, timeout=timeout)
    assert "Traceback" not in done.stderr + done.stdout
    return done


def test_cli_resonant_case3_weight_is_usage_error(tmp_path):
    done = _cli_process("run", "--case", "3", "--case3-b", "-1",
                        "--out", str(tmp_path))
    assert done.returncode == 2
    assert "resonant at b = -1" in done.stderr


def test_cli_near_resonant_case3_weight_is_singular_for_both_methods(
        tmp_path):
    # 1 + b = -1e-13: the line x all but meets the homogeneous Robin
    # condition, so neither method can match it
    done = _cli_process("run", "--case", "3", "--case3-b",
                        "-1.0000000000001", "--n", "40", "--method", "both",
                        "--out", str(tmp_path))
    assert done.returncode == 0
    rows = read_results_csv(tmp_path / "results.csv")
    assert [(r["method"], r["status"]) for r in rows] == [
        ("fdm", "singular"), ("ifoi", "singular")]


def test_failed_solves_are_timed_up_to_the_exception(tmp_path):
    constants = {"b": -1.0000000000001}
    reports = run(RunConfig("3", method="both", n=40, output_dir=tmp_path,
                            case3_constants=constants))
    rows = read_results_csv(tmp_path / "results.csv")
    assert [r.status for r in reports] == ["singular", "singular"]
    for report, row in zip(reports, rows):
        assert report.wall_time > 0.0
        assert float(row["time_s"]) == report.wall_time


@pytest.mark.parametrize("flag", ["--n", "--m"])
def test_cli_grid_too_large_to_allocate_is_usage_error(tmp_path, flag):
    # 10^12 nodes or stages: numpy refuses the array at once
    done = _cli_process("run", "--case", "1", flag, "1000000000000",
                        "--out", str(tmp_path))
    assert done.returncode == 2
    assert done.stderr.startswith("error: out of memory: ")
    assert "(1000000000001,)" in done.stderr


@pytest.mark.parametrize("c", ["20000000000000004096", "2e19"])
def test_cli_plots_axes_flat_below_an_ulp(tmp_path, c):
    # at a = 1e17 the comparison axis spans less than an ulp per tick step
    # (c = 2.0000000000000004096e19), or nothing at all (c = 2e19)
    done = _cli_process("run", "--case", "3", "--method", "both", "--n", "40",
                        "--trace", "--case3-a", "1e17", "--case3-c", c,
                        "--out", str(tmp_path), timeout=60)
    assert done.returncode == 0, done.stderr
    svgs = sorted(tmp_path.glob("*.svg"))
    assert [p.name for p in svgs] == ["case3_comparison.svg",
                                      "case3_evolution.svg"]
    for p in svgs:
        assert not re.search(r"\b(nan|inf)\b", p.read_text(encoding="utf-8"))


def test_cli_comparison_ticks_at_1e17_read_differently(tmp_path):
    # the three y ticks of this plot lie 16 apart, an ulp of 1e17
    assert cli.main(["run", "--case", "3", "--method", "both", "--n", "40",
                     "--trace", "--case3-a", "1e17", "--case3-c", "2e19",
                     "--out", str(tmp_path)]) == 0
    svg = (tmp_path / "case3_comparison.svg").read_text(encoding="utf-8")
    labels = re.findall(r'text-anchor="end" [^>]*font-size="11">([^<]*)<',
                        svg)
    assert len(labels) == 3 and len(set(labels)) == 3


def test_cli_y_tick_labels_at_1e17_fit_the_canvas(tmp_path):
    # 22-character labels such as 9.9999999999999984e+16, at about 6.6 px a
    # character, widen the left margin, so each label ends 8 px left of the
    # frame and starts right of the rotated axis title, which keeps 18 px
    assert cli.main(["run", "--case", "3", "--method", "both", "--n", "40",
                     "--trace", "--case3-a", "1e17", "--case3-c", "2e19",
                     "--out", str(tmp_path)]) == 0
    svg = (tmp_path / "case3_comparison.svg").read_text(encoding="utf-8")
    frame = int(re.search(r'<rect x="(\d+)" y="36" ', svg).group(1))
    labels = re.findall(r'<text x="(\d+)" [^>]*text-anchor="end" [^>]*'
                        r'font-size="11">([^<]*)<', svg)
    assert max(len(label) for _, label in labels) == 22
    for x, label in labels:
        assert int(x) == frame - 8
        assert int(x) - 6.6 * len(label) >= 18


def test_cli_sweep_has_no_parallel_flag(tmp_path):
    done = _cli_process("sweep", "--case", "1", "--n-list", "40",
                        "--parallel", "--out", str(tmp_path))
    assert done.returncode == 2
    assert "unrecognized arguments: --parallel" in done.stderr


def test_cli_overflowing_case3_constants_are_usage_error(tmp_path):
    done = _cli_process("run", "--case", "3", "--case3-a=1e308",
                        "--case3-c=-1e308", "--out", str(tmp_path))
    assert done.returncode == 2
    assert "case-3 constants a=1e+308, b=200.0, c=-1e+308" in done.stderr
    assert "Warning" not in done.stderr


def test_cli_bad_config_value_is_usage_error(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("method=fdm\nn=abc\n", encoding="utf-8")
    done = _cli_process("run", "--case", "1", "--config", str(cfg),
                        "--out", str(tmp_path))
    assert done.returncode == 2
    assert "argument --n: invalid int value: 'abc'" in done.stderr


def test_cli_missing_config_file_is_io_error(tmp_path):
    done = _cli_process("run", "--case", "1", "--config",
                        str(tmp_path / "absent.cfg"), "--out", str(tmp_path))
    assert done.returncode == 1
    assert done.stderr.startswith("i/o error: ")
    assert "absent.cfg" in done.stderr


def test_cli_table1(tmp_path, capsys):
    rc = cli.main(["table1", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "table1.csv").exists()


def test_cli_config_file_fills_unset_flags(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("n=50\nmethod=fdm\n# comment line\n", encoding="utf-8")
    rc = cli.main(["run", "--case", "1", "--config", str(cfg),
                   "--out", str(tmp_path)])
    assert rc == 0
    row = read_results_csv(tmp_path / "results.csv")[0]
    assert int(row["n"]) == 50
    assert row["method"] == "fdm"


def test_cli_flags_override_config_file(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("n=50\n", encoding="utf-8")
    rc = cli.main(["run", "--case", "1", "--method", "fdm", "--n", "64",
                   "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    assert int(read_results_csv(tmp_path / "results.csv")[0]["n"]) == 64


@pytest.mark.parametrize("key", ["case3_a", "case3_b", "case3_c"])
def test_cli_config_file_takes_every_flag_with_a_value(tmp_path, key):
    # a config entry is read as the flag of the same name
    by_flag, by_file = tmp_path / "flag", tmp_path / "file"
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(f"{key}=5\n", encoding="utf-8")
    common = ["run", "--case", "3", "--method", "fdm", "--n", "40"]
    flag = f"--{key.replace('_', '-')}=5"
    assert cli.main(common + [flag, "--out", str(by_flag)]) == 0
    assert cli.main(common + ["--config", str(cfg),
                              "--out", str(by_file)]) == 0
    rows = [read_results_csv(d / "results.csv")[0] for d in (by_flag, by_file)]
    assert rows[0]["error"] == rows[1]["error"]


def test_cli_config_keys_leave_out_config_and_trace(tmp_path):
    for key in ("config", "trace"):
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"{key}=1\n", encoding="utf-8")
        with pytest.raises(SystemExit):
            cli.main(["run", "--case", "1", "--config", str(cfg)])


def test_cli_config_line_without_equals_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("n=50\nturbo\n", encoding="utf-8")
    with pytest.raises(SystemExit) as done:
        cli.main(["run", "--case", "1", "--config", str(cfg)])
    assert done.value.code == 2
    assert f"{cfg}:2: expected key=value, got 'turbo'" \
        in capsys.readouterr().err


def test_cli_rejects_unknown_config_key(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("turbo=yes\n", encoding="utf-8")
    with pytest.raises(SystemExit):
        cli.main(["run", "--case", "1", "--config", str(cfg)])


def test_cli_trace_writes_plots(tmp_path):
    rc = cli.main(["run", "--case", "1", "--method", "both", "--n", "50",
                   "--trace", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "case1_evolution.svg").exists()
    assert (tmp_path / "case1_comparison.svg").exists()


def test_public_api_exports_resolve():
    import fracbvp
    missing = [name for name in fracbvp.__all__
               if not hasattr(fracbvp, name)]
    assert not missing


def test_cli_case3_constant_overrides(tmp_path):
    rc = cli.main(["run", "--case", "3", "--method", "fdm", "--n", "40",
                   "--case3-b", "1.0", "--out", str(tmp_path)])
    assert rc == 0
    row = read_results_csv(tmp_path / "results.csv")[0]
    # the weaker Robin weight is known to inflate the error well past the
    # default-constant value
    assert float(row["error"]) > 1e-3


REPO = Path(__file__).resolve().parents[1]


def test_names_wrapped_by_the_benchmark_tracer_exist():
    """Every ``module.attr`` in ``WRAPS`` of ``perfbench/tracing.py``
    resolves; a missing one would make its spans and metrics read 0.  The
    table is read as text, so perfbench is not imported."""
    tree = ast.parse((REPO / "perfbench" / "tracing.py").read_text())
    wraps = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "WRAPS"
                         for t in node.targets))
    names = [(row.elts[0].value, row.elts[1].value) for row in wraps.elts]
    assert names
    missing = [f"{module}.{attr}" for module, attr in names
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing


def test_benchmark_tracer_reads_every_ivp_solve():
    """``perfbench/tracing.py``'s IVP hook reads the problem and result of
    each ``ifoi_solve_ivp`` call; a call it cannot read is booked as
    unreadable and every ``ifoi.*`` metric of the benchmark reads 0.  The
    file is loaded by path: it imports only numpy and the standard
    library."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    case = fracbvp.get_case(4)
    tracer = tracing.Tracer()
    with tracer.installed():
        fracbvp.shooting._shoot(case, fracbvp.ComposedOperator(
            case.default_scheme, case.default_partition, 50))
        fracbvp.ifoi.ifoi_solve_ivp(
            fracbvp.IvpProblem(None, None, 0.0, 1.0),
            fracbvp.ComposedOperator(case.default_scheme,
                                     case.default_partition, 50))
    assert tracer.restored() and not tracer.unreadable
    assert [s.info for s in tracer.spans if s.name == "ifoi.solve_ivp"] == [
        {"picard": 7, "useful": True}, {"picard": 7, "useful": True},
        {"picard": 0, "useful": False}]


def test_readme_library_example_prints_the_figures_it_shows(capsys):
    """The ``## Library example`` block of README runs as written, and each
    figure it prints rounds to the ``# ~`` figure beside it, to the digits
    shown (today 3.0986e-2 and 1.1955e-4)."""
    section = (REPO / "README.md").read_text(encoding="utf-8").split(
        "\n## Library example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    shown = re.findall(r"# ~(\S+)", code)
    assert len(printed) == len(shown) == 2
    for got, want in zip(printed, shown):
        digits = len(want.split("e")[0].replace(".", ""))
        assert float(f"{float(got):.{digits - 1}e}") == float(want), got


def test_package_imports_only_numpy_and_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"numpy", "fracbvp"}
    found = set()
    for path in (REPO / "src" / "fracbvp").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                found.add(node.module.split(".")[0])
    assert found and found <= allowed, sorted(found - allowed)


def test_the_environment_is_never_consulted():
    """No module of the package reads or sets the process environment, so
    a command runs the same in every shell.  The C heap thresholds that
    :mod:`fracbvp.grid` sets at import are constants too, not read from
    glibc's ``MALLOC_*`` variables."""
    banned = {"environ", "environb", "getenv", "putenv"}
    found = []
    for path in sorted((REPO / "src" / "fracbvp").glob("*.py")):
        tree = ast.parse(path.read_text())
        os_names = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names
                    if alias.name == "os"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [(path.name, alias.name) for alias in node.names
                          if alias.name in banned]
            elif (isinstance(node, ast.Attribute) and node.attr in banned
                  and getattr(node.value, "id", None) in os_names):
                found.append((path.name, node.attr))
            elif (isinstance(node, ast.Constant)
                  and "MALLOC_" in str(node.value)):
                found.append((path.name, node.value))
    assert not found
    grid = ast.parse((REPO / "src" / "fracbvp" / "grid.py").read_text())
    calls = [node for node in ast.walk(grid) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "mallopt"]
    assert [[ast.unparse(arg) for arg in call.args] for call in calls] \
        == [["-3", "32 << 20"], ["-1", "64 << 20"]]
