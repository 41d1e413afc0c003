"""Benchmark harness: run cases, time them, score them, emit CSV and plots.

A diverging or singular solve is a valid scientific outcome here, reported
through the ``status`` column rather than an exception; only configuration
and I/O problems raise.
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from . import fdm, shooting
from .cases import CaseSpec, SolveReport, get_case, make_case3, sup_error
from .grid import GridFunction
from .ifoi import (AlphaPartition, IfoiDivergenceError, IfoiTrace,
                   IvpProblem, make_alpha_partition, make_ivp_solver, staged)
from .svgplot import Series, ramp_color, render_line_plot

RESULTS_CSV_HEADER = ["case", "method", "scheme", "n", "m", "spacing",
                      "error", "time_s", "status"]
TABLE1_CSV_HEADER = ["method", "N", "error", "time_s"]
TABLE1_SIZES = (40, 80, 200)


@dataclass(frozen=True)
class RunConfig:
    """Everything one benchmark invocation needs.

    Unset numeric fields fall back to the case defaults (grid size, stage
    count, spacing, scheme).  The alpha fields are accepted and ignored for
    pure FDM runs.
    """

    case_id: str
    method: str = "both"
    n: Optional[int] = None
    m: Optional[int] = None
    spacing: Optional[str] = None
    scheme: Optional[str] = None
    repeats: int = 1
    output_dir: Union[str, Path] = "."
    emit_trace: bool = False
    case3_constants: Optional[tuple[float, float, float]] = None

    def __post_init__(self):
        if self.method not in ("fdm", "ifoi", "both"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")


def _resolve_case(config: RunConfig) -> CaseSpec:
    case = get_case(config.case_id)
    if case.id == "case3" and config.case3_constants is not None:
        case = make_case3(*config.case3_constants)
    return case


def _resolve_params(config: RunConfig,
                    case: CaseSpec) -> tuple[int, AlphaPartition, str]:
    n = config.n if config.n is not None else case.default_n
    spacing = config.spacing or case.default_partition.spacing
    m = config.m if config.m is not None else case.default_partition.stage_count
    scheme = config.scheme or case.default_scheme
    return n, make_alpha_partition(spacing, m), scheme


def _timed(solve, repeats: int):
    """Run a solve ``repeats`` times; returns (result, median wall time)."""
    times = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = solve()
        times.append(time.perf_counter() - t0)
    return result, statistics.median(times)


def _run(method: str, case: CaseSpec, params: dict, repeats: int,
         solve) -> SolveReport:
    """Time ``solve``, which returns the solution and the report's extras,
    and score it; a diverging or singular solve becomes its status."""
    try:
        (solution, extra), wall = _timed(solve, repeats)
    except IfoiDivergenceError:
        return SolveReport(method, "diverged", params, 0.0)
    except shooting.SingularShootingError:
        return SolveReport(method, "singular", params, 0.0)
    return SolveReport(method, "converged", params, wall, solution,
                       sup_error(solution, case), extra)


def run_quiet(config: RunConfig) -> list[SolveReport]:
    """Execute one configuration without touching the filesystem."""
    case = _resolve_case(config)
    n, partition, scheme = _resolve_params(config, case)
    params = {"case": case.id, "n": n, "m": partition.stage_count,
              "spacing": partition.spacing, "scheme": scheme}

    def solve_fdm():
        return fdm.fdm_linear(case, n), {}

    def solve_ifoi():
        traces: list[IfoiTrace] = []
        solver = make_ivp_solver(partition, n, scheme, trace_sink=traces)
        solution, _ = shooting.solve_bvp(case, solver)
        # traces arrive in solve order: the particular solution first
        return solution, {"trace": traces[0]}

    return [_run(method, case, params, config.repeats, solve)
            for method, solve in (("fdm", solve_fdm), ("ifoi", solve_ifoi))
            if config.method in (method, "both")]


def run(config: RunConfig) -> list[SolveReport]:
    """Execute one configuration and write ``results.csv`` plus any plots."""
    reports = run_quiet(config)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_results_csv(out_dir / "results.csv", reports)
    if config.emit_trace:
        ifoi_reports = [r for r in reports if r.method == "ifoi"
                        and r.status == "converged"]
        if ifoi_reports:
            plot(reports, ifoi_reports[0].extra["trace"],
                 _resolve_case(config), out_dir)
    return reports


def sweep(case_id: str, n_list: Sequence[int],
          config: RunConfig) -> list[SolveReport]:
    """Run one case across several grid sizes, one after another; one
    ``results.csv`` for all."""
    reports = [r for n in n_list for r in run_quiet(
        replace(config, case_id=case_id, n=n, emit_trace=False))]
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_results_csv(out_dir / "results.csv", reports)
    return reports


def table1(output_dir: Union[str, Path], repeats: int = 1) -> Path:
    """Case-3 error/time table at N in {40, 80, 200}, both methods."""
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for method in ("fdm", "ifoi"):
        for n in TABLE1_SIZES:
            report = run_quiet(RunConfig("case3", method=method, n=n,
                                         repeats=repeats))[0]
            rows.append([method, str(n), _fmt_float(report.sup_error),
                         _fmt_float(report.wall_time)])
    path = out_dir / "table1.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TABLE1_CSV_HEADER)
        writer.writerows(rows)
    return path


def _fmt_float(v: Optional[float]) -> str:
    """17 significant digits, enough to round-trip any double exactly."""
    return "" if v is None else f"{v:.16e}"


def write_results_csv(path: Union[str, Path],
                      reports: Sequence[SolveReport]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULTS_CSV_HEADER)
        for r in reports:
            writer.writerow([
                r.params["case"], r.method, r.params["scheme"],
                str(r.params["n"]), str(r.params["m"]), r.params["spacing"],
                _fmt_float(r.sup_error), _fmt_float(r.wall_time), r.status,
            ])


def plot(reports: Sequence[SolveReport], trace: IfoiTrace, case: CaseSpec,
         output_dir: Union[str, Path]) -> list[Path]:
    """Write the stage-evolution and method-comparison SVGs for one case.
    ``trace`` is the particular IVP's (left value, zero slope); its stages
    are drawn by :func:`~fracbvp.ifoi.staged` over its final forcing."""
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    converged = [r for r in reports if r.status == "converged"
                 and r.solution is not None]
    if not converged:
        return []
    x = converged[0].solution.nodes

    # the plotted forcing is g + k u at the exact solution, which the
    # comparison plot reuses as its exact series
    u_ref = np.asarray(case.oracle(x), dtype=float)
    forcing = IvpProblem(case.g, case.k, u_ref[0], 0.0).rhs(x, u_ref)
    solution_report = next((r for r in converged if r.method == "ifoi"),
                           converged[0])
    params = solution_report.params
    partition = make_alpha_partition(params["spacing"], params["m"])
    stages = staged(GridFunction(1.0 / params["n"], trace.forcing),
                    partition, params["scheme"])
    total = case.default_partition.cumulative[-1]
    stage_series = [
        Series(f"order {order:.2f}", gf.nodes,
               case.left_bc.value + gf.values, ramp_color(order / total),
               1.2, in_legend=(i in (0, len(stages) - 1)))
        for i, (order, gf) in enumerate(zip(partition.cumulative[1:],
                                            stages))
    ]
    evolution = [Series("forcing", x, forcing, "#1f77b4", 2.0)] \
        + stage_series \
        + [Series("solution", x, solution_report.solution.values,
                  "#2ca02c", 2.2)]
    evo_path = out_dir / f"{case.id}_evolution.svg"
    evo_path.write_text(
        render_line_plot(evolution, f"{case.id}: stage evolution"),
        encoding="utf-8")

    comparison = [Series("exact", x, u_ref, "#444444", 2.2)]
    palette = {"fdm": "#d62728", "ifoi": "#2ca02c"}
    for r in converged:
        comparison.append(Series(r.method, r.solution.nodes,
                                 r.solution.values, palette[r.method], 1.6))
    cmp_path = out_dir / f"{case.id}_comparison.svg"
    cmp_path.write_text(
        render_line_plot(comparison, f"{case.id}: methods vs exact"),
        encoding="utf-8")
    return [evo_path, cmp_path]
