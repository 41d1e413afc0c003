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
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from . import fdm, shooting
from .cases import CaseSpec, SolveReport, get_case, make_case3, sup_error
from .grid import GridFunction
from .ifoi import (TOTAL_ORDER, AlphaPartition, ComposedOperator,
                   DivergenceError, IvpProblem, make_alpha_partition,
                   staged)
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
    pure FDM runs.  ``case3_constants`` holds the keywords of
    :func:`~fracbvp.cases.make_case3` that are set; the others keep their
    defaults.
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
    case3_constants: Optional[dict[str, float]] = None

    def __post_init__(self):
        if self.method not in ("fdm", "ifoi", "both"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")


def _resolve_case(config: RunConfig) -> CaseSpec:
    case = get_case(config.case_id)
    if case.id == "case3" and config.case3_constants:
        case = make_case3(**config.case3_constants)
    return case


def _resolve_params(config: RunConfig,
                    case: CaseSpec) -> tuple[int, AlphaPartition, str]:
    n = config.n if config.n is not None else case.default_n
    spacing = config.spacing or case.default_partition.spacing
    m = config.m if config.m is not None else case.default_partition.stage_count
    scheme = config.scheme or case.default_scheme
    return n, make_alpha_partition(spacing, m), scheme


def _run(method: str, case: CaseSpec, params: dict, repeats: int,
         solve) -> SolveReport:
    """Time ``solve``, which returns the solution and the report's extras,
    ``repeats`` times and score it; the median wall time is reported.  A
    diverging or singular solve becomes its status, timed up to the
    exception."""
    times = []
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            try:
                solution, extra = solve()
            finally:
                times.append(time.perf_counter() - t0)
    except DivergenceError:
        status = "diverged"
    except shooting.SingularShootingError:
        status = "singular"
    else:
        return SolveReport(method, "converged", params,
                           statistics.median(times), solution,
                           sup_error(solution, case), extra)
    return SolveReport(method, status, params, statistics.median(times))


def _check_grid(method: str, scheme: str, partition: AlphaPartition,
                n: int) -> None:
    """:raises ValueError: when a solver that ``method`` runs refuses the
    grid ``n``."""
    if method != "ifoi":
        fdm.check_grid(n)
    if method != "fdm":
        ComposedOperator(scheme, partition, n)  # checks, builds nothing


def run_quiet(config: RunConfig) -> list[SolveReport]:
    """Execute one configuration without touching the filesystem.

    :raises ValueError: when a solver that ``config.method`` runs refuses
        the grid, before any solve.
    """
    case = _resolve_case(config)
    n, partition, scheme = _resolve_params(config, case)
    _check_grid(config.method, scheme, partition, n)
    params = {"case": case.id, "n": n, "m": partition.stage_count,
              "spacing": partition.spacing, "scheme": scheme}

    def solve_fdm():
        return fdm.fdm_linear(case, n), {}

    def solve_ifoi():
        solution, traces = shooting.solve_bvp(
            case, ComposedOperator(scheme, partition, n))
        return solution, {"traces": traces}

    return [_run(method, case, params, config.repeats, solve)
            for method, solve in (("fdm", solve_fdm), ("ifoi", solve_ifoi))
            if config.method in (method, "both")]


def run(config: RunConfig) -> list[SolveReport]:
    """Execute one configuration and write ``results.csv`` plus any plots."""
    reports = run_quiet(config)
    out_dir = Path(config.output_dir)
    write_results_csv(out_dir / "results.csv", reports)
    if config.emit_trace:
        plot(reports, _resolve_case(config), out_dir)
    return reports


def sweep(n_list: Sequence[int], config: RunConfig) -> list[SolveReport]:
    """Run ``config``'s case at each grid size of ``n_list``, one after
    another, in place of ``config.n``; one ``results.csv`` for all.

    :raises ValueError: naming the first entry of ``n_list`` that a solver
        refuses, before any grid is solved.
    """
    _, partition, scheme = _resolve_params(config, _resolve_case(config))
    for n in n_list:
        try:
            _check_grid(config.method, scheme, partition, n)
        except ValueError as exc:
            raise ValueError(f"n-list entry {n}: {exc}") from None
    reports = [r for n in n_list for r in run_quiet(replace(config, n=n))]
    write_results_csv(Path(config.output_dir) / "results.csv", reports)
    return reports


def table1(output_dir: Union[str, Path], repeats: int = 1) -> Path:
    """Case-3 error/time table at N in {40, 80, 200}, both methods."""
    rows = []
    for method in ("fdm", "ifoi"):
        for n in TABLE1_SIZES:
            report = run_quiet(RunConfig("case3", method=method, n=n,
                                         repeats=repeats))[0]
            rows.append([method, str(n), _fmt_float(report.sup_error),
                         _fmt_float(report.wall_time)])
    path = Path(output_dir) / "table1.csv"
    _write_csv(path, TABLE1_CSV_HEADER, rows)
    return path


def _fmt_float(v: Optional[float]) -> str:
    """17 significant digits, enough to round-trip any double exactly."""
    return "" if v is None else f"{v:.16e}"


def _write_csv(path: Union[str, Path], header: list[str],
               rows: Iterable[list[str]]) -> None:
    """Write ``header`` and ``rows`` to ``path``, creating its directory."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_results_csv(path: Union[str, Path],
                      reports: Sequence[SolveReport]) -> None:
    _write_csv(path, RESULTS_CSV_HEADER, (
        [r.params["case"], r.method, r.params["scheme"],
         str(r.params["n"]), str(r.params["m"]), r.params["spacing"],
         _fmt_float(r.sup_error), _fmt_float(r.wall_time), r.status]
        for r in reports))


def plot(reports: Sequence[SolveReport], case: CaseSpec,
         output_dir: Union[str, Path]) -> list[Path]:
    """Write the stage-evolution and method-comparison SVGs for one case,
    from its converged IFOI report; without one, return ``[]`` and write
    nothing.  The stages drawn are :func:`~fracbvp.ifoi.staged` over the
    curve drawn as the forcing, ``g + k u`` at the exact solution, each
    lifted by the left value."""
    converged = [r for r in reports if r.status == "converged"]
    ifoi = next((r for r in converged if r.method == "ifoi"), None)
    if ifoi is None:
        return []
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    x = ifoi.solution.nodes

    # the exact solution is the comparison plot's exact series; the forcing
    # g + k u there is both drawn and staged
    u_ref = np.asarray(case.oracle(x), dtype=float)
    forcing = IvpProblem(case.g, case.k, u_ref[0], 0.0).rhs(x, u_ref)
    params = ifoi.params
    partition = make_alpha_partition(params["spacing"], params["m"])
    stages = staged(GridFunction(forcing), partition, params["scheme"])
    lift = shooting.left_value(case)
    stage_series = [
        Series(f"order {order:.2f}", x, lift + row,
               ramp_color(order / TOTAL_ORDER),
               1.2, in_legend=(i in (0, len(stages) - 1)))
        for i, (order, row) in enumerate(zip(partition.cumulative[1:],
                                             stages))
    ]
    evolution = [Series("forcing", x, forcing, "#1f77b4", 2.0)] \
        + stage_series \
        + [Series("solution", x, ifoi.solution.values, "#2ca02c", 2.2)]
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
