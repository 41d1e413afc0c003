"""Outside-in spans for the traced run.

For the duration of a traced run, the public names through which each layer
of fracbvp calls the layer below are replaced by wrappers that record a
span: name, start, end, parent span and op id.  The originals are put back
afterwards.  A name that a later refactor removes is reported as absent,
and the metrics built on it read 0.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Optional

import numpy as np


def _ivp_info(args, kwargs, result) -> dict:
    """Picard passes of one IVP, and whether its right-hand side is not
    identically zero at the solution (a zero one is wasted work)."""
    problem = args[0] if args else kwargs.get("problem")
    solution, ivp_trace = result
    rhs = np.asarray(problem.rhs(solution.nodes, solution.values), dtype=float)
    return {"picard": ivp_trace.picard_iterations, "useful": bool(np.any(rhs))}


def _sup_error_info(args, kwargs, result) -> dict:
    case = args[1] if len(args) > 1 else kwargs.get("case")
    return {"case": getattr(case, "id", str(case))}


# (module, attribute, span name, info hook); the span name's prefix is the
# layer the call goes into
WRAPS = (
    ("fracbvp.cli", "main", "cli.main", None),
    ("fracbvp.cli", "run", "bench.run", None),
    ("fracbvp.cli", "table1", "bench.table1", None),
    ("fracbvp.bench", "run_quiet", "bench.run_quiet", None),
    ("fracbvp.bench", "write_results_csv", "bench.write_results_csv", None),
    ("fracbvp.bench", "plot", "bench.plot", None),
    ("fracbvp.bench", "render_line_plot", "svgplot.render", None),
    ("fracbvp.bench", "sup_error", "cases.sup_error", _sup_error_info),
    ("fracbvp.shooting", "solve_bvp", "shooting.solve_bvp", None),
    ("fracbvp.ifoi", "ifoi_solve_ivp", "ifoi.solve_ivp", _ivp_info),
    ("fracbvp.ifoi", "apply_scheme", "fracops.apply", None),
    ("fracbvp.fracops", "gl_coefficients", "fracops.gl_coefficients", None),
    ("fracbvp.fdm", "fdm_linear", "fdm.linear", None),
    ("fracbvp.fdm", "fdm_newton", "fdm.newton", None),
    ("fracbvp.fdm", "solve_tridiagonal", "fdm.solve_tridiagonal", None),
)

BENCH_SPANS = ("bench.run", "bench.table1", "bench.run_quiet",
               "bench.write_results_csv", "bench.plot")

# per-layer metric -> (unit, spans it is built on, statistic per op)
LAYER_METRICS = {
    "fracops.apply_ms": ("ms", ("fracops.apply",), "total"),
    "fracops.apply_calls": ("count", ("fracops.apply",), "calls"),
    "fracops.gl_coefficients_ms": ("ms", ("fracops.gl_coefficients",), "total"),
    "ifoi.solve_ivp_self_ms": ("ms", ("ifoi.solve_ivp",), "self"),
    "ifoi.ivp_calls": ("count", ("ifoi.solve_ivp",), "calls"),
    "ifoi.picard_iterations": ("count", ("ifoi.solve_ivp",), "picard"),
    "ifoi.useful_ivp_ratio": ("ratio", ("ifoi.solve_ivp",), "useful"),
    "shooting.self_ms": ("ms", ("shooting.solve_bvp",), "self"),
    "fdm.solve_tridiagonal_ms": ("ms", ("fdm.solve_tridiagonal",), "total"),
    "fdm.solve_tridiagonal_calls": ("count", ("fdm.solve_tridiagonal",), "calls"),
    "fdm.self_ms": ("ms", ("fdm.linear", "fdm.newton"), "self"),
    "cases.sup_error_ms": ("ms", ("cases.sup_error",), "total"),
    "bench.self_ms": ("ms", BENCH_SPANS, "self"),
    "bench.write_results_csv_ms": ("ms", ("bench.write_results_csv",), "total"),
    "svgplot.render_ms": ("ms", ("svgplot.render",), "total"),
    "cli.self_ms": ("ms", ("cli.main",), "self"),
}


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "info")

    def __init__(self, name: str, parent: Optional[int], op: int):
        self.name, self.parent, self.op = name, parent, op
        self.start = self.end = 0.0
        self.info: Optional[dict] = None


class Tracer:
    """Spans of one process, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1            # id of the op in progress; -1 is warm-up
        self.absent: list[str] = []
        self.unreadable: set[str] = set()   # spans whose info hook failed
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn: Callable, hook) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    span.info = hook(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError,
                        ValueError):
                    # the call's shape changed: report, do not fail the op
                    self.unreadable.add(name)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every name in WRAPS that exists; restore them on exit."""
        for module_name, attr, name, hook in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, hook))
        try:
            yield self
        finally:
            for module, attr, original in reversed(self._saved):
                setattr(module, attr, original)

    def restored(self) -> bool:
        return all(getattr(module, attr) is original
                   for module, attr, original in self._saved)

    def absent_spans(self) -> set[str]:
        return {name for module_name, attr, name, _ in WRAPS
                if f"{module_name}.{attr}" in self.absent}

    def first_duration(self, name: str, **info) -> Optional[float]:
        """Duration of the first span called ``name`` whose info matches."""
        for span in self.spans:
            if span.name == name and all(
                    (span.info or {}).get(k) == v for k, v in info.items()):
                return span.end - span.start
        return None

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Each metric of LAYER_METRICS per op, over the spans of ops >= 0."""
        covered = defaultdict(float)   # child time inside each parent span
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        total, self_time = defaultdict(float), defaultdict(float)
        calls, extra = defaultdict(int), defaultdict(float)
        for index, s in enumerate(self.spans):
            if s.op < 0:
                continue
            duration = s.end - s.start
            total[s.name] += duration
            self_time[s.name] += duration - covered[index]
            calls[s.name] += 1
            for key, value in (s.info or {}).items():
                if not isinstance(value, str):
                    extra[s.name, key] += value
        by_stat = {"total": total, "self": self_time, "calls": calls}
        out = {}
        for metric, (unit, names, stat) in LAYER_METRICS.items():
            if stat == "useful":
                ivps = sum(calls[n] for n in names)
                useful = sum(extra[n, "useful"] for n in names)
                out[metric] = useful / ivps if ivps else 0.0
                continue
            source = by_stat.get(stat)
            per_op = sum(source[n] if source is not None else extra[n, stat]
                         for n in names) / ops
            out[metric] = per_op * 1e3 if unit == "ms" else per_op
        return out
