"""Seeded workloads of the fracbvp benchmark: op streams, op execution and
the output check.

fracbvp is imported from the ``src`` directory of the checkout that holds
this directory, so the benchmark always measures the sources beside it.
Importing this module exits with a message when that package is missing.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import random
import shutil
import sys
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Iterator, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "fracbvp" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no fracbvp package under {SRC}; "
                     "run the benchmark from the root of a fracbvp checkout")
sys.path.insert(0, str(SRC))

import fracbvp.bench  # noqa: E402
import fracbvp.cli  # noqa: E402

WORK_DIR = ROOT / ".perfbench_work"
CASES = ("1", "2", "3", "4")
PAPER_GRIDS = (None, 40, 80, 200)
STRATA = 4          # grid-size strata per case in a large-grid block

#: An op fails when its sup error exceeds this multiple of the reference.
#: Three leaves room for the round-off scatter of FDM errors above n = 4e4
#: (1.5x the reference at most, in 1000 grids off the reference set) and
#: still fails a solver that loses an order of magnitude of accuracy.
ERROR_SLACK = 3.0
#: A reference sample counts for grid n when it lies within this ratio of n.
REFERENCE_WINDOW = 1.1
REFERENCE_ERRORS_JSON = HERE / "reference_errors.json"


@dataclass(frozen=True)
class Op:
    """One call a workload makes into the program."""

    case: str
    method: str
    n: Optional[int] = None        # None: the case's default grid
    trace: bool = False            # `run --trace`: CSV plus two SVG plots
    table1: bool = False           # the `table1` command instead of `run`

    def argv(self, out_dir: Path) -> list[str]:
        if self.table1:
            return ["table1", "--out", str(out_dir)]
        argv = ["run", "--case", self.case, "--method", self.method,
                "--out", str(out_dir)]
        if self.n is not None:
            argv += ["--n", str(self.n)]
        if self.trace:
            argv.append("--trace")
        return argv


@dataclass(frozen=True)
class Outcome:
    """What an op returned: one (case, method, n, status, error) row per
    solve, digests of any SVG written, and the exception text if it raised.
    Two outcomes are equal only when every error is bit-identical."""

    seconds: float
    rows: tuple = ()
    svg_digests: tuple = ()
    raised: Optional[str] = None

    @property
    def signature(self) -> tuple:
        return (self.rows, self.svg_digests, self.raised)


@functools.cache
def reference_errors() -> dict[str, list]:
    """sup errors of this revision, "case/method" -> [[n, error], ...];
    written by derive_reference_errors.py."""
    return json.loads(REFERENCE_ERRORS_JSON.read_text(encoding="utf-8"))


def reference_error(case: str, method: str, n: int) -> Optional[float]:
    """Largest reference error at grids within a factor 1.1 of n, or None
    when there is none."""
    near = [e for m, e in reference_errors()[f"{case}/{method}"]
            if n / REFERENCE_WINDOW <= m <= n * REFERENCE_WINDOW]
    return max(near) if near else None


def check(outcome: Outcome, expected_rows: int) -> Optional[str]:
    """Why the op failed, or None when every solve converged within bound."""
    if outcome.raised is not None:
        return f"raised {outcome.raised}"
    if len(outcome.rows) != expected_rows:
        return f"expected {expected_rows} result rows, got {len(outcome.rows)}"
    for case, method, n, status, error in outcome.rows:
        if status != "converged":
            return f"case {case} {method} n={n}: status {status}"
        ref = reference_error(case, method, n)
        if ref is None:
            return f"case {case} {method} n={n}: no reference error"
        if error is None or not error <= ERROR_SLACK * ref:
            return (f"case {case} {method} n={n}: sup error {error} above "
                    f"{ERROR_SLACK} x {ref:.3e}")
    return None


def _float_or_none(text: str) -> Optional[float]:
    return float(text) if text else None


def _svg_digest(path: Path) -> str:
    data = path.read_bytes()
    if not ET.fromstring(data).tag.endswith("svg"):
        raise ValueError(f"{path.name} is not an SVG document")
    return hashlib.sha256(data).hexdigest()


class Workload:
    name: str
    #: op_ms.tail percentile: the highest with at least ten ops beyond it
    #: at this workload's op count in a 25 s run on the reference machine.
    tail_pct: float
    #: The speed.py kernel that tracks the speed of this workload's ops.
    gauge: str

    def ops(self, seed: int) -> tuple[list[Op], Iterator[list[Op]]]:
        """The warm-up ops (the first scored op of each case) and an endless
        stream of blocks; each block weights every case equally."""
        raise NotImplementedError

    def call(self, op: Op) -> Outcome:
        raise NotImplementedError

    def expected_rows(self, op: Op) -> int:
        raise NotImplementedError

    def execute(self, op: Op) -> Outcome:
        """Run one op; an exception becomes part of the outcome."""
        t0 = time.perf_counter()
        try:
            return self.call(op)
        except Exception as exc:  # the op fails, the run goes on
            return Outcome(time.perf_counter() - t0,
                           raised=f"{type(exc).__name__}: {exc}")


class PaperWorkload(Workload):
    """`fracbvp run` and `table1` at the paper's grids, through cli.main."""

    name = "paper"
    tail_pct = 99.0
    gauge = "python"

    def ops(self, seed):
        rng = random.Random(f"{self.name}/{seed}")

        def blocks():
            # four rounds of all 16 (case, grid) runs; each run is traced in
            # exactly one round, so a quarter carry --trace, plus one table1
            # per round
            while True:
                traced = {c: rng.sample(range(4), 4) for c in CASES}
                block = [Op(c, "both", grid, trace=traced[c][r] == g)
                         for r in range(4) for c in CASES
                         for g, grid in enumerate(PAPER_GRIDS)]
                block += [Op("3", "both", table1=True)] * 4
                rng.shuffle(block)
                yield block

        return [Op(c, "both") for c in CASES], blocks()

    def expected_rows(self, op):
        return 6 if op.table1 else 2

    def call(self, op):
        for stale in WORK_DIR.iterdir():
            stale.unlink()
        argv = op.argv(WORK_DIR)
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = fracbvp.cli.main(argv)
            seconds = time.perf_counter() - t0
        if code != 0:
            return Outcome(seconds, raised=f"exit code {code}")
        if op.table1:
            with open(WORK_DIR / "table1.csv", newline="", encoding="utf-8") as fh:
                rows = tuple(
                    ("3", r["method"], int(r["N"]),
                     "converged" if r["error"] else "missing",
                     _float_or_none(r["error"]))
                    for r in csv.DictReader(fh))
            return Outcome(seconds, rows)
        with open(WORK_DIR / "results.csv", newline="", encoding="utf-8") as fh:
            rows = tuple((r["case"].removeprefix("case"), r["method"],
                          int(r["n"]), r["status"], _float_or_none(r["error"]))
                         for r in csv.DictReader(fh))
        digests = ()
        if op.trace:
            digests = tuple(_svg_digest(WORK_DIR / f"case{op.case}_{kind}.svg")
                            for kind in ("evolution", "comparison"))
        return Outcome(seconds, rows, digests)


class LargeGridWorkload(Workload):
    """run_quiet of one method at grids no other op of the run shares."""

    def __init__(self, name: str, method: str, lo: int, hi: int,
                 tail_pct: float, gauge: str):
        self.name, self.method = name, method
        self.lo, self.hi, self.tail_pct = lo, hi, tail_pct
        self.gauge = gauge

    def ops(self, seed):
        rng = random.Random(f"{self.name}/{seed}")
        used: set[int] = set()

        def fresh(n: int) -> int:
            while n in used:
                n = n + 1 if n < self.hi else self.lo
            used.add(n)
            return n

        span = self.hi - self.lo
        # warm-up at the low end of the range, so set-up time does not
        # depend on the seed's first grids
        warmup = [Op(c, self.method, fresh(self.lo + rng.randrange(span // 50)))
                  for c in CASES]
        # a block holds every case at one grid in each quarter of the range.
        # Within its quarter a grid sits at a point of a golden-ratio
        # (Kronecker) sequence, and a case's quarters take consecutive
        # points, so each block spreads over the range alike and blocks cost
        # within ~10% of each other: runs of any length see the same size
        # mix.  The seed shifts each case's sequence by up to 1/8 of a
        # quarter, so grids differ between seeds.
        golden = (math.sqrt(5.0) - 1.0) / 2.0
        offsets = {c: rng.random() / 8 for c in CASES}

        def blocks():
            for k in count():
                block = [Op(c, self.method, fresh(self.lo + int(
                    span * (q + (offsets[c] + (k + q) * golden) % 1.0)
                    / STRATA))) for c in CASES for q in range(STRATA)]
                rng.shuffle(block)
                yield block

        return warmup, blocks()

    def expected_rows(self, op):
        return 1

    def call(self, op):
        config = fracbvp.bench.RunConfig(op.case, method=op.method, n=op.n)
        t0 = time.perf_counter()
        reports = fracbvp.bench.run_quiet(config)
        seconds = time.perf_counter() - t0
        rows = tuple((op.case, r.method, r.params["n"], r.status, r.sup_error)
                     for r in reports)
        return Outcome(seconds, rows)


WORKLOADS = {w.name: w for w in (
    PaperWorkload(),
    LargeGridWorkload("ifoi-large", "ifoi", 2_000, 10_000, tail_pct=75.0,
                      gauge="convolve"),
    LargeGridWorkload("fdm-large", "fdm", 20_000, 100_000, tail_pct=90.0,
                      gauge="scalar"),
)}


class Checker:
    """Checks every op of one process and keeps the reasons ops failed.

    Besides the bound, an op must give the same outcome each time it runs:
    the paper workload repeats commands, whose outputs are deterministic
    apart from timings."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self._first: dict[Op, tuple] = {}

    def __call__(self, op: Op, outcome: Outcome) -> bool:
        self.attempted += 1
        reason = check(outcome, self.workload.expected_rows(op))
        if reason is None and \
                self._first.setdefault(op, outcome.signature) != outcome.signature:
            reason = "output differs from an earlier run of the same op"
        if reason is not None:
            self.failures.append(f"{op}: {reason}")
        return reason is None


def warmed_up(workload: Workload,
              seed: int) -> tuple[Checker, Iterator[list[Op]]]:
    """A checker and the op stream, once the warm-up ops have run."""
    checker = Checker(workload)
    warmup, stream = workload.ops(seed)
    for op in warmup:
        checker(op, workload.execute(op))
    return checker, stream


def fresh_work_dir() -> None:
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    WORK_DIR.mkdir()
