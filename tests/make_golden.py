"""Write the recorded outputs that ``tests/test_golden.py`` and
``tests/test_acceptance.py`` compare against.

Two files, from one command run at the repository root::

    PYTHONPATH=src python tests/make_golden.py

* ``tests/golden_svg.json``: the SHA-256 digest of each of the eight SVGs
  of ``fracbvp run --case c --method both --n 40 --trace``, c = 1-4.
* ``tests/golden_numbers.json``: for cases 1-4, both methods, at the
  case's default grid and at n = 40, 80, 200 and 4,000, and for FDM also
  at n = 20,011, the solution at up to 41 evenly spaced nodes and the sup
  error as 17-digit decimals, the status and the Picard count of the IFOI
  particular IVP; and the ten ``ACCEPTANCE`` lines that
  ``tests/test_acceptance.py`` prints, collected from a ``pytest -s`` run
  of that file.

Regenerate them only for a change that is meant to alter these outputs,
and log the change and its reason.  Regenerating keeps every recorded
solve that ``test_solve_matches_its_recorded_numbers`` accepts (the same
n, status and Picard count, values and sup error within ``TOLERANCE``) and
records anew only those it would reject, and it writes each file only
when its content changes, so regenerating the SVG digests alone leaves
``golden_numbers.json`` as it is.

To check that a change keeps every recorded solve bit for bit, without
writing anything::

    PYTHONPATH=src python tests/make_golden.py --digest

prints one SHA-256 over the full solution bytes, the status, the sup error
and the Picard count of every recorded solve, then one line per solve, its
``case-method-n`` label and the SHA-256 of the same fields; compare them
before and after, the first line for the whole, the others for which
solves moved.  Then come the snapshot lines: one SHA-256 per
``ifoi.staged`` call, of each scheme on both ten-stage schedules at n = 40
(read off a table of stage prefixes) and n = 4,000 (stages chained), on
data with ``f(0) != 0``, labelled ``staged-scheme-spacing-n``; and one of
a windowed ``gl`` ``apply_scheme``.  Last come the eight SVG lines, the
digests that ``golden_svg.json`` records, labelled by file name and
written to a temporary directory only.  The first line covers neither.
"""

import contextlib
import functools
import hashlib
import io
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from fracbvp import (GridFunction, RunConfig, apply_scheme, cli,
                     make_alpha_partition, run_quiet)
from fracbvp.ifoi import staged

GOLDEN = Path(__file__).with_name("golden_svg.json")
NUMBERS = Path(__file__).with_name("golden_numbers.json")
CASES = ("1", "2", "3", "4")
#: grids of both methods; None is the case's default grid
GRIDS = (None, 40, 80, 200, 4000)
FDM_GRIDS = (20011,)
NODES = 41
#: grids of the snapshot lines: a table of stage prefixes serves n = 40,
#: a chain of stages n = 4,000
STAGED_GRIDS = (40, 4000)
ACCEPTANCE_LINES = 10
#: relative to the solution's sup norm; leaves room for the FFT rounding of
#: other numpy builds
TOLERANCE = 1e-12
_ACCEPTANCE = re.compile(r"^ACCEPTANCE (.+?): (?:PASS|FAIL)  \(")


@functools.cache
def recorded_numbers() -> dict:
    """The contents of ``golden_numbers.json``."""
    return json.loads(NUMBERS.read_text(encoding="utf-8"))


def svg_digests(out_dir) -> dict[str, str]:
    """Run the traced commands into ``out_dir``; digest of each SVG, by
    file name."""
    out_dir = Path(out_dir)
    for case in CASES:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--case", case, "--method", "both",
                             "--n", "40", "--trace", "--out", str(out_dir)])
        if code != 0:
            raise RuntimeError(f"run --case {case} exited {code}")
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.glob("*.svg"))}


def recorded_solves() -> list[tuple[str, str, object]]:
    """``(case, method, n)`` of every recorded solve."""
    return [(case, method, n) for case in CASES for n in GRIDS
            for method in ("fdm", "ifoi")] \
        + [(case, "fdm", n) for case in CASES for n in FDM_GRIDS]


def solve_key(case: str, method: str, n) -> str:
    return f"case{case}-{method}-{'default' if n is None else n}"


def _digits(v) -> object:
    return None if v is None else f"{v:.16e}"


def solve_report(case: str, method: str, n):
    """The report of one ``run_quiet`` solve."""
    return run_quiet(RunConfig(case, method=method, n=n))[0]


def mismatches(want: dict, report) -> list[str]:
    """The fields of ``report`` that the recorded solve ``want`` rejects:
    a different n, status or Picard count, or values or a sup error more
    than ``TOLERANCE`` times the solution's sup norm away."""
    trace = report.extra.get("traces", (None,))[0]
    got = {"n": report.params["n"], "status": report.status,
           "picard_iterations": None if trace is None
           else trace.picard_iterations}
    found = [f"{key} {value!r} != {want[key]!r}"
             for key, value in got.items() if value != want[key]]
    if found or report.solution is None:
        return found
    values = report.solution.values
    scale = TOLERANCE * float(np.max(np.abs(values)))
    recorded = np.array([float(v) for v in want["values"]])
    if not np.max(np.abs(values[want["nodes"]] - recorded)) <= scale:
        found.append("values")
    if not abs(report.sup_error - float(want["sup_error"])) <= scale:
        found.append("sup_error")
    return found


def solve_record(report) -> dict:
    """The recorded outputs of one ``run_quiet`` solve."""
    grid = report.params["n"]
    nodes = np.unique(np.linspace(0, grid, NODES).round().astype(int))
    trace = report.extra.get("traces", (None,))[0]
    return {
        "n": grid,
        "status": report.status,
        "sup_error": _digits(report.sup_error),
        "picard_iterations": None if trace is None
        else trace.picard_iterations,
        "nodes": nodes.tolist(),
        "values": None if report.solution is None
        else [_digits(v) for v in report.solution.values[nodes]],
    }


def solve_digests() -> tuple[str, dict[str, str]]:
    """SHA-256 over the full solution, status, sup error and Picard count
    of every recorded solve, in the order of :func:`recorded_solves`, and
    one SHA-256 of the same fields per solve, by :func:`solve_key`."""
    total, each = hashlib.sha256(), {}
    for case, method, n in recorded_solves():
        report = solve_report(case, method, n)
        trace = report.extra.get("traces", (None,))[0]
        key = solve_key(case, method, n)
        data = repr((key, report.status, report.sup_error, None
                     if trace is None else trace.picard_iterations)).encode()
        if report.solution is not None:
            data += report.solution.values.tobytes()
        total.update(data)
        each[key] = hashlib.sha256(data).hexdigest()
    return total.hexdigest(), each


def snapshot_digests() -> dict[str, str]:
    """SHA-256 of the snapshot bytes of ``staged``, for every scheme and
    ten-stage schedule at every grid of ``STAGED_GRIDS``, and of one
    windowed ``gl`` ``apply_scheme``, by label.  The data lie in [1, 2),
    so the column term of stage 1 acts."""
    each = {}
    for n in STAGED_GRIDS:
        f = GridFunction(1.0 + np.random.default_rng(n).random(n + 1))
        for scheme in ("gl", "rect", "abm"):
            for spacing in ("regular", "quadratic"):
                rows = staged(f, make_alpha_partition(spacing, 10), scheme)
                each[f"staged-{scheme}-{spacing}-{n}"] = \
                    hashlib.sha256(rows.tobytes()).hexdigest()
    # on the last grid's data
    each[f"apply_scheme-gl-window-{f.n}"] = hashlib.sha256(apply_scheme(
        "gl", f, -0.5, window=0.1).values.tobytes()).hexdigest()
    return each


def acceptance_lines() -> dict[str, str]:
    """The ``ACCEPTANCE`` lines of a ``pytest -s`` run of
    ``tests/test_acceptance.py``, by criterion tag."""
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s",
         str(Path(__file__).with_name("test_acceptance.py"))],
        cwd=root, capture_output=True, text=True)
    lines = {}
    for line in done.stdout.splitlines():
        match = _ACCEPTANCE.match(line)
        if match:
            lines[match.group(1)] = line
    failed = [line for line in lines.values() if ": FAIL  (" in line]
    if len(lines) != ACCEPTANCE_LINES or failed:
        raise RuntimeError(f"expected {ACCEPTANCE_LINES} passing ACCEPTANCE "
                           f"lines, got {len(lines)}, failing: {failed}")
    return lines


def write_if_changed(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` unless the file already holds it."""
    if path.exists() and path.read_text(encoding="utf-8") == text:
        print(f"{path} unchanged")
        return
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path}")


def main() -> None:
    if sys.argv[1:] == ["--digest"]:
        total, each = solve_digests()
        print(total)
        with tempfile.TemporaryDirectory() as tmp:
            svgs = svg_digests(tmp)
        for lines in (each, snapshot_digests(), svgs):
            width = max(map(len, lines))
            for key, digest in lines.items():
                print(f"{key:<{width}}  {digest}")
        return
    if sys.argv[1:]:  # a mistyped flag must not rewrite the recorded files
        raise SystemExit("usage: make_golden.py [--digest]")
    with tempfile.TemporaryDirectory() as tmp:
        digests = svg_digests(tmp)
    write_if_changed(GOLDEN, json.dumps(digests, indent=2) + "\n")
    recorded = recorded_numbers()["solves"] if NUMBERS.exists() else {}
    solves = {}
    for solve in recorded_solves():
        key, report = solve_key(*solve), solve_report(*solve)
        if key in recorded and not mismatches(recorded[key], report):
            solves[key] = recorded[key]
        else:
            print(f"recording {key} anew")
            solves[key] = solve_record(report)
    numbers = {"solves": solves, "acceptance": acceptance_lines()}
    write_if_changed(NUMBERS, json.dumps(numbers, indent=1) + "\n")


if __name__ == "__main__":
    main()
