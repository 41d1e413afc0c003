"""The outputs recorded by ``tests/make_golden.py`` are reproduced: the
plots of ``fracbvp run --trace`` byte for byte, and the solutions, errors,
statuses and Picard counts of cases 1-4 to within FFT rounding."""

import json

import numpy as np
import pytest

from fracbvp import RunConfig, run_quiet

from make_golden import (CASES, GOLDEN, recorded_numbers, recorded_solves,
                         solve_key, svg_digests)

#: relative to the solution's sup norm; leaves room for the FFT rounding of
#: other numpy builds
TOLERANCE = 1e-12


def test_traced_plots_match_their_recorded_digests(tmp_path):
    """The eight SVGs of ``run --case c --method both --n 40 --trace``,
    c = 1-4, hash to the digests that ``tests/make_golden.py`` recorded."""
    digests = svg_digests(tmp_path)
    assert len(digests) == 2 * len(CASES)
    assert digests == json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_recorded_solve_is_run():
    assert sorted(recorded_numbers()["solves"]) \
        == sorted(solve_key(*s) for s in recorded_solves())


@pytest.mark.parametrize("case,method,n", recorded_solves(),
                         ids=[solve_key(*s) for s in recorded_solves()])
def test_solve_matches_its_recorded_numbers(case, method, n):
    want = recorded_numbers()["solves"][solve_key(case, method, n)]
    report = run_quiet(RunConfig(case, method=method, n=n))[0]
    trace = report.extra.get("traces", (None,))[0]
    assert report.params["n"] == want["n"]
    assert report.status == want["status"]
    assert (None if trace is None else trace.picard_iterations) \
        == want["picard_iterations"]
    values = report.solution.values
    scale = TOLERANCE * float(np.max(np.abs(values)))
    recorded = np.array([float(v) for v in want["values"]])
    assert np.max(np.abs(values[want["nodes"]] - recorded)) <= scale
    assert abs(report.sup_error - float(want["sup_error"])) <= scale
