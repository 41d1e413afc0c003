"""The outputs recorded by ``tests/make_golden.py`` are reproduced: the
plots of ``fracbvp run --trace`` byte for byte, and the solutions, errors,
statuses and Picard counts of cases 1-4 to within FFT rounding."""

import json

import numpy as np
import pytest

from make_golden import (CASES, GOLDEN, TOLERANCE, mismatches,
                         recorded_numbers, recorded_solves, solve_key,
                         solve_report, svg_digests, write_if_changed)


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
    assert mismatches(want, solve_report(case, method, n)) == []


def test_regenerating_replaces_only_a_solve_the_test_rejects():
    """``make_golden.py`` keeps a recorded solve that the test above
    accepts and records anew one it rejects: values moved by half of
    ``TOLERANCE`` are kept, twice it or a different status are not."""
    want = recorded_numbers()["solves"][solve_key("4", "fdm", 40)]
    report = solve_report("4", "fdm", 40)
    scale = TOLERANCE * float(np.max(np.abs(report.solution.values)))

    def moved(by):
        return dict(want, values=[f"{float(v) + by:.16e}"
                                  for v in want["values"]])

    assert mismatches(want, report) == []
    assert mismatches(moved(0.5 * scale), report) == []
    assert mismatches(moved(2.0 * scale), report) == ["values"]
    assert mismatches(dict(want, status="diverged"), report) \
        == ["status 'converged' != 'diverged'"]


def test_a_recorded_file_is_written_only_when_it_changes(tmp_path, capsys):
    path = tmp_path / "golden.json"
    for text in ("a\n", "a\n", "b\n"):
        write_if_changed(path, text)
    assert path.read_text(encoding="utf-8") == "b\n"
    assert capsys.readouterr().out.splitlines() \
        == [f"wrote {path}", f"{path} unchanged", f"wrote {path}"]
