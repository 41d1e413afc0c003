"""The plots of ``fracbvp run --trace`` are pinned byte for byte."""

import json

from make_golden import CASES, GOLDEN, svg_digests


def test_traced_plots_match_their_recorded_digests(tmp_path):
    """The eight SVGs of ``run --case c --method both --n 40 --trace``,
    c = 1-4, hash to the digests that ``tests/make_golden.py`` recorded."""
    digests = svg_digests(tmp_path)
    assert len(digests) == 2 * len(CASES)
    assert digests == json.loads(GOLDEN.read_text(encoding="utf-8"))
