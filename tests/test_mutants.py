"""The mutation audit of ``tests/mutants.py`` stays complete: each of its
one-line mutants still finds the line it replaces, so a line that moves
or changes cannot silently drop its mutant."""

from pathlib import Path

import pytest

from mutants import MUTANTS

SRC = Path(__file__).resolve().parents[1] / "src" / "fracbvp"


@pytest.mark.parametrize("label", sorted(MUTANTS))
def test_each_mutated_line_occurs_once_in_its_module(label):
    module, line, mutated = MUTANTS[label]
    lines = (SRC / module).read_text(encoding="utf-8").split("\n")
    assert lines.count(line) == 1
    assert mutated != line
