import ctypes
import dataclasses
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import fracbvp
from fracbvp import GridFunction
from fracbvp.grid import _keep_freed_blocks, nodes


def test_sample_covers_unit_interval():
    g = GridFunction(nodes(10)**2)
    assert g.n == 10
    assert g.h == pytest.approx(0.1)
    assert g.nodes[-1] == pytest.approx(1.0, rel=1e-12)
    assert g.values[-1] == pytest.approx(1.0)


def test_nodes_are_uniform():
    g = GridFunction(nodes(8))
    assert np.allclose(g.nodes, np.arange(9) / 8)


@pytest.mark.parametrize("n", [1, 3, 40, 9_973, 100_000])
def test_step_and_nodes_follow_from_the_sample_count(n):
    g = GridFunction(np.zeros(n + 1))
    assert g.n == n
    assert g.h == 1.0 / n
    expected = np.arange(n + 1) * (1.0 / n)
    assert g.nodes.tobytes() == expected.tobytes()
    assert nodes(n).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [1, 7, 40, 1_023, 99_991, 2**20])
def test_nodes_are_each_index_times_the_step(n):
    step = 1.0 / n
    expected = np.array([j * step for j in range(n + 1)])
    assert nodes(n).tobytes() == expected.tobytes()


def test_samples_are_the_only_field():
    assert [f.name for f in dataclasses.fields(GridFunction)] == ["values"]
    assert repr(GridFunction(np.zeros(3))) \
        == "GridFunction(values=array([0., 0., 0.]))"


def test_rejects_single_sample():
    with pytest.raises(ValueError):
        GridFunction(np.array([1.0]))


def test_rejects_nan_and_inf():
    with pytest.raises(ValueError):
        GridFunction(np.array([0.0, np.nan, 1.0]))
    with pytest.raises(ValueError):
        GridFunction(np.array([0.0, np.inf, 1.0]))


def test_values_are_read_only():
    g = GridFunction(nodes(4))
    with pytest.raises(ValueError):
        g.values[0] = 3.0


# ---------------------------------------------------------------------------
# the C heap keeps freed grid-sized blocks
# ---------------------------------------------------------------------------

def test_heap_thresholds_are_set_through_mallopt_or_not_at_all():
    bare = types.SimpleNamespace()
    _keep_freed_blocks(bare)
    assert vars(bare) == {}
    calls = []
    glibc = types.SimpleNamespace(mallopt=lambda *args: calls.append(args))
    _keep_freed_blocks(glibc)
    assert calls == [(-3, 32 * 2**20), (-1, 64 * 2**20)]


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# the child counts the minor page faults of the third solve of each case
_THIRD_SOLVE_FAULTS = """
import resource
from fracbvp import RunConfig, run_quiet
for case in ("1", "4"):
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_quiet(RunConfig(case, method="fdm", n=100_000))
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_a_repeated_large_solve_faults_no_fresh_pages():
    """Under glibc's default thresholds the third FDM solve at
    ``n = 100,000`` in a fresh process faults about 500 (case 1) and 1,300
    (case 4) pages in again; with the freed blocks kept in the heap it
    faults none (measured 0 in three processes)."""
    src = Path(fracbvp.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", _THIRD_SOLVE_FAULTS],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    faults = [int(count) for count in done.stdout.split()]
    assert len(faults) == 2 and max(faults) <= 50, faults
