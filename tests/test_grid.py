import dataclasses

import numpy as np
import pytest

from fracbvp import GridFunction, sup_distance
from fracbvp.grid import nodes


def test_sample_covers_unit_interval():
    g = GridFunction.sample(lambda x: x**2, 10)
    assert g.n == 10
    assert g.h == pytest.approx(0.1)
    assert g.nodes[-1] == pytest.approx(1.0, rel=1e-12)
    assert g.values[-1] == pytest.approx(1.0)


def test_nodes_are_uniform():
    g = GridFunction.sample(lambda x: x, 8)
    assert np.allclose(g.nodes, np.arange(9) / 8)


@pytest.mark.parametrize("n", [1, 3, 40, 9_973, 100_000])
def test_step_and_nodes_follow_from_the_sample_count(n):
    g = GridFunction(np.zeros(n + 1))
    assert g.n == n
    assert g.h == 1.0 / n
    expected = np.arange(n + 1) * (1.0 / n)
    assert g.nodes.tobytes() == expected.tobytes()
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
    g = GridFunction.sample(lambda x: x, 4)
    with pytest.raises(ValueError):
        g.values[0] = 3.0


def test_sup_distance_requires_matching_grids():
    a = GridFunction.sample(lambda x: x, 10)
    b = GridFunction.sample(lambda x: x, 20)
    with pytest.raises(ValueError):
        sup_distance(a, b)
    with pytest.raises(ValueError):
        sup_distance(GridFunction(np.zeros(11)), GridFunction(np.zeros(12)))


def test_sup_distance_value():
    a = GridFunction.sample(lambda x: x, 10)
    b = GridFunction(a.values + 0.25)
    assert sup_distance(a, b) == pytest.approx(0.25)
