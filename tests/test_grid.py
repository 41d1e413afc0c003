import numpy as np
import pytest

from fracbvp import GridFunction, sup_distance


def test_sample_covers_unit_interval():
    g = GridFunction.sample(lambda x: x**2, 10)
    assert g.n == 10
    assert g.h == pytest.approx(0.1)
    assert g.nodes[-1] == pytest.approx(1.0, rel=1e-12)
    assert g.values[-1] == pytest.approx(1.0)


def test_nodes_are_uniform():
    g = GridFunction.sample(lambda x: x, 8)
    assert np.allclose(g.nodes, np.arange(9) / 8)


def test_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        GridFunction(0.0, np.zeros(5))
    with pytest.raises(ValueError):
        GridFunction(-0.1, np.zeros(5))


def test_rejects_single_sample():
    with pytest.raises(ValueError):
        GridFunction(0.1, np.array([1.0]))


def test_rejects_nan_and_inf():
    with pytest.raises(ValueError):
        GridFunction(0.1, np.array([0.0, np.nan, 1.0]))
    with pytest.raises(ValueError):
        GridFunction(0.1, np.array([0.0, np.inf, 1.0]))


def test_values_are_read_only():
    g = GridFunction.sample(lambda x: x, 4)
    with pytest.raises(ValueError):
        g.values[0] = 3.0


def test_sup_distance_requires_matching_grids():
    a = GridFunction.sample(lambda x: x, 10)
    b = GridFunction.sample(lambda x: x, 20)
    with pytest.raises(ValueError):
        sup_distance(a, b)


def test_sup_distance_value():
    a = GridFunction.sample(lambda x: x, 10)
    b = a.with_values(a.values + 0.25)
    assert sup_distance(a, b) == pytest.approx(0.25)
