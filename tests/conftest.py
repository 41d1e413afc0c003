import numpy as np
import pytest

from fracbvp import GridFunction
from fracbvp.grid import nodes


@pytest.fixture
def unit_grid():
    """f(x) = 1 on [0, 1] at h = 1e-3."""
    return GridFunction(np.ones_like(nodes(1000)))


@pytest.fixture
def ramp_grid():
    """f(x) = x on [0, 1] at h = 1e-3."""
    return GridFunction(nodes(1000))
