"""Functions on [0, 1] as ``n + 1`` samples, the currency of all solvers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


def nodes(n: int) -> np.ndarray:
    """The ``n + 1`` nodes ``j * (1/n)`` on [0, 1] that every solver uses."""
    return np.arange(n + 1) * (1.0 / n)


@dataclass(frozen=True)
class GridFunction:
    """Samples of a real function at the ``n + 1`` :func:`nodes` on [0, 1].

    ``values[j]`` holds the sample at ``x_j = j h`` for ``j = 0..n``, with
    ``h = 1/n``.  Instances are immutable and safe to share.
    """

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("need a 1-d array of at least two samples")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid values must be finite")

    @property
    def n(self) -> int:
        """Number of intervals (``len(values) - 1``)."""
        return self.values.size - 1

    @property
    def h(self) -> float:
        """The step ``1/n``."""
        return 1.0 / self.n

    @property
    def nodes(self) -> np.ndarray:
        return nodes(self.n)

    @classmethod
    def sample(cls, fn: Callable[[np.ndarray], np.ndarray],
               n: int) -> "GridFunction":
        """Sample ``fn`` at ``n + 1`` uniform nodes covering ``[0, 1]``."""
        if n < 1:
            raise ValueError("need at least one interval")
        return cls(np.asarray(fn(nodes(n)), dtype=float) + np.zeros(n + 1))


def sup_distance(a: GridFunction, b: GridFunction) -> float:
    """Max nodewise deviation between two functions on the same grid."""
    if a.values.size != b.values.size:
        raise ValueError("grids are not compatible")
    return float(np.max(np.abs(a.values - b.values)))
