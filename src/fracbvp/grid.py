"""Uniformly sampled functions on [0, x_n], the common currency of all solvers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Relative slack allowed between two grid steps taken as the same.
ENDPOINT_RTOL = 1e-9


@dataclass(frozen=True)
class GridFunction:
    """Samples of a real function on the uniform nodes ``x_j = j*h``.

    ``values[j]`` holds the sample at ``x_j`` for ``j = 0..n``; the grid
    always starts at zero.  Instances are immutable and safe to share.
    """

    h: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if not self.h > 0.0:
            raise ValueError(f"step size must be positive, got {self.h}")
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("need a 1-d array of at least two samples")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid values must be finite")

    @property
    def n(self) -> int:
        """Number of intervals (``len(values) - 1``)."""
        return self.values.size - 1

    @property
    def nodes(self) -> np.ndarray:
        x = np.arange(self.values.size, dtype=float)
        x *= self.h
        return x

    @property
    def endpoint(self) -> float:
        return self.n * self.h

    def with_values(self, values: np.ndarray) -> "GridFunction":
        """Same grid, different samples."""
        return GridFunction(self.h, values)

    @classmethod
    def sample(cls, fn: Callable[[np.ndarray], np.ndarray],
               n: int) -> "GridFunction":
        """Sample ``fn`` at ``n + 1`` uniform nodes covering ``[0, 1]``."""
        if n < 1:
            raise ValueError("need at least one interval")
        h = 1.0 / n
        x = np.arange(n + 1) * h
        return cls(h, np.asarray(fn(x), dtype=float) + np.zeros(n + 1))


def sup_distance(a: GridFunction, b: GridFunction) -> float:
    """Max nodewise deviation between two functions on the same grid."""
    if a.values.size != b.values.size or abs(a.h - b.h) > ENDPOINT_RTOL * a.h:
        raise ValueError("grids are not compatible")
    return float(np.max(np.abs(a.values - b.values)))
