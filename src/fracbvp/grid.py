"""Functions on [0, 1] as ``n + 1`` samples, the currency of all solvers.

Importing it, as every solver does, sets the C heap to keep freed blocks.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
import numpy as np


def _keep_freed_blocks(libc) -> None:
    """Let the C heap keep freed blocks of up to 32 MiB for the next solve.

    glibc's default thresholds hand a freed block above 128 KiB back to the
    kernel, so every 16-800 KB numpy temporary of a solve at
    ``n = 10^3 .. 10^5`` is page-faulted in again by the next solve.  The
    values are the ceiling of glibc's own dynamic rule:
    ``M_MMAP_THRESHOLD`` (-3) at its 64-bit maximum of 32 MiB and
    ``M_TRIM_THRESHOLD`` (-1) at twice that; either alone leaves the
    faults.  A C library without ``mallopt`` is left as it is.
    """
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(-3, 32 << 20)
        mallopt(-1, 64 << 20)


try:
    _keep_freed_blocks(ctypes.CDLL(None))
except (OSError, TypeError):  # no dlopen of the process itself, as on Windows
    pass


def nodes(n: int) -> np.ndarray:
    """The ``n + 1`` nodes ``j * (1/n)`` on [0, 1] that every solver uses."""
    return np.arange(n + 1, dtype=float) * (1.0 / n)


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
