"""Speed gauge of the fracbvp benchmark.

The host of a small virtual machine can change its speed by 1.5-3x within
minutes, and such a change moves every timing of a run alike.  A fixed
kernel, timed before and after each op, tracks that speed: op times are
scaled to the speed at which one pass of the kernel takes its
``REFERENCE_PASS_S``.  Each workload names the kernel that resembles its
ops, because the host's drift does not slow interpreted loops, loops over
numpy scalars and numpy's compiled loops alike.  The kernels are the
benchmark's own code, so no change to fracbvp can move them.

Importing this module loads nothing but ``time``, so probe.py can gauge the
speed before it imports fracbvp (and numpy).
"""

import time

#: One pass of each kernel on the reference machine (2 vCPUs, Python 3.11,
#: numpy 2.4).
REFERENCE_PASS_S = {"python": 0.4e-3, "scalar": 1.4e-3, "convolve": 3.0e-3}
#: Passes per gauge reading, of which the median counts.
PASSES = 3

_VALUES = [0.5 + 1e-4 * i for i in range(10_000)]


def python_pass() -> float:
    """Time of one pass: a first-order recurrence over a list of 10,000
    floats in a pure-Python loop."""
    t0 = time.perf_counter()
    acc, prev = 0.0, 0.0
    for value in _VALUES:
        acc = acc * 0.999 + value * prev
        prev = value
    return time.perf_counter() - t0


def scalar_pass() -> float:
    """Time of one pass: a like recurrence as a loop over the elements of
    3000-point numpy arrays, as fracbvp's Thomas sweep runs it."""
    import numpy as np  # here, so that importing this module loads no numpy
    a, b = np.linspace(0.5, 1.5, 3000), np.linspace(1.5, 0.5, 3000)
    c = np.zeros(3000)
    t0 = time.perf_counter()
    for i in range(1, 3000):
        c[i] = (a[i] - b[i] * c[i - 1]) / 3.0
    return time.perf_counter() - t0


def convolve_pass() -> float:
    """Time of one pass: np.convolve of two 4000-point arrays, the
    discrete convolution that fracops runs on every IFOI stage."""
    import numpy as np
    a = np.linspace(0.5, 1.5, 4000)
    t0 = time.perf_counter()
    np.convolve(a, a)
    return time.perf_counter() - t0


KERNELS = {"python": python_pass, "scalar": scalar_pass,
           "convolve": convolve_pass}


def reading(kind: str, passes: int = PASSES) -> float:
    """Median time of ``passes`` passes of one kernel."""
    times = sorted(KERNELS[kind]() for _ in range(passes))
    return times[len(times) // 2]


def to_reference(seconds: float, kind: str, pass_s: float) -> float:
    """``seconds`` measured while a pass of the kernel took ``pass_s``,
    scaled to reference speed."""
    return seconds * REFERENCE_PASS_S[kind] / pass_s


class Gauge:
    """Readings of one kernel taken before the first op and after every op;
    an op's time is scaled by the mean of the readings on either side."""

    def __init__(self, kind: str):
        self.kind = kind
        self.readings = [reading(kind)]

    def after_op(self) -> None:
        self.readings.append(reading(self.kind))

    def scaled(self, seconds: list) -> list:
        """Op times at reference speed, for the ops gauged so far."""
        if len(seconds) != len(self.readings) - 1:
            raise ValueError(f"{len(seconds)} op times for "
                             f"{len(self.readings) - 1} gauged ops")
        return [to_reference(s, self.kind, (before + after) / 2)
                for s, before, after in zip(seconds, self.readings,
                                            self.readings[1:])]
