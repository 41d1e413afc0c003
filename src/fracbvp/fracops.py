"""Fractional integration of uniformly sampled functions.

Three discretizations of the order-``mu`` fractional integral (``mu = -alpha``
with ``alpha`` in ``[-2, 0)``, lower terminal fixed at zero) are provided:

* :func:`gl_apply`, the truncated binomial-weight series,
* :func:`rect_apply`, the product rectangle rule (integrand frozen at the
  left end of each cell, kernel integrated exactly),
* :func:`abm_apply`, the product trapezoid rule used as the corrector of
  predictor-corrector schemes (integrand piecewise linear, kernel exact).

All three map a :class:`~fracbvp.grid.GridFunction` to another on the same
grid, are linear in the input, and return 0 at the left node, the value the
integral from 0 to 0 forces.  Each is one matrix of a common form, built by
:func:`stage_kernel` and applied by direct convolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction

#: Smallest admissible truncation window, in units of the grid step.
MIN_WINDOW_STEPS = 10


def gamma_fn(x: float) -> float:
    """Gamma function for positive arguments.

    Delegates to the platform implementation, which is accurate to a few
    ulp across the range used by the quadrature weights.

    :raises ValueError: for ``x <= 0``; the reflection branch is not needed
        by any scheme here and is deliberately not offered.
    """
    if x <= 0.0:
        raise ValueError(f"gamma_fn requires a positive argument, got {x}")
    return math.gamma(x)


@dataclass(frozen=True)
class MemoryPolicy:
    """How much of the convolution tail :func:`gl_apply` keeps.

    ``full`` sums over the entire history.  ``truncated`` drops samples
    farther than ``window_length`` behind the evaluation point, trading
    accuracy for cost on long domains.
    """

    mode: str = "full"
    window_length: float = math.inf

    def __post_init__(self):
        if self.mode not in ("full", "truncated"):
            raise ValueError(f"unknown memory mode {self.mode!r}")
        if self.mode == "truncated" and not self.window_length > 0.0:
            raise ValueError("truncated mode needs a positive window_length")


FULL_MEMORY = MemoryPolicy()


def _check_integration_order(alpha: float) -> float:
    if not -2.0 <= alpha < 0.0:
        raise ValueError(
            f"integration order must lie in [-2, 0), got {alpha}; "
            "positive (differentiation) orders are out of contract"
        )
    return -alpha


def gl_coefficients(alpha: float, count: int) -> np.ndarray:
    """First ``count`` series weights ``w_j = (-1)^j * binom(alpha, j)``.

    Computed by the stable recursion ``w_0 = 1``,
    ``w_j = w_{j-1} * (1 - (alpha + 1)/j)``, as a running product.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    factors = 1.0 - (alpha + 1.0) / np.arange(1, count)
    return np.concatenate(([1.0], np.cumprod(factors)))


def _gl_kernel(mu: float, n: int, h: float, policy: MemoryPolicy):
    w = gl_coefficients(-mu, n + 1)
    if policy.mode == "truncated":
        if policy.window_length < MIN_WINDOW_STEPS * h:
            raise ValueError(
                f"window_length {policy.window_length} is below "
                f"{MIN_WINDOW_STEPS} grid steps"
            )
        keep = int(math.floor(policy.window_length / h + 1e-12))
        w[keep + 1:] = 0.0
    return h**mu * w, np.zeros(n + 1)


def _rect_kernel(mu: float, n: int, h: float, policy: MemoryPolicy):
    p = np.arange(n + 1, dtype=float) ** mu
    b = np.zeros(n + 1)
    b[1:] = p[1:] - p[:-1]
    return h**mu / gamma_fn(mu + 1.0) * b, np.zeros(n + 1)


def _abm_kernel(mu: float, n: int, h: float, policy: MemoryPolicy):
    # j**mu and j**(mu+1) over j = 0..n+1, read at j-1, j and j+1 by slices
    j = np.arange(n + 2, dtype=float)
    p, q = j**mu, j ** (mu + 1.0)
    # interior weights depend on n - j only; the j = 0 column is special
    d = np.ones(n + 1)
    d[1:] = q[2:] + q[:-2] - 2.0 * q[1:-1]
    e = np.zeros(n + 1)
    e[1:] = q[:-2] - p[1:-1] * (j[1:-1] - mu - 1.0)
    scale = h**mu / gamma_fn(mu + 2.0)
    # the j = 0 weight replaces the interior one the convolution puts there
    return scale * d, scale * (e - d)


_KERNELS = {"gl": _gl_kernel, "rect": _rect_kernel, "abm": _abm_kernel}


def stage_kernel(scheme: str, alpha: float, n: int, h: float,
                 policy: MemoryPolicy = FULL_MEMORY) -> tuple[np.ndarray, np.ndarray]:
    """Matrix of one fractional integration on ``n + 1`` nodes, as a pair.

    Every scheme here is a lower-triangular Toeplitz convolution plus a
    correction in column 0: the value at ``x_i`` is
    ``sum_j kernel[i-j] f(x_j) + col0[i] f(x_0)``.  ``col0[0]`` cancels
    ``kernel[0]``, so node 0 maps to 0 and the pairs of successive stages
    compose into a pair of the same form.
    """
    try:
        build = _KERNELS[scheme]
    except KeyError:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of "
                         f"{sorted(_KERNELS)}") from None
    kernel, col0 = build(_check_integration_order(alpha), n, h, policy)
    col0[0] = -kernel[0]
    return kernel, col0


def gl_apply(f: GridFunction, alpha: float,
             policy: MemoryPolicy = FULL_MEMORY) -> GridFunction:
    """Binomial-series fractional integral of ``f``.

    The value at ``x_k`` is ``h**(-alpha) * sum_j w_j f(x_k - j h)`` with the
    sum over the full history, or over ``j <= window_length/h`` under a
    truncated policy.  First-order accurate in ``h`` for smooth ``f``.
    """
    return apply_scheme("gl", f, alpha, policy)


def rect_apply(f: GridFunction, alpha: float) -> GridFunction:
    """Product rectangle fractional integral of ``f``.

    On each cell ``[x_j, x_{j+1}]`` the integrand is frozen at ``f(x_j)``
    while the kernel ``(x - t)**(mu-1)`` is integrated exactly, giving the
    value ``h**mu / Gamma(mu+1) * sum_{j<n} ((n-j)**mu - (n-j-1)**mu) f(x_j)``
    at ``x_n``.  First-order accurate.
    """
    return apply_scheme("rect", f, alpha)


def abm_apply(rhs_values: GridFunction, alpha: float) -> GridFunction:
    """Product trapezoid fractional integral of known samples.

    This is the corrector quadrature of the classical fractional
    predictor-corrector method: the integrand is replaced by its piecewise
    linear interpolant and the kernel is integrated exactly.  When the
    integrand is a known grid function, as here, the predict and evaluate
    stages of that method collapse and the corrector sum below is the whole
    scheme.  Second-order accurate on smooth data, exact on affine data.

    The weights at ``x_n`` are, with ``c = h**mu / Gamma(mu + 2)``:

    * ``a_{n,0} = c * ((n-1)**(mu+1) - n**mu (n - mu - 1))``
    * ``a_{n,j} = c * ((n-j+1)**(mu+1) + (n-j-1)**(mu+1) - 2(n-j)**(mu+1))``
      for ``1 <= j <= n-1``
    * ``a_{n,n} = c``
    """
    return apply_scheme("abm", rhs_values, alpha)


def apply_scheme(scheme: str, f: GridFunction, alpha: float,
                 policy: MemoryPolicy = FULL_MEMORY) -> GridFunction:
    """One fractional integration by scheme name, by direct convolution
    with the pair of :func:`stage_kernel`."""
    kernel, col0 = stage_kernel(scheme, alpha, f.n, f.h, policy)
    out = np.convolve(kernel, f.values)[: f.n + 1] + col0 * f.values[0]
    out[0] = 0.0
    return f.with_values(out)
