"""Brute-force reference computations for the tests.

Everything here is deliberately independent of the quadrature weights under
test: plain composite Simpson sums, direct formula evaluation, Taylor
series, classical RK4 and Chebyshev collocation only.  The results CSV is
read with the standard library alone, apart from the package's writer.
"""

import csv
import math
from decimal import Decimal, localcontext

import numpy as np
from numpy.polynomial import chebyshev as C
from numpy.polynomial import polynomial as P


def read_results_csv(path) -> list[dict]:
    """The rows of a ``results.csv``, as dicts keyed by its header."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def simpson(fn, x_end: float, h: float = 1e-6) -> float:
    """Composite Simpson integral of ``fn`` over [0, x_end]."""
    m = int(round(x_end / h))
    if m % 2:
        m += 1
    t = np.linspace(0.0, x_end, m + 1)
    g = np.asarray(fn(t), dtype=float)
    w = np.ones(m + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(np.sum(w * g) * (t[1] - t[0]) / 3.0)


def simpson_double(fn, x_end: float, h: float = 1e-6) -> float:
    """Double integral of ``fn`` from 0, via the kernel form
    ``int_0^x (x - t) fn(t) dt``."""
    return simpson(lambda t: (x_end - t) * np.asarray(fn(t), dtype=float),
                   x_end, h)


def direct_rect_sum(values: np.ndarray, h: float, mu: float) -> float:
    """The product-rectangle weight formula summed term by term."""
    n = len(values) - 1
    total = 0.0
    for j in range(n):
        total += ((n - j) ** mu - (n - j - 1) ** mu) * values[j]
    return h**mu / math.gamma(mu + 1.0) * total


def direct_gl_weight(alpha: float, j: int) -> float:
    """``(-1)^j binom(alpha, j)`` through the gamma function,
    all arguments positive for ``alpha < 0``."""
    return math.gamma(j - alpha) / (math.gamma(-alpha) * math.gamma(j + 1.0))


def _decimal_powers(q: Decimal, count: int) -> list:
    """``j**q`` for ``j = 0 .. count - 1`` in the current decimal context.
    Only primes take a real power: a composite ``j = p k`` takes
    ``p**q * k**q``, from its smallest prime factor ``p``."""
    factor = list(range(count))
    for p in range(2, math.isqrt(count - 1) + 1):
        if factor[p] == p:
            for k in range(p * p, count, p):
                factor[k] = min(factor[k], p)
    power = [Decimal(0), Decimal(1)]
    for j in range(2, count):
        p = factor[j]
        power.append(Decimal(j) ** q if p == j else power[p] * power[j // p])
    return power


def abm_weights_decimal(mu: float, n: int, digits: int = 40):
    """Product-trapezoid weights ``d_j = (j+1)**q + (j-1)**q - 2 j**q`` and
    ``e_j = (j-1)**q - j**mu (j - mu - 1)``, ``q = mu + 1`` exactly, for
    ``j = 0 .. n``, evaluated as written in ``digits``-digit decimal
    arithmetic (``d_0 = 1``, ``e_0 = 0``).  The cancellation costs about
    ``2 log10(n) + 2`` digits, so at 40 digits some 28 survive at
    ``n = 10**4``."""
    with localcontext() as ctx:
        ctx.prec = digits
        m = Decimal(mu)
        power = _decimal_powers(m + 1, n + 2)
        d = [Decimal(1)] + [power[j + 1] + power[j - 1] - 2 * power[j]
                            for j in range(1, n + 1)]
        e = [Decimal(0)] + [power[j - 1] - power[j] / j * (j - m - 1)
                            for j in range(1, n + 1)]
    return d, e


def total_variation(values: np.ndarray) -> float:
    return float(np.sum(np.abs(np.diff(values))))


# ---------------------------------------------------------------------------
# power-series solutions of the case-4 operator y'' + 2x y
# ---------------------------------------------------------------------------

#: Taylor terms kept; the coefficients fall off roughly like
#: 2^(k/3) / (k!)^(2/3), so at x = 1 the tail past 80 terms is far below
#: double precision.
SERIES_TERMS = 80


def _series_with_start(forcing: np.ndarray, y0: float, s0: float) -> np.ndarray:
    """Taylor coefficients of the solution of ``y'' + 2x y = r`` with
    ``y(0) = y0``, ``y'(0) = s0``, where ``r = sum forcing[k] x^k``.

    Matching the ``x^k`` terms gives
    ``(k+2)(k+1) a_{k+2} = r_k - 2 a_{k-1}``, with ``a_{-1} = 0``.
    """
    r = np.zeros(SERIES_TERMS)
    r[:len(forcing)] = forcing[:SERIES_TERMS]
    a = np.zeros(SERIES_TERMS)
    a[0], a[1] = y0, s0
    for k in range(SERIES_TERMS - 2):
        prev = a[k - 1] if k >= 1 else 0.0
        a[k + 2] = (r[k] - 2.0 * prev) / ((k + 2) * (k + 1))
    return a


def case4_operator_series(forcing, y_left: float, y_right: float) -> np.ndarray:
    """Taylor coefficients of the solution of ``y'' + 2x y = r`` on [0, 1]
    with ``y(0) = y_left`` and ``y(1) = y_right``.

    The particular series starts at slope 0 and the homogeneous series
    ``x - x^4/6 + ...`` supplies the slope that meets the right value.
    """
    forcing = np.asarray(forcing, dtype=float)
    particular = _series_with_start(forcing, y_left, 0.0)
    homogeneous = _series_with_start(np.zeros(1), 0.0, 1.0)
    slope = (y_right - np.sum(particular)) / np.sum(homogeneous)
    return particular + slope * homogeneous


#: Case 4, ``u'' = 2x(5 - u)`` with ``u(0) = 3``, ``u(1) = -2``, written as
#: ``u'' + 2x u = 10x``.
CASE4_SERIES = case4_operator_series([0.0, 10.0], 3.0, -2.0)


def case4_series(x) -> np.ndarray:
    """Case-4 reference solution from its Taylor series."""
    return P.polyval(np.asarray(x, dtype=float), CASE4_SERIES)


def case4_fdm_error_prediction(n: int) -> float:
    """Leading-order sup error of the three-point finite-difference solve
    of case 4 on ``n`` intervals.

    The discrete solution is ``u + h^2 E + O(h^4)`` where the truncation
    error ``u''''/12`` of the second difference drives
    ``E'' + 2x E = -u''''/12`` with ``E(0) = E(1) = 0``; the prediction is
    ``h^2 max|E|`` over the grid nodes.
    """
    correction = case4_operator_series(
        -P.polyder(CASE4_SERIES, 4) / 12.0, 0.0, 0.0)
    h = 1.0 / n
    nodes = np.arange(n + 1) * h
    return h * h * float(np.max(np.abs(P.polyval(nodes, correction))))


# ---------------------------------------------------------------------------
# classical RK4 shooting
# ---------------------------------------------------------------------------

def rk4_dense(rhs, u0: float, s0: float, nsteps: int) -> np.ndarray:
    """Integrate ``u'' = rhs(x, u)`` over [0, 1]; returns all node values."""
    h = 1.0 / nsteps
    out = np.empty(nsteps + 1)
    out[0] = u0
    u, s = float(u0), float(s0)
    f = rhs
    for i in range(nsteps):
        x = i * h
        k1u = s
        k1s = f(x, u)
        k2u = s + 0.5 * h * k1s
        k2s = f(x + 0.5 * h, u + 0.5 * h * k1u)
        k3u = s + 0.5 * h * k2s
        k3s = f(x + 0.5 * h, u + 0.5 * h * k2u)
        k4u = s + h * k3s
        k4s = f(x + h, u + h * k3u)
        u += h * (k1u + 2.0 * k2u + 2.0 * k3u + k4u) / 6.0
        s += h * (k1s + 2.0 * k2s + 2.0 * k3s + k4s) / 6.0
        out[i + 1] = u
    return out


def rk4_solve_ivp(rhs, u0: float, s0: float, n: int,
                  substeps: int = 1000) -> np.ndarray:
    """RK4 solution of ``u'' = rhs(x, u)`` at the n+1 uniform nodes."""
    return rk4_dense(rhs, u0, s0, n * substeps)[::substeps].copy()


# ---------------------------------------------------------------------------
# Chebyshev collocation for u'' = g(x) + k(x) u on [0, 1]
# ---------------------------------------------------------------------------

def chebyshev_bvp(g, k, left: float, right: tuple[float, float, float],
                  terms: int = 60):
    """The solution of ``u'' = g(x) + k(x) u`` with ``u(0) = left`` and
    ``p u'(1) + q u(1) = r`` for ``right = (p, q, r)``, by collocation at
    the interior Chebyshev-Lobatto points (Trefethen, *Spectral Methods in
    MATLAB*, 2000), as a function of ``x``.

    With ``t = 2x - 1`` the solution is ``sum c_j T_j(t)``, so
    ``u'' = 4 sum c_j T_j''(t)``; ``T_j(+-1) = (+-1)^j`` and
    ``T_j'(1) = j^2`` give the boundary rows.
    """
    t = np.cos(np.pi * np.arange(1, terms - 1) / (terms - 1))
    x = (t + 1.0) / 2.0
    unit = np.eye(terms)
    values = C.chebvander(t, terms - 1)
    second = np.stack([C.chebval(t, C.chebder(e, 2)) for e in unit], axis=1)
    j = np.arange(terms)
    p, q, r = right
    matrix = np.vstack([
        4.0 * second - k(x)[:, None] * values,
        (-1.0) ** j,
        2.0 * p * j * j + q,
    ])
    coeffs = np.linalg.solve(matrix, np.r_[g(x), left, r])
    return lambda xs: C.chebval(2.0 * np.asarray(xs, dtype=float) - 1.0,
                                coeffs)


# ---------------------------------------------------------------------------
# central differences, marched step by step and solved as dense rows
# ---------------------------------------------------------------------------

def central_march(g, k, u0: float, s0: float, n: int) -> np.ndarray:
    """Central differences on ``u'' = g(x) + k(x) u`` as an IVP from
    ``U[0] = u0`` and ``U[1] = u0 + s0 h``, one step at a time in the
    difference form ``D[i] = D[i-1] + h^2 (g[i] + k[i] U[i])``,
    ``U[i+1] = U[i] + D[i]``; ``g`` and ``k`` are samples at the nodes."""
    h = 1.0 / n
    g, k = (np.broadcast_to(f, (n + 1,)).tolist() for f in (g, k))
    U = [u0, u0 + s0 * h]
    D = s0 * h
    for i in range(1, n):
        D += h * h * (g[i] + k[i] * U[i])
        U.append(U[i] + D)
    return np.array(U)


def fdm_dense(g, k, left: float, right: tuple[float, float, float],
              n: int) -> np.ndarray:
    """The central-difference solution of ``u'' = g(x) + k(x) u`` on the
    nodes ``j / n``, from its ``(n + 1) x (n + 1)`` rows, scaled to unit
    entries: ``U[0] = left``,
    ``U[i-1] - (2 + h^2 k[i]) U[i] + U[i+1] = h^2 g[i]`` for ``0 < i < n``,
    and ``p (3 U[n] - 4 U[n-1] + U[n-2]) / 2 + h q U[n] = h r`` for
    ``right = (p, q, r)``, the three-node backward slope times ``h``.

    ``numpy.linalg.solve`` runs on the dense matrix, then on the residual
    three times.  Rounding ``-2 - h^2 k`` moves ``k`` by about
    ``1e-16 / h^2``, up to 3e-12 of ``max|u|`` at ``n = 1000``, so the
    residual is taken through first differences, as the rows read.
    """
    h = 1.0 / n
    x = np.arange(n + 1) * h
    hk = h * h * np.broadcast_to(k(x), x.shape)[1:n]
    hg = h * h * np.broadcast_to(g(x), x.shape)[1:n]
    p, q, r = right
    i = np.arange(1, n)
    matrix = np.zeros((n + 1, n + 1))
    matrix[0, 0] = 1.0
    matrix[i, i - 1] = matrix[i, i + 1] = 1.0
    matrix[i, i] = -2.0 - hk
    matrix[n, n - 2:] = 0.5 * p, -2.0 * p, 1.5 * p + h * q
    u = np.zeros(n + 1)
    for _ in range(4):
        d = np.diff(u)
        residual = np.r_[left - u[0], hg - np.diff(d) + hk * u[1:n],
                         h * r - p * (1.5 * d[-1] - 0.5 * d[-2]) - h * q * u[n]]
        u = u + np.linalg.solve(matrix, residual)
    return u
