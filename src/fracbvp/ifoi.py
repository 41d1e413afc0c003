"""Second-order IVPs solved by staged fractional integration (IFOI).

The order-2 integral of the right-hand side is reached by composing partial
fractional integrations whose orders follow an :class:`AlphaPartition`
schedule; the semigroup law of the fractional integral makes the composition
converge to the plain double integral as the grid refines.  A solve applies
the whole schedule as one convolution, a :class:`ComposedOperator` of a
scheme, a schedule and a grid, composed once per power-of-two length;
:func:`staged` gives the partial integral after every stage instead, for
the stage-evolution plot, by FFT: on short grids in one batch, over a
table of the compositions of stages ``1..j`` kept the same way, whose
last row is the composition.  Every ``abm`` row is exact on constants, so
snapshot ``j`` converges at order ``min(2, 1 + c_j)`` or more, ``c_j``
the cumulative order.  Both keep full memory.  A problem is
``u'' = g(x) + k(x) u``; in an IVP a coupling ``k`` is handled by an
outer Picard iteration around the composed operator, and only its
iterates are held to the divergence guard.  Each composed kernel is
FDM's double sum ``j`` plus a remainder the scheme sets: for ``gl``
``j + 1``, a one-node shift, with a column that the first stage's order
alone sets; for ``rect`` a lag that tends to ``-m/2``; for ``abm`` a
summable tail like ``j^-(1 + mu_1)`` (README, "Notes on the numerics").
:meth:`ComposedOperator.apply_remainder` applies it, so a coupled BVP is
not solved as IVPs: :func:`fracbvp.shooting.solve_bvp` solves one system
on FDM's sweep and corrects it for the remainder, falling back to two
IVPs by Picard only where that correction stalls.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .fracops import _fft_size, apply_pair, gl_coefficients, stage_kernels
# unused here: the benchmark's tracer wraps this module's ``apply_scheme``
from .fracops import apply_scheme  # noqa: F401
from .grid import GridFunction, nodes

TOTAL_ORDER = 2.0
PICARD_TOL = 1e-10
PICARD_MAX_ITER = 200
DIVERGENCE_GUARD = 1e8
MIN_GRID = 8


class DivergenceError(RuntimeError):
    """A solve diverged: a Picard iterate passed the ``1e8`` guard, Picard
    failed to settle, or a solve, IFOI or FDM, overflowed to non-finite
    values."""

    def __init__(self, message: str, iterations: int, last_update: float):
        super().__init__(message)
        self.iterations = iterations
        self.last_update = last_update


@dataclass(frozen=True)
class AlphaPartition:
    """Monotone schedule of cumulative integration orders ending at 2.

    ``cumulative[k]`` is the total order integrated after stage ``k``;
    ``cumulative[0] == 0`` and ``cumulative[m] == 2``.  Stage ``k`` applies
    one fractional integration of order ``-(cumulative[k] - cumulative[k-1])``.
    """

    spacing: str
    cumulative: tuple[float, ...]

    def __post_init__(self):
        s = self.cumulative
        if s[0] != 0.0 or s[-1] != TOTAL_ORDER:
            raise ValueError("cumulative orders must run from 0 to 2")
        if any(b <= a for a, b in zip(s, s[1:])):
            raise ValueError("cumulative orders must increase strictly")
        if any(not -2.0 <= -(b - a) < 0.0 for a, b in zip(s, s[1:])):
            raise ValueError("every stage order must lie in [-2, 0)")

    @property
    def stage_count(self) -> int:
        return len(self.cumulative) - 1

    @property
    def stage_orders(self) -> tuple[float, ...]:
        """Per-stage (negative) integration orders."""
        s = self.cumulative
        return tuple(-(b - a) for a, b in zip(s, s[1:]))


def make_alpha_partition(spacing: str, m: int) -> AlphaPartition:
    """Build a schedule of ``m`` stages.

    ``regular`` spaces the cumulative orders evenly, ``2k/m``; ``quadratic``
    concentrates the small stages first, ``2(k/m)**2``, where the shape of
    the partial integrals changes fastest.
    """
    if m < 1:
        raise ValueError("need at least one stage")
    k = np.arange(m + 1, dtype=float)
    if spacing == "regular":
        cum = TOTAL_ORDER * k / m
    elif spacing == "quadratic":
        cum = TOTAL_ORDER * (k / m) ** 2
    else:
        raise ValueError(f"unknown spacing {spacing!r}")
    cum[0], cum[-1] = 0.0, TOTAL_ORDER
    return AlphaPartition(spacing, tuple(cum))


@dataclass(frozen=True)
class IvpProblem:
    """``u'' = g(x) + k(x) u`` on [0, 1] with ``u(0) = u0`` and ``u'(0) = s0``.

    ``g`` is the forcing and ``k`` the coupling, each a function of the
    nodes; ``None`` stands for zero.  A problem without coupling is solved
    by one staged pass, one with it by Picard iteration.
    """

    g: Optional[Callable[[np.ndarray], np.ndarray]]
    k: Optional[Callable[[np.ndarray], np.ndarray]]
    u0: float
    s0: float

    def rhs(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """``g(x) + k(x) u`` as a new array of the shape of ``x``."""
        out = np.zeros(np.shape(x))
        if self.g is not None:
            out += self.g(x)
        if self.k is not None:
            out += self.k(x) * u
        return out


@dataclass(frozen=True)
class IfoiTrace:
    """What one solve leaves behind: its Picard iteration count, 0 without
    coupling; for a coupled BVP solved as one system, its correction
    passes."""

    picard_iterations: int


#: Entries kept by :func:`_prefix_pairs`, one per scheme, schedule and
#: length class.  The benchmark's ``ifoi-large`` workload uses 16, all
#: single composed pairs (about 2 MB at ``n <= 10^4``); ``paper``, which
#: traces every case at the default grid and at n = 40, 80 and 200 and
#: runs ``table1``, 12, all tables (under 0.5 MB).
COMPOSED_CACHE_SIZE = 32


#: Longest length class whose stage snapshots are read off a table of
#: :func:`_prefix_pairs`; longer grids chain the stages one by one.  Up
#: to here the first call of a class, which builds the table, costs about
#: what the chain costs and later calls a third of it.  Beyond, the build
#: costs more than the chain (71-164 ms against 29-67 ms at ``n = 10^5``,
#: 2-CPU x86_64 host), and a traced run stages its grid once.
STAGED_TABLE_LENGTH = 256


def _length_class(n: int) -> int:
    """The smallest power of two ``>= n + 1``: the number of terms of the
    composed sequence that serves the grid of ``n + 1`` nodes."""
    return 1 << n.bit_length()


@functools.lru_cache(maxsize=COMPOSED_CACHE_SIZE)
def _prefix_pairs(scheme: str, partition: AlphaPartition,
                  length: int) -> np.ndarray:
    """The pairs of stages ``1..j`` of a staged integration at ``h = 1``,
    on ``length`` terms, with full memory: a read-only ``(2, r, length)``
    array of the kernels ``P_j = k_j * ... * k_1`` and columns ``V_j``,
    for every ``j`` up to ``STAGED_TABLE_LENGTH`` terms (the table of
    :func:`staged`), else for ``j = m`` alone: either way the last row is
    the pair of :class:`ComposedOperator`.  The process keeps up to
    ``COMPOSED_CACHE_SIZE``, keyed by the length class, a function of the
    grid alone, so a grid's values never depend on the grids before it.

    GL weights are the coefficients of ``(1 - z)**-mu``, so ``P_j`` is the
    GL kernel of order ``c_j``, the cumulative order, and, with
    ``v_1 = -e_0``, ``V_j = k_j * ... * k_2 * v_1`` is minus that of order
    ``c_j - c_1``.  Otherwise each kernel is the previous one times the
    next stage kernel, built one at a time, truncated to ``length`` terms
    before the next product: the spectra of all stages multiplied at once
    would alias the tail of the full-length product.  ``rect`` has no
    columns (``v_1 = 0``); ``abm``'s, ``V_j = i**c_j / Gamma(c_j + 1) -
    cumsum(P_j)``, make every row exact on constants, as the product
    trapezoid rule is (Diethelm, Ford & Freed 2002), so snapshot ``j``
    converges at order ``min(2, 1 + c_j)`` or more (measured 1.40 and up
    on the regular ten-stage schedule, 1.09 and up on the quadratic one)
    and the composed operator at order 2.

    Stage ``k`` at step ``h`` is ``h**mu_k`` times its pair at ``h = 1``,
    so row ``j`` at ``h`` is ``h**c_j`` times this one, and the composed
    pair ``h**2`` times.  The first ``n + 1`` terms of a truncated
    power-series product do not depend on where it is truncated, so every
    grid with ``n + 1 <= length`` reads its pairs off a prefix.
    """
    r = 1 if length > STAGED_TABLE_LENGTH else partition.stage_count
    c_j = np.array(partition.cumulative[-r:])
    if scheme == "gl":
        rows = gl_coefficients(
            np.stack((-c_j, partition.cumulative[1] - c_j)), length)
        np.negative(rows[1], out=rows[1])
    else:
        rows = np.zeros((2, r, length))
        size = 2 * length  # a product of two length-term series fits
        for j, alpha in enumerate(partition.stage_orders):
            kernel = stage_kernels(scheme, alpha, length - 1, 1.0)[0]
            chain = kernel if j == 0 else np.fft.irfft(np.fft.rfft(
                chain, size) * np.fft.rfft(kernel, size), size)[:length]
            rows[0, min(j, r - 1)] = chain  # the last stage's, if one row
    if scheme == "abm":
        # blocks of ~sqrt(length) terms: a plain cumsum rounds up to 200x worse
        width = 1 << (length.bit_length() // 2)
        sums = np.cumsum(rows[0].reshape(r, -1, width), axis=2)
        sums[:, 1:] += np.cumsum(sums[:, :-1, -1], axis=1)[..., None]
        gammas = np.array([math.gamma(c + 1.0) for c in c_j])[:, None]
        rows[1] = (np.arange(length, dtype=float) ** c_j[:, None] / gammas
                   - sums.reshape(r, length))
    rows.setflags(write=False)
    return rows


@dataclass(frozen=True)
class ComposedOperator:
    """A whole staged integration as one matrix ``K f = conv(k, f) + v f[0]``.

    Its fields are all the settings of an IVP solve: the scheme, the
    schedule and the grid of ``n + 1`` nodes on [0, 1].  It always keeps
    full memory, since its FFT apply costs the same whatever the window.
    ``k`` and ``v`` are ``h**2`` times the first ``n + 1`` terms of the
    last row of :func:`_prefix_pairs`, composed once per scheme, schedule
    and :func:`_length_class` and kept in its cache: later operators of a
    class, on any of its grids, only slice it and take one FFT.  On short
    grids that row is the last row of the table that :func:`staged` reads.

    :raises ValueError: if ``n < 8``, or if ``scheme`` is ``rect`` and
        ``n`` is below the stage count ``m``: every ``rect`` stage is
        strictly lower triangular, so ``m`` of them on ``n + 1 <= m``
        nodes compose to the zero matrix.
    """

    scheme: str
    partition: AlphaPartition
    n: int

    def __post_init__(self):
        if self.n < MIN_GRID:
            raise ValueError(f"grid too coarse, need n >= {MIN_GRID}")
        m = self.partition.stage_count
        if self.scheme == "rect" and self.n < m:
            raise ValueError(f"rect with m = {m} stages on n = {self.n} "
                             f"composes to the zero operator, need n >= m")

    @functools.cached_property
    def _built(self) -> tuple[np.ndarray, np.ndarray, int]:
        n, h = self.n, 1.0 / self.n
        k, v = _prefix_pairs(self.scheme, self.partition,
                             _length_class(n))[:, -1]
        size = _fft_size(2 * n + 1)
        return np.fft.rfft(k[: n + 1] * h**2, size), v[: n + 1] * h**2, size

    @functools.cached_property
    def _remainder(self) -> np.ndarray:
        """The spectrum of ``h**2 (k - j)``: the composed kernel less
        FDM's double sum ``J``, the kernel ``j = 0, 1, 2, ...``, built
        only for coupled BVP solves."""
        n, h = self.n, 1.0 / self.n
        k = _prefix_pairs(self.scheme, self.partition,
                          _length_class(n))[0, -1, : n + 1]
        return np.fft.rfft((k - np.arange(n + 1)) * h**2, self._built[2])

    def apply(self, values: np.ndarray) -> np.ndarray:
        """``K`` applied to ``n + 1`` samples, in one FFT pair."""
        return self._convolve(self._built[0], values)

    def apply_remainder(self, values: np.ndarray) -> np.ndarray:
        """``K - h**2 J`` applied to ``n + 1`` samples, in one FFT pair:
        ``h**2 (delta * f + v f[0])`` with ``delta = k - j``, zero at
        node 0, the correction that :func:`fracbvp.shooting.solve_bvp`
        iterates on."""
        return self._convolve(self._remainder, values)

    def _convolve(self, spectrum: np.ndarray, values: np.ndarray,
                  ) -> np.ndarray:
        _, col0, size = self._built
        conv = np.fft.irfft(np.fft.rfft(values, size) * spectrum, size)
        out = conv[: values.size] + col0 * values[0]
        out[0] = 0.0
        return out


def staged(f: GridFunction, partition: AlphaPartition,
           scheme: str) -> np.ndarray:
    """The partial integrals of ``f`` after each stage of ``partition``,
    rows of one read-only ``(m, n + 1)`` array, with full memory, in
    ``O(m n log n)``: row ``j`` is ``h**c_j`` times ``conv(P_j, f) +
    V_j f[0]`` with the pairs of :func:`_prefix_pairs`, the last row the
    :class:`ComposedOperator` applied to ``f``, to rounding.  Up to
    ``STAGED_TABLE_LENGTH`` nodes that is one batched FFT convolution with
    that table (``16 m length`` bytes, 41 kB at most for ``m = 10``).
    Longer grids chain the stages, one FFT each, building each pair as it
    is applied; only stage 1's column acts, as every stage output is 0 at
    node 0.  ``abm`` stages ``f - f(0)`` there and adds the exact
    ``f(0) x**c_j / Gamma(c_j + 1)`` one row at a time."""
    length = _length_class(f.n)
    if length > STAGED_TABLE_LENGTH:
        f0 = f.values[0] if scheme == "abm" else 0.0
        rows, row = np.empty((partition.stage_count, f.n + 1)), f.values - f0
        for c, alpha, out in zip(partition.cumulative[1:],
                                 partition.stage_orders, rows):
            out[...] = row = apply_pair(
                *stage_kernels(scheme, alpha, f.n, f.h), row)
            if f0:
                out += f0 / math.gamma(c + 1.0) * f.nodes ** c
    else:
        kernels, col0s = _prefix_pairs(scheme, partition, length)
        powers = np.array([f.h**c for c in partition.cumulative[1:]])[:, None]
        rows = apply_pair(kernels[:, : f.n + 1] * powers,
                          col0s[:, : f.n + 1] * powers, f.values)
    rows.setflags(write=False)
    return rows


def ifoi_solve_ivp(problem: IvpProblem, operator: ComposedOperator,
                   ) -> tuple[GridFunction, IfoiTrace]:
    """Solve one IVP by staged fractional integration of the forcing.

    The solution is assembled as ``u0 + s0*x + K[g + k u]`` on the grid of
    ``operator``, where ``K``, the composition of the stages of its
    schedule in its scheme, is applied by FFT in ``O(n log n)``.  The
    initial-condition polynomial enters once, after the staging: the
    integral operators leave zero value and zero slope at the origin, so
    nothing else is consistent.  ``g`` and ``k`` are sampled once.

    Without coupling one pass solves the problem and counts no Picard
    iteration.  With it, the whole composition iterates as
    ``u <- u0 + s0*x + K[g + k u]`` from the initial-condition line
    ``u0 + s0*x`` until the sup-norm update drops below ``1e-10`` times
    ``max(1, max|u|)``: relative to the iterate once it passes 1, since the
    rounding of an FFT apply keeps the update near a fixed fraction of
    ``max|u|``.  When ``s0 = 0``, or ``u0 = 0`` without forcing, as in both
    IVPs of a shooting solve, that start is the constant ``u0`` or its
    first iterate, so the passes are those from ``u0``, one fewer in the
    second case.  Only an iteration can diverge, so only Picard iterates
    are held to the ``1e8`` guard.  The solution comes back with an
    :class:`IfoiTrace` of the Picard count.

    :raises DivergenceError: if the right-hand side or the solution
        overflows, or a Picard iterate passes ``1e8`` or fails to settle
        within 200 iterations.
    """
    x = nodes(operator.n)
    ic = problem.u0 + problem.s0 * x
    g = IvpProblem(problem.g, None, 0.0, 0.0).rhs(x, None)
    k = None if problem.k is None else problem.k(x)

    u = ic
    for iterations in range(1, PICARD_MAX_ITER + 1):
        forcing = g if k is None else g + k * u
        if not np.all(np.isfinite(forcing)):
            raise DivergenceError(
                "right-hand side overflowed", iterations=0,
                last_update=math.inf)
        unew = ic + operator.apply(forcing)
        if k is None:
            if not np.all(np.isfinite(unew)):
                raise DivergenceError(
                    "solution overflowed", iterations=0,
                    last_update=math.inf)
            u, iterations = unew, 0
            break
        peak = float(np.max(np.abs(unew)))
        if not peak < DIVERGENCE_GUARD:
            raise DivergenceError(
                "solution exceeded the divergence guard", iterations, peak)
        update = float(np.max(np.abs(unew - u)))
        u = unew
        if update < PICARD_TOL * max(1.0, peak):
            break
    else:
        raise DivergenceError(
            f"Picard did not settle in {PICARD_MAX_ITER} iterations",
            PICARD_MAX_ITER, update)

    return GridFunction(u), IfoiTrace(iterations)
