"""Second-order IVPs solved by staged fractional integration (IFOI).

The order-2 integral of the right-hand side is reached by composing partial
fractional integrations whose orders follow an :class:`AlphaPartition`
schedule; the semigroup law of the fractional integral makes the composition
converge to the plain double integral as the grid refines.  A problem is
``u'' = g(x) + k(x) u``; a coupling ``k`` is handled by an outer Picard
iteration around the whole staged composition.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .fracops import (FULL_MEMORY, MemoryPolicy, apply_pair, apply_scheme,
                      stage_kernels, stage_norms)
from .grid import GridFunction, sup_distance

TOTAL_ORDER = 2.0
PICARD_TOL = 1e-10
PICARD_MAX_ITER = 200
DIVERGENCE_GUARD = 1e8
MIN_GRID = 8


class IfoiDivergenceError(RuntimeError):
    """Picard iteration or the FDM march blew past the guard, or Picard
    failed to settle."""

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


Snapshots = tuple[tuple[float, GridFunction], ...]


@dataclass(frozen=True)
class IfoiTrace:
    """Stage-by-stage snapshots of one solve.

    Each entry of :attr:`stages` pairs the cumulative order reached with the
    partial solution ``u0 + s0*x + (partial integral)``; the last snapshot
    is the returned solution itself.  For Picard-wrapped problems the
    snapshots belong to the final pass.

    ``picard_iterations`` is the only public field.  :attr:`stages` is a
    property computed on first read, by one staged pass over the forcing
    of the final pass, which the trace holds for that purpose; it is not
    seen by ``dataclasses.fields``, ``asdict``, ``replace`` or ``==``.
    """

    picard_iterations: int
    _staged: Callable[[], Snapshots] = field(repr=False, compare=False)

    @functools.cached_property
    def stages(self) -> Snapshots:
        """The snapshots, from one staged pass run on first access."""
        return self._staged()


def _merged_orders(orders: tuple[float, ...],
                  ) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Stage orders with those that agree to a relative ``1e-12`` merged:
    the distinct orders by first appearance, and each stage's index among
    them.  The stages of a regular schedule differ only by rounding (all
    within ``2e-16`` of ``-2/m``) and merge into one; those of a quadratic
    one differ by at least ``0.04`` and stay apart."""
    distinct: list[float] = []
    index = []
    for alpha in orders:
        index.append(next((i for i, d in enumerate(distinct)
                           if abs(alpha - d) <= 1e-12 * abs(d)),
                          len(distinct)))
        if index[-1] == len(distinct):
            distinct.append(alpha)
    return tuple(distinct), tuple(index)


def _staged_integral(f: GridFunction, partition: AlphaPartition, scheme: str,
                     policy: MemoryPolicy) -> list[GridFunction]:
    orders, index = _merged_orders(partition.stage_orders)
    kernels, col0s = stage_kernels(scheme, orders, f.n, f.h, policy)
    out = []
    g = f
    for i in index:
        g = apply_pair(kernels[i], col0s[i], g)
        if not np.all(np.abs(g.values) < DIVERGENCE_GUARD):
            raise IfoiDivergenceError(
                "intermediate stage exceeded the divergence guard",
                iterations=0, last_update=float(np.max(np.abs(g.values))))
        out.append(g)
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


@dataclass(frozen=True)
class ComposedOperator:
    """A whole staged integration as one matrix ``K f = conv(k, f) + v f[0]``.

    The matrix is composed from the stages of ``partition`` on ``n + 1``
    nodes when first used, and kept by this object only: a solver from
    :func:`make_ivp_solver` holds one, shared by the IVPs of one shooting
    solve and by all their Picard passes.

    Each stage output is 0 at node 0, so the column-0 term of a later stage
    never acts and the composition is ``k = P * k_1``, ``v = P * v_1`` with
    ``P = k_m * ... * k_2``.  Products of lower-triangular Toeplitz
    matrices commute, so ``P`` is built from one kernel per distinct stage
    order, raised to its multiplicity by repeated squaring.  Orders that
    agree to a relative ``1e-12`` count as one, so
    a regular schedule composes one kernel raised to a power.  All distinct
    kernels come from one :func:`~fracbvp.fracops.stage_kernels` call and
    their spectra from one FFT.  Every product is truncated to ``n + 1``
    terms before the next: the spectra of all stages multiplied at once
    would alias the tail of the full-length product.  GL weights are the
    coefficients of ``(1 - z)**-mu``, so under full memory the GL stages
    compose in closed form and need no products at all.
    """

    scheme: str
    partition: AlphaPartition
    n: int
    policy: MemoryPolicy = FULL_MEMORY

    @functools.cached_property
    def _built(self) -> tuple[np.ndarray, np.ndarray, int, float]:
        n, h = self.n, 1.0 / self.n
        size = _fft_size(2 * n + 1)
        orders, index = _merged_orders(self.partition.stage_orders)
        norms = stage_norms(self.scheme, orders, n, h, self.policy)
        # the margin covers rounding in the staged sums the bound stands for
        bound = float(np.max(np.cumprod(norms[list(index)]))) * (1.0 + 1e-6)
        if len(index) > 1 and self.scheme == "gl" \
                and self.policy.mode == "full":
            # P is the GL kernel of order 2 - mu_1, and v_1 is -h**mu_1 e_0
            mu_1 = self.partition.cumulative[1]
            k, p = stage_kernels("gl", (-TOTAL_ORDER, mu_1 - TOTAL_ORDER),
                                 n, h)[0]
            return np.fft.rfft(k, size), -h**mu_1 * p, size, bound
        kernels, col0s = stage_kernels(self.scheme, orders, n, h, self.policy)
        spectra = np.fft.rfft(kernels, size)
        spectrum, v = spectra[index[0]], col0s[index[0]]
        if len(index) == 1:
            return spectrum, v, size, bound

        def times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            return np.fft.rfft(np.fft.irfft(a * b, size)[: n + 1], size)

        rest = None  # the spectrum of P
        for i, count in Counter(index[1:]).items():
            power = spectra[i]
            while True:
                if count & 1:
                    rest = power if rest is None else times(rest, power)
                count >>= 1
                if not count:
                    break
                power = times(power, power)
        k, v = np.fft.irfft(rest * np.stack(
            [spectrum, np.fft.rfft(v, size)]), size)[:, : n + 1]
        # v is copied so that it keeps no padded product alive
        return np.fft.rfft(k, size), v.copy(), size, bound

    @property
    def bound(self) -> float:
        """No stage of a staged pass over ``f`` exceeds ``bound * max|f|``."""
        return self._built[3]

    def apply(self, values: np.ndarray) -> np.ndarray:
        """``K`` applied to ``n + 1`` samples, in one FFT pair."""
        spectrum, col0, size, _ = self._built
        conv = np.fft.irfft(np.fft.rfft(values, size) * spectrum, size)
        out = conv[: values.size] + col0 * values[0]
        out[0] = 0.0
        return out


def ifoi_solve_ivp(problem: IvpProblem, partition: AlphaPartition, n: int,
                   scheme: str = "gl", policy: MemoryPolicy = FULL_MEMORY, *,
                   operator: Optional[ComposedOperator] = None,
                   ) -> tuple[GridFunction, IfoiTrace]:
    """Solve one IVP by staged fractional integration of the forcing.

    The solution is assembled as ``u0 + s0*x + I2[rhs(., u)]`` where the
    double integral ``I2`` is the composition of the stages of
    ``partition`` in the chosen scheme.  The composition is built once as
    one convolution matrix, a :class:`ComposedOperator`, and applied by FFT
    in ``O(n log n)``.  ``operator`` passes one built for the same scheme,
    partition, ``n`` and policy, to share its build between solves; without
    it the solve builds its own.  The initial-condition polynomial enters
    once, after the staging: the integral operators leave zero value and
    zero slope at the origin, so nothing else is consistent.

    Without coupling one pass solves the problem and counts no Picard
    iteration.  With it, the whole composition iterates as
    ``u <- u0 + s0*x + I2[g + k u]`` from the constant start ``u0`` until
    the sup-norm update drops below ``1e-10``.

    :raises IfoiDivergenceError: if any intermediate magnitude of the
        staged composition passes ``1e8`` or Picard fails to settle within
        200 iterations.
    :raises ValueError: if ``n < 8`` or ``operator`` was composed for other
        settings.
    """
    if n < MIN_GRID:
        raise ValueError(f"grid too coarse, need n >= {MIN_GRID}")
    h = 1.0 / n
    x = np.arange(n + 1) * h
    ic = problem.u0 + problem.s0 * x
    own = ComposedOperator(scheme, partition, n, policy)
    if operator is None:
        operator = own
    elif operator != own:
        raise ValueError("operator was composed for other settings")

    u = np.full(n + 1, float(problem.u0))
    for iterations in range(1, PICARD_MAX_ITER + 1):
        forcing = problem.rhs(x, u)
        if not np.all(np.isfinite(forcing)):
            raise IfoiDivergenceError(
                "right-hand side overflowed", iterations=0,
                last_update=math.inf)
        if not np.max(np.abs(forcing)) * operator.bound < DIVERGENCE_GUARD:
            # a stage may pass the guard: the staged pass decides, and raises
            _staged_integral(GridFunction(h, forcing), partition, scheme,
                             policy)
        unew = ic + operator.apply(forcing)
        if problem.k is None:
            u, iterations = unew, 0
            break
        if not np.all(np.abs(unew) < DIVERGENCE_GUARD):
            raise IfoiDivergenceError(
                "solution exceeded the divergence guard",
                iterations, float(np.max(np.abs(unew))))
        update = float(np.max(np.abs(unew - u)))
        u = unew
        if update < PICARD_TOL:
            break
    else:
        raise IfoiDivergenceError(
            f"Picard did not settle in {PICARD_MAX_ITER} iterations",
            PICARD_MAX_ITER, update)

    solution = GridFunction(h, u)

    def snapshots() -> Snapshots:
        stages = _staged_integral(GridFunction(h, forcing), partition,
                                  scheme, policy)
        cum = partition.cumulative[1:]
        return tuple((order, g.with_values(ic + g.values))
                     for order, g in zip(cum[:-1], stages)) \
            + ((cum[-1], solution),)

    return solution, IfoiTrace(iterations, snapshots)


def make_ivp_solver(partition: AlphaPartition, n: int, scheme: str,
                    policy: MemoryPolicy = FULL_MEMORY,
                    trace_sink: Optional[list] = None) -> Callable[[IvpProblem], GridFunction]:
    """Freeze solver parameters into a plain ``IvpProblem -> GridFunction``.

    Shooting-style callers only care about the solution; when ``trace_sink``
    is given, each solve appends its :class:`IfoiTrace` there in call order.
    All solves of one solver share one :class:`ComposedOperator`, built by
    the first of them.
    """
    operator = ComposedOperator(scheme, partition, n, policy)

    def solver(problem: IvpProblem) -> GridFunction:
        solution, trace = ifoi_solve_ivp(problem, partition, n, scheme, policy,
                                         operator=operator)
        if trace_sink is not None:
            trace_sink.append(trace)
        return solution

    return solver


def compose_check(f: GridFunction, partition: AlphaPartition,
                  scheme: str, policy: MemoryPolicy = FULL_MEMORY) -> float:
    """Sup-norm gap between the staged composition and one order-2 pass.

    A diagnostic for how well the discrete operators inherit the semigroup
    law of their continuous counterparts; it vanishes identically for a
    single-stage partition.
    """
    g = f
    for alpha in partition.stage_orders:
        g = apply_scheme(scheme, g, alpha, policy)
    direct = apply_scheme(scheme, f, -TOTAL_ORDER, policy)
    return sup_distance(g, direct)
