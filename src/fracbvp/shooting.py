"""Two-point BVPs reduced to a pair of IVPs plus one matching coefficient.

A case is ``u'' = g(x) + k(x) u``, linear in ``u``, which is what makes
``u = u1 + c * u2`` exact: ``u1`` solves the full equation with the left
value and zero slope, ``u2`` solves the homogeneous equation ``u'' = k u``
with zero value and unit slope, and ``c`` is fixed by the right boundary
condition.  The combination itself is exact linear algebra; all
discretization error lives in the two IVP solves.

An end condition is the line ``slope * u' + weight * u = value``: Dirichlet
is ``(0, 1, value)`` and Robin ``(1, weight, value)``, and each reader takes
the three numbers in one expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .grid import GridFunction
from .ifoi import IvpProblem

if TYPE_CHECKING:
    from .cases import CaseSpec

# relative to both norms in the right row: see solve_right_row
SINGULAR_TOL = 1e-12

IvpSolver = Callable[[IvpProblem], GridFunction]


class SingularShootingError(RuntimeError):
    """The free direction already meets the homogeneous right condition, so
    no finite multiple of it enforces the condition: the BVP is ill-posed or
    resonant for this discretization."""


@dataclass(frozen=True)
class BoundaryCondition:
    """One linear end condition ``slope * u' + weight * u = value``.  It
    names no end: the :class:`~fracbvp.cases.CaseSpec` field that holds it,
    ``left_bc`` or ``right_bc``, does."""

    slope: float
    weight: float
    value: float

    def __post_init__(self):
        if not all(np.isfinite((self.slope, self.weight, self.value))):
            raise ValueError("a boundary condition needs finite constants")
        if self.slope == 0.0 and self.weight == 0.0:
            raise ValueError("a condition with zero slope and zero weight "
                             "constrains nothing")


def dirichlet(value: float) -> BoundaryCondition:
    """``u = value``."""
    return BoundaryCondition(0.0, 1.0, value)


def robin(weight: float, value: float) -> BoundaryCondition:
    """``u' + weight * u = value``."""
    return BoundaryCondition(1.0, weight, value)


@dataclass(frozen=True)
class ShootingPair:
    """The two IVP solutions the combination is built from."""

    u1: GridFunction
    u2: GridFunction

    def __post_init__(self):
        # three samples at least: the match reads a backward-difference slope
        if not self.u1.values.size == self.u2.values.size >= 3:
            raise ValueError("shooting pair must share one grid of 3+ samples")


def left_value(case: "CaseSpec") -> float:
    """``u(0)`` of a Dirichlet left condition, read by both methods; a left
    condition with a ``u'`` term is a ``ValueError``."""
    left = case.left_bc
    if left.slope != 0.0:
        raise ValueError("each method requires a Dirichlet left condition")
    return left.value / left.weight


def decompose(case: "CaseSpec", solver: IvpSolver) -> ShootingPair:
    """Solve the particular and homogeneous halves of a case.

    ``u1`` solves ``u'' = g + k u`` from the left value and zero slope;
    ``u2`` solves ``u'' = k u`` from zero value and unit slope.  Without
    coupling ``u2`` is the line ``x`` itself and the solver is not called
    for it.

    :raises ValueError: for a left condition that is not Dirichlet.
    """
    u1 = solver(IvpProblem(case.g, case.k, left_value(case), 0.0))
    if case.k is None:
        return ShootingPair(u1, GridFunction(u1.nodes))
    return ShootingPair(u1, solver(IvpProblem(None, case.k, 0.0, 1.0)))


def _end_slope(values: np.ndarray, h: float) -> float:
    """Second-order backward difference of u' at the last node."""
    return (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)


def solve_right_row(right_bc: BoundaryCondition, end_value: tuple,
                    end_slope: tuple) -> float:
    """The ``t`` at which an end value ``A + t B`` and an end slope
    ``D + t E``, given as ``(A, B)`` and ``(D, E)``, meet the right
    condition: ``(value - slope D - weight A) / (slope E + weight B)``.

    :raises SingularShootingError: when ``|slope E + weight B|`` is at most
        ``SINGULAR_TOL |(slope, weight)| |(B, E)|``, a zero direction
        included: the free direction meets the homogeneous condition.
    """
    (a, b), (d, e) = end_value, end_slope
    slope, weight = right_bc.slope, right_bc.weight
    denom = slope * e + weight * b
    tol = SINGULAR_TOL * math.hypot(slope, weight)  # first, lest it overflow
    if abs(denom) <= tol * math.hypot(b, e):
        raise SingularShootingError(
            f"right-row coefficient {denom:.3e} is numerically zero")
    return float((right_bc.value - slope * d - weight * a) / denom)


def match_coefficient(pair: ShootingPair,
                      right_bc: BoundaryCondition) -> float:
    """Coefficient that makes ``u1 + c*u2`` meet the right condition, by
    :func:`solve_right_row` on the pair's end values and backward-difference
    end slopes; ``singular`` when ``u2`` meets the homogeneous condition."""
    u1, u2, h = pair.u1.values, pair.u2.values, pair.u1.h
    return solve_right_row(right_bc, (u1[-1], u2[-1]),
                           (_end_slope(u1, h), _end_slope(u2, h)))


def combine(pair: ShootingPair, c: float) -> GridFunction:
    """Pointwise ``u1 + c * u2``."""
    return GridFunction(pair.u1.values + c * pair.u2.values)


def solve_bvp(case: "CaseSpec", solver: IvpSolver) -> tuple[GridFunction, float]:
    """Full shooting pipeline; returns the solution and the coefficient."""
    pair = decompose(case, solver)
    c = match_coefficient(pair, case.right_bc)
    return combine(pair, c), c
