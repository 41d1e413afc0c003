"""Two-point BVPs solved by IFOI: two IVPs plus one matching coefficient.

A case is ``u'' = g(x) + k(x) u``, linear in ``u``, which is what makes
``u = u1 + t * u2`` exact: ``u1`` solves the full equation with the left
value and zero slope, ``u2`` solves the homogeneous equation ``u'' = k u``
with zero value and unit slope, and ``t`` is fixed by the right boundary
condition.  The combination itself is exact linear algebra; all
discretization error lives in the two IVP solves.  :func:`solve_bvp` does
all of it in one call; :func:`left_value` and :func:`solve_right_row` are
the end readers that FDM shares.

An end condition is the line ``slope * u' + weight * u = value``: Dirichlet
is ``(0, 1, value)`` and Robin ``(1, weight, value)``, and each reader takes
the three numbers in one expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import ifoi
from .grid import GridFunction, nodes

if TYPE_CHECKING:
    from .cases import CaseSpec

# relative to both norms in the right row: see solve_right_row
SINGULAR_TOL = 1e-12


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


def left_value(case: "CaseSpec") -> float:
    """``u(0)`` of a Dirichlet left condition, read by both methods; a left
    condition with a ``u'`` term is a ``ValueError``."""
    left = case.left_bc
    if left.slope != 0.0:
        raise ValueError("each method requires a Dirichlet left condition")
    return left.value / left.weight


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


def solve_bvp(case: "CaseSpec", operator: ifoi.ComposedOperator,
              ) -> tuple[GridFunction, tuple[ifoi.IfoiTrace, ...]]:
    """Solve a case by IFOI on the grid, scheme and schedule of ``operator``.

    ``u1`` solves ``u'' = g + k u`` from the left value and zero slope and,
    with a coupling, ``u2`` solves ``u'' = k u`` from zero value and unit
    slope; without one ``u2`` is the line ``x`` and no second IVP is
    solved.  :func:`solve_right_row` on their end values and
    backward-difference end slopes gives ``t``.  Returns ``u1 + t u2`` and
    the :class:`~fracbvp.ifoi.IfoiTrace` of each IVP solved, ``u1``'s first.

    :raises ValueError: for a left condition that is not Dirichlet.
    :raises DivergenceError: if an IVP diverges.
    :raises SingularShootingError: if ``u2`` meets the homogeneous right
        condition.
    """
    u1, trace = ifoi.ifoi_solve_ivp(
        ifoi.IvpProblem(case.g, case.k, left_value(case), 0.0), operator)
    u1, traces = u1.values, (trace,)
    if case.k is None:
        u2 = nodes(operator.n)
    else:
        u2, trace = ifoi.ifoi_solve_ivp(
            ifoi.IvpProblem(None, case.k, 0.0, 1.0), operator)
        u2, traces = u2.values, traces + (trace,)
    h = 1.0 / operator.n
    t = solve_right_row(case.right_bc, (u1[-1], u2[-1]),
                        (_end_slope(u1, h), _end_slope(u2, h)))
    return GridFunction(u1 + t * u2), traces
