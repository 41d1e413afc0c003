"""Two-point BVPs reduced to a pair of IVPs plus one matching coefficient.

A case is ``u'' = g(x) + k(x) u``, linear in ``u``, which is what makes
``u = u1 + c * u2`` exact: ``u1`` solves the full equation with the left
value and zero slope, ``u2`` solves the homogeneous equation ``u'' = k u``
with zero value and unit slope, and ``c`` is fixed by the right boundary
condition.  The combination itself is exact linear algebra; all
discretization error lives in the two IVP solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .grid import GridFunction
from .ifoi import IvpProblem

if TYPE_CHECKING:
    from .cases import CaseSpec

SINGULAR_TOL = 1e-12

IvpSolver = Callable[[IvpProblem], GridFunction]


class SingularShootingError(RuntimeError):
    """The homogeneous solution already satisfies the right condition.

    No finite combination can then enforce it: the BVP is ill-posed or
    resonant for this discretization.
    """


@dataclass(frozen=True)
class BoundaryCondition:
    """One end condition, Dirichlet ``u = value`` or Robin
    ``u' + robin_weight * u = value``.  It names no end: the
    :class:`~fracbvp.cases.CaseSpec` field that holds it, ``left_bc`` or
    ``right_bc``, does."""

    kind: str
    value: float
    robin_weight: float = 0.0

    def __post_init__(self):
        if self.kind not in ("dirichlet", "robin"):
            raise ValueError(f"unknown condition kind {self.kind!r}")
        if not (np.isfinite(self.value) and np.isfinite(self.robin_weight)):
            raise ValueError(f"{self.kind} condition needs finite constants")
        if self.kind == "dirichlet" and self.robin_weight != 0.0:
            raise ValueError("a Dirichlet condition takes no Robin weight")


def dirichlet(value: float) -> BoundaryCondition:
    return BoundaryCondition("dirichlet", value)


def robin(weight: float, value: float) -> BoundaryCondition:
    return BoundaryCondition("robin", value, robin_weight=weight)


@dataclass(frozen=True)
class ShootingPair:
    """The two IVP solutions the combination is built from."""

    u1: GridFunction
    u2: GridFunction

    def __post_init__(self):
        if self.u1.values.size != self.u2.values.size:
            raise ValueError("shooting pair must share one grid")


def decompose(case: "CaseSpec", solver: IvpSolver) -> ShootingPair:
    """Solve the particular and homogeneous halves of a case.

    ``u1`` solves ``u'' = g + k u`` from the left value and zero slope;
    ``u2`` solves ``u'' = k u`` from zero value and unit slope.  Without
    coupling ``u2`` is the line ``x`` itself and the solver is not called
    for it.

    :raises ValueError: for a left condition that is not Dirichlet.
    """
    if case.left_bc.kind != "dirichlet":
        raise ValueError("decomposition requires a Dirichlet left condition")
    u1 = solver(IvpProblem(case.g, case.k, case.left_bc.value, 0.0))
    if case.k is None:
        return ShootingPair(u1, GridFunction(u1.nodes))
    return ShootingPair(u1, solver(IvpProblem(None, case.k, 0.0, 1.0)))


def _end_slope(values: np.ndarray, h: float) -> float:
    """Second-order backward difference of u' at the last node."""
    return (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)


def match_coefficient(pair: ShootingPair,
                      right_bc: BoundaryCondition) -> float:
    """Coefficient that makes ``u1 + c*u2`` satisfy the right condition.

    Dirichlet: ``c = (b - u1(1)) / u2(1)``.  Robin ``u'(1) + B u(1) = C``:
    ``c = (C - d1 - B u1(1)) / (d2 + B u2(1))`` with ``d_i`` the backward
    difference end slopes at the pair's step ``h = 1/n``.

    :raises SingularShootingError: when the denominator magnitude falls
        below ``1e-12``.
    """
    u1, u2 = pair.u1.values, pair.u2.values
    if right_bc.kind == "dirichlet":
        numer = right_bc.value - u1[-1]
        denom = u2[-1]
    else:
        B = right_bc.robin_weight
        numer = right_bc.value - _end_slope(u1, pair.u1.h) - B * u1[-1]
        denom = _end_slope(u2, pair.u1.h) + B * u2[-1]
    if abs(denom) < SINGULAR_TOL:
        raise SingularShootingError(
            f"combination denominator {denom:.3e} is numerically zero")
    return float(numer / denom)


def combine(pair: ShootingPair, c: float) -> GridFunction:
    """Pointwise ``u1 + c * u2``."""
    return GridFunction(pair.u1.values + c * pair.u2.values)


def solve_bvp(case: "CaseSpec", solver: IvpSolver) -> tuple[GridFunction, float]:
    """Full shooting pipeline; returns the solution and the coefficient."""
    pair = decompose(case, solver)
    c = match_coefficient(pair, case.right_bc)
    return combine(pair, c), c
