"""Two-point BVPs reduced to a pair of IVPs plus one matching coefficient.

``u = u1 + c * u2`` where ``u1`` solves the full equation with the left
value and zero slope, ``u2`` solves the homogeneous equation with zero value
and unit slope, and ``c`` is fixed by the right boundary condition.  The
combination itself is exact linear algebra; all discretization error lives
in the two IVP solves.
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
    ``u' + robin_weight * u = value``."""

    kind: str
    at: str
    value: float
    robin_weight: float = 0.0

    def __post_init__(self):
        if self.kind not in ("dirichlet", "robin"):
            raise ValueError(f"unknown condition kind {self.kind!r}")
        if self.at not in ("left", "right"):
            raise ValueError(f"unknown end {self.at!r}")
        if not (np.isfinite(self.value) and np.isfinite(self.robin_weight)):
            raise ValueError(f"{self.kind} condition needs finite constants")


def dirichlet(at: str, value: float) -> BoundaryCondition:
    return BoundaryCondition("dirichlet", at, value)


def robin(at: str, weight: float, value: float) -> BoundaryCondition:
    return BoundaryCondition("robin", at, value, robin_weight=weight)


@dataclass(frozen=True)
class ShootingPair:
    """The two IVP solutions the combination is built from."""

    u1: GridFunction
    u2: GridFunction

    def __post_init__(self):
        if self.u1.values.size != self.u2.values.size:
            raise ValueError("shooting pair must share one grid")


# Nodes and values at which ``decompose`` checks that a right-hand side is
# affine in ``u``, and the rounding tolerance of that check.
PROBE_X = np.array([0.125, 0.375, 0.625, 0.875])
AFFINE_RTOL = 1e-12


def _require_affine(case: "CaseSpec") -> None:
    """Refuse a right-hand side that is not affine in ``u`` at the probes.

    Affine means ``rhs(x, u) = rhs(x, 0) + k(x) u``, and then
    ``rhs(x, -2) + 2 rhs(x, 1) - 3 rhs(x, 0)`` vanishes to rounding.
    """
    x = PROBE_X
    f0, f1, f2 = (np.asarray(case.rhs(x, np.full_like(x, u)), dtype=float)
                  for u in (0.0, 1.0, -2.0))
    gap = np.abs(f2 + 2.0 * f1 - 3.0 * f0)
    scale = np.abs(f2) + 2.0 * np.abs(f1) + 3.0 * np.abs(f0)
    if not np.all(gap <= AFFINE_RTOL * scale):
        raise ValueError(
            f"case {case.id}: the right-hand side is not affine in u, so no "
            f"combination u1 + c*u2 of its IVP solutions solves the BVP; "
            f"solve it with fdm_newton")


def decompose(case: "CaseSpec", solver: IvpSolver) -> ShootingPair:
    """Solve the particular and homogeneous halves of a case.

    ``u1`` carries the forcing and the left value with zero slope; ``u2``
    solves ``rhs(x, u) - rhs(x, 0)`` from zero value and unit slope.  For
    forcing-only cases that right-hand side is identically zero, so ``u2``
    is the line ``x`` itself and the solver is not called for it.

    :raises ValueError: for a left condition that is not Dirichlet, and for
        a right-hand side that reads ``u`` but is not affine in it (checked
        at :data:`PROBE_X`), which shooting cannot solve.
    """
    if case.left_bc.kind != "dirichlet":
        raise ValueError("decomposition requires a Dirichlet left condition")
    if case.depends_on_u:
        _require_affine(case)
    rhs = case.rhs
    u1 = solver(IvpProblem(rhs, u0=case.left_bc.value, s0=0.0,
                           depends_on_u=case.depends_on_u))
    if not case.depends_on_u:
        return ShootingPair(u1, u1.with_values(u1.nodes))

    def homogeneous(x, u):
        return np.asarray(rhs(x, u), dtype=float) - np.asarray(rhs(x, 0.0 * u), dtype=float)

    u2 = solver(IvpProblem(homogeneous, u0=0.0, s0=1.0, depends_on_u=True))
    return ShootingPair(u1, u2)


def _end_slope(values: np.ndarray, h: float) -> float:
    """Second-order backward difference of u' at the last node."""
    return (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)


def match_coefficient(pair: ShootingPair, right_bc: BoundaryCondition,
                      h: float) -> float:
    """Coefficient that makes ``u1 + c*u2`` satisfy the right condition.

    Dirichlet: ``c = (b - u1(1)) / u2(1)``.  Robin ``u'(1) + B u(1) = C``:
    ``c = (C - d1 - B u1(1)) / (d2 + B u2(1))`` with ``d_i`` the backward
    difference end slopes at step ``h``.

    :raises SingularShootingError: when the denominator magnitude falls
        below ``1e-12``.
    """
    u1, u2 = pair.u1.values, pair.u2.values
    if right_bc.kind == "dirichlet":
        numer = right_bc.value - u1[-1]
        denom = u2[-1]
    else:
        B = right_bc.robin_weight
        numer = right_bc.value - _end_slope(u1, h) - B * u1[-1]
        denom = _end_slope(u2, h) + B * u2[-1]
    if abs(denom) < SINGULAR_TOL:
        raise SingularShootingError(
            f"combination denominator {denom:.3e} is numerically zero")
    return float(numer / denom)


def combine(pair: ShootingPair, c: float) -> GridFunction:
    """Pointwise ``u1 + c * u2``."""
    return pair.u1.with_values(pair.u1.values + c * pair.u2.values)


def solve_bvp(case: "CaseSpec", solver: IvpSolver) -> tuple[GridFunction, float]:
    """Full shooting pipeline; returns the solution and the coefficient."""
    pair = decompose(case, solver)
    c = match_coefficient(pair, case.right_bc, pair.u1.h)
    return combine(pair, c), c
