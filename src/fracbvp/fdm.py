"""Finite-difference reference solvers for the benchmark problems.

Both solve the same rows: ``u(0)`` given, central second differences on
``u'' = g(x) + k(x) u`` inside, and the right condition on the three-node
backward slope.  ``fdm_linear`` solves every package case: it sums the
forcing without coupling, and with it marches the rows in blocks joined by
one stabilized sweep (Ascher, Mattheij & Russell 1995, *Numerical Solution
of Boundary Value Problems for ODEs*, ch. 4), so a growing coupling never
enters through a growing IVP.  That solve is ``shooting._Sweep``, which
samples the case: IFOI corrects a coupled BVP from it pass by pass, its
rows plus the remainder of its composed kernel, on the same sweep.
``fdm_newton``, a guarded Thomas sweep per step, is an independent
reference.  Both read ``u(0)`` by ``shooting.left_value``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .grid import GridFunction, nodes
from .ifoi import DivergenceError, IvpProblem
from .shooting import _end_slope, _Sweep, left_value, solve_right_row

if TYPE_CHECKING:
    from .cases import CaseSpec

PIVOT_GUARD = 1e-14


def check_grid(n: int) -> None:
    """:raises ValueError: for ``n < 4``, fewer intervals than the rows
    take."""
    if n < 4:
        raise ValueError("need at least 4 intervals")


class SingularSystemError(RuntimeError):
    """Forward elimination hit a vanishing pivot."""


class NewtonConvergenceError(RuntimeError):
    """Newton iteration ran out of budget before the update settled."""

    def __init__(self, message: str, residual_norm: float, iterations: int):
        super().__init__(message)
        self.residual_norm = residual_norm
        self.iterations = iterations


@dataclass(frozen=True)
class TridiagonalSystem:
    """``sub[i] x[i-1] + diag[i] x[i] + sup[i] x[i+1] = rhs[i]``.

    ``sub[0]`` and ``sup[-1]`` are ignored.  Diagonal dominance is not
    assumed; the solver guards every pivot instead.
    """

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
    rhs: np.ndarray


def solve_tridiagonal(system: TridiagonalSystem) -> np.ndarray:
    """Thomas sweep with a pivot-magnitude guard.

    :raises SingularSystemError: when any pivot falls below ``1e-14``.
    """
    n = system.diag.size
    c = np.zeros(n)
    d = np.zeros(n)
    piv = system.diag[0]
    if abs(piv) < PIVOT_GUARD:
        raise SingularSystemError("zero pivot in row 0")
    c[0] = system.sup[0] / piv
    d[0] = system.rhs[0] / piv
    for i in range(1, n):
        piv = system.diag[i] - system.sub[i] * c[i - 1]
        if abs(piv) < PIVOT_GUARD:
            raise SingularSystemError(f"zero pivot in row {i}")
        if i < n - 1:
            c[i] = system.sup[i] / piv
        d[i] = (system.rhs[i] - system.sub[i] * d[i - 1]) / piv
    x = np.empty(n)
    x[-1] = d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = d[i] - c[i] * x[i + 1]
    return x


def fdm_linear(case: "CaseSpec", n: int) -> GridFunction:
    """Central-difference solve of ``u'' = g(x) + k(x) u``, its right
    condition read on the three-node backward slope: exact for solutions
    that are polynomials of degree at most two, second-order otherwise.

    Without coupling ``g`` is sampled once, at every node, summed twice
    and matched once against the line ``x``.  With it,
    :class:`~fracbvp.shooting._Sweep` samples ``k`` and ``g`` once, at
    nodes ``1 .. n-1``, marches the rows in blocks and joins them by the
    stabilized sweep; IFOI's coupled solves start from this solution.

    :raises ValueError: for ``n < 4`` or a left end that is not Dirichlet.
    :raises SingularShootingError: when the homogeneous rows meet the
        homogeneous right condition.
    :raises DivergenceError: when the solution overflows.
    """
    check_grid(n)
    if case.k is not None:
        return GridFunction(_Sweep(case, n).values)
    u0, h, x = left_value(case), 1.0 / n, nodes(n)
    out = np.zeros(n + 1)  # summed in place: fresh arrays fault pages
    g = 0.0 if case.g is None else case.g(x)
    if np.ndim(g) == 0:  # one float for the whole grid
        g = np.full(n + 1, g)
    np.cumsum(g[1:n], out=out[2:])
    np.cumsum(out[2:], out=out[2:])
    out *= h * h
    out += u0
    # a cumulative sum that overflows anywhere ends non-finite
    if not math.isfinite(out[-1]):
        raise DivergenceError("the sum overflowed", 0, math.inf)
    out += solve_right_row(case.right_bc, (out[n], x[n]),
                           (_end_slope(out, h), _end_slope(x, h))) * x
    return GridFunction(out)


def _newton_iterate(case: "CaseSpec", n: int, tol: float,
                    max_iter: int) -> tuple[np.ndarray, list[float]]:
    a, right, h, x = left_value(case), case.right_bc, 1.0 / n, nodes(n)
    U = a + (right.value - a) * x
    problem = IvpProblem(case.g, case.k, a, 0.0)
    dfu = IvpProblem(None, case.k, a, 0.0).rhs(x, 1.0)  # k, the Jacobian

    update_norms: list[float] = []
    residual = np.inf
    for _ in range(max_iter):
        f_nodes = problem.rhs(x, U)
        F = np.zeros(n + 1)
        F[0] = U[0] - a
        F[1:n] = (U[0:n - 1] - 2 * U[1:n] + U[2:n + 1]) / h**2 - f_nodes[1:n]

        sub = np.zeros(n + 1)
        diag = np.zeros(n + 1)
        sup = np.zeros(n + 1)
        diag[0] = 1.0
        sub[1:n] = 1.0 / h**2
        diag[1:n] = -2.0 / h**2 - dfu[1:n]
        sup[1:n] = 1.0 / h**2
        F[n] = right.slope * (U[n] - U[n - 1]) / h + right.weight * U[n] \
            - right.value + right.slope * 0.5 * h * f_nodes[n - 1]
        sub[n] = right.slope * (-1.0 / h + 0.5 * h * dfu[n - 1])
        diag[n] = right.slope / h + right.weight

        delta = solve_tridiagonal(TridiagonalSystem(sub, diag, sup, -F))
        U = U + delta
        residual = float(np.max(np.abs(F)))
        update_norms.append(float(np.max(np.abs(delta))))
        if update_norms[-1] < tol:
            return U, update_norms
    raise NewtonConvergenceError(
        f"no convergence in {max_iter} Newton steps",
        residual_norm=residual, iterations=max_iter)


def fdm_newton(case: "CaseSpec", n: int, tol: float = 1e-10,
               max_iter: int = 50) -> GridFunction:
    """Newton iteration on the central-difference discretization.

    Starts from the straight line from the left value to the right
    condition's ``value`` and stops once the sup-norm update drops below
    ``tol``.  The discrete system is linear, with Jacobian ``k``, so it
    takes two steps, the second confirming the first (three near
    ``n = 10^5``, where the sweep's rounding passes ``tol``).

    :raises ValueError: for ``n < 4`` or a left end that is not Dirichlet.
    :raises NewtonConvergenceError: carrying the last residual norm when
        ``max_iter`` steps do not settle.
    """
    check_grid(n)
    U, _ = _newton_iterate(case, n, tol, max_iter)
    return GridFunction(U)
