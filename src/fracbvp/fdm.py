"""Finite-difference reference solvers for the benchmark problems.

Both use central second differences on ``u'' = g(x) + k(x) u``.
``fdm_linear`` marches the interior rows, a discrete IVP, and leaves the
right-end condition to :mod:`fracbvp.shooting`; every package case is
solved this way.  Without coupling the forcing is summed in closed form;
with it the rows are marched once per solve as a blocked two-level scan,
shared by both IVPs.  ``fdm_newton`` is an independent reference on the
same problems: it runs a guarded Thomas sweep per step, and its right row
eliminates the out-of-band node of the one-sided difference through the
last interior equation, so the system stays tridiagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .grid import GridFunction, nodes
from .ifoi import DIVERGENCE_GUARD, IfoiDivergenceError, IvpProblem
from .shooting import IvpSolver, solve_bvp

if TYPE_CHECKING:
    from .cases import CaseSpec

PIVOT_GUARD = 1e-14


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


def _march_solver(case: "CaseSpec", n: int) -> IvpSolver:
    """The central-difference IVP ``U[i+1] = 2 U[i] - U[i-1] + h^2 f[i]``
    from ``U[0] = u0`` and ``U[1] = u0 + s0 h``, for the IVPs that
    :func:`~fracbvp.shooting.decompose` makes of ``case``.

    Without coupling the forcing ``g`` is summed twice cumulatively.  With
    ``f = g + k U`` the rows are the recurrence of 2-vectors
    ``D[i] = D[i-1] + h^2 (g[i] + k[i] U[i])``, ``U[i+1] = U[i] + D[i]``
    from ``D[0] = s0 h``, the running sums of the double sum.  It is
    marched exactly as a two-level scan: the ``n - 1`` steps are cut into
    blocks that march at once from the entry states ``(1, 0)``, ``(0, 1)``
    and ``(0, 0)`` plus forcing (rows ``phi``, ``psi`` and ``p``), a scalar
    loop finds each block's entry state ``(alpha, beta)``, and the block's
    values are ``alpha phi + beta psi + p``.  Both IVPs share ``k``, so the
    rows are marched once, here, and each IVP joins them from its own
    start: the particular one with ``p``, the homogeneous one without.

    The solver raises :class:`IfoiDivergenceError` when a marched value
    passes ``1e8`` or a summed one overflows; only the march can diverge,
    so only it is held to the guard.  Any forcing but ``case.g`` or
    ``None`` (zero), or coupling but ``case.k``, is a ``ValueError``.
    """
    h = 1.0 / n
    x = nodes(n)
    g = IvpProblem(case.g, None, 0.0, 0.0).rhs(x, None)  # None reads as 0

    def check(problem: IvpProblem) -> None:
        if problem.g not in (None, case.g) or problem.k is not case.k:
            raise ValueError("an IVP of another forcing or coupling")

    if case.k is None:
        def summed(problem: IvpProblem) -> GridFunction:
            check(problem)
            out = np.zeros(n + 1)  # summed in place: fresh arrays fault pages
            if problem.g is not None:
                np.cumsum(g[1:n], out=out[2:])
                np.cumsum(out[2:], out=out[2:])
                out *= h * h
            out += problem.u0 + problem.s0 * x
            # a cumulative sum that overflows anywhere ends non-finite
            if not math.isfinite(out[-1]):
                raise IfoiDivergenceError("the sum overflowed", 0, math.inf)
            return GridFunction(out)
        return summed

    steps = n - 1
    # steps per block, about sqrt(steps / 8): a step costs four numpy calls
    # across all blocks and a block one pass of the scalar join.  Timed on
    # case 4 at n = 50..10^5, widths of 0.25-0.5 sqrt(steps) were within 5%
    # of one another; 0.15 and 1.0 sqrt(steps) were up to 23% and 28% slower
    width = max(1, math.isqrt(steps // 8))
    blocks = -(-steps // width)
    # h^2 k and h^2 g by step within a block, coefficient and block; the last
    # block is padded with zero steps
    coef = np.zeros((width, 2, blocks))
    full, rest = divmod(steps, width)
    k = np.broadcast_to(np.asarray(case.k(x), dtype=float), x.shape)
    for by_block, f in zip(coef.transpose(1, 2, 0), (k, g)):
        by_block[:full] = f[1:1 + full * width].reshape(full, width)
        by_block[full:, :rest] = f[1 + full * width:n]
    coef *= h * h
    # rows phi, psi, p of every block, marched together step by step
    table = np.empty((width, 3, blocks))
    u = np.zeros((3, blocks))
    u[0] = 1.0
    d = np.zeros((3, blocks))
    d[1] = 1.0
    dk = np.empty((3, blocks))
    for (kh, gh), row in zip(coef, table):
        np.multiply(u, kh, out=dk)
        d += dk
        d[2] += gh
        u = np.add(u, d, out=row)
    exits = list(zip(zip(*u.tolist()), zip(*d.tolist())))
    phi, psi, p = table.transpose(1, 0, 2)

    def joined(problem: IvpProblem) -> GridFunction:
        # a block entered at (U, D) = (a, b) exits at a times the exit of
        # row phi, plus b times that of psi, plus that of p if forced
        check(problem)
        forced = problem.g is not None
        a, b = problem.u0 + problem.s0 * h, problem.s0 * h
        entries = []
        for (u_phi, u_psi, u_p), (d_phi, d_psi, d_p) in exits:
            entries.append((a, b))
            a, b = a * u_phi + b * u_psi, a * d_phi + b * d_psi
            if forced:
                a, b = a + u_p, b + d_p
        alpha, beta = np.array(entries).T
        rows = phi * alpha
        rows += psi * beta
        if forced:
            rows += p
        out = np.empty(2 + blocks * width)
        out[0], out[1] = problem.u0, problem.u0 + problem.s0 * h
        out[2:].reshape(blocks, width)[...] = rows.T
        out = out[:n + 1]
        peak = max(float(out.max()), -float(out.min()))
        if not peak < DIVERGENCE_GUARD:
            raise IfoiDivergenceError(
                "the march exceeded the divergence guard", 0, peak)
        return GridFunction(out)
    return joined


def fdm_linear(case: "CaseSpec", n: int) -> GridFunction:
    """Central-difference solve of ``u'' = g(x) + k(x) u`` by shooting.

    The ``n - 1`` interior rows are marched as an IVP and the right-end
    condition, with the second-order one-sided slope for its ``u'`` term, is
    matched by shooting, which is exact for this linear equation.  Exact for
    solutions that are polynomials of degree at most two, second-order
    otherwise.

    :raises SingularShootingError: when the homogeneous solution already
        meets the homogeneous right condition, so that no slope matches it.
    :raises IfoiDivergenceError: when a marched value passes ``1e8`` or a
        summed one overflows.
    """
    if n < 4:
        raise ValueError("need at least 4 intervals")
    solution, _ = solve_bvp(case, _march_solver(case, n))
    return solution


def _newton_iterate(case: "CaseSpec", n: int, tol: float,
                    max_iter: int) -> tuple[np.ndarray, list[float]]:
    left, right = case.left_bc, case.right_bc
    if left.slope != 0.0:
        raise ValueError("decomposition requires a Dirichlet left condition")
    h = 1.0 / n
    x = nodes(n)
    a = left.value / left.weight
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
    if n < 4:
        raise ValueError("need at least 4 intervals")
    U, _ = _newton_iterate(case, n, tol, max_iter)
    return GridFunction(U)
