"""Finite-difference reference solvers for the benchmark problems.

Both solve the same rows: ``u(0)`` given, central second differences on
``u'' = g(x) + k(x) u`` inside, and the right condition on the three-node
backward slope.  ``fdm_linear`` solves every package case: it sums the
forcing without coupling, and with it marches the rows in blocks joined by
one stabilized sweep (Ascher, Mattheij & Russell 1995, *Numerical Solution
of Boundary Value Problems for ODEs*, ch. 4), so a growing coupling never
enters through a growing IVP; IFOI's ``shooting.solve_right_row`` fixes
its free direction.  ``fdm_newton``, a guarded Thomas sweep per step, is an
independent reference.  Both read ``u(0)`` by ``shooting.left_value``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .grid import GridFunction, nodes
from .ifoi import DivergenceError, IvpProblem
from .shooting import _end_slope, left_value, solve_right_row

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


def _march(case: "CaseSpec", n: int) -> tuple[np.ndarray, list, tuple]:
    """The interior rows ``D[i] = D[i-1] + h^2 (g[i] + k[i] U[i])``,
    ``U[i+1] = U[i] + D[i]`` for ``i = 1 .. n-1``, cut into blocks that
    march at once from the entry states ``(U, S) = (1, 0)``, ``(0, 1)`` and
    ``(0, 0)`` plus forcing, ``S = D/h``: rows ``phi``, ``psi`` and ``p``.
    The first block leads with zero steps, so the last exits at
    ``(U[n], S[n-1])``.

    ``k`` and ``g`` are each evaluated once, on a ``(width, blocks)`` array
    of the nodes ``j * (1/n)`` that the steps read, bit-equal to
    ``nodes(n)[j]``; the lead steps read node 1 and their rows are zeroed,
    so no coefficient is sampled outside ``[0, 1]``.

    Returns the table by step, row and block, the six columns of block
    exits ``U_phi, U_psi, U_p, S_phi, S_psi, S_p`` as float lists, and
    ``h^2 k`` and ``h^2 g`` at node ``n - 1``.
    """
    h = 1.0 / n
    steps = n - 1
    # steps per block, about sqrt(steps / 8): a step costs four numpy calls
    # across all blocks and a block one pass of the scalar sweep.  Timed on
    # case 4 at n = 50..10^5, widths of 0.25-0.5 sqrt(steps) were within 5%
    # of one another; 0.15 and 1.0 sqrt(steps) were up to 23% and 28% slower
    width = max(1, math.isqrt(steps // 8))
    blocks = -(-steps // width)
    lead = blocks * width - steps
    # the node j read by each step within a block, by block
    x = np.add.outer(np.arange(width, dtype=float),
                     np.arange(1 - lead, n, width, dtype=float))
    x[:lead, 0] = 1.0
    x *= 1.0 / n
    coef = np.empty((2, width, blocks))  # h^2 k and h^2 g
    for row, f in zip(coef, (case.k, case.g)):
        np.multiply(0.0 if f is None else f(x), h * h, out=row, dtype=float)
    coef[:, :lead, 0] = 0.0
    table = np.empty((width, 3, blocks))
    u = np.zeros((3, blocks))
    u[0] = 1.0
    d = np.zeros((3, blocks))
    d[1] = h
    dk = np.empty((3, blocks))
    for kh, gh, row in zip(coef[0], coef[1], table):
        np.multiply(u, kh, out=dk)
        d += dk
        d[2] += gh
        u = np.add(u, d, out=row)
    exits = np.vstack((u, d / h)).tolist()
    return table, exits, tuple(coef[:, -1, -1].tolist())


def fdm_linear(case: "CaseSpec", n: int) -> GridFunction:
    """Central-difference solve of ``u'' = g(x) + k(x) u``, its right
    condition read on the three-node backward slope: exact for solutions
    that are polynomials of degree at most two, second-order otherwise.

    Without coupling the forcing is summed twice and matched once against
    the line ``x``.  With it, the rows are marched in blocks and one
    forward sweep carries the line ``offset + t direction`` of entry states
    that the left value allows, in ``(U, S = D/h)``; each block exit
    normalises ``direction`` and projects it out of ``offset``, so the
    line never grows with the coupling.  The right row fixes ``t`` and one
    backward pass gives every block's entry.  ``k`` and ``g`` are sampled
    once, at nodes ``1 .. n-1`` (and ``g`` at every node without
    coupling); a solve holds numpy arrays and flat lists of floats, no
    tuple or list per block, so the garbage collector does not run in it.

    :raises ValueError: for ``n < 4`` or a left end that is not Dirichlet.
    :raises SingularShootingError: when the homogeneous rows meet the
        homogeneous right condition.
    :raises DivergenceError: when the solution overflows.
    """
    check_grid(n)
    u0, h = left_value(case), 1.0 / n
    if case.k is None:
        x = nodes(n)
        out = np.zeros(n + 1)  # summed in place: fresh arrays fault pages
        g = 0.0 if case.g is None else case.g(x)
        np.cumsum(np.broadcast_to(g, x.shape)[1:n], out=out[2:])
        np.cumsum(out[2:], out=out[2:])
        out *= h * h
        out += u0
        # a cumulative sum that overflows anywhere ends non-finite
        if not math.isfinite(out[-1]):
            raise DivergenceError("the sum overflowed", 0, math.inf)
        out += solve_right_row(case.right_bc, (out[n], x[n]),
                               (_end_slope(out, h), _end_slope(x, h))) * x
        return GridFunction(out)

    table, exits, (kh, gh) = _march(case, n)
    width, _, blocks = table.shape
    lead = blocks * width - (n - 1)
    # block 0 is entered at (u0, 0) + s ((1 - lead) h, 1), s the slope u'(0);
    # each block's entry line (a, s) + t (b, r) and its scale and shift are
    # kept as flat float lists
    a, s, b, r = u0, 0.0, (1 - lead) * h, 1.0
    entry_a, entry_s, entry_b, entry_r, scales, shifts = \
        [], [], [], [], [], []
    for u_phi, u_psi, u_p, s_phi, s_psi, s_p in zip(*exits):
        entry_a.append(a)
        entry_s.append(s)
        entry_b.append(b)
        entry_r.append(r)
        b, r = b * u_phi + r * u_psi, b * s_phi + r * s_psi
        scale = math.hypot(b, r)
        b, r = b / scale, r / scale
        a, s = a * u_phi + s * u_psi + u_p, a * s_phi + s * s_psi + s_p
        shift = a * b + s * r
        scales.append(scale)
        shifts.append(shift)
        a, s = a - shift * b, s - shift * r
    # the end slope S[n-1] + h f[n-1] / 2, with U[n-1] = U[n] - h S[n-1],
    # is S[n-1] (1 - kh/2) + (kh U[n] + gh) / 2h, affine in t on the line
    t = solve_right_row(case.right_bc, (a, b),
                        (s * (1.0 - kh / 2.0) + (kh * a + gh) / (2.0 * h),
                         r * (1.0 - kh / 2.0) + kh * b / (2.0 * h)))
    ts = [t] * blocks
    for i in range(blocks - 1, -1, -1):
        t = (t - shifts[i]) / scales[i]
        ts[i] = t
    t = np.array(ts)
    alpha = np.array(entry_a) + t * np.array(entry_b)
    beta = np.array(entry_s) + t * np.array(entry_r)
    phi, psi, p = table.transpose(1, 0, 2)
    rows = phi * alpha
    rows += psi * beta
    rows += p
    out = np.empty(2 + blocks * width)
    out[2:].reshape(blocks, width)[...] = rows.T
    out = out[lead:]
    out[0], out[1] = u0, u0 + h * beta[0]
    if not np.isfinite(out).all():
        raise DivergenceError("the march overflowed", 0, math.inf)
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
