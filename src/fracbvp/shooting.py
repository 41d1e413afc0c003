"""Two-point BVPs solved by IFOI, and FDM's rows: the sweep that samples
a case and solves them, which FDM calls and IFOI's correction starts from.

A case is ``u'' = g(x) + k(x) u``, linear in ``u``.  Without coupling,
:func:`solve_bvp` solves one IVP ``u1`` from the left value and zero slope
and adds the multiple of the line ``x`` that the right condition fixes.
With it, the BVP is one system: IFOI's composed kernel is FDM's double sum
plus a remainder, so its rows are FDM's central-difference rows with the
remainder in the forcing.  :class:`_Sweep` samples the case and solves
FDM's rows once; the correction starts from that solution and runs each
pass as one FFT apply and one march of the particular row.  Its fixed
point is the discrete solution of two IVPs plus shooting, ``u1 + t u2``
with ``u2`` from zero value and unit slope, without their growth under a
strong coupling.  Where the correction stalls, as near an
eigenvalue, the solve falls back to those two IVPs, by Picard iteration.
Without coupling, FDM's rows are solved on the same block layout by
:func:`_forcing_only`, whose join is two cumulative sums over the blocks.
:func:`left_value` and :func:`solve_right_row` are the end readers that
FDM shares.

An end condition is the line ``slope * u' + weight * u = value``: Dirichlet
is ``(0, 1, value)`` and Robin ``(1, weight, value)``, and each reader takes
the three numbers in one expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

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


def _layout(n: int, ratio: int = 8) -> tuple[int, int, int]:
    """Steps per block, about ``sqrt(steps / ratio)``, blocks and lead
    steps of a march of the rows at nodes ``1 .. n-1``: the first block
    leads with ``lead`` zero steps, so the last exits at ``(U[n],
    S[n-1])``.  ``ratio`` is set by what a step costs against a block."""
    steps = n - 1
    # ratio 8 for the coupled march: a step costs four numpy calls across
    # all blocks and a block one pass of the scalar sweep.  Timed on case 4
    # at n = 50..10^5, widths of 0.25-0.5 sqrt(steps) were within 5% of one
    # another; 0.15 and 1.0 sqrt(steps) were up to 23% and 28% slower.
    # ratio 128 for the forcing-only march (:func:`_forcing_only`), whose
    # step is two numpy calls and whose blocks are joined by two cumulative
    # sums: at n = 6e4..1e5 ratios of 64 and 256 were up to 16% and 8%
    # slower; at 2e4, 64 was 7% faster and 256 7% slower
    width = max(1, math.isqrt(steps // ratio))
    blocks = -(-steps // width)
    return width, blocks, blocks * width - steps


def _step_nodes(n: int, width: int, lead: int) -> np.ndarray:
    """The node ``j * (1/n)`` that each step of a march on a layout of
    :func:`_layout` reads, as a ``(width, blocks)`` table bit-equal to
    ``nodes(n)[j]``; the lead steps read node 1, so no coefficient is
    sampled outside ``[0, 1]``."""
    x = np.add.outer(np.arange(width, dtype=float),
                     np.arange(1 - lead, n, width, dtype=float))
    x[:lead, 0] = 1.0
    x *= 1.0 / n
    return x


def _coefficients(case: "CaseSpec", n: int) -> np.ndarray:
    """``h^2 k`` and ``h^2 g`` as the two ``(width, blocks)`` step tables
    of :func:`_march`, each evaluated once on :func:`_step_nodes`, zero on
    the lead steps."""
    h = 1.0 / n
    width, _, lead = _layout(n)
    x = _step_nodes(n, width, lead)
    coef = np.empty((2,) + x.shape)  # h^2 k and h^2 g
    for row, f in zip(coef, (case.k, case.g)):
        np.multiply(0.0 if f is None else f(x), h * h, out=row, dtype=float)
    coef[:, :lead, 0] = 0.0
    return coef


def _march(kh: np.ndarray, forcing: np.ndarray, h: float,
           rows: int) -> tuple[np.ndarray, list]:
    """The rows ``D[i] = D[i-1] + kh[i] U[i] + forcing[i]``,
    ``U[i+1] = U[i] + D[i]``, marched in every block at once: with
    ``rows = 3`` from the entry states ``(U, S) = (1, 0)`` and ``(0, 1)``
    without forcing and ``(0, 0)`` with it, ``S = D/h``, rows ``phi``,
    ``psi`` and ``p``; with ``rows = 1``, ``p`` alone.  ``kh`` and
    ``forcing`` are ``(width, blocks)`` step tables.  Returns the table by
    step, row and block, and the block exits, ``U`` of each row then ``S``
    of each, as float lists."""
    width, blocks = kh.shape
    u = np.zeros((rows, blocks))
    d = np.zeros((rows, blocks))
    if rows == 3:
        u[0] = 1.0
        d[1] = h
    table = np.empty((width, rows, blocks))
    dk = np.empty((rows, blocks))
    for k, f, row in zip(kh, forcing, table):
        np.multiply(u, k, out=dk)
        d += dk
        d[-1] += f
        u = np.add(u, d, out=row)
    return table, np.vstack((u, d / h)).tolist()


def _rows_end_slope(slope: float, value: float, kh: float, forcing: float,
                    h: float) -> float:
    """The end slope ``(3 U[n] - 4 U[n-1] + U[n-2]) / 2h`` of the rows of
    :func:`_march` from ``(U[n], S[n-1])`` and ``kh`` and ``forcing`` at
    node ``n - 1``: with ``U[n-1] = U[n] - h S[n-1]`` and ``U[n-2]`` from
    the last row, ``S[n-1] (1 - kh/2) + (kh U[n] + forcing) / 2h``, which
    is also FDM's ``S[n-1] + h f[n-1] / 2``."""
    return slope * (1.0 - kh / 2.0) + (kh * value + forcing) / (2.0 * h)


class _Sweep:
    """FDM's rows of a case on ``n`` intervals, from ``U[0] = u(0)`` with
    the slope ``D[0]/h`` free to the right condition on the three-node
    backward slope, solved by the stabilized sweep (Ascher, Mattheij &
    Russell 1995, ch. 4) of the rows of :func:`_march`.

    One forward sweep carries the line ``offset + t direction`` of entry
    states that the left value allows, in ``(U, S)``; each block exit
    normalises ``direction`` and projects it out of ``offset``, so the line
    never grows with the coupling.  The right row fixes ``t`` and one
    backward pass gives every block's entry.  Construction samples the
    case (:func:`_coefficients`), marches its three rows and sweeps the
    direction, which depends on ``k`` alone, once each, and keeps FDM's
    solution as ``values``; :meth:`solve` marches and sweeps only a
    particular row.  Block values are kept as flat float lists, no tuple
    or list per block, so the garbage collector does not run in a solve.

    :raises SingularShootingError: when the homogeneous rows meet the
        homogeneous right condition.
    :raises DivergenceError: when the solution overflows.
    """

    def __init__(self, case: "CaseSpec", n: int):
        self.n, self.h = n, 1.0 / n
        self.u0, self.right_bc = left_value(case), case.right_bc
        self.kh, self.gh = _coefficients(case, n)
        table, exits = _march(self.kh, self.gh, self.h, 3)
        self.phi, self.psi = table[:, 0], table[:, 1]
        self.homogeneous = exits[0], exits[1], exits[3], exits[4]
        # block 0 is entered at (u0, 0) + t ((1 - lead) h, 1), t = D[0]/h
        b, r = (1 - _layout(n)[2]) * self.h, 1.0
        exit_b, exit_r, scales = [b], [r], []
        for u_phi, u_psi, s_phi, s_psi in zip(*self.homogeneous):
            b, r = b * u_phi + r * u_psi, b * s_phi + r * s_psi
            scale = math.hypot(b, r)
            b, r = b / scale, r / scale
            exit_b.append(b)
            exit_r.append(r)
            scales.append(scale)
        # each block is entered where the one before it exits
        self.entry_b = np.array(exit_b[:-1])
        self.entry_r = np.array(exit_r[:-1])
        self.exit_b, self.exit_r, self.scales = exit_b[1:], exit_r[1:], scales
        self.values = self._join(table[:, 2], exits[2::3], self.gh)

    def solve(self, extra: np.ndarray) -> np.ndarray:
        """The solution with ``extra`` added to the forcing at nodes
        ``1 .. n-1``; it raises as construction does."""
        width, blocks, lead = _layout(self.n)
        # by block, then transposed into the step table, zero on lead steps
        forcing = np.zeros((blocks, width))
        forcing.reshape(-1)[lead:] = extra
        forcing = self.gh + forcing.T
        table, exits = _march(self.kh, forcing, self.h, 1)
        return self._join(table[:, 0], exits, forcing)

    def _join(self, p: np.ndarray, p_exits: list,
              forcing: np.ndarray) -> np.ndarray:
        """The blocks joined into the solution at every node, given the
        particular row ``p`` of a march, its exits ``(U_p, S_p)`` and the
        ``forcing`` it marched: the offset swept, then ``t`` and entries."""
        h, u0 = self.h, self.u0
        kh, end = float(self.kh[-1, -1]), float(forcing[-1, -1])
        a, s = u0, 0.0
        entry_a, entry_s, shifts = [], [], []
        for u_phi, u_psi, s_phi, s_psi, u_p, s_p, b, r in zip(
                *self.homogeneous, *p_exits, self.exit_b, self.exit_r):
            entry_a.append(a)
            entry_s.append(s)
            a, s = a * u_phi + s * u_psi + u_p, a * s_phi + s * s_psi + s_p
            shift = a * b + s * r
            shifts.append(shift)
            a, s = a - shift * b, s - shift * r
        t = solve_right_row(self.right_bc, (a, b),
                            (_rows_end_slope(s, a, kh, end, h),
                             _rows_end_slope(r, b, kh, 0.0, h)))
        blocks, scales = len(shifts), self.scales
        ts = [t] * blocks
        for i in range(blocks - 1, -1, -1):
            t = (t - shifts[i]) / scales[i]
            ts[i] = t
        t = np.array(ts)
        alpha = np.array(entry_a) + t * self.entry_b
        beta = np.array(entry_s) + t * self.entry_r
        rows = self.phi * alpha
        rows += self.psi * beta
        rows += p
        width = rows.shape[0]
        out = np.empty(2 + blocks * width)
        out[2:].reshape(blocks, width)[...] = rows.T
        out = out[blocks * width - (self.n - 1):]
        out[0], out[1] = u0, u0 + h * beta[0]
        if not np.isfinite(out).all():
            raise ifoi.DivergenceError("the march overflowed", 0, math.inf)
        return out


def _forcing_only(case: "CaseSpec", n: int) -> np.ndarray:
    """FDM's rows of a case without coupling on ``n`` intervals, solved in
    blocks: with ``k = 0`` the homogeneous rows are ``1`` and ``x``, so
    the sweep that joins the coupled blocks has a closed form.

    ``g`` is sampled once into a ``(width, blocks)`` step table, zero on
    the lead steps.  A block marched from ``(U, D) = (0, 0)`` exits at
    ``D`` its forcing sum and ``U`` its first moment, so two exclusive
    cumulative sums over the blocks give every block's particular entry
    and the last exit, and the right row fixes ``t`` in ``+ t x``; the
    sums run in units of ``g``, scaled by ``h^2`` once, as a cumulative
    sum of the samples would.  One march from the true entries, ``D +=
    h^2 g``, ``U += D`` in every block at once, writes the solution.

    :raises SingularShootingError: when the line ``x`` meets the
        homogeneous right condition.
    :raises DivergenceError: when the sums or the solution overflow.
    """
    h, u0 = 1.0 / n, left_value(case)
    out = np.empty(n + 1)  # first: a grid too large fails on its own shape
    width, blocks, lead = _layout(n, 128)
    table = _step_nodes(n, width, lead)
    entry_x = table[0].copy()  # the node each block enters at; block 0's
    entry_x[0] = (1 - lead) * h  # lead steps read node 1
    table[...] = 0.0 if case.g is None else case.g(table)
    table[:lead, 0] = 0.0
    # D and U of the particular row at each block's entry, then the exit
    d = np.zeros(blocks + 1)
    u = np.zeros(blocks + 1)
    np.add.accumulate(np.add.reduce(table), out=d[1:])
    moment = np.einsum("sb,s->b", table, np.arange(width, 0.0, -1.0))
    moment += width * d[:-1]
    np.add.accumulate(moment, out=u[1:])
    end, s = table[-1, -1] * h * h, float(d[-1]) * h
    a = u0 + float(u[-1]) * h * h
    if not (math.isfinite(a) and math.isfinite(s)):
        raise ifoi.DivergenceError("the sum overflowed", 0, math.inf)
    t = solve_right_row(case.right_bc, (a, n * h),
                        (_rows_end_slope(s, a, 0.0, end, h), 1.0))
    table *= h * h
    u = u[:-1] * (h * h)
    u += t * entry_x
    u += u0
    d = d[:-1] * (h * h)
    d += t * h
    for row in table:
        d += row
        u = np.add(u, d, out=row)
    if not np.isfinite(u).all():
        raise ifoi.DivergenceError("the march overflowed", 0, math.inf)
    out[0], out[1] = u0, u0 + h * t
    out[2:2 + width - lead] = table[lead:, 0]
    out[2 + width - lead:].reshape(blocks - 1, width)[...] = table[:, 1:].T
    return out


def _correct(case: "CaseSpec", operator: ifoi.ComposedOperator,
             ) -> Optional[tuple[GridFunction, tuple[ifoi.IfoiTrace, ...]]]:
    """The coupled IFOI BVP solved as one system on the sweep, by defect
    correction (Stetter 1978, *Numer. Math.* 29), or ``None`` where the
    correction cannot tell the solution.

    The composed kernel is FDM's double sum ``J`` plus a remainder
    ``delta``, so with ``f = g + k u``, ``u = u0 + s x + K f`` holds
    exactly when ``u[i+1] - 2 u[i] + u[i-1] = h^2 f[i] + r[i+1] - 2 r[i]
    + r[i-1]`` at nodes ``1 .. n-1`` and ``u[1] = u0 + s h + h^2 f[0] +
    r[1]``, with ``r = h^2 (delta * f + V f[0])``, which
    :meth:`~fracbvp.ifoi.ComposedOperator.apply_remainder` applies.  The
    slope ``s`` is free, so these are FDM's rows with ``r`` in the
    forcing, solved with IFOI's right row by :class:`_Sweep`, which keeps
    FDM's solution (``r = 0``).  From it each pass takes ``r`` from the
    last solution by one FFT apply and solves the rows again by
    :meth:`_Sweep.solve`, until the update passes Picard's stop.

    Near an eigenvalue of IFOI's rows the update stalls, so ``None``
    comes back when a pass from the second on does not at least halve
    the update, a solution passes the ``1e8`` guard or 200 passes do not
    settle; and when FDM's solution is zero, as on zero data, which gives
    the correction nothing to stall on.

    :raises SingularShootingError: as :class:`_Sweep` does.
    :raises DivergenceError: as :class:`_Sweep` does.
    """
    sweep = _Sweep(case, operator.n)
    u = sweep.values
    if not u.any():
        return None
    x = nodes(operator.n)
    g = ifoi.IvpProblem(case.g, None, 0.0, 0.0).rhs(x, None)
    k = ifoi.IvpProblem(None, case.k, 0.0, 0.0).rhs(x, 1.0)
    last = math.inf
    for passes in range(1, ifoi.PICARD_MAX_ITER + 1):
        r = operator.apply_remainder(g + k * u)
        unew = sweep.solve(r[2:] - 2.0 * r[1:-1] + r[:-2])
        peak = float(np.max(np.abs(unew)))
        update = float(np.max(np.abs(unew - u)))
        if not (peak < ifoi.DIVERGENCE_GUARD and update <= 0.5 * last):
            return None
        u, last = unew, update
        if update < ifoi.PICARD_TOL * max(1.0, peak):
            return GridFunction(u), (ifoi.IfoiTrace(passes),)
    return None


def _shoot(case: "CaseSpec", operator: ifoi.ComposedOperator,
           ) -> tuple[GridFunction, tuple[ifoi.IfoiTrace, ...]]:
    """Solve a case by IFOI as two IVPs and one matching coefficient.

    ``u1`` solves ``u'' = g + k u`` from the left value and zero slope and,
    with a coupling, ``u2`` solves ``u'' = k u`` from zero value and unit
    slope, each by :func:`~fracbvp.ifoi.ifoi_solve_ivp`; without one
    ``u2`` is the line ``x`` and no second IVP is solved.
    :func:`solve_right_row` on their end values and backward-difference
    end slopes gives ``t``.  Returns ``u1 + t u2`` and the
    :class:`~fracbvp.ifoi.IfoiTrace` of each IVP solved, ``u1``'s first.

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


def solve_bvp(case: "CaseSpec", operator: ifoi.ComposedOperator,
              ) -> tuple[GridFunction, tuple[ifoi.IfoiTrace, ...]]:
    """Solve a case by IFOI on the grid, scheme and schedule of ``operator``.

    A forcing-only case is one IVP and the line ``x`` (:func:`_shoot`).  A
    coupled case is one system, corrected pass by pass (:func:`_correct`),
    and comes back with one :class:`~fracbvp.ifoi.IfoiTrace`, its pass
    count; where the correction stalls, as near an eigenvalue of the
    discrete problem, or meets a singular right row, the guard or an
    overflow, the solve is handed unchanged to the two IVPs of
    :func:`_shoot`, whose outcome it reports.

    :raises ValueError: for a left condition that is not Dirichlet.
    :raises DivergenceError: if an IVP diverges.
    :raises SingularShootingError: if ``u2`` meets the homogeneous right
        condition.
    """
    if case.k is not None:
        try:
            solved = _correct(case, operator)
        except (ifoi.DivergenceError, SingularShootingError):
            solved = None
        if solved is not None:
            return solved
    return _shoot(case, operator)
