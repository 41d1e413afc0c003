"""The four benchmark problems, their constants, and reference solutions.

Every case is ``u'' = g(x) + k(x) u`` on [0, 1], stated by its forcing
``g`` and its coupling ``k`` (``None`` when there is none).  Cases 1 and 2
share a Gaussian forcing and have closed-form solutions in terms of the
error function, which ``_erf`` evaluates in numpy within 1 ulp of
``math.erf``; case 3 carries an oscillatory forcing with an elementary
closed form; case 4 couples the unknown back through ``k = -2x`` and its
reference solution is an entire power series (Airy functions of
``-2^(1/3) x``) whose ten-term coefficient rows are computed at import.
The oracles work in place on a few arrays of the grid's size, with no
Python call per node, so scoring costs a small share of a solve at any
grid size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .fracops import horner
from .grid import GridFunction
from .ifoi import AlphaPartition, make_alpha_partition
from .shooting import BoundaryCondition, dirichlet, robin

SQRT10 = math.sqrt(10.0)
SQRT10PI = math.sqrt(10.0 * math.pi)
OMEGA = 200.0

CASE1_CONSTANTS = {"a": -3.0, "b": -2.0}
CASE2_CONSTANTS = {"a": 5.0, "b": 200.0, "c": 0.1}
# The Robin weight mirrors case 2; see the package notes on why the weight
# is the one constant the benchmark errors are sensitive to.
CASE3_CONSTANTS = {"a": 0.0, "b": 200.0, "c": 0.0}
CASE4_CONSTANTS = {"a": 3.0, "b": -2.0}
# Largest magnitude of the case-3 constants and of the solution's slope.
# Finite-difference rows scale the solution by 1/h**2, so a larger solution
# can overflow inside the solvers; this leaves room for any grid in memory.
CASE3_MAX_SCALE = 1e150


@dataclass(frozen=True)
class CaseSpec:
    """One benchmark problem plus everything needed to score a solve."""

    id: str
    g: Optional[Callable[[np.ndarray], np.ndarray]]
    k: Optional[Callable[[np.ndarray], np.ndarray]]
    left_bc: BoundaryCondition
    right_bc: BoundaryCondition
    default_scheme: str
    default_partition: AlphaPartition
    oracle: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    default_n: int = 100


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one benchmark solve."""

    method: str
    status: str
    params: dict
    wall_time: float
    solution: Optional[GridFunction] = None
    sup_error: Optional[float] = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status != "converged" and self.sup_error is not None:
            raise ValueError("sup_error is only meaningful for converged runs")


# ---------------------------------------------------------------------------
# closed-form machinery for the Gaussian forcing of cases 1 and 2
# ---------------------------------------------------------------------------

# erf(x) = x + x R(x^2) for |x| <= 1, and 1 - exp(-x^2) Q(|x|) for
# 1 < |x| <= 6, where Q(x) = exp(x^2) erfc(x) is a polynomial in
# t = (x - 3.5) / 2.5; past 6, erf(x) rounds to +-1.  R (degree 11) and
# Q (degree 19) are least-squares fits on Chebyshev points, made with mpmath
# at 40 digits and weighted to minimise the relative error of erf(x).  On
# 400,001 points of [-6.5, 6.5] the result is within 1 ulp of math.erf.
# Coefficients run from the constant term up.
_ERF_R = (
    0.12837916709551256, -0.37612638903183515, 0.1128379167094405,
    -0.026866170643090832, 0.005223977605955977, -0.0008548325921832884,
    0.00012055293361789941, -1.4924708324571507e-05, 1.6447084274239356e-06,
    -1.6205964194101388e-07, 1.3709519207384055e-08, -7.77682913736281e-10)
_ERF_Q = (
    0.15529365560508734, -0.10330894486904328, 0.06663207942063509,
    -0.04176677828280257, 0.025495861163372713, -0.015180966051452586,
    0.008833749300936937, -0.005053761975254434, 0.002700691761761761,
    -0.001646245773744836, 0.0011659818176917773, 0.0010365051487070624,
    0.002397895135048934, 0.00030216629195957997, -0.0038661551670860854,
    -0.0076160900205618914, -0.007430528525210052, -0.0043601643481836014,
    -0.0014581414480568952, -0.00022420721124878404)


def _erf(x) -> np.ndarray:
    """The error function at every element of ``x``, in the shape of ``x``,
    within 1 ulp of ``math.erf``."""
    x = np.asarray(x, dtype=float)
    out = np.abs(x, out=np.empty_like(x))
    near = out <= 1.0
    xn = x[near]
    r = horner(xn * xn, _ERF_R)
    r *= xn
    r += xn
    far = out[~near]
    np.minimum(far, 6.0, out=far)
    t = far - 3.5
    t /= 2.5
    q = horner(t, _ERF_Q)
    far *= far
    far *= -1.0
    q *= np.exp(far, out=far)
    out[~near] = np.subtract(1.0, q, out=q)
    out[near] = r
    return np.copysign(out, x, out=out)


def gauss_forcing(x):
    return -20.0 * np.exp(-10.0 * (np.asarray(x, dtype=float) - 0.7) ** 2)


def gauss_first_integral(x):
    """Antiderivative of the Gaussian forcing vanishing at 0."""
    d = np.array(x, dtype=float)
    d -= 0.7
    d *= SQRT10
    out = _erf(d)
    out += math.erf(0.7 * SQRT10)
    out *= -SQRT10PI
    return out


def gauss_second_integral(x):
    """Double antiderivative of the Gaussian forcing, zero value and slope at 0."""
    c = 0.7
    d = np.array(x, dtype=float)
    d -= c
    ramp = _erf(SQRT10 * d)
    ramp += math.erf(SQRT10 * c)
    ramp *= d
    ramp *= -SQRT10PI
    d *= d
    d *= -10.0
    bump = np.exp(d, out=d)
    bump -= math.exp(-10.0 * c * c)
    ramp -= bump
    return ramp


# ---------------------------------------------------------------------------
# closed-form machinery for the oscillatory forcing of case 3
# ---------------------------------------------------------------------------

def oscillatory_forcing(x):
    x = np.asarray(x, dtype=float)
    return -x * (1.0 - np.sin(100.0 * x) ** 2)


def oscillatory_first_integral(x):
    x = np.asarray(x, dtype=float)
    w = OMEGA
    return -x**2 / 4.0 - (np.cos(w * x) - 1.0) / (2.0 * w * w) \
        - x * np.sin(w * x) / (2.0 * w)


def oscillatory_second_integral(x):
    x = np.asarray(x, dtype=float)
    w = OMEGA
    wx = np.array(x)  # an array even for one point, so that sin can fill it
    wx *= w
    out = x * x
    out *= x
    out /= -12.0
    ramp = np.cos(wx)
    ramp += 1.0
    ramp *= x
    ramp /= 2.0 * w * w
    out += ramp
    wave = np.sin(wx, out=wx)
    wave /= w**3
    out -= wave
    return out


# ---------------------------------------------------------------------------
# case 4: the power-series reference
# ---------------------------------------------------------------------------

def _case4_oracle():
    """``u = 5 + A(x^3) + x B(x^3)``, with the rows of ``A`` and ``B``
    computed once.

    ``u = 5 + w`` turns ``u'' = 2x(5 - u)`` into ``w'' = -2x w``, whose
    power series obey ``c_{k+3} = -2 c_k / ((k+2)(k+3))``; ten terms leave a
    tail below ``1e-19`` on [0, 1].  ``A`` starts at ``w(0)`` and the weight
    of ``B`` meets ``w(1)``.
    """
    k = 3.0 * np.arange(9)  # nine ratios, ten terms per row
    even = np.cumprod(np.r_[1.0, -2.0 / ((k + 2) * (k + 3))])
    odd = np.cumprod(np.r_[1.0, -2.0 / ((k + 3) * (k + 4))])
    w0, w1 = CASE4_CONSTANTS["a"] - 5.0, CASE4_CONSTANTS["b"] - 5.0
    even, odd = w0 * even, (w1 - w0 * even.sum()) / odd.sum() * odd

    def oracle(x):
        x = np.asarray(x, dtype=float)
        t = x * x
        t *= x
        out = horner(t, even)
        out += 5.0
        t = horner(t, odd)
        t *= x
        out += t
        return out
    return oracle


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

def _line_plus(a: float, slope: float, particular):
    def oracle(x):
        x = np.asarray(x, dtype=float)
        bend = particular(x)
        out = slope * x
        out += a
        out += bend
        return out
    return oracle


def _affine_coeff_dirichlet(a: float, b: float, particular) -> float:
    return b - a - float(particular(1.0))


def _affine_coeff_robin(a: float, weight: float, value: float,
                        first, second) -> float:
    return (value - float(first(1.0)) - weight * (a + float(second(1.0)))) \
        / (1.0 + weight)


def make_case3(a: float = CASE3_CONSTANTS["a"], b: float = CASE3_CONSTANTS["b"],
               c: float = CASE3_CONSTANTS["c"]) -> CaseSpec:
    """Case 3 with configurable Robin constants.

    The benchmark ships defaults; the sup-norm errors of both methods depend
    only on the Robin weight ``b`` among the three, so overriding ``a`` or
    ``c`` merely shifts the solution.

    :raises ValueError: for ``b = -1``, where the problem is resonant, for
        non-finite constants, and for constants whose solution is too large
        to solve for (see :data:`CASE3_MAX_SCALE`).
    """
    if b == -1.0:
        raise ValueError(
            "case 3 is resonant at b = -1: every line u = s*x meets "
            "u'(1) - u(1) = 0, so the Robin condition fixes no solution")
    left_bc, right_bc = dirichlet(a), robin(b, c)
    slope = _affine_coeff_robin(a, b, c, oscillatory_first_integral,
                                oscillatory_second_integral)
    if not max(abs(a), abs(c), abs(b * a), abs(slope)) <= CASE3_MAX_SCALE:
        raise ValueError(
            f"case-3 constants a={a!r}, b={b!r}, c={c!r} are out of range: "
            f"a, c, b*a and the solution's slope (here {slope!r}) must stay "
            f"within {CASE3_MAX_SCALE:.0e} in magnitude")
    return CaseSpec(
        id="case3",
        g=oscillatory_forcing,
        k=None,
        left_bc=left_bc,
        right_bc=right_bc,
        default_scheme="abm",
        default_partition=make_alpha_partition("quadratic", 10),
        oracle=_line_plus(a, slope, oscillatory_second_integral),
        default_n=40,
    )


def _build_registry() -> dict[str, CaseSpec]:
    a1, b1 = CASE1_CONSTANTS["a"], CASE1_CONSTANTS["b"]
    case1 = CaseSpec(
        id="case1",
        g=gauss_forcing,
        k=None,
        left_bc=dirichlet(a1),
        right_bc=dirichlet(b1),
        default_scheme="gl",
        default_partition=make_alpha_partition("regular", 10),
        oracle=_line_plus(a1, _affine_coeff_dirichlet(a1, b1, gauss_second_integral),
                          gauss_second_integral),
        default_n=100,
    )

    a2, b2, c2 = (CASE2_CONSTANTS["a"], CASE2_CONSTANTS["b"],
                  CASE2_CONSTANTS["c"])
    case2 = CaseSpec(
        id="case2",
        g=gauss_forcing,
        k=None,
        left_bc=dirichlet(a2),
        right_bc=robin(b2, c2),
        default_scheme="rect",
        # five stages, not ten: the first-order rectangle rule accumulates
        # error linearly in the stage count, and five keeps the benchmark
        # error at the documented magnitude
        default_partition=make_alpha_partition("regular", 5),
        oracle=_line_plus(a2, _affine_coeff_robin(a2, b2, c2, gauss_first_integral,
                                                  gauss_second_integral),
                          gauss_second_integral),
        default_n=100,
    )

    case3 = make_case3()

    a4, b4 = CASE4_CONSTANTS["a"], CASE4_CONSTANTS["b"]
    case4 = CaseSpec(
        id="case4",
        # u'' = 2x(5 - u)
        g=lambda x: 10.0 * np.asarray(x, dtype=float),
        k=lambda x: -2.0 * np.asarray(x, dtype=float),
        left_bc=dirichlet(a4),
        right_bc=dirichlet(b4),
        default_scheme="abm",
        default_partition=make_alpha_partition("regular", 10),
        oracle=_case4_oracle(),
        default_n=50,
    )
    return {c.id: c for c in (case1, case2, case3, case4)}


_REGISTRY = _build_registry()

CASE_IDS = tuple(sorted(_REGISTRY))


def get_case(case_id: Union[str, int]) -> CaseSpec:
    """Look up one of the four benchmark cases.

    Accepts ``"case1"``, ``"1"`` or ``1``.

    :raises ValueError: for anything else.
    """
    key = f"case{case_id}" if str(case_id) in "1234" else str(case_id)
    try:
        return _REGISTRY[key]
    except KeyError:
        raise ValueError(f"unknown case {case_id!r}; expected one of "
                         f"{', '.join(CASE_IDS)}") from None


def oracle_solution(case: Union[str, int, CaseSpec], x) -> np.ndarray:
    """Reference solution of a case at points in [0, 1]."""
    spec = case if isinstance(case, CaseSpec) else get_case(case)
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("oracle is only defined on [0, 1]")
    return spec.oracle(arr)


def sup_error(approx: GridFunction, case: Union[str, int, CaseSpec]) -> float:
    """Max nodewise deviation from the reference, on the solver's own grid."""
    spec = case if isinstance(case, CaseSpec) else get_case(case)
    gap = np.subtract(approx.values, spec.oracle(approx.nodes))
    return float(np.max(np.abs(gap, out=gap)))
