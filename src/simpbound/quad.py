"""Adaptive complex-valued quadrature on [0, 1].

Each panel is estimated with the embedded 7-point Gauss / 15-point Kronrod
pair; the panel with the largest |K15 - G7| discrepancy is bisected until
the summed error estimate drops below the requested tolerance.  Refinement
gives up, raising :class:`BudgetExceededError` with the sum of every live
panel, when the evaluation budget runs out or when the panel to bisect has
no float strictly between its ends (it stalled at floating-point
resolution, as QUADPACK's QAG stops with ``ier = 3``).  Caller-supplied
breakpoints pre-split the interval so kinks and jumps never sit inside a
panel (the rule is open, so breakpoints themselves are never sampled).
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass
from itertools import count
from typing import Callable, Sequence

from .domain import PhiInterval
from .expr import Expr, Tape, evaluate

__all__ = [
    "QuadratureResult",
    "QuadratureError",
    "NonFiniteIntegrandError",
    "BudgetExceededError",
    "integrate_01",
    "contour_integral",
    "DEFAULT_TOL",
    "DEFAULT_BUDGET",
]

DEFAULT_TOL = 1e-11
DEFAULT_BUDGET = 10**6

# 15-point Kronrod abscissae (positive half, descending) and weights;
# entries 1, 3, 5 plus the centre are the embedded 7-point Gauss nodes.
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993945,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
)
_WGK = (
    0.0229353220105292,
    0.0630920926299786,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
)
_WGK_CENTER = 0.2094821410847278
_WG = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
)
_WG_CENTER = 0.4179591836734694


class QuadratureError(Exception):
    """Base class for quadrature failures."""


class NonFiniteIntegrandError(QuadratureError):
    """The integrand returned a non-finite value; ``t`` is the sample point."""

    def __init__(self, t: float):
        super().__init__(f"integrand is not finite at t={t!r}")
        self.t = t


class BudgetExceededError(QuadratureError):
    """Tolerance unreachable within the budget; ``best`` is the estimate so far."""

    def __init__(self, best: "QuadratureResult", reason: str):
        super().__init__(
            f"{reason}; best estimate {best.value!r} with error estimate "
            f"{best.error_estimate:.3e} after {best.evaluations} evaluations"
        )
        self.best = best


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error_estimate: float
    evaluations: int


def _sample(g: Callable[[float], complex], t: float) -> complex:
    v = complex(g(t))
    if not cmath.isfinite(v):
        raise NonFiniteIntegrandError(t)
    return v


def _panel(g: Callable[[float], complex], lo: float, hi: float) -> tuple[complex, float]:
    """Gauss-Kronrod 7-15 estimate of the integral over [lo, hi].

    Returns (K15 value, |K15 - G7|); costs exactly 15 evaluations.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    fc = _sample(g, c)
    kron = _WGK_CENTER * fc
    gauss = _WG_CENTER * fc
    for j in range(7):
        dx = h * _XGK[j]
        pair = _sample(g, c - dx) + _sample(g, c + dx)
        kron += _WGK[j] * pair
        if j % 2 == 1:
            gauss += _WG[j // 2] * pair
    return kron * h, abs(kron - gauss) * h


def integrate_01(
    g: Callable[[float], complex],
    tol: float = DEFAULT_TOL,
    breakpoints: Sequence[float] = (),
    budget: int = DEFAULT_BUDGET,
) -> QuadratureResult:
    """Adaptively integrate ``g`` over [0, 1] to absolute tolerance ``tol``.

    The interval is pre-split at every breakpoint (all must lie strictly
    inside (0, 1)).  Raises :class:`BudgetExceededError` carrying the best
    estimate when the tolerance cannot be met within ``budget`` integrand
    evaluations or before the worst panel becomes too narrow to bisect, and
    :class:`NonFiniteIntegrandError` if ``g`` returns a non-finite value.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    points = sorted({float(x) for x in breakpoints})
    if points and not (0.0 < points[0] and points[-1] < 1.0):
        raise ValueError(f"breakpoints must lie strictly inside (0, 1), got {points}")
    edges = [0.0, *points, 1.0]

    evaluations = 0
    tiebreak = count()
    heap: list[tuple[float, int, float, float, complex, float]] = []

    def add(lo: float, hi: float) -> float:
        """Estimate the panel [lo, hi], push it and return its error estimate."""
        nonlocal evaluations
        value, err = _panel(g, lo, hi)
        evaluations += 15
        heapq.heappush(heap, (-err, next(tiebreak), lo, hi, value, err))
        return err

    def assemble() -> QuadratureResult:
        # fsum is correctly rounded, so the heap's order does not change a bit
        value = complex(
            math.fsum(p[4].real for p in heap),
            math.fsum(p[4].imag for p in heap),
        )
        return QuadratureResult(value, math.fsum(p[5] for p in heap), evaluations)

    total_err = 0.0
    for lo, hi in zip(edges, edges[1:]):
        if evaluations + 15 > budget:
            raise BudgetExceededError(assemble(), f"evaluation budget {budget} exhausted")
        total_err += add(lo, hi)

    while total_err > tol:
        _, _, lo, hi, _, err = heap[0]
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise BudgetExceededError(assemble(), "refinement stalled at floating-point resolution")
        if evaluations + 30 > budget:
            raise BudgetExceededError(assemble(), f"evaluation budget {budget} exhausted")
        heapq.heappop(heap)
        total_err += add(lo, mid) + add(mid, hi) - err

    return assemble()


def contour_integral(
    f: Expr,
    iv: PhiInterval,
    tol: float = DEFAULT_TOL,
) -> QuadratureResult:
    """Integral of ``f`` along the rotated segment of ``iv``.

    Computed as chord * integral of f(path_point(t)) over [0, 1]; the inner
    tolerance is scaled so the returned error estimate is at most ``tol``.
    """
    chord = iv.chord
    scale = abs(chord)
    tape = Tape(f)
    inner = integrate_01(
        lambda t: evaluate(tape, iv.path_point(t)),
        tol=tol / scale,
    )
    return QuadratureResult(chord * inner.value, scale * inner.error_estimate, inner.evaluations)
