"""Closed-form bounds on |Simpson functional - path mean|.

All four theorem bounds are built from |f'| at the real endpoints a and b,
the segment length L = b - a (the rotation factor enters only through its
modulus, which is 1), and a finite exponent q >= 1.  T32 to T34 share one
power mean of |f'(a)| and |f'(b)|, scaled by their maximum so that no
|f'|^q underflows or overflows, and T32 and T33 share one root of the
kernel moment, which never forms the moment itself.  The classical
fourth-order bound m4 * L^4 / 2880 is included for phi = 0, with m4 the
largest |f''''| at M4_SAMPLES points of [a, b]: from Taylor jets of f's own
tape, or, where they fail, from the symbolic f'''' sampled by
``convexity.path_moduli``, the certificate's sampler.
"""

from __future__ import annotations

from collections import namedtuple
from math import inf, isfinite
from typing import NamedTuple, Optional

from .convexity import path_moduli
from .domain import PhiInterval
from .expr import Expr, Tape, differentiate, evaluate, taylor_grid

__all__ = [
    "BoundInputs",
    "BoundReport",
    "make_bound_report",
    "kernel_moment",
    "bound_t31",
    "bound_t32",
    "bound_t33",
    "bound_t34",
    "classical_bound",
    "estimate_m4",
    "DOMINANCE_SLOP",
    "M4_SAMPLES",
]

# Numeric slop when flagging dominance: actual <= bound + DOMINANCE_SLOP.
DOMINANCE_SLOP = 1e-12

# Evenly spaced points of [a, b], both ends included, at which estimate_m4 samples |f''''|.
M4_SAMPLES = 101


class BoundInputs(namedtuple("BoundInputs", "deriv_a deriv_b length q", defaults=(1.0,))):
    """|f'(a)|, |f'(b)|, segment length and the exponent q, checked however
    built: ``_make``, which ``_replace`` uses, calls the constructor."""

    __slots__ = ()

    def __new__(cls, deriv_a: float, deriv_b: float, length: float, q: float = 1.0):
        if not (isfinite(deriv_a) and deriv_a >= 0.0):
            raise ValueError(f"deriv_a must be finite and >= 0, got {deriv_a}")
        if not (isfinite(deriv_b) and deriv_b >= 0.0):
            raise ValueError(f"deriv_b must be finite and >= 0, got {deriv_b}")
        if not length > 0.0:
            raise ValueError(f"length must be positive, got {length}")
        if not isfinite(q):
            raise ValueError(f"q must be finite, got {q}")
        if q < 1.0:
            raise ValueError(f"q must be >= 1, got {q}")
        return super().__new__(cls, deriv_a, deriv_b, length, q)

    @classmethod
    def _make(cls, iterable) -> "BoundInputs":
        return cls(*iterable)

    @property
    def p(self) -> float:
        """Conjugate exponent q/(q-1); defined only for q > 1."""
        if self.q <= 1.0:
            raise ValueError("conjugate exponent requires q > 1")
        return self.q / (self.q - 1.0)

    @classmethod
    def from_function(cls, f: Expr, iv: PhiInterval, q: float = 1.0) -> "BoundInputs":
        """f' evaluated at a and b; a certificate of f on ``iv`` carries the same two values."""
        fp = Tape(differentiate(f))
        return cls(
            deriv_a=abs(evaluate(fp, complex(iv.a))),
            deriv_b=abs(evaluate(fp, complex(iv.b))),
            length=iv.length,
            q=q,
        )


class BoundReport(NamedTuple):
    """One bound row: value, measured |lhs|, slack and the dominance flag."""

    theorem: str  # T31 | T32 | T33 | T34 | CLASSICAL
    q: Optional[float]
    bound: float
    actual: float
    slack: float
    dominant: bool
    certificate_status: str  # verified | violated | skipped


def make_bound_report(theorem: str, q: Optional[float], bound: float,
                      actual: float, certificate_status: str) -> BoundReport:
    slack = bound - actual
    return BoundReport(theorem, q, bound, actual, slack,
                       slack >= -DOMINANCE_SLOP, certificate_status)


def kernel_moment(p: float) -> float:
    """Closed form of the half-interval moment: integral of |t-1/6|^p over [0, 1/2].

    Equals (1 + 2^(p+1)) / (6^(p+1) (p+1)); at p=1 this is 5/72, at p=2 it
    is 1/72.  T32 and T33 do not call it: 6^(p+1) (p+1) overflows to inf
    above p of about 391, so the moment reads 0 there, and 6^(p+1) raises
    OverflowError above p of about 395.
    """
    if not 0.0 < p < inf:
        raise ValueError(f"moment exponent must be finite and positive, got {p}")
    return (1.0 + 2.0 ** (p + 1.0)) / (6.0 ** (p + 1.0) * (p + 1.0))


def _moment_root(p: float, scale: float) -> float:
    """(scale * kernel_moment(p))^(1/p), which T32 and T33 take, without forming the moment.

    kernel_moment(p) = (1 + 2^-(p+1)) / ((p+1) 3^(p+1)), so the root is
    (scale (1 + 2^-(p+1)) / (p+1))^(1/p) / 3^((p+1)/p), whose every factor
    stays in the float range for all p >= 1.
    """
    return (scale * (1.0 + 2.0 ** -(p + 1.0)) / (p + 1.0)) ** (1.0 / p) / 3.0 ** ((p + 1.0) / p)


def _power_means(inputs: BoundInputs, total: float, *weights: tuple[float, float]) -> float:
    """Sum over (wa, wb) in ``weights`` of ((wa A^q + wb B^q) / total)^(1/q),
    with A = |f'(a)| and B = |f'(b)|.

    A and B are divided by s = max(A, B) before the power and s multiplies
    the sum of the roots, so no power underflows or overflows at any q;
    with s = 0 the sum is 0.
    """
    s = max(inputs.deriv_a, inputs.deriv_b)
    if s == 0.0:
        return 0.0
    q = inputs.q
    aq, bq = (inputs.deriv_a / s) ** q, (inputs.deriv_b / s) ** q
    return s * sum(((wa * aq + wb * bq) / total) ** (1.0 / q) for wa, wb in weights)


def bound_t31(inputs: BoundInputs) -> float:
    """(5/72) L (|f'(a)| + |f'(b)|)."""
    return (5.0 / 72.0) * inputs.length * (inputs.deriv_a + inputs.deriv_b)


def bound_t32(inputs: BoundInputs) -> float:
    """Hoelder-split bound; requires q > 1.

    L * kernel_moment(p)^(1/p) * [ ((3A^q + B^q)/8)^(1/q) + ((A^q + 3B^q)/8)^(1/q) ]
    with A = |f'(a)|, B = |f'(b)| and p the conjugate exponent.
    """
    return (inputs.length * _moment_root(inputs.p, 1.0)
            * _power_means(inputs, 8.0, (3.0, 1.0), (1.0, 3.0)))


def bound_t33(inputs: BoundInputs) -> float:
    """Whole-interval Hoelder bound; requires q > 1.

    L * (2 kernel_moment(p))^(1/p) * ((A^q + B^q)/2)^(1/q).
    """
    return inputs.length * _moment_root(inputs.p, 2.0) * _power_means(inputs, 2.0, (1.0, 1.0))


def bound_t34(inputs: BoundInputs) -> float:
    """Power-mean bound, valid for all q >= 1; reduces to bound_t31 at q = 1.

    L * (5/72)^(1-1/q) * [ ((61A^q + 29B^q)/1296)^(1/q) + ((29A^q + 61B^q)/1296)^(1/q) ].
    """
    lead = (5.0 / 72.0) ** (1.0 - 1.0 / inputs.q)
    return inputs.length * lead * _power_means(inputs, 1296.0, (61.0, 29.0), (29.0, 61.0))


def classical_bound(m4: float, length: float) -> float:
    """Fourth-order bound m4 * length^4 / 2880 (phi = 0 setting)."""
    if not m4 >= 0.0:
        raise ValueError(f"m4 must be >= 0, got {m4}")
    if not length > 0.0:
        raise ValueError(f"length must be positive, got {length}")
    try:
        return m4 * length**4 / 2880.0
    except OverflowError:
        raise OverflowError(f"(b-a)^4 out of range: b-a = {length!r}") from None


def estimate_m4(f: Expr, iv: PhiInterval) -> float:
    """Largest |f''''| at M4_SAMPLES evenly spaced points of [a, b], ends included.

    A lower estimate of the supremum (sampling cannot certify a sup);
    only defined for phi = 0, where the path point of t is a + t (b - a).
    f'''' is 4! times the fourth Taylor coefficient that ``taylor_grid``
    takes from f's own tape at the points ``convexity.path_moduli`` would
    sample.  Where that pass fails (a rule divides by zero, as a power
    does at a zero base, a coefficient is not finite, or a modulus is out
    of range), f'''' is taken symbolically and ``path_moduli`` samples its
    tape: the one path that gives a value there, or raises the first error
    a point-by-point pass would meet.
    """
    if iv.phi != 0.0:
        raise ValueError("fourth-derivative estimate requires phi = 0")
    points = [iv.a + k / (M4_SAMPLES - 1) * iv.chord for k in range(M4_SAMPLES)]
    try:
        m4 = max(abs(24.0 * c) for c in taylor_grid(Tape(f), points, 4)[4])
        if isfinite(m4):
            return m4
    except (ArithmeticError, ValueError):
        pass
    d4 = f
    for _ in range(4):
        d4 = differentiate(d4)
    return max(max(moduli) for _, moduli in path_moduli(Tape(d4), iv, M4_SAMPLES))
