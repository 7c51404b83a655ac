"""Sampled certificate that |f'|^q stays below its endpoint chord on the path.

This is the hypothesis every closed-form bound consumes:

    |f'(a + t e^(i phi) (b-a))|^q  <=  (1-t) |f'(a)|^q + t |f'(b)|^q

with f' taken at the real endpoints a and b; |f'| is sampled once for all q.
A certificate is sampled evidence, not a proof; callers decide on a violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .domain import PhiInterval
from .expr import Expr, Tape, differentiate, evaluate

__all__ = [
    "ConvexityCertificate",
    "certify_phi_convexity",
    "VERIFIED",
    "VIOLATED",
    "SKIPPED",
    "DEFAULT_CERT_TOL",
    "DEFAULT_CERT_SAMPLES",
]

VERIFIED = "verified"
VIOLATED = "violated"
SKIPPED = "skipped"

DEFAULT_CERT_TOL = 1e-10
DEFAULT_CERT_SAMPLES = 1001


@dataclass(frozen=True)
class ConvexityCertificate:
    q: float
    sample_count: int
    status: str  # verified | violated
    worst_margin: float  # min over samples of (chord - value)
    violation_t: Optional[float] = None  # present iff violated


def certify_phi_convexity(f: Expr, iv: PhiInterval, qs: Sequence[float],
                          samples: int = DEFAULT_CERT_SAMPLES,
                          tol: float = DEFAULT_CERT_TOL) -> tuple[ConvexityCertificate, ...]:
    """Compare |f'(path(t))|^q against the endpoint chord on a uniform grid.

    One certificate per q of ``qs``, in order.  The grid includes both
    endpoints; the worst (most negative) margin of a q and its location
    decide its status: ``violated`` iff that margin drops below ``-tol``.
    """
    if samples < 3:
        raise ValueError(f"need at least 3 samples, got {samples}")
    for q in qs:
        if q < 1.0:
            raise ValueError(f"q must be >= 1, got {q}")
    fp = Tape(differentiate(f))
    deriv_a = abs(evaluate(fp, complex(iv.a)))
    at_a = [deriv_a ** q for q in qs]
    deriv_b = abs(evaluate(fp, complex(iv.b)))
    at_b = [deriv_b ** q for q in qs]
    worst = [(math.inf, 0.0)] * len(qs)  # (margin, t) per q
    for k in range(samples):
        t = k / (samples - 1)
        value = abs(evaluate(fp, iv.path_point(t)))
        for j, q in enumerate(qs):
            margin = (1.0 - t) * at_a[j] + t * at_b[j] - value ** q  # chord - value
            if margin < worst[j][0]:
                worst[j] = (margin, t)
    return tuple(ConvexityCertificate(q, samples, VIOLATED, margin, t) if margin < -tol
                 else ConvexityCertificate(q, samples, VERIFIED, margin, None)
                 for q, (margin, t) in zip(qs, worst))
