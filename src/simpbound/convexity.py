"""Sampled certificate that |f'|^q stays below its endpoint chord on the path.

This is the hypothesis every closed-form bound consumes:

    |f'(a + t e^(i phi) (b-a))|^q  <=  (1-t) |f'(a)|^q + t |f'(b)|^q

with f' taken at the real endpoints a and b.  A certificate is evidence from
uniform sampling, not a proof; callers decide what to do with a violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

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


def certify_phi_convexity(f: Expr, iv: PhiInterval, q: float,
                          samples: int = DEFAULT_CERT_SAMPLES,
                          tol: float = DEFAULT_CERT_TOL) -> ConvexityCertificate:
    """Compare |f'(path(t))|^q against the endpoint chord on a uniform grid.

    The grid includes both endpoints; the worst (most negative) margin and
    its location decide the status: ``violated`` iff the worst margin drops
    below ``-tol``.
    """
    if samples < 3:
        raise ValueError(f"need at least 3 samples, got {samples}")
    if q < 1.0:
        raise ValueError(f"q must be >= 1, got {q}")
    fp = Tape(differentiate(f))
    at_a = abs(evaluate(fp, complex(iv.a))) ** q
    at_b = abs(evaluate(fp, complex(iv.b))) ** q
    worst = math.inf
    worst_t = 0.0
    for k in range(samples):
        t = k / (samples - 1)
        chord = (1.0 - t) * at_a + t * at_b
        margin = chord - abs(evaluate(fp, iv.path_point(t))) ** q
        if margin < worst:
            worst = margin
            worst_t = t
    if worst < -tol:
        return ConvexityCertificate(q, samples, VIOLATED, worst, worst_t)
    return ConvexityCertificate(q, samples, VERIFIED, worst, None)
