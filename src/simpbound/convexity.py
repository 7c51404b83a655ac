"""Sampled certificate that |f'|^q stays below its endpoint chord on the path.

This is the hypothesis every closed-form bound consumes:

    |f'(a + t e^(i phi) (b-a))|^q  <=  (1-t) |f'(a)|^q + t |f'(b)|^q

with f' taken at the real endpoints a and b; |f'| is sampled once for all q,
GRID_CHUNK path points at a time.  Each certificate carries |f'(a)| and
|f'(b)|, the inputs of every closed-form bound.  A certificate is sampled
evidence, not a proof; callers decide on a violation.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from .domain import PhiInterval
from .expr import Expr, Tape, differentiate, evaluate, evaluate_grid

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

# Path points evaluated per call of evaluate_grid: enough to spread each
# instruction's dispatch over many points, few enough that the certificate's
# memory does not depend on the number of samples.
GRID_CHUNK = 128


class ConvexityCertificate(NamedTuple):
    q: float
    sample_count: int
    status: str  # verified | violated
    worst_margin: float  # min over samples of (chord - value)
    deriv_a: float  # |f'(a)|, the chord's left end before the power q
    deriv_b: float  # |f'(b)|
    violation_t: Optional[float] = None  # present iff violated


def certify_phi_convexity(f: Expr, iv: PhiInterval, qs: Sequence[float],
                          samples: int = DEFAULT_CERT_SAMPLES) -> tuple[ConvexityCertificate, ...]:
    """Compare |f'(path(t))|^q against the endpoint chord on a uniform grid.

    One certificate per q of ``qs``, in order.  The grid includes both
    endpoints; the worst (most negative) margin of a q and its location
    decide its status: ``violated`` iff that margin drops below
    ``-DEFAULT_CERT_TOL``.  The error raised is the first that a
    point-by-point pass would meet: the powers at a and b, then per path
    point its evaluation and its power for each q.
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
    for start in range(0, samples, GRID_CHUNK):
        ts = [k / (samples - 1) for k in range(start, min(start + GRID_CHUNK, samples))]
        lows, error = _chunk_minima(fp, iv, ts, qs, at_a, at_b)
        for j, (low, t) in enumerate(lows):
            if low < worst[j][0]:  # strict: the first of equal margins stays the worst
                worst[j] = (low, t)
        if error is not None:  # raised after the margins of the points before it
            raise error
    return tuple(ConvexityCertificate(q, samples, VIOLATED, margin, deriv_a, deriv_b, t)
                 if margin < -DEFAULT_CERT_TOL
                 else ConvexityCertificate(q, samples, VERIFIED, margin, deriv_a, deriv_b)
                 for q, (margin, t) in zip(qs, worst))


def _chunk_minima(fp: Tape, iv: PhiInterval, ts: list[float], qs: Sequence[float],
                  at_a: list[float], at_b: list[float]) -> tuple[list, Optional[Exception]]:
    """Each q's least margin over path parameters ``ts`` and the first t with it.

    Only the points before the first failure count; that failure, an error
    of f' or an |f'| beyond the float range, is returned with the minima.
    The chunk's lists die with the call, so one chunk is alive at a time.
    """
    values, error = evaluate_grid(fp, [iv.path_point(t) for t in ts])
    moduli = []
    for value in values:
        try:
            moduli.append(abs(value))
        except OverflowError as exc:
            error = exc
            break
    if not moduli:
        return [], error
    lows = []
    for q, chord_a, chord_b in zip(qs, at_a, at_b):
        margins = [(1.0 - t) * chord_a + t * chord_b - value ** q  # chord - value
                   for t, value in zip(ts, moduli)]
        low = min(margins)
        lows.append((low, ts[margins.index(low)]))
    return lows, error
