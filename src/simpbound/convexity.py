"""Sampled certificate that |f'|^q stays below its endpoint chord on the path.

This is the hypothesis every closed-form bound consumes:

    |f'(a + t e^(i phi) (b-a))|^q  <=  (1-t) |f'(a)|^q + t |f'(b)|^q

with f' taken at the real endpoints a and b.  Each certificate carries
|f'(a)| and |f'(b)|, the inputs of every closed-form bound.  A certificate
is sampled evidence, not a proof; callers decide on a violation.

:func:`path_moduli` samples |f'| for the certificate and |f''''| for
``bounds.estimate_m4``: it is the one walk of a tape along the path.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple, Optional, Sequence

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
    "path_moduli",
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


def path_moduli(tape: Tape, iv: PhiInterval,
                samples: int) -> Iterator[tuple[list[float], list[float]]]:
    """``(ts, moduli)`` per chunk: |tape| at the path points of t = k/(samples-1).

    Each chunk of GRID_CHUNK points (the last one fewer) is one
    ``evaluate_grid`` call, so memory follows the chunk, not ``samples``.
    When a point fails, with an ``EvalDomainError`` of the tape or the
    ``OverflowError`` of its modulus, ``moduli`` stops short of ``ts``
    there, and that error is raised once the chunk has been consumed: the
    first error a point-by-point pass would meet, after the moduli of the
    points before it.
    """
    for start in range(0, samples, GRID_CHUNK):
        ts = [k / (samples - 1) for k in range(start, min(start + GRID_CHUNK, samples))]
        values, error = evaluate_grid(tape, [iv.path_point(t) for t in ts])
        moduli = []
        for value in values:
            try:
                moduli.append(abs(value))
            except OverflowError as exc:
                error = exc
                break
        if moduli:
            yield ts, moduli
        if error is not None:
            raise error


def _powers(name: str, modulus: float, qs: Sequence[float], where: str = "") -> list[float]:
    """``modulus ** q`` for each q; the first q out of range raises an OverflowError naming it."""
    powers = []
    for q in qs:
        try:
            powers.append(modulus ** q)
        except OverflowError:
            raise OverflowError(f"{name}^q out of range{where}: "
                                f"{name} = {modulus!r}, q = {q!r}") from None
    return powers


def certify_phi_convexity(f: Expr, iv: PhiInterval, qs: Sequence[float],
                          samples: int = DEFAULT_CERT_SAMPLES) -> tuple[ConvexityCertificate, ...]:
    """Compare |f'(path(t))|^q against the endpoint chord on a uniform grid.

    One certificate per q of ``qs``, in order.  The grid includes both
    endpoints; the worst (most negative) margin of a q and its location
    decide its status: ``violated`` iff that margin drops below
    ``-DEFAULT_CERT_TOL``.  The error raised is the first that a
    point-by-point pass would meet: the powers at a and b, then per path
    point its evaluation and its power for each q.  A power beyond the
    float range raises an ``OverflowError`` naming it, q, the modulus and,
    on the path, t.  Fewer than 3 samples, or a q that is not finite or
    below 1, raise ``ValueError`` before f' is taken.
    """
    if samples < 3:
        raise ValueError(f"need at least 3 samples, got {samples}")
    for q in qs:
        if not math.isfinite(q):
            raise ValueError(f"q must be finite, got {q}")
        if q < 1.0:
            raise ValueError(f"q must be >= 1, got {q}")
    fp = Tape(differentiate(f))
    deriv_a = abs(evaluate(fp, complex(iv.a)))
    at_a = _powers("|f'(a)|", deriv_a, qs)
    deriv_b = abs(evaluate(fp, complex(iv.b)))
    at_b = _powers("|f'(b)|", deriv_b, qs)
    worst = [(math.inf, 0.0)] * len(qs)  # (margin, t) per q
    for ts, moduli in path_moduli(fp, iv, samples):
        for j, (q, chord_a, chord_b) in enumerate(zip(qs, at_a, at_b)):
            try:
                margins = [(1.0 - t) * chord_a + t * chord_b - value ** q  # chord - value
                           for t, value in zip(ts, moduli)]
            except OverflowError:  # name the chunk's first point whose power overflows
                for t, value in zip(ts, moduli):
                    _powers("|f'(path(t))|", value, qs, f" at t = {t!r}")
                raise
            low = min(margins)
            if low < worst[j][0]:  # strict: the first of equal margins stays the worst
                worst[j] = (low, ts[margins.index(low)])
    # from a list, so that the tuple comes from the interpreter's free list that it
    # returns to (``tuple()`` of an iterator resizes instead)
    return tuple([ConvexityCertificate(q, samples, VIOLATED, margin, deriv_a, deriv_b, t)
                  if margin < -DEFAULT_CERT_TOL
                  else ConvexityCertificate(q, samples, VERIFIED, margin, deriv_a, deriv_b)
                  for q, (margin, t) in zip(qs, worst)])
