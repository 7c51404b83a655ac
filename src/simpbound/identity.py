"""Both sides of the Simpson-functional equality on a rotated segment.

For differentiable f the complex equality

    (1/6)[f(a) + 4 f(mid) + f(end)] - (1/chord) * contour integral of f
        = chord * integral over [0,1] of kernel(t) * f'(path(t)) dt

holds exactly; :func:`identity_residual` measures both sides numerically
and reports |lhs - rhs|.  The equality is checked between complex values;
the modulus enters only when comparing against bounds.
"""

from __future__ import annotations

from typing import NamedTuple

from .domain import KERNEL_BREAKPOINTS, PhiInterval, kernel
from .expr import Expr, Tape, differentiate, evaluate
from .quad import DEFAULT_TOL, contour_integral, integrate_01

__all__ = [
    "IdentityReport",
    "simpson_functional",
    "path_mean",
    "identity_rhs",
    "identity_residual",
    "DEFAULT_IDENTITY_TOL",
]

DEFAULT_IDENTITY_TOL = 1e-8


class IdentityReport(NamedTuple):
    """Simpson functional vs path mean, with the kernel-weighted right side."""

    simpson_value: complex
    path_mean: complex
    lhs: complex  # simpson_value - path_mean
    rhs: complex
    residual: float  # |lhs - rhs|


def simpson_functional(f: Expr, iv: PhiInterval) -> complex:
    """(1/6)[f(a) + 4 f(midpoint) + f(endpoint)] on the rotated segment."""
    tape = Tape(f)
    fa = evaluate(tape, complex(iv.a))
    fm = evaluate(tape, iv.midpoint)
    fb = evaluate(tape, iv.endpoint)
    return (fa + 4.0 * fm + fb) / 6.0


def path_mean(f: Expr, iv: PhiInterval, tol: float = DEFAULT_TOL) -> complex:
    """Contour integral of f divided by the chord."""
    result = contour_integral(f, iv, tol=tol * abs(iv.chord))
    return result.value / iv.chord


def identity_rhs(f: Expr, iv: PhiInterval, tol: float = DEFAULT_TOL) -> complex:
    """chord * integral of kernel(t) * f'(path(t)), split at the kernel kinks."""
    fp = Tape(differentiate(f))
    chord = iv.chord
    inner = integrate_01(
        lambda t: kernel(t) * evaluate(fp, iv.path_point(t)),
        tol=tol / abs(chord),
        breakpoints=KERNEL_BREAKPOINTS,
    )
    return chord * inner.value


def identity_residual(f: Expr, iv: PhiInterval, tol: float = DEFAULT_TOL) -> IdentityReport:
    """Evaluate both sides of the equality and their residual."""
    simpson = simpson_functional(f, iv)
    mean = path_mean(f, iv, tol=tol)
    rhs = identity_rhs(f, iv, tol=tol)
    lhs = simpson - mean
    return IdentityReport(simpson, mean, lhs, rhs, abs(lhs - rhs))
