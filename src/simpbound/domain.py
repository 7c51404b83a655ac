"""Rotated integration segment and the piecewise Simpson kernel."""

from __future__ import annotations

import cmath
import math

__all__ = ["PhiInterval", "kernel", "KERNEL_BREAKPOINTS", "HALF_PI"]

HALF_PI = math.pi / 2.0

# Kernel kinks at 1/6 and 5/6 plus the jump at 1/2; kernel-weighted
# quadrature must split the unit interval here.
KERNEL_BREAKPOINTS = (1.0 / 6.0, 0.5, 5.0 / 6.0)


class PhiInterval:
    """Real endpoints ``a < b`` with a rotation angle ``phi`` in [0, pi/2].

    Parametrizes the complex segment a + t*e^(i*phi)*(b-a) for t in [0, 1].
    Inputs with phi outside [0, pi/2] are rejected, not wrapped.  Instances
    are immutable, and ``chord`` is computed once, at construction, because
    every path point reads it.
    """

    __slots__ = ("a", "b", "phi", "chord")

    def __init__(self, a: float, b: float, phi: float = 0.0) -> None:
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError("interval endpoints must be finite")
        if not a < b:
            raise ValueError(f"need a < b, got a={a}, b={b}")
        if not math.isfinite(b - a):
            raise ValueError(f"segment length b - a must be finite, got {b - a}")
        if not 0.0 <= phi <= HALF_PI:
            raise ValueError(f"phi must lie in [0, pi/2], got {phi}")
        chord = cmath.exp(1j * phi) * (b - a)  # displacement from a to the rotated endpoint
        for name, value in zip(self.__slots__, (a, b, phi, chord)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"PhiInterval is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:  # copy, pickle and compare by the constructor's arguments
        return PhiInterval, (self.a, self.b, self.phi)

    def __eq__(self, other: object) -> bool:
        return type(other) is PhiInterval and self.__reduce__() == other.__reduce__()

    def __hash__(self) -> int:
        return hash(self.__reduce__())

    def __repr__(self) -> str:
        return f"PhiInterval(a={self.a!r}, b={self.b!r}, phi={self.phi!r})"

    @property
    def length(self) -> float:
        """|chord| = b - a (rotation preserves the modulus)."""
        return self.b - self.a

    @property
    def endpoint(self) -> complex:
        return self.a + self.chord

    @property
    def midpoint(self) -> complex:
        return self.a + 0.5 * self.chord

    def path_point(self, t: float) -> complex:
        """Point a + t*e^(i*phi)*(b-a); t must lie in [0, 1]."""
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"path parameter must lie in [0, 1], got {t}")
        return self.a + t * self.chord


def kernel(t: float) -> float:
    """Piecewise quadrature kernel: t - 1/6 on [0, 1/2), t - 5/6 on [1/2, 1].

    The branch boundary t = 1/2 belongs to the second branch, so the kernel
    jumps from -1/3 to +1/3 there.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"kernel argument must lie in [0, 1], got {t}")
    return t - 1.0 / 6.0 if t < 0.5 else t - 5.0 / 6.0
