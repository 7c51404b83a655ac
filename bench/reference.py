"""How fast the machine runs Python right now, sampled while ops run.

On a shared machine the speed of a core drifts by up to half over seconds,
as other tenants come and go.  A ``SpeedProbe`` times a fixed computation
from a timer signal every quarter second, in the benchmark's only thread, and
the benchmark scales each op's time by ``NOMINAL_S`` over the mean reference
time during the op.  That removes most of the drift: a change to the tool
moves the scaled times as it moves the wall times, while the machine's load
moves the reference and the op alike.  The time the probe itself takes is
subtracted from the op it interrupted.

The computation is the benchmark's own (recursive evaluation of a fixed
complex-valued expression tree, the same kind of work the tool does), so no
change to the tool can change it.
"""

from __future__ import annotations

import bisect
import cmath
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator

# One timing of the computation at nominal speed: its typical time on an
# unloaded 2.1 GHz Xeon core.  It only fixes the scale of scaled times.
NOMINAL_S = 0.0023
# Timings of the computation per sample; the sample keeps their median.
REFERENCE_REPEATS = 3
# Seconds between samples while a probe runs.  One sample takes about
# REFERENCE_REPEATS * NOMINAL_S, far less.
PROBE_INTERVAL_S = 0.25


def _tree(depth: int) -> tuple:
    if depth == 0:
        return ("x",)
    if depth % 2:
        return ("+", ("*", _tree(depth - 1), ("c", 0.5)), ("exp", _tree(depth - 1)))
    return ("/", _tree(depth - 1), ("+", ("c", 1.0), ("sin", _tree(depth - 1))))


_TREE = _tree(6)
_POINTS = tuple(complex(0.002 * i, 0.001) for i in range(40))


def _evaluate(node: tuple, z: complex) -> complex:
    kind = node[0]
    if kind == "x":
        return z
    if kind == "c":
        return node[1]
    if kind == "exp":
        return cmath.exp(_evaluate(node[1], z))
    if kind == "sin":
        return cmath.sin(_evaluate(node[1], z))
    left, right = _evaluate(node[1], z), _evaluate(node[2], z)
    if kind == "+":
        return left + right
    if kind == "*":
        return left * right
    return left / right


def reference_seconds() -> float:
    """Median time of ``REFERENCE_REPEATS`` runs of the fixed computation."""
    times = []
    for _ in range(REFERENCE_REPEATS):
        t0 = perf_counter()
        for z in _POINTS:
            _evaluate(_TREE, z)
        times.append(perf_counter() - t0)
    return statistics.median(times)


class SpeedProbe:
    """Reference timings taken every ``PROBE_INTERVAL_S`` seconds while ``running``.

    ``on_sample`` receives the seconds each sample took, so that a tracer can
    take them out of the spans they interrupted.
    """

    def __init__(self, on_sample: Callable[[float], None] | None = None):
        self.on_sample = on_sample
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.references: list[float] = []
        self._sampling = False

    def sample(self, signum: int | None = None, frame: object = None) -> None:
        """Time the reference once; also the timer signal's handler.

        A signal that arrives while a sample runs is dropped, so samples
        never nest and ``starts`` stays sorted.
        """
        if self._sampling:
            return
        self._sampling = True
        try:
            start = perf_counter()
            self.references.append(reference_seconds())
            self.starts.append(start)
            self.ends.append(perf_counter())
            if self.on_sample is not None:
                self.on_sample(self.ends[-1] - start)
        finally:
            self._sampling = False

    @contextmanager
    def running(self) -> Iterator["SpeedProbe"]:
        """Sample now, every ``PROBE_INTERVAL_S`` inside the block, and at its end."""
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def probe_seconds(self, start: float, end: float) -> float:
        """Time the probe spent inside [start, end]."""
        return sum(min(e, end) - max(s, start) for s, e in zip(self.starts, self.ends)
                   if s < end and e > start)

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the mean reference time from the last sample before
        ``start`` to the first after ``end``."""
        lo = max(bisect.bisect_right(self.starts, start) - 1, 0)
        hi = bisect.bisect_left(self.starts, end) + 1
        return NOMINAL_S / statistics.fmean(self.references[lo:hi])
