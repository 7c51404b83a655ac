"""Per-layer spans and counters, taken from outside simpbound.

The tracer rebinds the public names that callers look up at call time
(``simpbound.cli.identity_residual``, ``simpbound.identity.integrate_01``,
``simpbound.convexity.evaluate``, ...) to wrappers that record a span
(name, start, end, parent, op) and counters, and restores every binding on
exit.  No file of the tool changes.

``expr.evaluate`` runs hundreds of thousands of times per op, so its calls
are not stored as spans of their own: each call's count and duration are
folded into the innermost open span, which still lets self time subtract
them.  Time the benchmark's speed probe spends inside a span is recorded as
``paused`` and taken out of every duration.  The ``domain`` layer runs inside quadrature integrand closures and is
counted in ``quad.integrate_01``'s self time.

With ``count_nodes`` the tracer also wraps the recursive
``simpbound.expr.evaluate`` global to count node visits, and records the
distinct path points the convexity certificate evaluates.  That slows
evaluation several times, so counts come from a pass of their own.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator, Sequence

from simpbound import bounds, cli, convexity, expr, identity, quad
from simpbound.quad import BudgetExceededError

# (owner, attribute, span name): each a name some caller looks up at call time.
SPAN_BINDINGS = (
    (cli, "cmd_sweep", "cli.cmd_sweep"),
    (cli, "cmd_verify", "cli.cmd_verify"),
    (cli, "parse", "expr.parse"),
    (cli, "identity_residual", "identity.identity_residual"),
    (cli, "certify_phi_convexity", "convexity.certify_phi_convexity"),
    (cli, "estimate_m4", "bounds.estimate_m4"),
    (cli, "bound_t31", "bounds.closed_form"),
    (cli, "bound_t32", "bounds.closed_form"),
    (cli, "bound_t33", "bounds.closed_form"),
    (cli, "bound_t34", "bounds.closed_form"),
    (cli, "classical_bound", "bounds.closed_form"),
    (cli, "emit_report", "report.emit_report"),
    (bounds.BoundInputs, "from_function", "bounds.from_function"),
    (identity, "differentiate", "expr.differentiate"),
    (convexity, "differentiate", "expr.differentiate"),
    (bounds, "differentiate", "expr.differentiate"),
    (identity, "contour_integral", "quad.contour_integral"),
    (identity, "integrate_01", "quad.integrate_01"),
    (quad, "integrate_01", "quad.integrate_01"),
)
# Callers' bindings of evaluate; each call is folded into the innermost span.
LEAF_BINDINGS = ((identity, "evaluate"), (convexity, "evaluate"),
                 (bounds, "evaluate"), (quad, "evaluate"))
# The global that evaluate's own recursion looks up (counting pass only).
NODE_BINDING = (expr, "evaluate")

ROOT = "cli.main"
LEAF_LAYER = "expr"


class Span:
    """One call at a layer boundary.

    ``evals``/``eval_s`` are its folded evaluate calls; ``paused`` is the
    probe time inside it, its children's included.
    """

    __slots__ = ("id", "parent", "op", "name", "start", "end", "evals", "eval_s", "paused")

    def __init__(self, id: int, parent: int, op: int, name: str, start: float = 0.0,
                 end: float = 0.0, evals: int = 0, eval_s: float = 0.0, paused: float = 0.0):
        self.id, self.parent, self.op, self.name = id, parent, op, name
        self.start, self.end, self.evals, self.eval_s = start, end, evals, eval_s
        self.paused = paused

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


def segment_key(f, iv) -> tuple:
    return (expr.to_text(f), iv.a, iv.b, iv.phi)


class Tracer:
    def __init__(self, count_nodes: bool = False):
        self.count_nodes = count_nodes
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.segments: dict[str, set] = defaultdict(set)  # layer -> distinct segments
        self.cert_points: set = set()  # (segment, z) the certificate evaluated f' at
        self.op = -1
        self.paused = 0.0  # probe seconds so far
        self._open: list[Span] = []
        self._cert_segment: tuple | None = None
        self._on_call: dict[str, Callable[[tuple], None]] = {
            "identity.identity_residual": self._note_segment("identity"),
            "convexity.certify_phi_convexity": self._enter_certificate,
            "bounds.estimate_m4": self._note_segment("m4"),
        }

    # -- spans ------------------------------------------------------------

    def _begin(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else -1
        span = Span(len(self.spans), parent, self.op, name)
        self.spans.append(span)
        self._open.append(span)
        span.paused = self.paused  # the running total until the span ends
        span.start = perf_counter()
        return span

    def _end(self, span: Span) -> None:
        span.end = perf_counter()
        span.paused = self.paused - span.paused
        self._open.pop()

    def pause(self, seconds: float) -> None:
        """Record ``seconds`` the speed probe spent, to be taken out of open spans."""
        self.paused += seconds

    @contextmanager
    def op_span(self) -> Iterator[None]:
        """Root span of one op; every other span and folded call nests inside it."""
        self.op += 1
        span = self._begin(ROOT)
        try:
            yield
        finally:
            self._end(span)

    def _span(self, name: str, fn: Callable) -> Callable:
        on_call = self._on_call.get(name)

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            span = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(span)
        return traced

    def _leaf(self, fn: Callable, cert_points: bool) -> Callable:
        def evaluate(e, z):
            span = self._open[-1]
            if cert_points and span.name == "convexity.certify_phi_convexity":
                self.cert_points.add((self._cert_segment, complex(z)))
            paused, t0 = self.paused, perf_counter()
            try:
                return fn(e, z)
            finally:
                span.eval_s += perf_counter() - t0 - (self.paused - paused)
                span.evals += 1
        return evaluate

    def _node_counter(self, fn: Callable) -> Callable:
        counts = self.counts

        def evaluate(e, z):
            counts["expr.recursive_visits"] += 1
            return fn(e, z)
        return evaluate

    # -- counters ---------------------------------------------------------

    def _note_segment(self, layer: str) -> Callable[[tuple], None]:
        def note(args: tuple) -> None:
            self.segments[layer].add(segment_key(args[0], args[1]))
        return note

    def _enter_certificate(self, args: tuple) -> None:
        self._cert_segment = segment_key(args[0], args[1])

    def _count_quadrature(self, fn: Callable) -> Callable:
        counts = self.counts

        def integrate_01(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BudgetExceededError as exc:
                counts["quad.budget_exhausted"] += 1
                counts["quad.evaluations"] += exc.best.evaluations
                raise
            counts["quad.evaluations"] += result.evaluations
            return result
        return integrate_01

    def nodes(self) -> int:
        """Expression nodes visited: the root of every evaluate call plus its recursion."""
        return sum(span.evals for span in self.spans) + self.counts["expr.recursive_visits"]

    # -- installing -------------------------------------------------------

    def _wrappers(self) -> Iterator[tuple[object, str, object]]:
        for owner, attr, name in SPAN_BINDINGS:
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                yield owner, attr, classmethod(self._span(name, original.__func__))
            elif name == "quad.integrate_01":
                yield owner, attr, self._span(name, self._count_quadrature(original))
            else:
                yield owner, attr, self._span(name, original)
        for owner, attr in LEAF_BINDINGS:
            yield owner, attr, self._leaf(vars(owner)[attr], self.count_nodes and owner is convexity)
        if self.count_nodes:
            owner, attr = NODE_BINDING
            yield owner, attr, self._node_counter(vars(owner)[attr])

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Rebind every traced name for the duration of the block, then restore it."""
        saved = []
        try:
            for owner, attr, wrapper in list(self._wrappers()):
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def traced_bindings() -> list[tuple[object, str]]:
    """Every (owner, attribute) a counting tracer rebinds."""
    return ([(owner, attr) for owner, attr, _ in SPAN_BINDINGS]
            + list(LEAF_BINDINGS) + [NODE_BINDING])


# ---------------------------------------------------------------------------
# Self time

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration without probe time, minus that of its child spans
    and its folded calls.

    Spans nest as the calls do (one thread), so children never overlap.
    """
    children: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            children[span.parent] += span.end - span.start - span.paused
    return [span.end - span.start - span.paused - children[span.id] - span.eval_s
            for span in spans]


def layer_self_seconds(spans: list[Span], scales: Sequence[float] | None = None) -> dict[str, float]:
    """Self time per layer, each span's scaled by ``scales[span.op]`` when given.

    Folded evaluate time belongs to the expr layer.
    """
    layers: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        scale = scales[span.op] if scales is not None else 1.0
        layers[span.name.split(".", 1)[0]] += own * scale
        layers[LEAF_LAYER] += span.eval_s * scale
    return layers


def write_spans(path: str, spans: list[Span]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span.as_dict()) + "\n")
