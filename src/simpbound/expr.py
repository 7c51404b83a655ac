"""Expression trees over one variable: parsing, evaluation, differentiation.

The grammar accepted by :func:`parse`:

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?          # right-associative
    atom   := NUMBER | "pi" | "e" | "x"
            | FUNC "(" expr ")" | "(" expr ")"
    FUNC   := "exp" | "log" | "sin" | "cos" | "sqrt"

``^`` binds tighter than unary minus, so ``-x^2`` parses as ``-(x^2)``.
Evaluation is complex-valued throughout; ``log``, ``sqrt`` and non-integer
powers use principal branches, with ``z^w = exp(w*log(z))``.  Integer
exponents are evaluated by repeated multiplication so that real bases stay
exactly real.  Trees are immutable; derivative trees are left unsimplified
because only their values matter.

Evaluation runs on a :class:`Tape`: the tree compiled once into a
straight-line program in which structurally equal subterms share one
value slot.  Unsimplified derivative trees repeat their subterms many
times over (the fourth derivative of ``exp(sin(x))/(1+x^2)`` has about
15 000 nodes but under 240 distinct subterms), so a caller that evaluates
one tree at many points builds its tape once.  Building and running the
tape never recurse.  Each instruction carries the one function that does
its node's arithmetic (an ``operator`` or ``cmath`` function, or
:func:`_power`), and both ways of running a tape call it: :func:`evaluate`
at one point and :func:`evaluate_grid` over a list of points.
Instructions run in the order in which a recursive walk of the tree would
complete them, so values and error messages are identical to such a walk,
and every failure is an :class:`EvalDomainError` naming the subterm at
which it happened.

:func:`evaluate_grid` runs each instruction as one ``map`` over the list,
and each slot's list is released after its last use, so memory grows with
the list's length times the slots alive at once; a caller with many
points, such as the convexity certificate, passes them in fixed chunks.  A
failure anywhere sends the list back through :func:`evaluate` point by
point, so the values, the first failing point and its error are exactly
the ones evaluating point by point would give.
"""

from __future__ import annotations

import cmath
import math
import re
import struct
from dataclasses import dataclass
from itertools import repeat
from operator import add, mul, neg, sub, truediv
from typing import Callable, Optional, Sequence, Union

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "ParseError",
    "UnknownIdentifierError",
    "MAX_DEPTH",
    "EvalDomainError",
    "parse",
    "Tape",
    "evaluate",
    "evaluate_grid",
    "differentiate",
    "to_text",
]


class ParseError(Exception):
    """Malformed expression text; ``position`` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class UnknownIdentifierError(ParseError):
    """An identifier other than ``x``, ``pi``, ``e`` or a known function."""


class EvalDomainError(Exception):
    """A sub-operation was undefined at the evaluation point."""

    def __init__(self, message: str, node: "Expr"):
        super().__init__(f"{message} in '{to_text(node)}'")
        self.node = node


@dataclass(frozen=True)
class Const:
    value: complex

    def __str__(self) -> str:
        return to_text(self)


@dataclass(frozen=True)
class Var:
    def __str__(self) -> str:
        return "x"


@dataclass(frozen=True)
class Unary:
    op: str  # "neg", "exp", "log", "sin", "cos", "sqrt"
    arg: "Expr"

    def __str__(self) -> str:
        return to_text(self)


@dataclass(frozen=True)
class Binary:
    op: str  # "+", "-", "*", "/", "^"
    left: "Expr"
    right: "Expr"

    def __str__(self) -> str:
        return to_text(self)


Expr = Union[Const, Var, Unary, Binary]

_ZERO = Const(complex(0.0))
_ONE = Const(complex(1.0))

_UNARY_FN: dict[str, Callable[[complex], complex]] = {
    "exp": cmath.exp,
    "log": cmath.log,
    "sin": cmath.sin,
    "cos": cmath.cos,
    "sqrt": cmath.sqrt,
}

_FUNCTIONS = tuple(_UNARY_FN)
_NAMED_CONSTANTS = {"pi": math.pi, "e": math.e}


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[+\-*/^()])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"syntax error: unexpected character {text[i]!r}", i)
        tokens.append((m.lastgroup or "", m.group(), i))
        i = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# Deepest tree (and deepest nesting of parentheses) that parse accepts.
# differentiate recurses once per level of its input, and the third
# derivative of a 64-level tree is at most about ten times as deep (nested
# quotients grow fastest of the shapes measured), so differentiating it
# once more for estimate_m4 stays under the default recursion limit of 1000.
MAX_DEPTH = 64


def parse(text: str) -> Expr:
    """Parse infix text over ``x`` into an expression tree.

    Raises :class:`ParseError` (with offset) on malformed input or on
    nesting deeper than :data:`MAX_DEPTH`, and
    :class:`UnknownIdentifierError` for names outside the grammar.
    """
    tokens = _tokenize(text)
    pos = 0
    level = 0  # parse_unary calls in progress; every recursion passes through one

    def peek() -> tuple[str, str, int]:
        return tokens[pos]

    def advance() -> tuple[str, str, int]:
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def expect(symbol: str) -> None:
        kind, value, at = peek()
        if kind != "op" or value != symbol:
            raise ParseError(f"syntax error: expected {symbol!r}, found {_describe(kind, value)}", at)
        advance()

    def too_deep(at: int) -> ParseError:
        return ParseError(f"expression nested deeper than {MAX_DEPTH} levels", at)

    def nest(node: Expr, at: int, *child_depths: int) -> tuple[Expr, int]:
        depth = 1 + max(child_depths)
        if depth > MAX_DEPTH:
            raise too_deep(at)
        return node, depth

    # Each parse_* returns the subtree and its depth; a leaf has depth 1.
    def parse_expr() -> tuple[Expr, int]:
        node, depth = parse_term()
        while peek()[0] == "op" and peek()[1] in "+-":
            _, op, at = advance()
            right, right_depth = parse_term()
            node, depth = nest(Binary(op, node, right), at, depth, right_depth)
        return node, depth

    def parse_term() -> tuple[Expr, int]:
        node, depth = parse_unary()
        while peek()[0] == "op" and peek()[1] in "*/":
            _, op, at = advance()
            right, right_depth = parse_unary()
            node, depth = nest(Binary(op, node, right), at, depth, right_depth)
        return node, depth

    def parse_unary() -> tuple[Expr, int]:
        nonlocal level
        level += 1
        try:
            if level > MAX_DEPTH:
                raise too_deep(peek()[2])
            if peek()[0] == "op" and peek()[1] == "-":
                at = advance()[2]
                arg, depth = parse_unary()
                return nest(Unary("neg", arg), at, depth)
            return parse_power()
        finally:
            level -= 1

    def parse_power() -> tuple[Expr, int]:
        base, depth = parse_atom()
        if peek()[0] == "op" and peek()[1] == "^":
            at = advance()[2]
            exponent, exponent_depth = parse_unary()
            return nest(Binary("^", base, exponent), at, depth, exponent_depth)
        return base, depth

    def parse_atom() -> tuple[Expr, int]:
        kind, value, at = peek()
        if kind == "num":
            advance()
            number = float(value)
            if math.isinf(number):
                raise ParseError(f"number out of range: {value!r}", at)
            return Const(complex(number)), 1
        if kind == "name":
            advance()
            if value == "x":
                return Var(), 1
            if value in _NAMED_CONSTANTS:
                return Const(complex(_NAMED_CONSTANTS[value])), 1
            if value in _FUNCTIONS:
                expect("(")
                arg, depth = parse_expr()
                expect(")")
                return nest(Unary(value, arg), at, depth)
            raise UnknownIdentifierError(f"unknown identifier {value!r}", at)
        if kind == "op" and value == "(":
            advance()
            node = parse_expr()
            expect(")")
            return node
        raise ParseError(f"syntax error: unexpected {_describe(kind, value)}", at)

    node, _ = parse_expr()
    kind, value, at = peek()
    if kind != "end":
        raise ParseError(f"syntax error: unexpected {_describe(kind, value)}", at)
    return node


def _describe(kind: str, value: str) -> str:
    return "end of input" if kind == "end" else repr(value)


# ---------------------------------------------------------------------------
# Evaluation

class Tape:
    """A tree compiled to a straight-line program over value slots.

    Structurally equal subterms are interned into one slot, so a derivative
    tree with thousands of nodes but a few hundred distinct subterms runs a
    few hundred instructions per point.  Constants are told apart by type
    and bit pattern, so ``-0.0`` and ``0.0`` keep separate slots.  The
    instructions follow the order in which a depth-first, left-to-right
    walk first completes each subterm, so the first instruction that fails
    is the one a recursive walk of the tree would fail at.  Building walks
    the tree with an explicit stack, once per distinct node object, and
    never recurses.

    An instruction ``(slot, fn, a, b, node)`` stores ``fn`` applied to
    slots ``a`` and ``b`` (``b`` is ``None`` for a unary node) in ``slot``;
    ``fn`` is the ``operator`` or ``cmath`` function of the node, or
    :func:`_power`, which also takes the node.  :func:`evaluate` calls the
    same ``fn`` at one point and :func:`evaluate_grid` over a list of
    points, one instruction at a time.
    """

    __slots__ = ("slots", "code")

    def __init__(self, e: Expr):
        self.slots: list = [None]  # slot 0 holds x; constants are filled in
        self.code: list[tuple] = []  # (slot, fn, a, b, node)
        interned: dict[tuple, int] = {("x",): 0}
        done: dict[int, int] = {}  # id(node) -> slot; the tree keeps ids alive
        stack = [e]
        while stack:
            node = stack[-1]
            if id(node) in done:
                stack.pop()
                continue
            kind = type(node)
            if kind is Binary:
                left = done.get(id(node.left))
                right = done.get(id(node.right))
                if left is None or right is None:  # finish the left subtree first
                    if right is None:
                        stack.append(node.right)
                    if left is None:
                        stack.append(node.left)
                    continue
                key: tuple = (node.op, left, right)
            elif kind is Unary:
                arg = done.get(id(node.arg))
                if arg is None:
                    stack.append(node.arg)
                    continue
                key = (node.op, arg)
            elif kind is Const:
                v = node.value
                key = ("c", type(v), struct.pack("<dd", v.real, v.imag))
            elif kind is Var:
                key = ("x",)
            else:
                raise TypeError(f"not an expression node: {node!r}")
            stack.pop()
            slot = interned.get(key)
            if slot is None:
                slot = interned[key] = len(self.slots)
                self.slots.append(node.value if kind is Const else None)
                if kind is Binary:
                    self.code.append((slot, _OPS[node.op], left, right, node))
                elif kind is Unary:
                    self.code.append((slot, _OPS[node.op], arg, None, node))
            done[id(node)] = slot


def evaluate(e: Union[Expr, Tape], z: complex) -> complex:
    """Evaluate a tree, or its :class:`Tape`, at a complex point.

    A tree is compiled to a tape first; callers that evaluate one tree at
    many points build the tape once.  Every failure is an
    :class:`EvalDomainError` naming the subterm at which a sub-operation was
    undefined (log of 0, division by zero, overflow, ...): an exception of
    an instruction's builtin is translated here, and a power raises its own.
    """
    tape = e if type(e) is Tape else Tape(e)
    v = tape.slots.copy()
    v[0] = complex(z)
    isfinite = cmath.isfinite
    for slot, fn, a, b, node in tape.code:
        try:
            if b is None:
                out = fn(v[a])
            elif fn is _power:
                out = _power(v[a], v[b], node)
            else:
                out = fn(v[a], v[b])
        except (ArithmeticError, ValueError) as exc:
            if fn is truediv:
                message = "division by zero"
            elif fn is cmath.log and v[a] == 0:
                message = "log of 0"
            else:
                message = f"{node.op} undefined at {v[a]!r}"
            raise EvalDomainError(message, node) from exc
        if not isfinite(out) and fn is not neg:  # negating a finite value keeps it finite
            raise EvalDomainError(f"non-finite value {out!r}", node)
        v[slot] = out
    return v[-1]  # the root completes last, so it holds the last slot


def evaluate_grid(tape: Tape, points: Sequence[complex]) -> tuple[list, Optional[EvalDomainError]]:
    """Evaluate a :class:`Tape` at every point of a list, one instruction at a time.

    Returns the values at the points before the first one at which
    :func:`evaluate` raises, and the :class:`EvalDomainError` it raises
    there (``None`` when every point succeeds).  Values, messages and which
    error comes first are exactly those of calling :func:`evaluate` point by
    point.

    Each instruction maps its ``fn`` over the whole list.  A power by a
    constant integer exponent does :func:`_int_power`'s multiplications
    list by list instead.  The finiteness check is one
    ``cmath.isfinite(sum(out))`` per instruction, which is sound because a
    sum holding inf or nan is never finite.  On an exception, or a
    non-finite sum, the list is rerun through :func:`evaluate` point by
    point, which finds the failing point and its error, or, when only the
    sum overflowed, returns the same values.  Each slot's list is released
    after its last use, so memory follows the number of live slots times
    the length of the list.
    """
    n = len(points)
    slots = tape.slots
    v: list = [None if c is None else [c] * n for c in slots]
    v[0] = list(map(complex, points))
    last_use = {}
    for i, (_, _, a, b, _) in enumerate(tape.code):
        last_use[a] = i
        if b is not None:
            last_use[b] = i
    isfinite = cmath.isfinite
    try:
        for i, (slot, fn, a, b, node) in enumerate(tape.code):
            if b is None:
                out = list(map(fn, v[a]))  # log of 0 raises
            elif fn is _power:
                exponent = slots[b]  # None unless the exponent is a constant
                k = None if exponent is None else _small_int(exponent)
                if k is None:
                    out = list(map(_power, v[a], v[b], repeat(node)))
                else:
                    out = _int_power_grid(v[a], k)
            else:
                out = list(map(fn, v[a], v[b]))  # a zero divisor raises
            if fn is not neg and not isfinite(sum(out)):
                break
            v[slot] = out
            if last_use[a] == i:
                v[a] = None
            if b is not None and last_use[b] == i:
                v[b] = None
        else:
            return v[-1], None
    except (ArithmeticError, ValueError, EvalDomainError):
        pass
    # something failed or overflowed at some point: find it point by point
    return _evaluate_points(tape, points)


def _evaluate_points(tape: Tape, points: Sequence[complex]) -> tuple[list, Optional[EvalDomainError]]:
    """:func:`evaluate_grid`'s result, computed point by point."""
    values = []
    for z in points:
        try:
            values.append(evaluate(tape, z))
        except EvalDomainError as exc:
            return values, exc
    return values, None


# Largest |n| that _power raises by repeated multiplication rather than exp(n log z).
_MAX_INT_POWER = 4096


def _small_int(exponent: complex) -> Optional[int]:
    """The exponent as an ``int`` when :func:`_power` multiplies it out, else ``None``."""
    if exponent.imag == 0 and exponent.real.is_integer() and abs(exponent.real) <= _MAX_INT_POWER:
        return int(exponent.real)
    return None


def _power(base: complex, exponent: complex, node: Expr) -> complex:
    n = _small_int(exponent)
    if n is not None:
        if base == 0 and n < 0:
            raise EvalDomainError("zero raised to a negative power", node)
        try:
            return _int_power(base, n)
        except ZeroDivisionError as exc:  # base**|n| underflowed to zero
            raise EvalDomainError("underflow in negative power", node) from exc
    if base == 0:
        if exponent.imag == 0 and exponent.real > 0:
            return complex(0.0)
        raise EvalDomainError(f"zero raised to the power {exponent!r}", node)
    try:
        return cmath.exp(exponent * cmath.log(base))
    except (OverflowError, ValueError) as exc:  # ValueError: an infinite imaginary part
        raise EvalDomainError("overflow in power", node) from exc


def _int_power(base: complex, n: int) -> complex:
    if n < 0:
        return 1.0 / _int_power(base, -n)
    result = complex(1.0)
    while n:
        if n & 1:
            result *= base
        n >>= 1
        if n:
            base *= base
    return result


def _int_power_grid(base: list, n: int) -> list:
    """:func:`_int_power` over a list: the same multiplications in the same order."""
    if n < 0:
        return list(map(truediv, repeat(1.0), _int_power_grid(base, -n)))
    result = [complex(1.0)] * len(base)
    while n:
        if n & 1:
            result = list(map(mul, result, base))
        n >>= 1
        if n:
            base = list(map(mul, base, base))
    return result


# The function a Tape instruction calls for each operator; a power also takes its node.
_OPS: dict[str, Callable] = {
    "neg": neg, **_UNARY_FN, "+": add, "-": sub, "*": mul, "/": truediv, "^": _power}


# ---------------------------------------------------------------------------
# Differentiation

def differentiate(e: Expr) -> Expr:
    """Symbolic derivative with respect to ``x``; total on the node set.

    Each distinct node object is differentiated once per call and its
    derivative reused wherever ``e`` refers to it again, so derivatives of
    derivatives share subtrees and cost their distinct objects, not their
    size as trees.
    """
    return _derivative(e, {})


def _derivative(e: Expr, done: dict[int, Expr]) -> Expr:
    """``done`` maps id(node) to its derivative; the tree keeps the ids alive."""
    if id(e) in done:
        return done[id(e)]
    kind = type(e)
    if kind is Const:
        out = _ZERO
    elif kind is Var:
        out = _ONE
    elif kind is Unary:
        u, du = e.arg, _derivative(e.arg, done)
        if e.op == "neg":
            out = Unary("neg", du)
        elif e.op == "exp":
            out = Binary("*", e, du)
        elif e.op == "log":
            out = Binary("/", du, u)
        elif e.op == "sin":
            out = Binary("*", Unary("cos", u), du)
        elif e.op == "cos":
            out = Unary("neg", Binary("*", Unary("sin", u), du))
        elif e.op == "sqrt":
            out = Binary("/", du, Binary("*", Const(complex(2.0)), e))
        else:
            raise AssertionError(f"unhandled unary op {e.op!r}")
    else:
        dl, dr = _derivative(e.left, done), _derivative(e.right, done)
        if e.op == "+":
            out = Binary("+", dl, dr)
        elif e.op == "-":
            out = Binary("-", dl, dr)
        elif e.op == "*":
            out = Binary("+", Binary("*", dl, e.right), Binary("*", e.left, dr))
        elif e.op == "/":
            numerator = Binary("-", Binary("*", dl, e.right), Binary("*", e.left, dr))
            out = Binary("/", numerator, Binary("*", e.right, e.right))
        elif e.op == "^" and type(e.right) is Const:
            c = e.right.value
            out = _ZERO if c == 0 else Binary(
                "*", Binary("*", e.right, Binary("^", e.left, Const(c - 1))), dl)
        elif e.op == "^":
            # d(u^v) = u^v * (v' log u + v u' / u)
            out = Binary("*", e, Binary("+", Binary("*", dr, Unary("log", e.left)),
                                        Binary("/", Binary("*", e.right, dl), e.left)))
        else:
            raise AssertionError(f"unhandled binary op {e.op!r}")
    done[id(e)] = out
    return out


# ---------------------------------------------------------------------------
# Printing

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


def to_text(e: Expr) -> str:
    """Render the tree as parseable infix text (round-trips through parse)."""
    return _render(e, 0)


def _render(e: Expr, min_prec: int) -> str:
    text, prec = _render_prec(e)
    return f"({text})" if prec < min_prec else text


def _render_prec(e: Expr) -> tuple[str, int]:
    kind = type(e)
    if kind is Const:
        v = e.value
        if v.imag == 0:
            r = v.real
            if math.copysign(1.0, r) < 0:
                return f"-{-r!r}", _PREC_NEG
            return repr(r), _PREC_ATOM
        # unreachable from parse/differentiate, but keep it parseable
        return f"({v.real!r}+({v.imag!r})*sqrt(-1))", _PREC_ATOM
    if kind is Var:
        return "x", _PREC_ATOM
    if kind is Unary:
        if e.op == "neg":
            return f"-{_render(e.arg, _PREC_NEG)}", _PREC_NEG
        return f"{e.op}({_render(e.arg, 0)})", _PREC_ATOM
    op = e.op
    if op in "+-":
        return f"{_render(e.left, _PREC_ADD)} {op} {_render(e.right, _PREC_MUL)}", _PREC_ADD
    if op in "*/":
        return f"{_render(e.left, _PREC_MUL)}{op}{_render(e.right, _PREC_NEG)}", _PREC_MUL
    return f"{_render(e.left, _PREC_ATOM)}^{_render(e.right, _PREC_NEG)}", _PREC_POW
