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
because only their values matter.  Each node is a named tuple, so code
tells nodes apart by ``type``, never by truth value: ``Var()`` is an empty
tuple, falsy and equal to ``()``.

Evaluation runs on a :class:`Tape`: the tree compiled once into a
straight-line program in which structurally equal subterms share one
value slot.  Unsimplified derivative trees repeat their subterms many
times over (the fourth derivative of ``exp(sin(x))/(1+x^2)`` has about
15 000 nodes but under 240 distinct subterms), so a caller that evaluates
one tree at many points builds its tape once.  Building and running the
tape never recurse.  Each instruction carries the one function that does
its node's arithmetic (an ``operator`` or ``cmath`` function, or
:func:`_power`) and whether its value is checked for finiteness, and both
ways of running a tape call it the same way, as ``fn(x)`` or ``fn(x, y)``:
:func:`evaluate` at one point and :func:`taylor_grid` over a list of
points.  A power by a constant integer from 1 to :data:`_MAX_INT_POWER` is
planned at build time as the multiplications that :func:`_int_power` does
at run time, one instruction each; both take their order from
:func:`_square_and_multiply`.  Instructions run in the order in which a
recursive walk of the tree would complete them, so values and error
messages are identical to such a walk, and every failure is an
:class:`EvalDomainError` that :func:`evaluate` raises naming the subterm at
which it happened.

:func:`taylor_grid` is the one loop that runs a tape over a list of
points.  It runs each instruction on truncated Taylor series, each
coefficient a list over the points, so derivatives up to the order asked
for come from f's own tape with no derivative tree: the fourth derivative
of ``exp(sin(x))/(1+x^2)`` is 7 instructions on 5 coefficients instead of
the 235 instructions of its symbolic tape.  At order 0 a slot holds one
list and each instruction is one ``map`` of its function over it, which is
:func:`evaluate_grid`.  Each slot's lists are released after their last
use, so memory grows with the list's length times the slots alive at once;
a caller with many points, such as the convexity certificate, passes them
in fixed chunks.  Finiteness is checked only where a non-finite value can
first become hidden (a slot read by a function other than ``+``, ``-``,
``*`` or negation, and the root).  The grid names no subterm when it
fails: :func:`evaluate_grid` then reruns the list through :func:`evaluate`
point by point, so its values, the first failing point and its error are
exactly the ones evaluating point by point would give, and
``bounds.estimate_m4`` falls back to :func:`differentiate`.
"""

from __future__ import annotations

import cmath
import math
import re
import struct
from operator import add, mul, neg, sub, truediv
from typing import Callable, NamedTuple, Optional, Sequence, Union

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
    "taylor_grid",
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


class _PowerError(ArithmeticError):
    """A power undefined at its operands; the message names why, not where."""


class Const(NamedTuple):
    value: complex


class Var(NamedTuple):
    """The variable ``x``."""


class Unary(NamedTuple):
    op: str  # "neg", "exp", "log", "sin", "cos", "sqrt"
    arg: "Expr"


class Binary(NamedTuple):
    op: str  # "+", "-", "*", "/", "^"
    left: "Expr"
    right: "Expr"


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
# once more, where estimate_m4 falls back from Taylor jets to the symbolic
# fourth derivative, stays under the default recursion limit of 1000.
MAX_DEPTH = 64


def parse(text: str) -> Expr:
    """Parse infix text over ``x`` into an expression tree.

    Raises :class:`ParseError` (with offset) on malformed input or on
    nesting deeper than :data:`MAX_DEPTH`, and
    :class:`UnknownIdentifierError` for names outside the grammar.
    """
    parser = _Parser(_tokenize(text))
    node, _ = parser.parse_expr()
    kind, value, at = parser.peek()
    if kind != "end":
        raise ParseError(f"syntax error: unexpected {_describe(kind, value)}", at)
    return node


class _Parser:
    """Recursive descent over a token list.

    Each ``parse_*`` method returns the subtree and its depth; a leaf has
    depth 1.  (Methods rather than nested functions that call each other,
    which would leave a reference cycle for the garbage collector per parse.)
    """

    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.pos = 0
        self.level = 0  # parse_unary calls in progress; every recursion passes through one

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, symbol: str) -> None:
        kind, value, at = self.peek()
        if kind != "op" or value != symbol:
            raise ParseError(f"syntax error: expected {symbol!r}, found {_describe(kind, value)}", at)
        self.advance()

    @staticmethod
    def too_deep(at: int) -> ParseError:
        return ParseError(f"expression nested deeper than {MAX_DEPTH} levels", at)

    def nest(self, node: Expr, at: int, *child_depths: int) -> tuple[Expr, int]:
        depth = 1 + max(child_depths)
        if depth > MAX_DEPTH:
            raise self.too_deep(at)
        return node, depth

    def parse_expr(self) -> tuple[Expr, int]:
        return self.parse_chain("+-", self.parse_term)

    def parse_term(self) -> tuple[Expr, int]:
        return self.parse_chain("*/", self.parse_unary)

    def parse_chain(self, ops: str, operand: Callable[[], tuple[Expr, int]]) -> tuple[Expr, int]:
        """``operand (op operand)*`` for the operators in ``ops``, left-associative."""
        node, depth = operand()
        while self.peek()[0] == "op" and self.peek()[1] in ops:
            _, op, at = self.advance()
            right, right_depth = operand()
            node, depth = self.nest(Binary(op, node, right), at, depth, right_depth)
        return node, depth

    def parse_unary(self) -> tuple[Expr, int]:
        self.level += 1
        try:
            if self.level > MAX_DEPTH:
                raise self.too_deep(self.peek()[2])
            if self.peek()[0] == "op" and self.peek()[1] == "-":
                at = self.advance()[2]
                arg, depth = self.parse_unary()
                return self.nest(Unary("neg", arg), at, depth)
            return self.parse_power()
        finally:
            self.level -= 1

    def parse_power(self) -> tuple[Expr, int]:
        base, depth = self.parse_atom()
        if self.peek()[0] == "op" and self.peek()[1] == "^":
            at = self.advance()[2]
            exponent, exponent_depth = self.parse_unary()
            return self.nest(Binary("^", base, exponent), at, depth, exponent_depth)
        return base, depth

    def parse_atom(self) -> tuple[Expr, int]:
        kind, value, at = self.peek()
        if kind == "num":
            self.advance()
            number = float(value)
            if math.isinf(number):
                raise ParseError(f"number out of range: {value!r}", at)
            return Const(complex(number)), 1
        if kind == "name":
            self.advance()
            if value == "x":
                return Var(), 1
            if value in _NAMED_CONSTANTS:
                return Const(complex(_NAMED_CONSTANTS[value])), 1
            if value in _FUNCTIONS:
                self.expect("(")
                arg, depth = self.parse_expr()
                self.expect(")")
                return self.nest(Unary(value, arg), at, depth)
            raise UnknownIdentifierError(f"unknown identifier {value!r}", at)
        if kind == "op" and value == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        raise ParseError(f"syntax error: unexpected {_describe(kind, value)}", at)


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

    An instruction ``(slot, fn, a, b, node, checked)`` stores ``fn``
    applied to slots ``a`` and ``b`` (``b`` is ``None`` for a unary node) in
    ``slot``; ``fn`` is the ``operator`` or ``cmath`` function of the node,
    or :func:`_power`, and takes the slots' values alone.  :func:`evaluate`
    calls the same ``fn`` at one point and :func:`taylor_grid` over a list
    of points, one instruction at a time; ``node`` is only for naming the
    subterm in an error.  ``checked`` says whether :func:`evaluate` raises
    when the value is not finite: it is off for a negation, which keeps a
    finite value finite.

    A power by a constant integer ``1 <= k <=`` :data:`_MAX_INT_POWER` is
    emitted as the ``mul`` instructions of :func:`_square_and_multiply`,
    the order :func:`_int_power` multiplies in, starting from the interned
    constant 1.0.  Only the last one is checked and stores the power's
    slot; the intermediate ones store fresh, uninterned slots, so values
    and error messages are those of :func:`_power`.  Any other power calls
    :func:`_power`.

    ``last_use`` maps each slot read by an instruction to the index of the
    last instruction that reads it, and ``watched`` holds the slots whose
    finiteness :func:`taylor_grid` checks: the root's, and every slot
    read by an instruction other than ``add``, ``sub``, ``mul`` or ``neg``.
    """

    __slots__ = ("slots", "code", "last_use", "watched")

    def __init__(self, e: Expr):
        self.slots: list = [None]  # slot 0 holds x; constants are filled in
        self.code: list[tuple] = []  # (slot, fn, a, b, node, checked)
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
                if kind is Binary:
                    fn = _OPS[node.op]
                    exponent = self.slots[right] if node.op == "^" else None  # None unless constant
                    k = None if exponent is None else _small_int(exponent)
                    if k is not None and k >= 1:
                        # _int_power's multiplications, from an interned 1.0 slot; the
                        # last product is the power's own instruction
                        if _ONE_KEY not in interned:
                            interned[_ONE_KEY] = len(self.slots)
                            self.slots.append(complex(1.0))
                        fn, (left, right) = mul, _square_and_multiply(
                            interned[_ONE_KEY], left, k,
                            lambda x, y: self._emit(mul, x, y, node, False))
                    slot = self._emit(fn, left, right, node, True)
                elif kind is Unary:
                    slot = self._emit(_OPS[node.op], arg, None, node, node.op != "neg")
                else:  # a constant; x is interned from the start
                    slot = len(self.slots)
                    self.slots.append(node.value)
                interned[key] = slot
            done[id(node)] = slot
        self.last_use: dict[int, int] = {}  # slot -> index of the last instruction reading it
        self.watched = {len(self.slots) - 1}  # the root's slot
        for i, (_, fn, a, b, _, _) in enumerate(self.code):
            for read in (a,) if b is None else (a, b):
                self.last_use[read] = i
                if fn not in _PROPAGATING:
                    self.watched.add(read)

    def _emit(self, fn: Callable, a: int, b: Optional[int], node: Expr, checked: bool) -> int:
        """Append an instruction storing in a fresh slot, and return that slot."""
        slot = len(self.slots)
        self.slots.append(None)
        self.code.append((slot, fn, a, b, node, checked))
        return slot


def evaluate(tape: Tape, z: complex) -> complex:
    """Evaluate a :class:`Tape` at a complex point.

    Every failure is an :class:`EvalDomainError` naming the subterm at which
    a sub-operation was undefined (log of 0, division by zero, overflow,
    ...): an instruction's exception is translated here, and a power's
    message says which way it failed.
    """
    v = tape.slots.copy()
    v[0] = complex(z)
    isfinite = cmath.isfinite
    for slot, fn, a, b, node, checked in tape.code:
        try:
            out = fn(v[a]) if b is None else fn(v[a], v[b])
        except (ArithmeticError, ValueError) as exc:
            if type(exc) is _PowerError:
                message = str(exc)
            elif fn is truediv:
                message = "division by zero"
            elif fn is cmath.log and v[a] == 0:
                message = "log of 0"
            else:
                message = f"{node.op} undefined at {v[a]!r}"
            raise EvalDomainError(message, node) from exc
        if checked and not isfinite(out):
            raise EvalDomainError(f"non-finite value {out!r}", node)
        v[slot] = out
    return v[-1]  # the root completes last, so it holds the last slot


def evaluate_grid(tape: Tape, points: Sequence[complex]) -> tuple[list, Optional[EvalDomainError]]:
    """Evaluate a :class:`Tape` at every point of a list: :func:`taylor_grid` at order 0.

    Returns the values at the points before the first one at which
    :func:`evaluate` raises, and the :class:`EvalDomainError` it raises
    there (``None`` when every point succeeds).  Values, messages and which
    error comes first are exactly those of calling :func:`evaluate` point by
    point: at order 0 every instruction maps its own ``fn`` over the list,
    and where :func:`taylor_grid` raises, the list is rerun through
    :func:`evaluate` point by point, which finds the failing point and its
    error, or, when only a sum overflowed or the value was one
    :func:`evaluate` does not check, returns the same values.
    """
    try:
        return taylor_grid(tape, points, 0)[0], None
    except (ArithmeticError, ValueError):
        pass
    values = []
    for z in points:
        try:
            values.append(evaluate(tape, z))
        except EvalDomainError as exc:
            return values, exc
    return values, None


def taylor_grid(tape: Tape, points: Sequence[complex], order: int) -> list[list]:
    """The Taylor coefficients ``f^(k)(z) / k!``, ``k = 0 .. order``, of a
    :class:`Tape` at every point of a list: one list over the points per k.

    The tape's own instructions run on truncated power series (Griewank &
    Walther, *Evaluating Derivatives*, 2nd ed., ch. 13): a slot holds one
    list over the points per coefficient, and each rule takes the first
    ``order + 1`` coefficients of its operands to the same number of its
    result.  A slot whose higher coefficients are all zero holds fewer
    lists: a constant holds one, ``x`` two (one at order 0), and any
    instruction whose operands hold one list each maps its own function
    over the points.  Each slot's lists are released after its last use, so
    memory follows the number of live slots times the length of the list.

    Finiteness is checked as ``cmath.isfinite(sum(coefficient))``, which is
    sound because a sum holding inf or nan is never finite, and only for the
    tape's ``watched`` slots.  That misses no failure: ``add``, ``sub`` and
    ``neg`` carry each coefficient through, and ``mul`` puts ``u[k] v[0]``
    into coefficient k of its result, and a complex product with a factor
    that is not finite is never finite, so a non-finite coefficient in an
    unwatched slot is passed on until it reaches a watched slot (the root
    at the latest), which is checked before any other function reads it.

    Raises ``ArithmeticError`` or ``ValueError`` where a rule fails (a zero
    divisor, log of 0, a power or a square root at a zero base, whose
    higher coefficients divide by it) and an ``ArithmeticError`` where a
    coefficient is not finite, or where only its sum overflows; it never
    names a subterm, because :func:`evaluate` does that.
    """
    n = len(points)
    jets: list = [None if c is None else [[c] * n] for c in tape.slots]
    jets[0] = [list(map(complex, points)), [complex(1.0)] * n][:order + 1]
    last_use, watched = tape.last_use, tape.watched
    isfinite = cmath.isfinite
    for i, (slot, fn, a, b, _, _) in enumerate(tape.code):
        u = jets[a]
        if b is None:
            out = [list(map(fn, u[0]))] if len(u) == 1 else _JET_RULES[fn](u, order)
        else:
            v = jets[b]
            out = ([list(map(fn, u[0], v[0]))] if len(u) == len(v) == 1
                   else _JET_RULES[fn](u, v, order))
        if slot in watched and not all(isfinite(sum(c)) for c in out):
            raise ArithmeticError("non-finite Taylor coefficient")
        jets[slot] = out
        if last_use[a] == i:
            jets[a] = None
        if b is not None and last_use[b] == i:
            jets[b] = None
    root = jets[-1]
    return root + [[0j] * n for _ in range(order + 1 - len(root))]


# Each rule maps its operands' coefficient lists to its result's, at most order + 1
# of them; the series recurrences are those of Neidinger, SIAM Review 52(3), 2010.
# A rule is called only when some operand is not constant.

def _convolve(u: list, v: list, k: int):
    """Coefficient k of the product of series u and v, lazily, or None when no term exists."""
    total = None
    for i in range(max(0, k - len(v) + 1), min(k, len(u) - 1) + 1):
        term = map(mul, u[i], v[k - i])
        total = term if total is None else map(add, total, term)
    return total


def _less(first, rest):
    """``first - rest`` over the points, either of them possibly None (zero)."""
    if rest is None:
        return first
    return map(neg, rest) if first is None else map(sub, first, rest)


def _over(total, k: int) -> list:
    return list(total) if k == 1 else [c / k for c in total]


def _slopes(u: list) -> list:
    """The coefficients of u' from those of u: ``(j + 1) u[j + 1]``."""
    return [u[j] if j == 1 else [j * c for c in u[j]] for j in range(1, len(u))]


def _jet_add(u: list, v: list, order: int) -> list:
    longer = u if len(u) > len(v) else v
    return [list(map(add, x, y)) for x, y in zip(u, v)] + longer[min(len(u), len(v)):]


def _jet_sub(u: list, v: list, order: int) -> list:
    tail = u[len(v):] if len(u) > len(v) else [list(map(neg, y)) for y in v[len(u):]]
    return [list(map(sub, x, y)) for x, y in zip(u, v)] + tail


def _jet_neg(u: list, order: int) -> list:
    return [list(map(neg, x)) for x in u]


def _jet_mul(u: list, v: list, order: int) -> list:
    return [list(_convolve(u, v, k)) for k in range(min(len(u) + len(v) - 1, order + 1))]


def _jet_div(u: list, v: list, order: int) -> list:
    """w = u / v from ``v[0] w[k] = u[k] - sum(v[j] w[k - j], j = 1 .. k)``."""
    if not u:
        return []
    w: list = []
    for k in range(order + 1 if len(v) > 1 else min(len(u), order + 1)):
        rest = _convolve(v[1:], w, k - 1) if k else None
        w.append(list(map(truediv, _less(u[k] if k < len(u) else None, rest), v[0])))
    return w


def _exponential(u: list, first: list, order: int) -> list:
    """e = exp(u) from e' = u' e, given e's first coefficient."""
    du, e = _slopes(u), [first]
    for k in range(1, order + 1):
        e.append(_over(_convolve(du, e, k - 1), k))
    return e


def _jet_exp(u: list, order: int) -> list:
    return _exponential(u, list(map(cmath.exp, u[0])), order)


def _jet_log(u: list, order: int) -> list:
    """log(u) from log(u)' = u' / u."""
    slopes = _jet_div(_slopes(u), u, order - 1)
    return [list(map(cmath.log, u[0]))] + [_over(s, k) for k, s in enumerate(slopes, start=1)]


def _sine_and_cosine(u: list, order: int) -> tuple[list, list]:
    """sin(u) and cos(u) from sin' = u' cos and cos' = -u' sin."""
    du = _slopes(u)
    s, c = [list(map(cmath.sin, u[0]))], [list(map(cmath.cos, u[0]))]
    for k in range(1, order + 1):
        s.append(_over(_convolve(du, c, k - 1), k))
        c.append(_over(map(neg, _convolve(du, s, k - 1)), k))
    return s, c


def _jet_sqrt(u: list, order: int) -> list:
    """r = sqrt(u) from ``2 r[0] r[k] = u[k] - sum(r[j] r[k - j], j = 1 .. k - 1)``."""
    r = [list(map(cmath.sqrt, u[0]))]
    twice = [2 * c for c in r[0]]
    for k in range(1, order + 1):
        rest = _convolve(r[1:], r[1:], k - 2) if k > 1 else None
        r.append(list(map(truediv, _less(u[k] if k < len(u) else None, rest), twice)))
    return r


def _jet_power(u: list, v: list, order: int) -> list:
    """u^v = exp(v log(u)), with :func:`_power`'s own value as its first coefficient."""
    return _exponential(_jet_mul(v, _jet_log(u, order), order),
                        list(map(_power, u[0], v[0])), order)


# Largest |n| that _power raises by repeated multiplication rather than exp(n log z).
_MAX_INT_POWER = 4096


def _small_int(exponent: complex) -> Optional[int]:
    """The exponent as an ``int`` when :func:`_power` multiplies it out, else ``None``."""
    if exponent.imag == 0 and exponent.real.is_integer() and abs(exponent.real) <= _MAX_INT_POWER:
        return int(exponent.real)
    return None


def _power(base: complex, exponent: complex) -> complex:
    """``base`` to the power ``exponent``: an integer one by multiplication, any
    other as ``exp(exponent * log(base))``.

    Raises :class:`_PowerError` where the power is undefined or overflows;
    :func:`evaluate` names the subterm.
    """
    n = _small_int(exponent)
    if n is not None:
        if base == 0 and n < 0:
            raise _PowerError("zero raised to a negative power")
        try:
            return _int_power(base, n)
        except ZeroDivisionError:  # base**|n| underflowed to zero
            raise _PowerError("underflow in negative power") from None
    if base == 0:
        if exponent.imag == 0 and exponent.real > 0:
            return complex(0.0)
        raise _PowerError(f"zero raised to the power {exponent!r}")
    try:
        return cmath.exp(exponent * cmath.log(base))
    except (OverflowError, ValueError):  # ValueError: an infinite imaginary part
        raise _PowerError("overflow in power") from None


def _int_power(base: complex, n: int) -> complex:
    if n < 0:
        return 1.0 / _int_power(base, -n)
    if n == 0:
        return complex(1.0)
    return mul(*_square_and_multiply(complex(1.0), base, n, mul))


def _square_and_multiply(result, base, n: int, times: Callable):
    """The two factors of the last product of ``result * base**n``, for ``n >= 1``.

    Low bit first: for each bit of ``n`` but the top one, ``result =
    times(result, base)`` if the bit is set, then ``base = times(base,
    base)``; the top bit's product ``times(result, base)`` is left to the
    caller.  The last bits of a power depend on this order, so the tape's
    planned powers and :func:`_int_power` both take it from here.
    """
    while n > 1:
        if n & 1:
            result = times(result, base)
        base = times(base, base)
        n >>= 1
    return result, base


# The function a Tape instruction calls for each operator.
_OPS: dict[str, Callable] = {
    "neg": neg, **_UNARY_FN, "+": add, "-": sub, "*": mul, "/": truediv, "^": _power}

# The functions whose result is never finite when an operand is not (for complex operands).
_PROPAGATING = (add, sub, mul, neg)

# taylor_grid's rule for each function a Tape instruction calls.
_JET_RULES: dict[Callable, Callable] = {
    add: _jet_add, sub: _jet_sub, mul: _jet_mul, truediv: _jet_div, neg: _jet_neg,
    cmath.exp: _jet_exp, cmath.log: _jet_log, cmath.sqrt: _jet_sqrt, _power: _jet_power,
    cmath.sin: lambda u, order: _sine_and_cosine(u, order)[0],
    cmath.cos: lambda u, order: _sine_and_cosine(u, order)[1],
}

# The interning key of the constant 1.0, from which a constant integer power multiplies.
_ONE_KEY = ("c", complex, struct.pack("<dd", 1.0, 0.0))


# ---------------------------------------------------------------------------
# Differentiation

def differentiate(e: Expr) -> Expr:
    """Symbolic derivative with respect to ``x``; total on the node set.

    Each distinct node object is differentiated once per call and its
    derivative reused wherever ``e`` refers to it again, so derivatives of
    derivatives share subtrees and cost their distinct objects, not their
    size as trees.  A subterm without ``x`` differentiates to the constant
    0, never through its own rule, which may divide by the subterm's value
    (``sqrt(0)``, ``(2-2)^0.5``).
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
        if du is _ZERO:
            out = _ZERO
        elif e.op == "neg":
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
        if dl is _ZERO and dr is _ZERO:
            out = _ZERO
        elif e.op == "+":
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


Const.__str__ = Var.__str__ = Unary.__str__ = Binary.__str__ = to_text  # str(node) is its text


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
