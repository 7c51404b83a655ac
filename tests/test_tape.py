"""The tape against the recursive tree walk it replaced, kept here as the reference,
the grid evaluator (the jets at order 0) against the tape run point by point, and the
Taylor jets against the tapes of symbolic derivatives."""

import cmath
import math
import re
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from simpbound import (Binary, Const, EvalDomainError, PhiInterval, Tape, Unary, Var, differentiate,
                       estimate_m4, evaluate, evaluate_grid, parse, taylor_grid)
from simpbound.convexity import GRID_CHUNK
from simpbound.expr import _UNARY_FN, _power, _PowerError

import test_bounds


def reference_evaluate(e, z):
    """Recursive evaluation of the tree, node by node, with no sharing."""
    z = complex(z)
    kind = type(e)
    if kind is Const:
        return e.value
    if kind is Var:
        return z
    if kind is Unary:
        v = reference_evaluate(e.arg, z)
        if e.op == "neg":
            return -v
        if e.op == "log" and v == 0:
            raise EvalDomainError("log of 0", e)
        try:
            out = _UNARY_FN[e.op](v)
        except (ValueError, OverflowError) as exc:
            raise EvalDomainError(f"{e.op} undefined at {v!r}", e) from exc
        return _finite(out, e)
    left = reference_evaluate(e.left, z)
    right = reference_evaluate(e.right, z)
    op = e.op
    if op == "+":
        out = left + right
    elif op == "-":
        out = left - right
    elif op == "*":
        out = left * right
    elif op == "/":
        if right == 0:
            raise EvalDomainError("division by zero", e)
        out = left / right
    else:
        try:
            out = _power(left, right)
        except _PowerError as exc:
            raise EvalDomainError(str(exc), e) from exc
    return _finite(out, e)


def _finite(v, node):
    if not cmath.isfinite(v):
        raise EvalDomainError(f"non-finite value {v!r}", node)
    return v


def outcome(evaluator, e, z):
    """The value's repr, or the error's type and message."""
    try:
        return repr(evaluator(e, z))
    except EvalDomainError as exc:
        return ("EvalDomainError", str(exc))


_signed = st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0, -2.5, 1e-200, 1e200))
_constants = st.one_of(_signed, st.floats(-4.0, 4.0)).map(lambda v: Const(complex(v)))
_exprs = st.recursive(
    st.one_of(_constants, st.just(Var())),
    lambda child: st.one_of(
        st.builds(Unary, st.sampled_from(("neg", "exp", "log", "sin", "cos", "sqrt")), child),
        st.builds(Binary, st.sampled_from(("+", "-", "*", "/", "^")), child, child),
    ),
    max_leaves=6,
)
_parts = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0, 1e-300, 700.0)),
                   st.floats(-3.0, 3.0))
_points = st.builds(complex, _parts, _parts)


@given(e=_exprs, z=_points)
@settings(max_examples=300)
# parse reads 1e999 as an infinite constant; negating it is not checked, as in the tree walk
@example(e=Unary("neg", Const(complex(math.inf))), z=0j)
# a power multiplies out; its last product is the value checked and named
@example(e=parse("x^3"), z=1e200)
# the non-finite x*x is read only by a negation, or only by a division that makes it 0
@example(e=parse("exp(-(x*x))"), z=1e200)
@example(e=parse("1/(x*x)"), z=1e200)
# the longest multiplied-out power, and the first one left to exp(n log z)
@example(e=parse("x^4096"), z=complex(1.0001, 0.0001))
@example(e=parse("x^4097"), z=complex(1.0001, 0.0001))
def test_tape_matches_the_recursive_walk_through_the_fourth_derivative(e, z):
    for _ in range(5):
        tape = Tape(e)
        assert outcome(evaluate, tape, z) == outcome(reference_evaluate, e, z)
        assert outcome(evaluate, Tape(e), z) == outcome(evaluate, tape, z)
        e = differentiate(e)


def test_signed_zero_constants_keep_separate_slots():
    e = Binary("+", Const(complex(-0.0)), Const(complex(0.0)))
    assert repr(evaluate(Tape(e), 1.0)) == repr(reference_evaluate(e, 1.0)) == "0j"
    assert len(Tape(e).slots) == 4  # x, -0.0, 0.0 and the sum


def test_equal_subterms_share_one_slot():
    d4 = parse("exp(sin(x))/(1+x^2)")
    for _ in range(4):
        d4 = differentiate(d4)
    tape = Tape(d4)
    nodes, stack = 0, [d4]
    while stack:
        node = stack.pop()
        nodes += 1
        stack.extend(getattr(node, name) for name in ("arg", "left", "right") if hasattr(node, name))
    assert nodes > 10 * len(tape.code)
    for x in (0.0, 0.3, 1.7):
        assert repr(evaluate(tape, x)) == repr(reference_evaluate(d4, x))


def test_error_names_a_node_equal_to_the_failing_one():
    e = Binary("+", Unary("log", Var()), Unary("exp", Unary("log", Var())))
    with pytest.raises(EvalDomainError, match=r"^log of 0 in 'log\(x\)'$") as info:
        evaluate(Tape(e), 0.0)
    assert info.value.node == Unary("log", Var())


def test_a_deep_chain_builds_and_runs_without_recursion():
    e = Var()
    for _ in range(3000):
        e = Unary("neg", e)
    assert evaluate(Tape(e), 1.5) == 1.5
    assert evaluate(Tape(e), -2.0) == -2.0
    s = Var()
    for k in range(3000):
        s = Binary("+", s, Const(complex(float(k))))
    assert evaluate(Tape(s), 0.0) == math.fsum(range(3000))


def test_a_power_reports_its_own_value_not_an_intermediate_one():
    # x*x is already (inf+0j); the power's value is (1e200+0j)*(inf+0j)
    message = r"^non-finite value \(inf\+nanj\) in 'x\^3\.0'$"
    with pytest.raises(EvalDomainError, match=message):
        evaluate(Tape(parse("x^3")), 1e200)
    values, error = evaluate_grid(Tape(parse("x^3")), [2.0, 1e200])
    assert values == [8.0]
    assert re.match(message, str(error))


def test_constant_positive_integer_powers_multiply_out():
    def functions(e):
        return [fn for _, fn, *_ in Tape(e).code]

    assert functions(parse("x^2")) == [mul, mul]  # x*x, then 1*(x*x), as _int_power does
    tape = Tape(parse("x^4096"))  # twelve squarings, then 1 times the last square
    assert [(fn, checked) for _, fn, *_, checked in tape.code] == [(mul, False)] * 12 + [(mul, True)]
    for e in (parse("x^-2"), Binary("^", Var(), Const(complex(-2.0))), parse("x^0"),
              parse("x^0.5"), parse("x^x"), parse("x^4097")):
        assert _power in functions(e), e


def test_a_grid_watches_only_slots_that_can_hide_a_non_finite_value():
    tape = Tape(parse("exp(-(x*x)) + 1/(x*x)"))
    slot = {str(node): slot for slot, _, _, _, node, _ in tape.code}
    # exp and / can turn inf into 0; neg and + pass it on, and the root is checked last
    assert tape.watched == {slot["x*x"], slot["-(x*x)"], tape.slots.index(1.0),
                            len(tape.slots) - 1}


def point_by_point(tape, points):
    """evaluate at each point in turn, up to the first that raises, and its error."""
    values = []
    for z in points:
        try:
            values.append(evaluate(tape, z))
        except (EvalDomainError, ValueError) as exc:
            return values, exc
    return values, None


def grid_outcome(values, error):
    """Each value's repr, and the error's type and message."""
    return [repr(v) for v in values], error and (type(error).__name__, str(error))


def _line(start, step, n):
    return [start + k * step for k in range(n)]


_steps = st.builds(complex, st.floats(-0.05, 0.05), st.floats(-0.05, 0.05))
# a few chosen points before or after a line long enough to cross the certificate's chunk
_grids = st.builds(
    lambda chosen, line, chosen_first: chosen + line if chosen_first else line + chosen,
    st.lists(_points, max_size=6),
    st.one_of(st.just([]), st.builds(_line, _points, _steps, st.integers(0, 2 * GRID_CHUNK + 1))),
    st.booleans())
_chunk_line = _line(0.0, 1 / 128, 2 * GRID_CHUNK + 1)  # exact multiples of 2^-7 up to 2


@given(e=_exprs, grid=_grids)
@settings(max_examples=150, deadline=None)
# signed zeros: 1*z can flip the sign of a zero part, so a power starts from 1 as _int_power does
@example(e=Binary("^", Var(), Const(complex(1.0))),
         grid=[complex(-0.0, -0.5), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)])
@example(e=Unary("neg", Binary("*", Var(), Const(complex(-0.0)))), grid=[0j, -1.0, complex(2, -0.0)])
# powers by constant integers: the order of the multiplications shows in the last bits
@example(e=Binary("*", Binary("^", Var(), Const(complex(5.0))), Binary("^", Var(), Const(complex(-3.0)))),
         grid=_line(complex(0.3, 0.7), complex(0.01, -0.02), 10))
@example(e=parse("x^3"), grid=[1.0, 1e200, 2.0])
@example(e=parse("exp(-(x*x))"), grid=[1.0, 1e200, 2.0])
@example(e=parse("1/(x*x)"), grid=[1.0, 1e200, 2.0])
@example(e=parse("x^4096"), grid=_line(complex(0.999, 0.001), complex(1e-4, 1e-4), 20))
@example(e=parse("x^4097"), grid=_line(complex(0.999, 0.001), complex(1e-4, 1e-4), 20))
# x^-3 underflows at 1e-120 after two good points
@example(e=Binary("^", Var(), Const(complex(-3.0))), grid=[1.0, 0.5, 1e-120, 2.0])
@example(e=parse("log(x)"), grid=[1.0, 2.0, 0.0, 3.0])
@example(e=Binary("^", Const(0j), Const(complex(-1.0))), grid=[1.0, 2.0])
@example(e=Binary("^", Var(), Const(complex(-1.0))), grid=[2.0, -4.0, 0.0, 1.0])
# non-constant exponents: integral at some points, fractional or failing at others
@example(e=parse("x^x"), grid=_line(0.5, 0.25, 12))
@example(e=parse("(1 + x)^(x - 1)"), grid=_line(complex(-0.5, 0.25), complex(0.125, -0.0625), 20))
@example(e=parse("x^(x - 1)"), grid=[2.0, 1.5, 0.0, 3.0])
# (-2)^(1e308) makes cmath.exp raise ValueError, which the power reports as an overflow
@example(e=parse("(0 - 2)^(1e308*x)"), grid=[1e-308, 0.001, 1.0, 2.0])
# the first failure lies beyond the first chunk
@example(e=parse("log(x - 1.5)"), grid=_chunk_line)
@example(e=parse("exp(sin(x))/(1 + x^2)"), grid=_chunk_line)
# finite values whose sum overflows: no point fails
@example(e=Binary("+", Var(), Const(0j)), grid=[complex(1e308), complex(1e308), complex(1e308)])
@example(e=Binary("*", Var(), Var()), grid=[1.0, 1e200, 2.0])
def test_grid_matches_evaluate_point_by_point_through_the_fourth_derivative(e, grid):
    for _ in range(5):
        tape = Tape(e)
        assert grid_outcome(*evaluate_grid(tape, grid)) == grid_outcome(*point_by_point(tape, grid))
        e = differentiate(e)


# Jets and symbolic derivatives round differently, and both lose accuracy where the
# Taylor coefficients of f's subterms are large and cancel (for cos(sqrt(x)) near 0,
# whose f'' is about 1/12, one reads 0 and the other 3e35), so the allowed difference
# grows with the square of the largest of them.  Over several thousand random cases
# the largest difference seen was under 2^-50 of this scale.
JET_TOLERANCE = 2.0 ** -40


def symbolic_coefficients(e, grid):
    """f^(k)(z)/k! for k = 0..4 at each point, from differentiate and evaluate_grid;
    None where a derivative's tape fails."""
    coefficients = []
    for k in range(5):
        values, error = evaluate_grid(Tape(e), grid)
        if error is not None:
            return None
        coefficients.append([v / math.factorial(k) for v in values])
        e = differentiate(e)
    return coefficients


@given(e=_exprs, grid=st.lists(_points, min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
@example(e=parse("exp(sin(1.1*x))/(1 + x^2)"), grid=[0.3, 1.15, 2.0])
@example(e=parse("x^x + log(x)*sqrt(x) - x^-2.5"), grid=[complex(0.4, 0.2), 1.0, 2.5])
@example(e=parse("cos(x)^3/(x - 3) + 2^x"), grid=[0.0, -1.0, complex(1, 1)])
def test_jets_match_the_symbolic_derivatives_wherever_they_succeed(e, grid):
    try:
        jets = taylor_grid(Tape(e), grid, 4)
    except (ArithmeticError, ValueError):
        return  # estimate_m4 falls back to the symbolic derivative
    assert len(jets) == 5 and all(len(c) == len(grid) for c in jets)
    want = symbolic_coefficients(e, grid)
    subterms = [symbolic_coefficients(node, grid) for *_, node, _ in Tape(e).code]
    if want is None or None in subterms:
        return  # a symbolic derivative fails where the jets do not: nothing to compare
    scale = max([0.0, *(abs(c) for coefficients in subterms for row in coefficients for c in row)])
    for k in range(5):
        for got, expected in zip(jets[k], want[k]):
            allowed = JET_TOLERANCE * (1 + abs(expected) + scale * scale)
            assert abs(got - expected) <= allowed, (k, got, expected)


@pytest.mark.parametrize("order", [0, 4])
def test_a_non_finite_jet_in_an_unwatched_slot_raises_at_a_watched_one(order):
    tape = Tape(parse("exp(-(x*x*x*x))"))
    quartic = next(slot for slot, _, _, _, node, _ in tape.code if str(node) == "x*x*x*x")
    assert quartic not in tape.watched  # only the negation reads it
    # x^4 is inf at 1e100, and exp(-inf) would be 0
    with pytest.raises(ArithmeticError):
        taylor_grid(tape, [1.0, 1e100], order)


@given(e=_exprs, grid=st.lists(_points, max_size=4), order=st.integers(0, 4))
@settings(max_examples=300, deadline=None)
def test_every_coefficient_the_jets_return_is_finite(e, grid, order):
    try:
        jets = taylor_grid(Tape(e), grid, order)
    except (ArithmeticError, ValueError):
        return
    assert len(jets) == order + 1
    assert all(cmath.isfinite(c) for coefficients in jets for c in coefficients)


# Inputs on which the jets fail, with estimate_m4's outcome at the commit before it
# took jets: a value's repr, or the error's type and message.
FALLBACK_CASES = [
    # a power's jet divides by its zero base at x = 0.5, where f'''' is finite
    ("(x-0.5)^4.5", 0.0, 1.0, "41.76349426383047"),
    ("(x-0.5)^3.5", 0.0, 1.0,
     ("EvalDomainError", "zero raised to the power (-0.5+0j) in '(x - 0.5)^-0.5'")),
    ("x^1.5", -1.0, 1.0, ("EvalDomainError", "zero raised to the power (-0.5+0j) in 'x^-0.5'")),
    # f'''''s modulus leaves the float range from x = 0.75 on, before the pole at 0.9
    (test_bounds.TestEstimateM4.OVERFLOW_THEN_POLE, 0.0, 1.0,
     ("OverflowError", "absolute value too large")),
]


@pytest.mark.parametrize("text, a, b, outcome", FALLBACK_CASES)
def test_estimate_m4_falls_back_to_the_symbolic_fourth_derivative(text, a, b, outcome):
    iv = PhiInterval(a, b)
    with pytest.raises((ArithmeticError, ValueError)):
        taylor_grid(Tape(parse(text)), [a + k / 100 * iv.chord for k in range(101)], 4)
    try:
        got = repr(estimate_m4(parse(text), iv))
    except (EvalDomainError, OverflowError) as exc:
        got = (type(exc).__name__, str(exc))
    assert got == outcome
