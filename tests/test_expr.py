import cmath
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from simpbound import (
    Binary,
    Const,
    EvalDomainError,
    ParseError,
    Unary,
    UnknownIdentifierError,
    Tape,
    Var,
    differentiate,
    evaluate,
    evaluate_grid,
    parse,
    to_text,
)
from simpbound.expr import _ZERO


class TestParse:
    def test_power_tree(self):
        assert parse("x^2") == Binary("^", Var(), Const(complex(2.0)))

    def test_call_plus_constant(self):
        assert parse("exp(x) + 1") == Binary("+", Unary("exp", Var()), Const(complex(1.0)))

    def test_power_binds_tighter_than_unary_minus(self):
        assert parse("-x^2") == Unary("neg", Binary("^", Var(), Const(complex(2.0))))

    def test_power_right_associative(self):
        assert parse("x^2^3") == Binary("^", Var(), Binary("^", Const(complex(2.0)), Const(complex(3.0))))

    def test_negative_exponent(self):
        assert parse("x^-2") == Binary("^", Var(), Unary("neg", Const(complex(2.0))))

    def test_named_constants(self):
        assert parse("pi") == Const(complex(math.pi))
        assert parse("e") == Const(complex(math.e))

    def test_scientific_literal(self):
        assert parse("2.5e-3") == Const(complex(0.0025))

    def test_whitespace_and_parens(self):
        tree = parse(" ( x + 2 ) * sin( x ) ")
        assert tree == Binary("*", Binary("+", Var(), Const(complex(2.0))), Unary("sin", Var()))

    def test_double_caret_is_syntax_error_at_offset_2(self):
        with pytest.raises(ParseError) as info:
            parse("x^^2")
        assert info.value.position == 2

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as info:
            parse("2*y + 1")
        assert info.value.position == 2

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifierError):
            parse("tan(x)")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError) as info:
            parse("x 2")
        assert info.value.position == 2

    def test_empty_input(self):
        with pytest.raises(ParseError) as info:
            parse("")
        assert info.value.position == 0

    def test_unclosed_paren(self):
        with pytest.raises(ParseError):
            parse("(x + 1")

    def test_missing_operand(self):
        with pytest.raises(ParseError):
            parse("x +")

    def test_depth_limit(self):
        assert parse(" + ".join(["x"] * 64)) is not None  # 63 sums: depth 64
        assert parse("-" * 63 + "x") is not None
        assert parse("sin(" * 63 + "x" + ")" * 63) is not None
        for text in (" + ".join(["x"] * 65), "-" * 64 + "x", "x" + "^x" * 64,
                     "sin(" * 64 + "x" + ")" * 64, "(" * 600 + "x" + ")" * 600,
                     " + ".join(["x"] * 3000)):
            with pytest.raises(ParseError, match="nested deeper than 64 levels"):
                parse(text)

    def test_out_of_range_literal_at_offset_2(self):
        # float("1e999") is inf, which no constant of a parsed tree may hold
        with pytest.raises(ParseError, match="number out of range: '1e999'") as info:
            parse("x+1e999")
        assert info.value.position == 2

    def test_stray_character(self):
        with pytest.raises(ParseError) as info:
            parse("x @ 2")
        assert info.value.position == 2


class TestEvaluate:
    def test_square_of_i(self):
        assert evaluate(Tape(parse("x^2")), 1j) == -1

    def test_exp_at_zero(self):
        assert evaluate(Tape(parse("exp(x)")), 0) == 1

    def test_principal_log(self):
        assert cmath.isclose(evaluate(Tape(parse("log(x)")), -1), complex(0.0, math.pi))

    def test_principal_sqrt(self):
        assert cmath.isclose(evaluate(Tape(parse("sqrt(x)")), -4), 2j)

    def test_principal_power(self):
        # z^w = exp(w log z) with the principal log
        assert cmath.isclose(evaluate(Tape(parse("x^0.5")), -1), 1j)

    def test_integer_power_of_real_stays_real(self):
        v = evaluate(Tape(parse("x^3")), complex(-0.5, 0.0))
        assert v == complex(-0.125, 0.0)
        assert v.imag == 0.0

    def test_zero_to_positive_powers(self):
        assert evaluate(Tape(parse("x^2")), 0) == 0
        assert evaluate(Tape(parse("x^0")), 0) == 1
        assert evaluate(Tape(parse("x^2.5")), 0) == 0

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError, match="division by zero"):
            evaluate(Tape(parse("1/(x-1)")), 1.0)

    def test_log_of_zero(self):
        with pytest.raises(EvalDomainError, match="log of 0"):
            evaluate(Tape(parse("log(x)")), 0)

    def test_zero_to_negative_power(self):
        with pytest.raises(EvalDomainError):
            evaluate(Tape(parse("x^-2")), 0)

    def test_overflow_reported_as_domain_error(self):
        with pytest.raises(EvalDomainError):
            evaluate(Tape(parse("exp(x)")), 1e9)

    def test_error_names_offending_node(self):
        with pytest.raises(EvalDomainError, match="log"):
            evaluate(Tape(parse("exp(log(x))")), 0)

    @pytest.mark.parametrize("text,good,bad,message", [
        ("1/(x-1)", 2.0, 1.0, "division by zero in '1.0/(x - 1.0)'"),
        ("log(x)", 2.0, 0.0, "log of 0 in 'log(x)'"),
        ("exp(x)", 2.0, 1e9, "exp undefined at (1000000000+0j) in 'exp(x)'"),
        ("x*x", 2.0, 1e200, "non-finite value (inf+0j) in 'x*x'"),
        ("x^-2", 2.0, 0.0, "zero raised to a negative power in 'x^-2.0'"),
        ("x^-3", 2.0, 1e-120, "underflow in negative power in 'x^-3.0'"),
        ("x^(0-0.5)", 2.0, 0.0, "zero raised to the power (-0.5+0j) in 'x^(0.0 - 0.5)'"),
        ("x^1.5", 2.0, 1e300, "overflow in power in 'x^1.5'"),
        # 1e308*log(-2) has an infinite imaginary part, at which cmath.exp raises ValueError
        ("(0-2)^(1e308*x)", 1e-308, 1.0, "overflow in power in '(0.0 - 2.0)^(1e+308*x)'"),
    ])
    def test_every_domain_error_keeps_its_text(self, text, good, bad, message):
        tape = Tape(parse(text))
        with pytest.raises(EvalDomainError) as info:
            evaluate(tape, bad)
        assert str(info.value) == message
        values, error = evaluate_grid(tape, [good, bad])
        assert values == [evaluate(tape, good)]
        assert type(error) is EvalDomainError and str(error) == message


def _central_difference(e, z, h=1e-5):
    return (evaluate(Tape(e), z + h) - evaluate(Tape(e), z - h)) / (2.0 * h)


class TestDifferentiate:
    def test_power_rule(self):
        d = differentiate(parse("x^2"))
        for z in (0.0, 1.5, 2j, complex(-1.0, 0.5)):
            assert cmath.isclose(evaluate(Tape(d), z), 2 * complex(z), abs_tol=1e-15)

    def test_exp_is_its_own_derivative(self):
        d = differentiate(parse("exp(x)"))
        for z in (0.0, 1.0, 1j):
            assert cmath.isclose(evaluate(Tape(d), z), cmath.exp(complex(z)))

    def test_fourth_derivative_of_quartic(self):
        # independent oracle: 5-point fourth difference at seeded random points
        f = parse("x^4")
        d4 = f
        for _ in range(4):
            d4 = differentiate(d4)
        rng = random.Random(20240811)
        h = 0.05
        for _ in range(5):
            x = rng.uniform(-2.0, 2.0)
            stencil = [evaluate(Tape(f), complex(x + k * h)) for k in (-2, -1, 0, 1, 2)]
            oracle = (stencil[0] - 4 * stencil[1] + 6 * stencil[2]
                      - 4 * stencil[3] + stencil[4]) / h**4
            value = evaluate(Tape(d4), complex(x))
            assert abs(value - 24.0) < 1e-9
            assert abs(value - oracle) / abs(oracle) < 1e-6

    def test_quotient_rule(self):
        d = differentiate(parse("sin(x)/(x + 2)"))
        z = complex(0.7, 0.2)
        assert abs(evaluate(Tape(d), z) - _central_difference(parse("sin(x)/(x + 2)"), z)) < 1e-9

    def test_general_power_rule(self):
        e = parse("x^x")
        d = differentiate(e)
        for z in (complex(0.8, 0.1), complex(1.4, 0.3)):
            assert abs(evaluate(Tape(d), z) - _central_difference(e, z)) < 1e-8

    def test_shared_nodes_are_differentiated_once(self):
        # 64 factors pass the depth limit; re-deriving every reference to a
        # shared node would take the fourth derivative minutes
        d4 = parse("*".join(["x"] * 64))
        for _ in range(4):
            d4 = differentiate(d4)
        assert _distinct_objects(d4) < 20_000
        assert evaluate(Tape(d4), 1.0) == 64 * 63 * 62 * 61

    @pytest.mark.parametrize("text", ["exp(sin(0.9*x))/(1+x^2)", "x*x*x*x*x", "x^x + sqrt(x)/x"])
    def test_sharing_does_not_change_the_tree(self, text):
        d2 = differentiate(differentiate(parse(text)))  # shares subtrees
        assert repr(differentiate(d2)) == repr(differentiate(_unshared(d2)))

    def test_fifth_derivative_of_quartic_vanishes(self):
        d = parse("x^4")
        for _ in range(5):
            d = differentiate(d)
        assert evaluate(Tape(d), 0.37) == 0


def _distinct_objects(e) -> int:
    seen, stack = set(), [e]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(getattr(node, field) for field in ("arg", "left", "right")
                         if hasattr(node, field))
    return len(seen)


def _unshared(e):
    """A copy of the tree in which no node object appears twice."""
    if isinstance(e, Unary):
        return Unary(e.op, _unshared(e.arg))
    if isinstance(e, Binary):
        return Binary(e.op, _unshared(e.left), _unshared(e.right))
    return Const(e.value) if isinstance(e, Const) else Var()


_constants = st.floats(min_value=0.3, max_value=2.5, allow_nan=False).map(
    lambda v: Const(complex(v)))


def _trees(leaves):
    return st.recursive(leaves, lambda child: st.one_of(
        st.builds(lambda a: Unary("neg", a), child),
        st.builds(Unary, st.sampled_from(("exp", "log", "sin", "cos", "sqrt")), child),
        st.builds(Binary, st.sampled_from(("+", "-", "*", "/")), child, child),
        st.builds(lambda b, c: Binary("^", b, Const(complex(c))), child,
                  st.sampled_from((2.0, 3.0, 0.5, 1.5))),
    ), max_leaves=8)


_exprs = _trees(st.one_of(_constants, st.just(Var())))
_points = st.builds(complex, st.floats(min_value=0.4, max_value=1.8),
                    st.floats(min_value=0.15, max_value=0.9))


@given(e=_exprs, z=_points)
@settings(max_examples=80)
def test_derivative_matches_central_difference(e, z):
    h = 1e-5
    d = differentiate(e)
    try:
        f0 = evaluate(Tape(e), z)
        fp = evaluate(Tape(e), z + h)
        fm = evaluate(Tape(e), z - h)
        sym = evaluate(Tape(d), z)
    except EvalDomainError:
        assume(False)
    assume(max(abs(f0), abs(fp), abs(fm), abs(sym)) < 1e4)
    forward = (fp - f0) / h
    backward = (f0 - fm) / h
    # discard wildly curved samples where the difference quotient is meaningless
    assume(abs(forward - backward) < 1e-2 * (1.0 + abs(sym)))
    fd = (fp - fm) / (2.0 * h)
    assert abs(sym - fd) / (1.0 + abs(sym)) < 1e-5


@given(e=_trees(_constants))
@settings(max_examples=80)
def test_a_tree_without_x_differentiates_to_zero(e):
    assert differentiate(e) is _ZERO


@given(e=_exprs)
@settings(max_examples=80)
def test_print_parse_round_trip(e):
    reparsed = parse(to_text(e))
    rng = random.Random(1234)
    checked = 0
    for _ in range(10):
        z = complex(rng.uniform(0.3, 2.0), rng.uniform(0.1, 1.0))
        try:
            expected = evaluate(Tape(e), z)
        except EvalDomainError:
            continue
        got = evaluate(Tape(reparsed), z)
        assert abs(got - expected) <= 1e-12 * (1.0 + abs(expected))
        checked += 1
    assume(checked > 0)


def test_round_trip_preserves_power_shape():
    assert parse(to_text(parse("x^2^3"))) == parse("x^2^3")
    assert parse(to_text(parse("-x^2"))) == parse("-x^2")
    assert parse(to_text(parse("(x + 1)^2"))) == parse("(x + 1)^2")
