import math
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from simpbound import (
    ConvexityCertificate,
    EvalDomainError,
    PhiInterval,
    Tape,
    VERIFIED,
    VIOLATED,
    certify_phi_convexity,
    convexity,
    differentiate,
    evaluate,
    evaluate_grid,
    parse,
)
from simpbound.convexity import DEFAULT_CERT_SAMPLES, DEFAULT_CERT_TOL, GRID_CHUNK


def reference_certify(f, iv, q, samples=DEFAULT_CERT_SAMPLES, tol=DEFAULT_CERT_TOL):
    """The one-q certificate the single pass over every q replaced, kept as the reference."""
    if samples < 3:
        raise ValueError(f"need at least 3 samples, got {samples}")
    if q < 1.0:
        raise ValueError(f"q must be >= 1, got {q}")
    fp = Tape(differentiate(f))
    deriv_a = abs(evaluate(fp, complex(iv.a)))
    at_a = _power("|f'(a)|", deriv_a, q)
    deriv_b = abs(evaluate(fp, complex(iv.b)))
    at_b = _power("|f'(b)|", deriv_b, q)
    worst = math.inf
    worst_t = 0.0
    for k in range(samples):
        t = k / (samples - 1)
        chord = (1.0 - t) * at_a + t * at_b
        margin = chord - _power("|f'(path(t))|", abs(evaluate(fp, iv.path_point(t))), q,
                                f" at t = {t!r}")
        if margin < worst:
            worst = margin
            worst_t = t
    if worst < -tol:
        return ConvexityCertificate(q, samples, VIOLATED, worst, deriv_a, deriv_b, worst_t)
    return ConvexityCertificate(q, samples, VERIFIED, worst, deriv_a, deriv_b, None)


def _power(name, modulus, q, where=""):
    """modulus ** q; an overflow names the power, q, the modulus and where it was taken."""
    try:
        return modulus ** q
    except OverflowError:
        raise OverflowError(f"{name}^q out of range{where}: "
                            f"{name} = {modulus!r}, q = {q!r}") from None


class TestCertify:
    def test_linear_slope_magnitude_meets_chord_exactly(self):
        # |f'| = 2t on [0,1]: the chord from 0 to 2 coincides with it
        (cert,) = certify_phi_convexity(parse("x^2"), PhiInterval(0.0, 1.0), (1.0,))
        assert cert.status == VERIFIED
        assert abs(cert.worst_margin) < 1e-14
        assert cert.violation_t is None

    def test_exponential_squared_has_interior_slack(self):
        f = parse("exp(x)")
        iv = PhiInterval(0.0, 1.0)
        (cert,) = certify_phi_convexity(f, iv, (2.0,))
        assert cert.status == VERIFIED
        # strictly convex e^{2t}: interior sits strictly below the chord
        fp = Tape(differentiate(f))
        chord_mid = 0.5 * (abs(evaluate(fp, 0j)) ** 2 + abs(evaluate(fp, 1 + 0j)) ** 2)
        assert chord_mid - abs(evaluate(fp, 0.5 + 0j)) ** 2 > 0.1

    def test_concave_slope_magnitude_is_violated(self):
        # |f'| = 1 - x^2 on [-1,1] sits above the zero chord; worst at t = 1/2
        (cert,) = certify_phi_convexity(parse("x - x^3/3"), PhiInterval(-1.0, 1.0), (1.0,))
        assert cert.status == VIOLATED
        assert cert.worst_margin <= -0.5
        assert cert.violation_t is not None
        assert abs(cert.violation_t - 0.5) < 1e-12

    def test_chord_uses_real_endpoints_on_rotated_segment(self):
        # |cos| grows like cosh along the imaginary direction while staying
        # small at the real endpoint, so the hypothesis genuinely fails
        (cert,) = certify_phi_convexity(parse("sin(x)"), PhiInterval(1.0, 3.0, math.pi / 2),
                                        (1.0,))
        assert cert.status == VIOLATED

    @pytest.mark.parametrize("samples", [101, 201, 1001, 2002])
    def test_violation_stable_under_refinement(self, samples):
        (cert,) = certify_phi_convexity(parse("x - x^3/3"), PhiInterval(-1.0, 1.0),
                                        (1.0,), samples=samples)
        assert cert.status == VIOLATED
        assert cert.worst_margin <= -0.5

    @pytest.mark.parametrize("text", ["x^2", "x^3", "x^4", "exp(x)"])
    @pytest.mark.parametrize("interval", [(0.0, 1.0), (-1.0, 2.0), (1.0, 3.0)])
    def test_classically_convex_slopes_verify_flat(self, text, interval):
        (cert,) = certify_phi_convexity(parse(text), PhiInterval(*interval), (1.0,))
        assert cert.status == VERIFIED

    def test_each_q_certified_independently(self):
        f = parse("exp(x)")
        iv = PhiInterval(0.0, 1.0, math.pi / 4)
        for q in (1.0, 1.5, 2.0, 5.0):
            (cert,) = certify_phi_convexity(f, iv, (q,))
            assert cert.q == q
            assert cert.sample_count == 1001

    def test_validation(self):
        f = parse("x^2")
        iv = PhiInterval(0.0, 1.0)
        with pytest.raises(ValueError):
            certify_phi_convexity(f, iv, (0.5,))
        with pytest.raises(ValueError):
            certify_phi_convexity(f, iv, (1.0,), samples=2)

    def test_carries_the_endpoint_slopes(self):
        # f' = 3x^2 + 1: |f'(1)| = 4 and |f'(3)| = 28, whatever the angle and q
        certs = certify_phi_convexity(parse("x^3 + x"), PhiInterval(1.0, 3.0, math.pi / 4),
                                      (1.0, 2.0), samples=11)
        assert [(cert.deriv_a, cert.deriv_b) for cert in certs] == [(4.0, 28.0)] * 2

    def test_deterministic(self):
        f = parse("sin(x)")
        iv = PhiInterval(0.0, 2.0, math.pi / 6)
        assert certify_phi_convexity(f, iv, (2.0,)) == certify_phi_convexity(f, iv, (2.0,))


# Entire functions: sums, differences and products of up to three terms
# c*x^k, exp(c*x), sin(c*x) and cos(c*x).  x^0 differentiates to 0*x^-1, a
# division by zero at x = 0, and q = 400 overflows wherever |f'| > 6.
_coefficients = st.integers(-20, 20).map(lambda n: f"{n / 10:g}")
_terms = st.one_of(
    st.builds(lambda c, k: f"{c}*x^{k}", _coefficients, st.integers(0, 3)),
    st.builds(lambda fn, c: f"{fn}({c}*x)", st.sampled_from(["exp", "sin", "cos"]),
              _coefficients),
)
_expressions = st.builds(
    lambda first, rest: first + "".join(f" {op} {term}" for op, term in rest),
    _terms, st.lists(st.tuples(st.sampled_from("+-*"), _terms), max_size=2))
_segments = st.builds(
    lambda a, width, phi: PhiInterval(a, a + width, phi),
    st.integers(-10, 10).map(lambda n: n / 10), st.integers(1, 20).map(lambda n: n / 10),
    st.one_of(st.sampled_from((0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2)),
              st.floats(0.0, math.pi / 2)))
_q_lists = st.lists(st.one_of(st.sampled_from((1.0, 1.5, 2.0, 3.0, 5.0, 400.0)),
                              st.floats(1.0, 50.0)), min_size=1, max_size=5)


def _error(exc):
    return (type(exc).__name__, str(exc))


@settings(max_examples=200)
@given(text=_expressions, iv=_segments, qs=_q_lists, samples=st.integers(3, 41))
@example(text="sin(x)", iv=PhiInterval(1.0, 3.0, math.pi / 2), qs=[1.0, 2.0, 1.0], samples=41)
@example(text="x - x^3/3", iv=PhiInterval(-1.0, 1.0), qs=[3.0, 1.0, 1.5], samples=21)
@example(text="2*exp(x)", iv=PhiInterval(0.0, 2.0), qs=[1.0, 400.0, 1.0], samples=11)
# |f'| is 0.1875 at t = 0.25 and at t = 0.75: the first of equal margins is the worst
@example(text="x^3/3 - x^5/5", iv=PhiInterval(-1.0, 1.0), qs=[1.0, 2.0], samples=5)
# grids longer than a chunk: equal worst margins at t = 37/256 and 219/256 in the
# first and second chunks, a worst margin that opens the second chunk, and |f'|^q
# overflowing at t = 0.491 in the chunk whose point t = 0.5 divides by zero
@example(text="x^3/3 - x^5/5", iv=PhiInterval(-1.0, 1.0), qs=[1.0, 2.0], samples=2 * GRID_CHUNK + 1)
@example(text="x - x^3/3", iv=PhiInterval(-1.0, 1.0), qs=[1.0], samples=2 * GRID_CHUNK + 1)
@example(text="1e3*sqrt(x - 0.5)", iv=PhiInterval(0.0, 1.0), qs=[83.3], samples=1001)
def test_one_pass_matches_reference_per_q(text, iv, qs, samples):
    f = parse(text)
    expected, errors = [], []
    for q in qs:
        try:
            expected.append(reference_certify(f, iv, q, samples))
        except (EvalDomainError, OverflowError) as exc:
            errors.append(_error(exc))
    try:
        got = certify_phi_convexity(f, iv, qs, samples)
    except (EvalDomainError, OverflowError) as exc:
        if len(qs) == 1:
            assert [_error(exc)] == errors
        else:
            # the pass meets each failing q's own first error; it raises the earliest
            assert _error(exc) in errors
    else:
        assert not errors
        assert repr(got) == repr(tuple(expected))


@pytest.fixture
def evaluated_points(monkeypatch):
    """The points, in order, at which the certificate evaluates f'.

    Of a grid, the points whose values the certificate gets, then the point
    that failed, if one did.
    """
    points = []

    def counted(tape, z):
        points.append(z)
        return evaluate(tape, z)

    def counted_grid(tape, zs):
        values, error = evaluate_grid(tape, zs)
        points.extend(zs[:len(values) + (error is not None)])
        return values, error
    monkeypatch.setattr(convexity, "evaluate", counted)
    monkeypatch.setattr(convexity, "evaluate_grid", counted_grid)
    return points


class TestOnePass:
    """f' is evaluated once per point for every q, and no sample is kept."""

    @pytest.mark.parametrize("qs", [(2.0,), (1.0, 1.5, 2.0, 3.0, 5.0)])
    def test_evaluates_once_per_point(self, evaluated_points, qs):
        certify_phi_convexity(parse("exp(sin(x))"), PhiInterval(0.0, 2.0, math.pi / 4), qs,
                              samples=101)
        assert len(evaluated_points) == 101 + 2

    @pytest.mark.parametrize("qs, samples", [((1.0, 0.5), 101), ((1.0, 2.0), 2),
                                             ((math.nan,), 11), ((1.0, math.inf), 11)])
    def test_invalid_arguments_raise_before_evaluating(self, evaluated_points, qs, samples):
        with pytest.raises(ValueError):
            certify_phi_convexity(parse("x^2"), PhiInterval(0.0, 1.0), qs, samples=samples)
        assert evaluated_points == []

    def test_memory_does_not_grow_with_samples(self):
        # a list kept per sample would need about 312 KiB at 10 001 samples
        f = parse("exp(sin(x))/(1 + x^2)")
        iv = PhiInterval(0.0, 2.0, math.pi / 4)
        tracemalloc.start()
        try:
            certify_phi_convexity(f, iv, (1.0, 1.5, 2.0, 3.0, 5.0), samples=10_001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestErrorPrecedence:
    """1e3*sqrt(x - 0.5) on [0, 1]: |f'(0)| is about 707 and f' has a pole at t = 0.5.

    A one-q call raises the error of the one-q reference.  A list raises the
    first error of the single pass: the power of |f'(a)| for every q comes
    before the first path point.
    """

    F = parse("1e3*sqrt(x - 0.5)")
    IV = PhiInterval(0.0, 1.0)

    def test_large_q_overflows_at_the_power_of_the_left_endpoint(self, evaluated_points):
        with pytest.raises(OverflowError):
            certify_phi_convexity(self.F, self.IV, (400.0,))
        assert evaluated_points == [0j]

    def test_q_one_divides_by_zero_at_the_midpoint(self, evaluated_points):
        with pytest.raises(EvalDomainError, match="^division by zero"):
            certify_phi_convexity(self.F, self.IV, (1.0,))
        assert evaluated_points[-1] == self.IV.path_point(0.5)

    @pytest.mark.parametrize("values, message", [
        ([1e307 + 0j, complex(1.5e308, 1.5e308), 1.0], "out of range"),
        ([complex(1.5e308, 1.5e308), 1e307 + 0j, 1.0], "absolute value too large"),
    ])
    def test_an_overflowing_modulus_fails_its_own_point(self, monkeypatch, values, message):
        # (1e307)^1.1 overflows, and so does the modulus of 1.5e308*(1 + i)
        monkeypatch.setattr(convexity, "evaluate_grid", lambda tape, zs: (values, None))
        with pytest.raises(OverflowError, match=message):
            certify_phi_convexity(parse("x"), PhiInterval(0.0, 1.0), (1.1,), samples=3)

    def test_a_list_raises_the_first_error_of_the_pass(self):
        # the one-q certificate of the first q would raise the domain error
        with pytest.raises(EvalDomainError):
            reference_certify(self.F, self.IV, 1.0)
        with pytest.raises(OverflowError):
            certify_phi_convexity(self.F, self.IV, (1.0, 400.0))
