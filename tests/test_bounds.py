import math

import pytest
from hypothesis import given, settings, strategies as st

from simpbound import (
    BoundInputs,
    EvalDomainError,
    PhiInterval,
    bound_t31,
    bound_t32,
    bound_t33,
    bound_t34,
    bounds,
    certify_phi_convexity,
    classical_bound,
    convexity,
    estimate_m4,
    identity_residual,
    integrate_01,
    kernel_moment,
    make_bound_report,
    parse,
)


def _half_moment(weight, p=1.0):
    """Quadrature oracle for integral over [0, 1/2] of |t - 1/6|^p * weight(t)."""
    result = integrate_01(
        lambda u: abs(u / 2.0 - 1.0 / 6.0) ** p * weight(u / 2.0),
        tol=1e-13,
        breakpoints=(1.0 / 3.0,),
    )
    return 0.5 * result.value.real


class TestKernelMoment:
    def test_exact_rationals(self):
        assert kernel_moment(1.0) == 5.0 / 72.0
        assert kernel_moment(2.0) == 1.0 / 72.0

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 3.7, 5.0, 10.0])
    def test_matches_quadrature_oracle(self, p):
        assert abs(kernel_moment(p) - _half_moment(lambda t: 1.0, p)) < 1e-10

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError):
            kernel_moment(0.0)

    def test_rejects_an_infinite_exponent(self):
        with pytest.raises(ValueError, match="^moment exponent must be finite and positive, got inf$"):
            kernel_moment(math.inf)


class TestHalfMoments:
    def test_weighted_by_one_minus_t(self):
        assert abs(_half_moment(lambda t: 1.0 - t) - 61.0 / 1296.0) < 1e-10

    def test_weighted_by_t(self):
        assert abs(_half_moment(lambda t: t) - 29.0 / 1296.0) < 1e-10

    def test_weights_recombine_to_first_moment(self):
        # (61 + 29)/1296 = 90/1296 = 5/72
        assert abs(61.0 / 1296.0 + 29.0 / 1296.0 - kernel_moment(1.0)) < 1e-16


class TestBoundFormulas:
    def test_t31_quartic_case(self):
        inputs = BoundInputs(0.0, 4.0, 1.0)
        assert abs(bound_t31(inputs) - 5.0 / 18.0) < 1e-15
        actual = abs(identity_residual(parse("x^4"), PhiInterval(0.0, 1.0)).lhs)
        assert actual <= bound_t31(inputs)

    def test_t31_zero_derivatives(self):
        assert bound_t31(BoundInputs(0.0, 0.0, 1.0)) == 0.0

    def test_t31_exponential_case(self):
        inputs = BoundInputs(1.0, math.e, 1.0)
        assert abs(bound_t31(inputs) - (5.0 / 72.0) * (1.0 + math.e)) < 1e-15
        actual = abs(identity_residual(parse("exp(x)"), PhiInterval(0.0, 1.0)).lhs)
        assert abs(actual - 5.80e-4) < 1e-6
        assert actual <= bound_t31(inputs)

    def test_t32_unit_derivatives(self):
        # km(2)^(1/2) * 2 * (1/2)^(1/2) = (2/72)^(1/2) = 1/6
        for length in (1.0, 2.5):
            inputs = BoundInputs(1.0, 1.0, length, q=2.0)
            assert abs(bound_t32(inputs) - length / 6.0) < 1e-15

    def test_t32_quartic_case(self):
        inputs = BoundInputs(0.0, 4.0, 1.0, q=2.0)
        expected = (1.0 / 72.0) ** 0.5 * (math.sqrt(2.0) + math.sqrt(6.0))
        assert abs(bound_t32(inputs) - expected) < 1e-15
        assert abs(expected - 0.4553418012614795) < 1e-15
        assert 1.0 / 120.0 <= bound_t32(inputs)

    def test_t32_zero(self):
        assert bound_t32(BoundInputs(0.0, 0.0, 1.0, q=2.0)) == 0.0

    def test_t33_unit_derivatives(self):
        inputs = BoundInputs(1.0, 1.0, 1.0, q=2.0)
        assert abs(bound_t33(inputs) - 1.0 / 6.0) < 1e-15

    def test_t33_quartic_case(self):
        inputs = BoundInputs(0.0, 4.0, 1.0, q=2.0)
        expected = (1.0 / 36.0) ** 0.5 * math.sqrt(8.0)
        assert abs(bound_t33(inputs) - expected) < 1e-15
        assert abs(expected - 0.4714045207910317) < 1e-15
        assert 1.0 / 120.0 <= bound_t33(inputs)

    def test_t33_zero(self):
        assert bound_t33(BoundInputs(0.0, 0.0, 1.0, q=2.0)) == 0.0

    @pytest.mark.parametrize("a,b,length", [
        (0.0, 4.0, 1.0), (1.0, 1.0, 2.0), (0.3, 2.7, 1.9), (5.0, 0.1, 0.4),
    ])
    def test_t34_at_q1_reduces_to_t31(self, a, b, length):
        # rational identity: (61 + 29)/1296 = 5/72
        q1 = BoundInputs(a, b, length, q=1.0)
        assert abs(bound_t34(q1) - bound_t31(q1)) <= 1e-14 * max(1.0, bound_t31(q1))

    def test_t34_zero(self):
        assert bound_t34(BoundInputs(0.0, 0.0, 1.0, q=3.0)) == 0.0

    def test_exponent_error_below_q1(self):
        inputs = BoundInputs(1.0, 1.0, 1.0, q=1.0)
        with pytest.raises(ValueError):
            bound_t32(inputs)
        with pytest.raises(ValueError):
            bound_t33(inputs)
        # T34 admits q = 1
        bound_t34(inputs)

    def test_conjugate_exponent(self):
        assert BoundInputs(1.0, 1.0, 1.0, q=2.0).p == 2.0
        p = BoundInputs(1.0, 1.0, 1.0, q=1.5).p
        assert abs(1.0 / p + 1.0 / 1.5 - 1.0) < 1e-15

    def test_input_validation(self):
        with pytest.raises(ValueError):
            BoundInputs(-1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            BoundInputs(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            BoundInputs(0.0, 0.0, 1.0, q=0.5)

    def test_from_function_evaluates_at_real_endpoints(self):
        inputs = BoundInputs.from_function(parse("x^3"), PhiInterval(1.0, 3.0, math.pi / 4), q=2.0)
        assert abs(inputs.deriv_a - 3.0) < 1e-15
        assert abs(inputs.deriv_b - 27.0) < 1e-13
        assert inputs.length == 2.0


# q just above 1: the conjugate exponent p = q/(q-1) runs from about 4.5e15
# down to 386, and 6^(p+1) in kernel_moment(p) leaves the float range above
# p of about 391 (q below about 1.00256)
Q_NEAR_ONE = (1.0000000000000002, 1.001, 1.0025, 1.00254, 1.0026)


def _mp_hoelder_bounds(inputs):
    """T32, T33 and T34 of ``inputs`` in 50-digit arithmetic, from the same
    formulas; T32 and T33 are None at q = 1, where p is undefined."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        q = mpmath.mpf(inputs.q)
        aq, bq = mpmath.mpf(inputs.deriv_a) ** q, mpmath.mpf(inputs.deriv_b) ** q
        t34 = inputs.length * (mpmath.mpf(5) / 72) ** (1 - 1 / q) * (
            ((61 * aq + 29 * bq) / 1296) ** (1 / q) + ((29 * aq + 61 * bq) / 1296) ** (1 / q))
        if q == 1:
            return None, None, float(t34)
        p = q / (q - 1)
        moment = (1 + 2 ** (p + 1)) / (6 ** (p + 1) * (p + 1))
        t32 = inputs.length * moment ** (1 / p) * (((3 * aq + bq) / 8) ** (1 / q)
                                                   + ((aq + 3 * bq) / 8) ** (1 / q))
        t33 = inputs.length * (2 * moment) ** (1 / p) * ((aq + bq) / 2) ** (1 / q)
        return float(t32), float(t33), float(t34)


class TestQJustAboveOne:
    @pytest.mark.parametrize("q", Q_NEAR_ONE)
    def test_hoelder_bounds_match_fifty_digits(self, q):
        inputs = BoundInputs(1.0, math.e, 1.0, q=q)
        got = (bound_t32(inputs), bound_t33(inputs))
        assert all(math.isfinite(value) and value > 0.0 for value in got)
        for value, reference in zip(got, _mp_hoelder_bounds(inputs)):
            assert abs(value - reference) <= 1e-12 * reference

    @pytest.mark.parametrize("q", Q_NEAR_ONE)
    def test_hoelder_bounds_dominate_for_exp(self, q):
        f, iv = parse("exp(x)"), PhiInterval(0.0, 1.0)
        inputs = BoundInputs.from_function(f, iv, q=q)
        actual = abs(identity_residual(f, iv).lhs)
        assert actual <= bound_t32(inputs)
        assert actual <= bound_t33(inputs)


@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_the_moment_root_agrees_with_the_moment_where_it_is_in_range(scale):
    for p in [*map(float, range(1, 392)), 1.5, 2.5, 390.5]:
        direct = (scale * kernel_moment(p)) ** (1.0 / p)
        assert abs(bounds._moment_root(p, scale) - direct) <= 1e-15 * direct, p


# |f'(a)| and |f'(b)| log-uniform over [1e-300, 1e300], or 0
_wide_derivatives = st.one_of(st.just(0.0), st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e))
_wide_qs = st.one_of(st.sampled_from((1.0, 1.5, 2.0, 3.0, 5.0, 400.0, 1000.0, *Q_NEAR_ONE)),
                     st.floats(min_value=1.0, max_value=1.01, exclude_min=True))


@settings(max_examples=300)
@given(a=_wide_derivatives, b=_wide_derivatives, length=st.floats(1e-3, 1e3), q=_wide_qs)
def test_power_mean_bounds_keep_their_value_at_every_scale(a, b, length, q):
    inputs = BoundInputs(a, b, length, q)
    for fn, reference in zip((bound_t32, bound_t33, bound_t34), _mp_hoelder_bounds(inputs)):
        if reference is None:
            continue
        value = fn(inputs)
        assert math.isfinite(value) and (value > 0.0) == (max(a, b) > 0.0)
        assert abs(value - reference) <= 1e-14 * reference, (fn.__name__, value, reference)


class TestClassicalBound:
    def test_quartic_equality(self):
        # constant fourth derivative achieves the bound exactly
        assert classical_bound(24.0, 1.0) == 24.0 / 2880.0
        actual = abs(identity_residual(parse("x^4"), PhiInterval(0.0, 1.0)).lhs)
        assert abs(classical_bound(24.0, 1.0) - actual) < 1e-10
        assert abs(classical_bound(24.0, 1.0) - 1.0 / 120.0) < 1e-17

    def test_cubic_gives_zero(self):
        assert classical_bound(0.0, 2.0) == 0.0

    def test_exponential_dominates(self):
        bound = classical_bound(math.e, 1.0)
        assert abs(bound - math.e / 2880.0) < 1e-18
        actual = abs(identity_residual(parse("exp(x)"), PhiInterval(0.0, 1.0)).lhs)
        assert actual <= bound

    def test_validation(self):
        with pytest.raises(ValueError):
            classical_bound(-1.0, 1.0)
        with pytest.raises(ValueError):
            classical_bound(1.0, 0.0)


def failing_jets(tape, points, order):
    """Stands in for taylor_grid where a test needs estimate_m4's symbolic fallback."""
    raise ZeroDivisionError("complex division by zero")


class TestEstimateM4:
    def test_constant_fourth_derivative(self, monkeypatch):
        for samples in (2, 11, 101):
            monkeypatch.setattr(bounds, "M4_SAMPLES", samples)
            assert abs(estimate_m4(parse("x^4"), PhiInterval(0.0, 1.0)) - 24.0) < 1e-9

    def test_monotone_fourth_derivative_peaks_at_endpoint(self):
        value = estimate_m4(parse("exp(x)"), PhiInterval(0.0, 1.0))
        assert abs(value - math.e) < 1e-12

    def test_interior_peak_on_grid(self):
        value = estimate_m4(parse("sin(x)"), PhiInterval(0.0, math.pi))
        assert abs(value - 1.0) < 1e-3

    def test_rejects_rotated_segment(self):
        with pytest.raises(ValueError):
            estimate_m4(parse("x^4"), PhiInterval(0.0, 1.0, math.pi / 4))

    def test_reraises_the_error_of_its_grid(self):
        # f'''' = 6.5625 (x - 0.5)^-0.5 fails at the grid's midpoint
        with pytest.raises(EvalDomainError) as info:
            estimate_m4(parse("(x-0.5)^3.5"), PhiInterval(0.0, 1.0))
        assert str(info.value) == "zero raised to the power (-0.5+0j) in '(x - 0.5)^-0.5'"

    # f'''' = 1.7e308 x (1 + i) + 6.5625 (x - 0.9)^-0.5: its modulus leaves the
    # float range from x = 0.75 on, and the tape fails at the pole x = 0.9
    OVERFLOW_THEN_POLE = "1.7e308/120*x^5*(1+sqrt(0-1)) + (x-0.9)^3.5"

    def test_an_earlier_overflowing_modulus_comes_before_a_later_pole(self):
        with pytest.raises(EvalDomainError, match="^zero raised"):
            estimate_m4(parse("(x-0.9)^3.5"), PhiInterval(0.0, 1.0))
        assert estimate_m4(parse(self.OVERFLOW_THEN_POLE), PhiInterval(0.0, 0.7)) < math.inf
        with pytest.raises(OverflowError, match="absolute value too large"):
            estimate_m4(parse(self.OVERFLOW_THEN_POLE), PhiInterval(0.0, 1.0))

    # a grid that fails at its third point; the modulus of 1.5e308*(1 + i)
    # overflows at the second, before it
    FAILING_GRIDS = [
        ([1.0 + 0j, complex(1.5e308, 1.5e308)], OverflowError, "absolute value too large"),
        ([1.0 + 0j, 2.0 + 0j], EvalDomainError, "^division by zero"),
    ]

    @staticmethod
    def fail_the_grid(monkeypatch, values):
        pole = EvalDomainError("division by zero", parse("1/x"))
        monkeypatch.setattr(convexity, "evaluate_grid", lambda tape, zs: (values, pole))

    @pytest.mark.parametrize("values, error, message", FAILING_GRIDS)
    def test_the_sampler_raises_the_first_failure_of_a_point_by_point_pass(
            self, monkeypatch, values, error, message):
        # path_moduli samples the certificate's |f'| and, where the jets fail, |f''''|
        self.fail_the_grid(monkeypatch, values)
        with pytest.raises(error, match=message):
            certify_phi_convexity(parse("x"), PhiInterval(0.0, 1.0), [1.0])

    @pytest.mark.parametrize("values, error, message", FAILING_GRIDS)
    def test_the_fallback_raises_the_first_failure_of_a_point_by_point_pass(
            self, monkeypatch, values, error, message):
        monkeypatch.setattr(bounds, "taylor_grid", failing_jets)
        self.fail_the_grid(monkeypatch, values)
        with pytest.raises(error, match=message):
            estimate_m4(parse("x"), PhiInterval(0.0, 1.0))

    def test_a_constant_whose_symbolic_derivative_fails_adds_nothing(self):
        # log's rule would divide by 1e-200*1e-200, which underflows to 0; the
        # constant's jet is a constant, and its symbolic derivative is 0 without
        # the rule
        assert estimate_m4(parse("x^4 + exp(log(1e-200))"), PhiInterval(0.0, 1.0)) == 24.0


_magnitudes = st.floats(min_value=0.0, max_value=50.0)
_lengths = st.floats(min_value=0.01, max_value=10.0)
_qs = st.sampled_from((1.0, 1.5, 2.0, 3.0, 5.0))


def _applicable_bounds(q):
    if q > 1.0:
        return (bound_t31, bound_t32, bound_t33, bound_t34)
    return (bound_t31, bound_t34)


@given(a=_magnitudes, b=_magnitudes, length=_lengths, q=_qs,
       bump=st.floats(min_value=0.01, max_value=5.0))
def test_bounds_nondecreasing_in_each_argument(a, b, length, q, bump):
    base = BoundInputs(a, b, length, q)
    for fn in _applicable_bounds(q):
        reference = fn(base)
        assert fn(BoundInputs(a + bump, b, length, q)) >= reference - 1e-12
        assert fn(BoundInputs(a, b + bump, length, q)) >= reference - 1e-12
        assert fn(BoundInputs(a, b, length + bump, q)) >= reference - 1e-12


@given(a=_magnitudes, b=_magnitudes, length=_lengths, q=_qs,
       c=st.floats(min_value=0.01, max_value=100.0))
def test_bounds_scale_linearly_in_derivative_magnitudes(a, b, length, q, c):
    base = BoundInputs(a, b, length, q)
    scaled = BoundInputs(c * a, c * b, length, q)
    for fn in _applicable_bounds(q):
        expected = c * fn(base)
        assert abs(fn(scaled) - expected) <= 1e-12 * max(1.0, abs(expected))


class TestBoundReport:
    def test_slack_and_dominance(self):
        report = make_bound_report("T31", 1.0, 2.0, 0.5, "verified")
        assert report.slack == 1.5
        assert report.dominant

    def test_tiny_negative_slack_is_still_dominant(self):
        report = make_bound_report("CLASSICAL", None, 1.0, 1.0 + 1e-13, "skipped")
        assert report.dominant

    def test_real_violation_is_flagged(self):
        report = make_bound_report("T34", 2.0, 1.0, 1.5, "verified")
        assert not report.dominant
        assert report.slack == -0.5
