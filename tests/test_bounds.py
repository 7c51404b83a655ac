import math

import pytest
from hypothesis import given, strategies as st

from simpbound import (
    BoundInputs,
    EvalDomainError,
    PhiInterval,
    bound_t31,
    bound_t32,
    bound_t33,
    bound_t34,
    classical_bound,
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


class TestEstimateM4:
    def test_constant_fourth_derivative(self):
        for samples in (2, 11, 101):
            assert abs(estimate_m4(parse("x^4"), PhiInterval(0.0, 1.0), samples) - 24.0) < 1e-9

    def test_monotone_fourth_derivative_peaks_at_endpoint(self):
        value = estimate_m4(parse("exp(x)"), PhiInterval(0.0, 1.0), 101)
        assert abs(value - math.e) < 1e-12

    def test_interior_peak_on_grid(self):
        value = estimate_m4(parse("sin(x)"), PhiInterval(0.0, math.pi), 101)
        assert abs(value - 1.0) < 1e-3

    def test_rejects_rotated_segment(self):
        with pytest.raises(ValueError):
            estimate_m4(parse("x^4"), PhiInterval(0.0, 1.0, math.pi / 4), 11)

    def test_reraises_the_error_of_its_grid(self):
        # f'''' = 6.5625 (x - 0.5)^-0.5 fails at the grid's midpoint
        with pytest.raises(EvalDomainError) as info:
            estimate_m4(parse("(x-0.5)^3.5"), PhiInterval(0.0, 1.0))
        assert str(info.value) == "zero raised to the power (-0.5+0j) in '(x - 0.5)^-0.5'"


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
