import math

import pytest

from simpbound import (
    BudgetExceededError,
    NonFiniteIntegrandError,
    PhiInterval,
    contour_integral,
    integrate_01,
    kernel,
    parse,
)


class TestIntegrate01:
    def test_linear(self):
        result = integrate_01(lambda t: t, tol=1e-12)
        assert abs(result.value - 0.5) < 1e-14
        assert result.evaluations == 15  # one panel suffices for a polynomial

    def test_exponential(self):
        result = integrate_01(lambda t: math.exp(t), tol=1e-12)
        assert abs(result.value - (math.e - 1.0)) < 1e-12
        assert result.error_estimate <= 1e-12

    def test_kernel_with_jump_breakpoint(self):
        # exact piecewise antiderivative: 1/24 on [0,1/2], -1/24 on [1/2,1]
        result = integrate_01(kernel, tol=1e-12, breakpoints=(0.5,))
        assert abs(result.value) < 1e-12

    def test_refinement_happens_for_hard_integrand(self):
        result = integrate_01(lambda t: math.exp(20.0 * t), tol=1e-6)
        assert result.evaluations > 15
        assert abs(result.value - (math.exp(20.0) - 1.0) / 20.0) < 1e-6

    @pytest.mark.parametrize("g,exact", [
        (lambda t: abs(t - 1.0 / 3.0) ** 2.5, ((1.0 / 3.0) ** 3.5 + (2.0 / 3.0) ** 3.5) / 3.5),
        (lambda t: math.exp(20.0 * t), (math.exp(20.0) - 1.0) / 20.0),
    ])
    def test_tightening_tolerance_never_worsens_closed_form_error(self, g, exact):
        # below a few ulps of the exact value the error is representation
        # noise, so monotonicity is only asserted down to that floor
        floor = 4.0 * math.ulp(abs(exact))
        errors = []
        for tol in (1e-3, 1e-5, 1e-7, 1e-9, 1e-11):
            value = integrate_01(g, tol=tol).value
            errors.append(abs(value - exact))
        for looser, tighter in zip(errors, errors[1:]):
            assert tighter <= looser + floor

    def test_budget_exceeded_carries_best_estimate(self):
        with pytest.raises(BudgetExceededError) as info:
            integrate_01(lambda t: abs(t - 1.0 / 3.0) ** 0.5, tol=1e-15, budget=105)
        best = info.value.best
        assert best.evaluations <= 105
        # crude estimate of int |t-1/3|^(1/2) dt = (2/3)((1/3)^1.5 + (2/3)^1.5)
        exact = (2.0 / 3.0) * ((1.0 / 3.0) ** 1.5 + (2.0 / 3.0) ** 1.5)
        assert abs(best.value - exact) < 1e-2

    def test_non_finite_integrand_reports_location(self):
        with pytest.raises(NonFiniteIntegrandError) as info:
            integrate_01(lambda t: float("inf") if t > 0.6 else 1.0)
        assert info.value.t > 0.6

    def test_rejects_bad_breakpoints(self):
        with pytest.raises(ValueError):
            integrate_01(lambda t: t, breakpoints=(0.0,))
        with pytest.raises(ValueError):
            integrate_01(lambda t: t, breakpoints=(1.0,))

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            integrate_01(lambda t: t, tol=0.0)

    def test_deterministic(self):
        first = integrate_01(lambda t: math.sin(7.0 * t) * math.exp(t), tol=1e-12)
        second = integrate_01(lambda t: math.sin(7.0 * t) * math.exp(t), tol=1e-12)
        assert first == second


class TestContourIntegral:
    def test_square_along_imaginary_axis(self):
        # antiderivative z^3/3 evaluated from 0 to i gives -i/3
        iv = PhiInterval(0.0, 1.0, math.pi / 2)
        result = contour_integral(parse("x^2"), iv, tol=1e-12)
        assert abs(result.value - (-1j / 3.0)) < 1e-11

    def test_constant_integrates_to_chord(self):
        iv = PhiInterval(-1.0, 2.0, math.pi / 6)
        result = contour_integral(parse("1"), iv, tol=1e-12)
        assert abs(result.value - iv.chord) < 1e-12

    def test_quartic_on_flat_segment(self):
        iv = PhiInterval(0.0, 1.0, 0.0)
        result = contour_integral(parse("x^4"), iv, tol=1e-12)
        assert abs(result.value - 0.2) < 1e-12

    def test_flat_segment_is_exactly_real(self):
        for text in ("x^2", "exp(x)", "sin(x)", "log(x + 2)"):
            iv = PhiInterval(-1.0, 2.0, 0.0)
            result = contour_integral(parse(text), iv, tol=1e-11)
            assert abs(result.value.imag) < 1e-12

    @pytest.mark.parametrize("alpha,beta", [(2.0, -3.0), (0.5, 1.25), (-1.5, 0.75)])
    def test_linearity(self, alpha, beta):
        iv = PhiInterval(0.0, 2.0, math.pi / 4)
        tol = 1e-11
        f = parse("exp(x)")
        g = parse("x^2")
        combined = parse(f"({alpha})*exp(x) + ({beta})*x^2")
        lhs = contour_integral(combined, iv, tol=tol).value
        rhs = (alpha * contour_integral(f, iv, tol=tol).value
               + beta * contour_integral(g, iv, tol=tol).value)
        assert abs(lhs - rhs) < 10.0 * tol

    def test_a_panel_too_narrow_to_split_stops_refinement(self):
        # the segment passes through the pole at x = i, t = 1/2; the panel
        # around it shrinks to adjacent floats long before the budget runs out
        iv = PhiInterval(0.0, 2.0, math.pi / 2)
        with pytest.raises(BudgetExceededError) as info:
            contour_integral(parse("1/(1.0+x^2)"), iv, tol=2e-11)
        best = info.value.best
        assert str(info.value).startswith("refinement stalled at floating-point resolution; ")
        assert best.evaluations == 3165
        # the stalled panel stays live and is summed: without it the estimate
        # would read 0.5674-0.4701j with an error estimate of 0.0426
        assert best.value == pytest.approx(0.663384969494936 - 1.2026954616606995j, rel=1e-9)
        assert best.error_estimate == pytest.approx(0.07880972688000684, rel=1e-9)
