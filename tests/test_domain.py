import cmath
import math

import pytest
from hypothesis import assume, given, strategies as st

from simpbound import KERNEL_BREAKPOINTS, PhiInterval, integrate_01, kernel


class TestPhiInterval:
    def test_flat_segment_midpoint(self):
        iv = PhiInterval(0.0, 1.0, 0.0)
        assert iv.path_point(0.5) == 0.5

    def test_quarter_turn_endpoint(self):
        iv = PhiInterval(0.0, 1.0, math.pi / 2)
        assert abs(iv.path_point(1.0) - 1j) < 1e-15

    def test_rotated_midpoint(self):
        # direct complex arithmetic: 1 + 0.5 * e^{i pi/4} * 2 = 1 + (1+i)/sqrt(2)
        iv = PhiInterval(1.0, 3.0, math.pi / 4)
        expected = 1.0 + (1.0 + 1j) / math.sqrt(2.0)
        assert abs(iv.path_point(0.5) - expected) < 1e-15

    def test_derived_points(self):
        iv = PhiInterval(-1.0, 2.0, math.pi / 6)
        assert abs(iv.chord - cmath.exp(1j * math.pi / 6) * 3.0) < 1e-15
        assert abs(iv.endpoint - (-1.0 + iv.chord)) < 1e-15
        assert abs(iv.midpoint - (-1.0 + 0.5 * iv.chord)) < 1e-15
        assert iv.length == 3.0

    def test_rejects_parameter_outside_unit_interval(self):
        iv = PhiInterval(0.0, 1.0)
        with pytest.raises(ValueError):
            iv.path_point(-0.1)
        with pytest.raises(ValueError):
            iv.path_point(1.1)

    def test_rejects_bad_endpoints(self):
        with pytest.raises(ValueError):
            PhiInterval(1.0, 1.0)
        with pytest.raises(ValueError):
            PhiInterval(2.0, 1.0)
        with pytest.raises(ValueError):
            PhiInterval(0.0, math.inf)
        with pytest.raises(ValueError, match=r"^segment length b - a must be finite, got inf$"):
            PhiInterval(-1e308, 1e308)

    def test_rejects_phi_outside_range(self):
        with pytest.raises(ValueError):
            PhiInterval(0.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            PhiInterval(0.0, 1.0, math.pi / 2 + 0.01)

    @given(
        a=st.floats(min_value=-5.0, max_value=5.0),
        width=st.floats(min_value=1e-3, max_value=10.0),
        phi=st.floats(min_value=0.0, max_value=math.pi / 2),
        t=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_rotation_preserves_distance_from_left_endpoint(self, a, width, phi, t):
        iv = PhiInterval(a, a + width, phi)
        expected = t * iv.length
        assert abs(abs(iv.path_point(t) - a) - expected) <= 1e-12 * (1.0 + expected)

    @given(
        a=st.floats(min_value=-1e300, max_value=1e300),
        b=st.floats(min_value=-1e300, max_value=1e300),
        k=st.integers(0, 100),
    )
    def test_unrotated_path_point_is_the_real_grid_point(self, a, b, k):
        # the fourth-derivative estimate samples a + t (b - a) through path_point
        assume(a < b)
        t = k / 100
        point = PhiInterval(a, b).path_point(t)
        assert (point.real, math.copysign(1.0, point.imag)) == (a + t * (b - a), 1.0)
        assert point.imag == 0.0


class TestKernel:
    def test_left_branch_start(self):
        assert kernel(0.0) == -1.0 / 6.0

    def test_jump_point_belongs_to_second_branch(self):
        assert kernel(0.5) == 0.5 - 5.0 / 6.0
        assert abs(kernel(0.5) + 1.0 / 3.0) < 1e-16

    def test_branch_roots(self):
        assert kernel(1.0 / 6.0) == 0.0
        assert kernel(5.0 / 6.0) == 0.0

    def test_rejects_outside_unit_interval(self):
        with pytest.raises(ValueError):
            kernel(-0.01)
        with pytest.raises(ValueError):
            kernel(1.01)

    @pytest.mark.parametrize("t", [0.05, 0.1, 0.2, 1.0 / 3.0, 0.47])
    def test_odd_symmetry_about_midpoint(self, t):
        assert abs(kernel(t) + kernel(1.0 - t)) < 1e-15

    def test_absolute_integral_is_5_over_36(self):
        result = integrate_01(lambda t: abs(kernel(t)), tol=1e-13,
                              breakpoints=KERNEL_BREAKPOINTS)
        assert abs(result.value.real - 5.0 / 36.0) < 1e-12
        assert result.value.imag == 0.0
