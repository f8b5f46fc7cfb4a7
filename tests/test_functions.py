import math

import numpy as np
import pytest

from ppdepth import (
    Constant,
    Exponential,
    HalfLineIndicator,
    HalfSpaceIndicator,
    Tabulated,
    exponentials,
    finite_list,
    half_lines,
    half_spaces,
)


class TestVariants:
    def test_constant(self):
        f = Constant(2.5)
        np.testing.assert_array_equal(f.evaluate([[0.0], [9.0]]), [2.5, 2.5])
        assert f.bound == 2.5

    def test_half_line_orientations(self):
        le = HalfLineIndicator(0.5, 1)
        ge = HalfLineIndicator(0.5, -1)
        x = np.array([[0.2], [0.5], [0.8]])
        np.testing.assert_array_equal(le.evaluate(x), [1.0, 1.0, 0.0])
        np.testing.assert_array_equal(ge.evaluate(x), [0.0, 1.0, 1.0])

    def test_half_line_rejects_bad_orientation(self):
        with pytest.raises(ValueError):
            HalfLineIndicator(0.0, 2)

    def test_half_space_boundary_is_closed(self):
        f = HalfSpaceIndicator([1.0, 1.0], [0.0, 1.0])
        vals = f.evaluate([[5.0, 1.0], [0.0, 1.1], [0.0, 0.0]])
        np.testing.assert_array_equal(vals, [1.0, 0.0, 1.0])

    def test_half_space_rejects_non_unit_direction(self):
        with pytest.raises(ValueError, match="unit"):
            HalfSpaceIndicator([0.0, 0.0], [1.0, 1.0])

    def test_exponential_bound_from_domain(self):
        f = Exponential(2.0, (-1.0, 3.0))
        assert f.bound == pytest.approx(math.exp(6.0))
        assert f(1.0) == pytest.approx(math.exp(2.0))

    def test_exponential_rejects_values_beyond_bound(self):
        f = Exponential(1.0, (0.0, 1.0))
        with pytest.raises(ValueError, match="bound"):
            f.evaluate([[5.0]])

    def test_tabulated_lookup_and_default(self):
        f = Tabulated({(0.0, 0.0): 2.0, (1.0, 1.0): -3.0}, default=0.5)
        np.testing.assert_array_equal(
            f.evaluate([[0.0, 0.0], [1.0, 1.0], [9.0, 9.0]]), [2.0, -3.0, 0.5]
        )
        assert f.bound == 3.0

    def test_dimension_mismatch_raises(self):
        f = HalfLineIndicator(0.0)
        with pytest.raises(ValueError, match="dimension"):
            f.evaluate([[0.0, 1.0]])


class TestClasses:
    def test_vc_dimensions(self):
        assert half_lines().vc_dim == 2
        assert half_spaces(1).vc_dim == 2
        assert half_spaces(2).vc_dim == 3
        assert half_spaces(5).vc_dim == 6
        assert exponentials(0.0, 1.0, 2.0).vc_dim == 3

    def test_exponential_class_bound(self):
        cls = exponentials(-2.0, 1.0, 1.5)
        assert cls.bound == pytest.approx(math.exp(1.5 * 2.0))

    def test_finite_list_carries_caller_vc_dim(self):
        cls = finite_list([Constant(1.0), HalfLineIndicator(0.0)], vc_dim=4)
        assert cls.vc_dim == 4
        assert cls.bound == 1.0

    def test_finite_list_rejects_empty(self):
        with pytest.raises(ValueError):
            finite_list([])


@pytest.mark.parametrize(
    "build",
    [
        lambda: Constant(math.inf),
        lambda: Constant(math.nan),
        lambda: HalfLineIndicator(math.nan),
        lambda: HalfSpaceIndicator([math.nan, 0.0], [1.0, 0.0]),
        lambda: HalfSpaceIndicator([0.0, 0.0], [math.nan, 1.0]),
        lambda: Exponential(math.nan, (0.0, 1.0)),
        lambda: Exponential(0.0, (-math.inf, 1.0)),
        lambda: exponentials(0.0, 1.0, math.nan),
        lambda: exponentials(0.0, 1.0, math.inf),
        lambda: exponentials(-math.inf, 1.0, 0.5),
    ],
    ids=["constant-inf", "constant-nan", "half-line-nan", "half-space-point-nan",
         "half-space-direction-nan", "exponential-theta-nan", "exponential-domain-inf",
         "class-radius-nan", "class-radius-inf", "class-domain-inf"],
)
def test_non_finite_parameters_refused(build):
    """A non-finite parameter would reach every value computed from the
    function or class; infinite half-line thresholds stay allowed."""
    with pytest.raises(ValueError, match="finite|NaN"):
        build()
    assert HalfLineIndicator(-math.inf)(np.array([0.0])) == 0.0
