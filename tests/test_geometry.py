import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vesselfem import cli, fem3d
from vesselfem.errors import DomainError, GeometryError
from vesselfem.geometry import (
    ConstantPermeability,
    ConstantRadius,
    PiecewisePermeability,
    TanhRadius,
    VesselGeometry,
)
from vesselfem.mesh3d import DEFAULT_BOX


def vertical():
    return VesselGeometry(
        (0.0, 0.0, -0.5), (0.0, 0.0, 0.5),
        ConstantRadius(0.05), ConstantPermeability(1.0),
    )


def diagonal(radius=None, permeability=None):
    return VesselGeometry(
        (-0.4, -0.4, -0.4), (0.4, 0.4, 0.4),
        radius or ConstantRadius(0.05),
        permeability or ConstantPermeability(0.1),
    )


class TestPointAt:
    def test_endpoint(self):
        g = diagonal()
        assert np.allclose(g.point_at(0.0), (-0.4, -0.4, -0.4), atol=1e-15)

    def test_midpoint(self):
        g = diagonal()
        assert np.allclose(g.point_at(g.length / 2), (0.0, 0.0, 0.0), atol=1e-14)

    def test_affine(self):
        g = vertical()
        assert np.allclose(g.point_at(0.75), (0.0, 0.0, 0.25), atol=1e-15)

    def test_outside_raises(self):
        g = vertical()
        with pytest.raises(DomainError):
            g.point_at(-0.01)
        with pytest.raises(DomainError):
            g.point_at(g.length + 0.01)


class TestFrame:
    def test_vertical_frame(self):
        g = vertical()
        assert np.allclose(g.tangent, (0, 0, 1))
        assert np.allclose(g.e1, (1, 0, 0))
        assert np.allclose(g.e2, (0, 1, 0))

    @given(
        st.tuples(*[st.floats(-1, 1) for _ in range(3)]),
        st.tuples(*[st.floats(-1, 1) for _ in range(3)]),
    )
    def test_orthonormal(self, p0, p1):
        p0 = np.asarray(p0)
        p1 = np.asarray(p1)
        if np.linalg.norm(p1 - p0) < 1e-3:
            return
        g = VesselGeometry(p0, p1, ConstantRadius(0.01), ConstantPermeability(0.0))
        for a, b in [(g.tangent, g.e1), (g.tangent, g.e2), (g.e1, g.e2)]:
            assert abs(np.dot(a, b)) < 1e-12
        for v in (g.tangent, g.e1, g.e2):
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_degenerate_raises(self):
        with pytest.raises(GeometryError):
            VesselGeometry((0, 0, 0), (0, 0, 0), ConstantRadius(0.1), ConstantPermeability(0))

    def test_overflowing_length_raises(self):
        """A length whose squares overflow is still measured, so the vessel is
        refused as leaving the box; only endpoints whose difference overflows
        have no finite length.  Neither warns."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = VesselGeometry((1e300, 0, 0), (-1e300, 0, 0), ConstantRadius(0.1), ConstantPermeability(0))
            assert g.length == 2e300 and np.array_equal(g.tangent, (-1.0, 0.0, 0.0))
            with pytest.raises(GeometryError, match="leaves the computational box"):
                g.check_inside_box(*DEFAULT_BOX)
            with pytest.raises(GeometryError, match="not positive and finite"):
                VesselGeometry((1.7e308, 0, 0), (-1.7e308, 0, 0), ConstantRadius(0.1), ConstantPermeability(0))


class TestCirclePoints:
    def test_four_points_vertical(self):
        g = vertical()
        pts = g.circle_points(0.5, 4)
        expected = np.array([[0.05, 0, 0], [0, 0.05, 0], [-0.05, 0, 0], [0, -0.05, 0]])
        assert np.allclose(pts, expected, atol=1e-15)

    def test_odd_average_vanishes(self):
        g = vertical()
        pts = g.circle_points(0.3, 16)
        assert abs(pts[:, 0].mean()) < 1e-14

    @given(st.floats(0.05, 0.95), st.integers(4, 32))
    def test_affine_average_exact(self, frac, n):
        g = diagonal(radius=TanhRadius(0.05, 0.08, 8.0))
        s = frac * g.length
        pts = g.circle_points(s, n)
        coef = np.array([0.3, -1.2, 0.7])
        avg = (pts @ coef + 2.5).mean()  # the weights are uniform
        center = g.point_at(s) @ coef + 2.5
        assert abs(avg - center) < 1e-12

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            vertical().circle_points(0.5, 3)


class TestSectionProfiles:
    def test_constant_radius_values(self):
        g = vertical()
        assert abs(g.section_area(0.2) - np.pi * 0.05**2) < 1e-15
        assert abs(g.section_area(0.2) - 7.853981633974483e-3) < 1e-12
        assert abs(g.section_circumference(0.9) - 0.3141592653589793) < 1e-14

    def test_tanh_endpoints(self):
        g = diagonal(radius=TanhRadius(0.05, 0.08, 8.0))
        # direct evaluation of the profile formula at s = 0 and s = L/2
        expected0 = 0.05 + 0.015 * (1.0 + math.tanh(-4.0))
        assert abs(g.radius_at(0.0) - expected0) < 1e-15
        assert abs(expected0 - 0.05001006) < 5e-9
        assert abs(g.radius_at(g.length / 2) - 0.065) < 1e-15

    def test_section_bounds_sampled(self):
        g = diagonal(radius=TanhRadius(0.05, 0.08, 8.0))
        s = np.linspace(0, g.length, 10_000)
        area = g.section_area(s)
        assert np.all(area >= g.section_lower - 1e-15)
        assert np.all(np.diff(area) >= -1e-12)
        assert np.all(g.section_circumference(s) >= g.section_lower - 1e-15)

    def test_decreasing_area_rejected(self):
        with pytest.raises(GeometryError):
            diagonal(radius=TanhRadius(0.08, 0.05, 8.0))

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(GeometryError):
            diagonal(radius=ConstantRadius(0.0))


class TestPermeability:
    def test_piecewise_values(self):
        L = 0.8 * math.sqrt(3)
        perm = PiecewisePermeability((L / 3, 2 * L / 3), (0.0, 0.05, 0.1))
        g = diagonal(permeability=perm)
        assert g.gamma_at(0.1) == 0.0
        assert g.gamma_at(L / 3) == 0.05  # right-closed at breakpoints
        assert g.gamma_at(0.5 * L) == 0.05
        assert g.gamma_at(2 * L / 3) == 0.1
        assert g.gamma_at(L) == 0.1

    def test_negative_rejected(self):
        with pytest.raises(GeometryError):
            diagonal(permeability=ConstantPermeability(-0.1))

    def test_breakpoint_mismatch(self):
        with pytest.raises(GeometryError):
            PiecewisePermeability((0.3,), (0.0, 0.1, 0.2))


class TestBoxContainment:
    def test_vertical_touching_faces_ok(self):
        vertical().check_inside_box((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))

    def test_diagonal_inside(self):
        diagonal(radius=TanhRadius(0.05, 0.08, 8.0)).check_inside_box(
            (-0.5, -0.5, -0.5), (0.5, 0.5, 0.5)
        )

    def test_tube_leaving_box_rejected(self):
        g = VesselGeometry(
            (0.46, 0.0, -0.4), (0.46, 0.0, 0.4),
            ConstantRadius(0.05), ConstantPermeability(1.0),
        )
        with pytest.raises(GeometryError):
            g.check_inside_box((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))

    def test_nan_centres_rejected(self, monkeypatch):
        # every comparison with NaN is false, so NaN must fail the check, not pass it;
        # the tube is sampled at construction, so the centres are patched before it
        monkeypatch.setattr(VesselGeometry, "point_at", lambda self, s: np.full((np.size(s), 3), np.nan))
        g = vertical()
        with pytest.raises(GeometryError):
            g.check_inside_box((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))

    def test_tube_sampled_once(self, monkeypatch):
        g = diagonal(radius=TanhRadius(0.05, 0.08, 8.0))
        def refuse(*args):
            raise AssertionError("the tube was sampled again")
        monkeypatch.setattr(VesselGeometry, "point_at", refuse)
        monkeypatch.setattr(TanhRadius, "__call__", refuse)
        for _ in range(2):
            g.check_inside_box((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))


class TestNonFiniteProfiles:
    """A radius, permeability or breakpoint that is NaN or infinite, or a
    radius whose section area is not finite, is refused as a GeometryError
    when the profile or geometry is made, before any mesh."""

    @pytest.fixture(autouse=True)
    def no_mesh(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a mesh was built for a refused profile")

        monkeypatch.setattr(fem3d, "box_level", refuse)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_run_config_permeability(self, gamma):
        with pytest.raises(GeometryError, match="permeability must be nonnegative and finite"):
            cli.problem_from_config(cli.RunConfig(gamma=gamma))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_radius(self, value):
        with pytest.raises(GeometryError, match="radius profile is not strictly positive and finite"):
            diagonal(radius=ConstantRadius(value))

    @pytest.mark.parametrize("radius", [ConstantRadius(1e160), TanhRadius(0.05, 1e160, 8.0)],
                             ids=["constant", "tanh"])
    def test_radius_whose_area_overflows(self, radius):
        """A finite radius above about 1e154 has no finite section area: it is
        refused by the radius rule, with no overflow warning on the way."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match="radius profile is not strictly positive and finite"):
                diagonal(radius=radius)

    @pytest.mark.parametrize("breakpoints", [(math.nan,), (0.3, math.inf), (-math.inf, 0.3)])
    def test_breakpoints(self, breakpoints):
        with pytest.raises(GeometryError, match="increasing and finite"):
            PiecewisePermeability(breakpoints, (0.1,) * (len(breakpoints) + 1))

    @pytest.mark.parametrize("value", [-50.0, math.nan])
    def test_piecewise_value_on_a_narrow_stretch(self, value):
        """A stretch narrower than the profile samples' spacing is refused too."""
        with pytest.raises(GeometryError, match="nonnegative and finite"):
            PiecewisePermeability((0.5, 0.50001), (0.1, value, 0.1))

    def test_piecewise_value(self):
        with pytest.raises(GeometryError, match="nonnegative and finite"):
            diagonal(permeability=PiecewisePermeability((0.5,), (0.1, math.nan)))
