"""Tests for array layout, user coordinates, and element-user distances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlmimo.beamforming import response_matrix
from xlmimo.channel import pnusw_gain
from xlmimo.errors import DegenerateGeometryError
from xlmimo.geometry import (
    ArrayGeometry,
    NearArrayWarning,
    UserLocation,
    Vector3,
    cartesian_to_spherical,
    element_distance,
    element_position,
    user_position,
)

LAM = 0.1256
D = LAM / 2.0
AREA = LAM**2 / (4.0 * math.pi)


def make_geom(num_y=11, num_z=11, spacing=D, area=AREA, wavelength=LAM):
    return ArrayGeometry(
        num_y=num_y, num_z=num_z, spacing=spacing, element_area=area, wavelength=wavelength
    )


def _geom_from(num_y, num_z, spacing, fill):
    return make_geom(num_y=num_y, num_z=num_z, spacing=spacing, area=fill * spacing**2)


geometries = st.builds(
    _geom_from,
    num_y=st.integers(min_value=1, max_value=12),
    num_z=st.integers(min_value=1, max_value=12),
    spacing=st.floats(min_value=0.01, max_value=1.0),
    fill=st.floats(min_value=0.05, max_value=1.0),
)

# r stays above the largest array half-diagonal so no draw lands on an element
locations = st.builds(
    UserLocation,
    r=st.floats(min_value=15.0, max_value=500.0),
    theta=st.floats(min_value=0.0, max_value=math.pi),
    phi=st.floats(min_value=-math.pi / 2, max_value=math.pi / 2),
)


class TestArrayGeometry:
    def test_counts_must_be_positive_integers(self):
        with pytest.raises(ValueError):
            make_geom(num_y=0)
        with pytest.raises(ValueError):
            make_geom(num_z=-3)
        with pytest.raises(ValueError):
            ArrayGeometry(num_y=1.5, num_z=1, spacing=D, element_area=AREA, wavelength=LAM)

    def test_even_and_odd_counts_accepted(self):
        assert make_geom(num_y=10, num_z=200).num_elements == 2000
        assert make_geom(num_y=11, num_z=1001).num_elements == 11011

    def test_overlapping_elements_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            make_geom(spacing=0.9 * math.sqrt(AREA))

    def test_occupation_ratio_default_is_one_over_pi(self):
        assert make_geom().occupation_ratio == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_equality_distinguishes_geometries(self):
        g1 = make_geom(num_y=11)
        g2 = make_geom(num_y=13)
        assert g1 == make_geom(num_y=11)
        assert g1 != g2


class TestIndexGrid:
    def test_odd_count_gives_integer_indices(self):
        g = make_geom(num_y=5, num_z=1)
        assert np.array_equal(g.indices_y(), [-2.0, -1.0, 0.0, 1.0, 2.0])

    def test_even_count_gives_half_integer_indices(self):
        g = make_geom(num_y=4, num_z=1)
        assert np.array_equal(g.indices_y(), [-1.5, -0.5, 0.5, 1.5])

    def test_flat_order_is_mz_outer_my_inner(self):
        g = make_geom(num_y=3, num_z=2)
        loc = UserLocation(2.0, 1.0, 0.4)  # close enough that every element's gain differs
        gains = np.abs(response_matrix(g, [loc], "pnusw")[:, 0]) ** 2
        order = [(-1, -0.5), (0, -0.5), (1, -0.5), (-1, 0.5), (0, 0.5), (1, 0.5)]
        oracle = [pnusw_gain(g, loc, m_y, m_z) for m_y, m_z in order]
        assert gains == pytest.approx(oracle, rel=1e-12)
        assert len(set(oracle)) == len(order)


class TestElementPosition:
    def test_center_element(self):
        assert element_position(make_geom(), 0, 0) == Vector3(0.0, 0.0, 0.0)

    def test_direct_scaling(self):
        pos = element_position(make_geom(spacing=0.0628), 1, -2)
        assert pos == pytest.approx((0.0, 0.0628, -0.1256))

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            element_position(make_geom(num_y=3), 2, 0)

    def test_even_count_uses_half_integer_grid(self):
        g = make_geom(num_y=2)
        assert element_position(g, 0.5, 0).y == pytest.approx(0.5 * D)
        with pytest.raises(IndexError):
            element_position(g, 0, 0)


class TestUserLocation:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            UserLocation(r=-1.0, theta=0.5, phi=0.0)
        with pytest.raises(ValueError):
            UserLocation(r=1.0, theta=3.5, phi=0.0)
        with pytest.raises(ValueError):
            UserLocation(r=1.0, theta=0.5, phi=2.0)

    @given(locations)
    def test_direction_cosines_are_unit(self, loc):
        assert loc.u_x**2 + loc.u_y**2 + loc.u_z**2 == pytest.approx(1.0, abs=1e-12)
        assert loc.u_x >= 0.0


class TestUserPosition:
    def test_boresight(self):
        pos = user_position(UserLocation(25.0, math.pi / 2, 0.0))
        assert pos == pytest.approx((25.0, 0.0, 0.0), abs=1e-12)

    def test_along_z_axis(self):
        assert user_position(UserLocation(1.0, 0.0, 0.0)) == pytest.approx((0.0, 0.0, 1.0))

    def test_oblique_by_hand(self):
        # u_x = sin(pi/2)cos(pi/6) = sqrt(3)/2, u_y = sin(pi/6) = 1/2, u_z = 0
        pos = user_position(UserLocation(50.0, math.pi / 2, math.pi / 6))
        assert pos.x == pytest.approx(50.0 * math.sqrt(3.0) / 2.0, rel=1e-12)
        assert pos.y == pytest.approx(25.0, rel=1e-12)
        assert pos.z == pytest.approx(0.0, abs=1e-12)

    @given(locations)
    def test_norm_equals_range(self, loc):
        assert np.linalg.norm(user_position(loc).as_array()) == pytest.approx(
            loc.r, rel=1e-12
        )


class TestCartesianToSpherical:
    def test_boresight(self):
        loc = cartesian_to_spherical(Vector3(25.0, 0.0, 0.0))
        assert (loc.r, loc.theta, loc.phi) == pytest.approx((25.0, math.pi / 2, 0.0))

    def test_polar_degenerate_gets_phi_zero(self):
        loc = cartesian_to_spherical(Vector3(0.0, 0.0, 7.0))
        assert (loc.r, loc.theta, loc.phi) == (7.0, 0.0, 0.0)

    def test_three_four_five_triangle(self):
        loc = cartesian_to_spherical(Vector3(30.0, 40.0, 0.0))
        assert loc.r == pytest.approx(50.0, rel=1e-12)
        assert loc.theta == pytest.approx(math.pi / 2, rel=1e-12)
        assert loc.phi == pytest.approx(math.atan2(40.0, 30.0), rel=1e-12)

    def test_rejects_back_half_space(self):
        with pytest.raises(ValueError, match="behind"):
            cartesian_to_spherical(Vector3(-1.0, 0.0, 0.0))

    def test_rejects_origin(self):
        with pytest.raises(DegenerateGeometryError):
            cartesian_to_spherical(Vector3(0.0, 0.0, 0.0))

    @given(
        x=st.floats(min_value=0.0, max_value=300.0),
        y=st.floats(min_value=-300.0, max_value=300.0),
        z=st.floats(min_value=-300.0, max_value=300.0),
    )
    def test_round_trip(self, x, y, z):
        p = Vector3(x, y, z)
        if math.sqrt(x * x + y * y + z * z) < 1e-6:
            return
        back = user_position(cartesian_to_spherical(p))
        assert np.linalg.norm(back.as_array() - p.as_array()) <= 1e-12 * np.linalg.norm(
            p.as_array()
        )


class TestElementDistance:
    def test_center_element_is_exactly_r(self):
        loc = UserLocation(25.0, math.pi / 2, 0.0)
        assert element_distance(make_geom(), loc, 0, 0) == 25.0

    def test_boresight_against_euclidean_oracle(self):
        g = make_geom(spacing=0.0628)
        loc = UserLocation(25.0, math.pi / 2, 0.0)
        got = element_distance(g, loc, 1, 0)
        oracle = np.linalg.norm(
            element_position(g, 1, 0).as_array() - user_position(loc).as_array()
        )
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(25.0000788741, rel=1e-9)

    def test_boresight_axis_symmetry(self):
        g = make_geom()
        loc = UserLocation(25.0, math.pi / 2, 0.0)
        assert element_distance(g, loc, 0, 3) == element_distance(g, loc, 3, 0)

    @pytest.mark.filterwarnings("ignore::xlmimo.geometry.NearArrayWarning")
    def test_user_on_element_is_degenerate(self):
        # (r=d, theta=pi/2, phi=pi/2) sits exactly on element (1, 0)
        g = make_geom()
        loc = UserLocation(g.spacing, math.pi / 2, math.pi / 2)
        with pytest.raises(DegenerateGeometryError):
            element_distance(g, loc, 1, 0)

    @settings(max_examples=200, deadline=None)
    @given(
        geom=geometries,
        loc=locations,
        frac_y=st.floats(min_value=0.0, max_value=1.0),
        frac_z=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_algebraic_equals_euclidean(self, geom, loc, frac_y, frac_z):
        m_y = geom.indices_y()[int(frac_y * (geom.num_y - 1))]
        m_z = geom.indices_z()[int(frac_z * (geom.num_z - 1))]
        oracle = np.linalg.norm(
            element_position(geom, m_y, m_z).as_array() - user_position(loc).as_array()
        )
        got = element_distance(geom, loc, m_y, m_z)
        assert got == pytest.approx(oracle, rel=1e-12)

    def test_close_range_warning(self):
        g = make_geom()
        with pytest.warns(NearArrayWarning):
            element_distance(g, UserLocation(5 * g.spacing, math.pi / 2, 0.0), 0, 0)

    def test_no_warning_at_realistic_range(self, recwarn):
        element_distance(make_geom(), UserLocation(25.0, math.pi / 2, 0.0), 0, 0)
        assert not [w for w in recwarn.list if w.category is NearArrayWarning]
