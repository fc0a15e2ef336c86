"""Tests for array layout, user coordinates, and element-user distances."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import element_distance, element_position, pnusw_gain, user_position
from xlmimo.beamforming import response_matrix
from xlmimo.errors import DegenerateGeometryError
from xlmimo.geometry import ArrayGeometry, NearArrayWarning, UserLocation, cartesian_to_spherical

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

# the same, kept off the array plane (u_x >= 0.003) so every entry has an amplitude
front_locations = st.builds(
    UserLocation,
    r=st.floats(min_value=15.0, max_value=500.0),
    theta=st.floats(min_value=0.05, max_value=math.pi - 0.05),
    phi=st.floats(min_value=-1.5, max_value=1.5),
)


def walked_distances(geom, loc):
    """Each element's distance to loc as the spherical-wave build has it, (num_z, num_y).

    An entry's amplitude is sqrt(scale) / s^(3/2), with s its distance over r
    and scale = xi e^2 u_x / (4 pi), e = spacing / r; so s = (sqrt(scale) / |a|)^(2/3).
    """
    amp = np.abs(response_matrix(geom, [loc], "pnusw")[:, 0]).reshape(geom.num_z, geom.num_y)
    eps = geom.spacing / loc.r
    scale = geom.occupation_ratio * eps * eps * loc.u_x / (4.0 * math.pi)
    return loc.r * (math.sqrt(scale) / amp) ** (2.0 / 3.0)


def euclidean_distances(geom, loc):
    """|q - (0, m_y d, m_z d)| for every element, (num_z, num_y)."""
    q = user_position(loc)
    return np.array([
        [np.linalg.norm(q - element_position(geom, m_y, m_z)) for m_y in geom.indices_y()]
        for m_z in geom.indices_z()
    ])


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
    """The element at index (m_y, m_z) sits at (0, m_y d, m_z d), as the builds see it."""

    def test_center_element(self):
        # an odd array's middle entry is at the origin, r from any user
        geom = make_geom()
        loc = UserLocation(25.0, 1.1, 0.3)
        assert geom.indices_y()[5] == geom.indices_z()[5] == 0.0
        assert walked_distances(geom, loc)[5, 5] == pytest.approx(25.0, rel=1e-14)

    def test_direct_scaling(self):
        geom = make_geom(spacing=0.0628)
        loc = UserLocation(25.0, 1.2, -0.4)
        element = np.array([0.0, 0.0628, -0.1256])  # (m_y, m_z) = (1, -2): row 5 - 2, column 5 + 1
        oracle = np.linalg.norm(user_position(loc) - element)
        assert walked_distances(geom, loc)[3, 6] == pytest.approx(oracle, rel=1e-12)

    def test_even_count_uses_half_integer_grid(self):
        # two elements along y sit at +-d/2: a boresight user sees both at sqrt(r^2 + d^2/4)
        geom = make_geom(num_y=2, num_z=1)
        loc = UserLocation(25.0, math.pi / 2, 0.0)
        got = walked_distances(geom, loc)[0]
        assert got == pytest.approx([math.hypot(25.0, 0.5 * D)] * 2, rel=1e-12)
        assert got == pytest.approx(euclidean_distances(geom, loc)[0], rel=1e-12)


class TestUserLocation:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            UserLocation(r=-1.0, theta=0.5, phi=0.0)
        with pytest.raises(ValueError):
            UserLocation(r=1.0, theta=3.5, phi=0.0)
        with pytest.raises(ValueError):
            UserLocation(r=1.0, theta=0.5, phi=2.0)

    def test_x_y_plane_users_have_an_exactly_zero_u_z(self):
        # theta = pi/2 (the float), given or converted from a point with z = 0
        for phi in (-math.pi / 2, -0.4, 0.0, 0.3, math.pi / 2):
            assert UserLocation(40.0, math.pi / 2, phi).u_z == 0.0
        for x, y in ((25.0, 0.0), (30.0, 40.0), (1e-3, -7.0), (250.0, 1e-9)):
            assert cartesian_to_spherical((x, y, 0.0)).u_z == 0.0

    def test_u_z_matches_an_extended_precision_cosine(self):
        # u_z = sin(pi/2 - theta) is within 2 ulp of cos(theta) measured from the
        # float pi/2, so within 2 ulp of the true cos(theta) plus the float pi/2's
        # own error (6.1e-17), which is what gives the exact zero at theta = pi/2
        rng = np.random.default_rng(11)
        thetas = np.concatenate(
            [rng.uniform(0.0, math.pi, 400), rng.uniform(1.5, 1.65, 100), [0.0, math.pi]]
        )
        with mpmath.workprec(113):
            half_pi_error = float(mpmath.pi / 2 - mpmath.mpf(math.pi / 2))
            for theta in map(float, thetas):
                u_z = UserLocation(1.0, theta, 0.0).u_z
                from_float_half_pi = float(mpmath.sin(mpmath.mpf(math.pi / 2) - theta))
                assert abs(u_z - from_float_half_pi) <= 2 * math.ulp(from_float_half_pi)
                cos = mpmath.cos(theta)
                assert float(abs(u_z - cos)) <= 2 * math.ulp(float(cos)) + half_pi_error

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
        assert pos[0] == pytest.approx(50.0 * math.sqrt(3.0) / 2.0, rel=1e-12)
        assert pos[1] == pytest.approx(25.0, rel=1e-12)
        assert pos[2] == pytest.approx(0.0, abs=1e-12)

    @given(locations)
    def test_norm_equals_range(self, loc):
        assert np.linalg.norm(user_position(loc)) == pytest.approx(loc.r, rel=1e-12)


class TestCartesianToSpherical:
    def test_boresight(self):
        loc = cartesian_to_spherical((25.0, 0.0, 0.0))
        assert (loc.r, loc.theta, loc.phi) == pytest.approx((25.0, math.pi / 2, 0.0))

    def test_polar_degenerate_gets_phi_zero(self):
        loc = cartesian_to_spherical((0.0, 0.0, 7.0))
        assert (loc.r, loc.theta, loc.phi) == (7.0, 0.0, 0.0)

    def test_three_four_five_triangle(self):
        loc = cartesian_to_spherical((30.0, 40.0, 0.0))
        assert loc.r == pytest.approx(50.0, rel=1e-12)
        assert loc.theta == pytest.approx(math.pi / 2, rel=1e-12)
        assert loc.phi == pytest.approx(math.atan2(40.0, 30.0), rel=1e-12)

    def test_rejects_back_half_space(self):
        with pytest.raises(ValueError, match="behind"):
            cartesian_to_spherical((-1.0, 0.0, 0.0))

    def test_rejects_origin(self):
        with pytest.raises(DegenerateGeometryError):
            cartesian_to_spherical((0.0, 0.0, 0.0))

    @given(
        x=st.floats(min_value=0.0, max_value=300.0),
        y=st.floats(min_value=-300.0, max_value=300.0),
        z=st.floats(min_value=-300.0, max_value=300.0),
    )
    def test_round_trip(self, x, y, z):
        p = np.array([x, y, z])
        if math.sqrt(x * x + y * y + z * z) < 1e-6:
            return
        back = user_position(cartesian_to_spherical(p))
        assert np.linalg.norm(back - p) <= 1e-12 * np.linalg.norm(p)


class TestElementDistance:
    def test_center_element_is_exactly_r(self):
        loc = UserLocation(25.0, math.pi / 2, 0.0)
        assert element_distance(make_geom(), loc, 0, 0) == 25.0

    def test_boresight_against_euclidean_oracle(self):
        g = make_geom(spacing=0.0628)
        loc = UserLocation(25.0, math.pi / 2, 0.0)
        got = element_distance(g, loc, 1, 0)
        oracle = np.linalg.norm(element_position(g, 1, 0) - user_position(loc))
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(25.0000788741, rel=1e-9)

    def test_boresight_axis_symmetry(self):
        g = make_geom()
        loc = UserLocation(25.0, math.pi / 2, 0.0)
        assert element_distance(g, loc, 0, 3) == element_distance(g, loc, 3, 0)

    def test_user_on_element_is_degenerate(self):
        # (r=d, theta=pi/2, phi=pi/2) sits exactly on element (1, 0) of an odd
        # array, and (d/2, pi/2, pi/2) on element (1/2, 0) of an even one
        for geom, r in ((make_geom(), D), (make_geom(num_y=2, num_z=1), D / 2)):
            with pytest.warns(NearArrayWarning):
                with pytest.raises(DegenerateGeometryError, match="coincident"):
                    response_matrix(geom, [UserLocation(r, math.pi / 2, math.pi / 2)], "pnusw")

    @settings(max_examples=200, deadline=None)
    @given(geom=geometries, loc=front_locations)
    def test_algebraic_equals_euclidean(self, geom, loc):
        # the build's paper-form radicand against |q - w| from Cartesian points
        got = walked_distances(geom, loc)
        assert got == pytest.approx(euclidean_distances(geom, loc), rel=1e-12)

    def test_close_range_warning(self):
        g = make_geom()
        with pytest.warns(NearArrayWarning):
            response_matrix(g, [UserLocation(5 * g.spacing, math.pi / 2, 0.0)], "pnusw")

    def test_no_warning_at_realistic_range(self, recwarn):
        response_matrix(make_geom(), [UserLocation(25.0, math.pi / 2, 0.0)], "pnusw")
        assert not [w for w in recwarn.list if w.category is NearArrayWarning]
