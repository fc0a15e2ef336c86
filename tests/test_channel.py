"""Tests for channel gains, response vectors, and correlation coefficients."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlmimo.channel import (
    ResponseVector,
    UpwConfig,
    _dirichlet,
    _upw_gram,
    _upw_power,
    correlation,
    pnusw_gain,
    response,
    upw_correlation_closed,
)
from xlmimo.beamforming import evaluate_scenario, response_matrix
from xlmimo.numerics import gram, vector_power
from xlmimo.errors import DegenerateChannelError, DegenerateGeometryError, DimensionMismatchError
from xlmimo.geometry import (
    ArrayGeometry,
    NearArrayWarning,
    UserLocation,
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


def flat_indices(geom):
    """(m_y, m_z) of every element in flat order: m_z outermost, m_y innermost."""
    return [(m_y, m_z) for m_z in geom.indices_z() for m_y in geom.indices_y()]


def geometric_gain_oracle(geom, loc, m_y, m_z):
    """First-principles form: area * (q - w) . x_hat / (4 pi |q - w|^3)."""
    q = user_position(loc).as_array()
    w = element_position(geom, m_y, m_z).as_array()
    diff = q - w
    dist = np.linalg.norm(diff)
    return geom.element_area * diff[0] / (4.0 * math.pi * dist**3)


class TestUpwConfig:
    def test_rejects_bad_beta0(self):
        with pytest.raises(ValueError):
            UpwConfig(beta0=0.0)
        with pytest.raises(ValueError):
            UpwConfig(beta0=-1.0)

    def test_matched_default_ties_models_at_the_center(self):
        geom = make_geom()
        cfg = UpwConfig.matched_to(geom)
        assert cfg.beta0 == pytest.approx(AREA / (4.0 * math.pi), rel=1e-15)
        loc = UserLocation(25.0, math.pi / 2, 0.0)
        center_gain = pnusw_gain(geom, loc, 0, 0)
        assert cfg.beta0 / loc.r**2 == pytest.approx(center_gain, rel=1e-12)


class TestResponseVectorType:
    def test_rejects_wrong_length(self):
        with pytest.raises(DimensionMismatchError):
            ResponseVector(entries=np.ones(3, dtype=complex), model="upw", geom=make_geom())

    def test_rejects_unknown_model(self):
        geom = make_geom(num_y=1, num_z=1)
        with pytest.raises(ValueError):
            ResponseVector(entries=np.ones(1, dtype=complex), model="fsw", geom=geom)

    def test_vector_keeps_its_geometry(self):
        geom = make_geom()
        a = response(geom, UserLocation(30.0, 1.0, 0.5), "pnusw")
        assert a.geom == geom
        assert len(a) == geom.num_elements


class TestPnuswGain:
    def test_center_element_boresight(self):
        loc = UserLocation(25.0, math.pi / 2, 0.0)
        expected = AREA / (4.0 * math.pi * 25.0**2)
        assert pnusw_gain(make_geom(), loc, 0, 0) == pytest.approx(expected, rel=1e-12)

    def test_user_in_array_plane_has_no_projected_aperture(self):
        loc = UserLocation(25.0, math.pi / 2, math.pi / 2)
        assert pnusw_gain(make_geom(), loc, 0, 0) == pytest.approx(0.0, abs=1e-20)

    def test_user_on_z_axis_gain_is_exactly_zero(self):
        loc = UserLocation(25.0, 0.0, 0.0)
        assert pnusw_gain(make_geom(), loc, 0, 0) == 0.0

    def test_far_edge_element_matches_geometric_oracle(self):
        lam = 0.1257
        geom = make_geom(num_y=201, num_z=1, spacing=lam / 2, area=lam**2 / (4 * math.pi), wavelength=lam)
        loc = UserLocation(25.0, math.pi / 2, 0.0)
        got = pnusw_gain(geom, loc, 100, 0)
        assert got == pytest.approx(geometric_gain_oracle(geom, loc, 100, 0), rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        r=st.floats(min_value=15.0, max_value=400.0),
        theta=st.floats(min_value=0.1, max_value=math.pi - 0.1),
        phi=st.floats(min_value=-1.4, max_value=1.4),
        m_y=st.integers(min_value=-5, max_value=5),
        m_z=st.integers(min_value=-5, max_value=5),
    )
    def test_algebraic_form_equals_geometric_form(self, r, theta, phi, m_y, m_z):
        geom = make_geom()
        loc = UserLocation(r, theta, phi)
        got = pnusw_gain(geom, loc, m_y, m_z)
        assert got == pytest.approx(geometric_gain_oracle(geom, loc, m_y, m_z), rel=1e-12)


class TestPnuswResponse:
    def test_single_element_entry(self):
        geom = make_geom(num_y=1, num_z=1)
        loc = UserLocation(25.0, math.pi / 2, 0.0)
        a = response(geom, loc, "pnusw")
        expected = math.sqrt(AREA / (4 * math.pi * 25.0**2)) * cmath.exp(
            -2j * math.pi * 25.0 / LAM
        )
        assert a.entries[0] == pytest.approx(expected, rel=1e-12)

    def test_entry_magnitudes_are_gains(self):
        geom = make_geom(num_y=4, num_z=3)
        loc = UserLocation(40.0, 1.2, -0.4)
        a = response(geom, loc, "pnusw")
        gains = [pnusw_gain(geom, loc, y, z) for y, z in flat_indices(geom)]
        assert np.abs(a.entries) ** 2 == pytest.approx(gains, rel=1e-12)

    def test_power_matches_double_loop_oracle(self):
        geom = make_geom(num_y=10, num_z=10)
        loc = UserLocation(25.0, math.pi / 2, 0.0)
        oracle = 0.0
        for m_z in geom.indices_z():
            for m_y in geom.indices_y():
                oracle += pnusw_gain(geom, loc, m_y, m_z)
        assert response(geom, loc, "pnusw").power() == pytest.approx(oracle, rel=1e-12)

    def test_power_positive_off_plane(self):
        geom = make_geom()
        assert response(geom, UserLocation(60.0, 1.0, 1.0), "pnusw").power() > 0.0


def random_users(rng, count):
    return [
        UserLocation(rng.uniform(15.0, 300.0), rng.uniform(0.05, 3.09), rng.uniform(-1.5, 1.5))
        for _ in range(count)
    ]


class TestResponseMatrix:
    """The one vectorized builder behind every response, against per-element oracles."""

    SHAPES = [(1, 1), (7, 13), (8, 12), (10, 1001)]

    @pytest.mark.parametrize("num_y, num_z", SHAPES)
    def test_pnusw_entries_match_scalar_gain_and_distance(self, num_y, num_z):
        geom = make_geom(num_y=num_y, num_z=num_z)
        users = random_users(np.random.default_rng(num_y * num_z), 3)
        a = response_matrix(geom, users, "pnusw")
        for k, loc in enumerate(users):
            oracle = np.array([
                math.sqrt(pnusw_gain(geom, loc, y, z))
                * cmath.exp(-2j * math.pi * element_distance(geom, loc, y, z) / LAM)
                for y, z in flat_indices(geom)
            ])
            assert np.max(np.abs(a[:, k] - oracle) / np.abs(oracle)) <= 1e-10

    @pytest.mark.parametrize("num_y, num_z", SHAPES)
    def test_upw_entries_match_direct_ramp(self, num_y, num_z):
        geom = make_geom(num_y=num_y, num_z=num_z)
        cfg = UpwConfig(beta0=2.5e-4)
        users = random_users(np.random.default_rng(num_y + num_z), 3)
        a = response_matrix(geom, users, "upw", cfg)
        my, mz = np.array(flat_indices(geom)).T
        for k, loc in enumerate(users):
            ramp = 2.0 * math.pi * D / LAM * (my * loc.u_y + mz * loc.u_z)
            common = math.sqrt(cfg.beta0) / loc.r * cmath.exp(-2j * math.pi * loc.r / LAM)
            oracle = common * np.exp(1j * ramp)
            assert np.max(np.abs(a[:, k] - oracle) / np.abs(oracle)) <= 1e-10

    @pytest.mark.parametrize("model", ["pnusw", "upw"])
    def test_columns_equal_single_user_builds_bitwise(self, model):
        geom = make_geom(num_y=7, num_z=13)
        users = random_users(np.random.default_rng(80), 80)
        a = response_matrix(geom, users, model)
        for k, loc in enumerate(users):
            assert a[:, k].tobytes() == response_matrix(geom, [loc], model).tobytes()
            assert a[:, k].tobytes() == response(geom, loc, model, UpwConfig.matched_to(geom)).entries.tobytes()

    @pytest.mark.filterwarnings("ignore::xlmimo.geometry.NearArrayWarning")
    def test_any_user_on_an_element_is_degenerate(self):
        geom = make_geom()
        on_element = UserLocation(geom.spacing, math.pi / 2, math.pi / 2)
        users = [UserLocation(30.0, 1.0, 0.2), on_element, UserLocation(60.0, 1.2, -0.3)]
        with pytest.raises(DegenerateGeometryError, match="coincident"):
            response_matrix(geom, users, "pnusw")

    def test_any_user_near_the_array_warns(self):
        geom = make_geom()
        users = [UserLocation(30.0, 1.0, 0.2), UserLocation(5 * geom.spacing, math.pi / 2, 0.0)]
        with pytest.warns(NearArrayWarning):
            response_matrix(geom, users, "pnusw")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_entries_are_rejected(self):
        geom = make_geom(num_y=2, num_z=2)
        cfg = UpwConfig(beta0=1e300)
        users = [UserLocation(30.0, 1.0, 0.2), UserLocation(1e-300, 1.0, 0.2)]
        with pytest.raises(ValueError, match="finite"):
            response_matrix(geom, users, "upw", cfg)
        with pytest.raises(ValueError, match="finite"):
            response(geom, users[1], "upw", cfg)

    def test_unknown_model_is_rejected(self):
        with pytest.raises(ValueError, match="unknown channel model"):
            response_matrix(make_geom(), [UserLocation(30.0, 1.0, 0.2)], "fsw")


class TestUpwResponse:
    def test_boresight_entries_are_identical(self):
        geom = make_geom(num_y=3, num_z=3)
        cfg = UpwConfig.matched_to(geom)
        loc = UserLocation(25.0, math.pi / 2, 0.0)
        a = response(geom, loc, "upw", cfg)
        expected = (math.sqrt(cfg.beta0) / 25.0) * cmath.exp(-2j * math.pi * 25.0 / LAM)
        assert a.entries == pytest.approx(np.full(9, expected), rel=1e-12)

    def test_power_is_count_times_reference(self):
        geom = make_geom(num_y=6, num_z=7)
        cfg = UpwConfig(beta0=2.5e-4)
        loc = UserLocation(80.0, 1.0, 0.7)
        assert response(geom, loc, "upw", cfg).power() == pytest.approx(
            geom.num_elements * cfg.beta0 / loc.r**2, rel=1e-12
        )

    def test_half_wavelength_phase_ramp(self):
        # d = lambda/2 and u_y = 1: neighbor phases step by pi
        geom = make_geom(num_y=3, num_z=1)
        cfg = UpwConfig.matched_to(geom)
        loc = UserLocation(30.0, math.pi / 2, math.pi / 2)
        a = response(geom, loc, "upw", cfg).entries
        assert a[0] / a[1] == pytest.approx(-1.0, rel=1e-12)
        assert a[2] / a[1] == pytest.approx(-1.0, rel=1e-12)


class TestChannelPower:
    def test_single_entry(self):
        geom = make_geom(num_y=1, num_z=1)
        a = ResponseVector(entries=np.array([3.0 - 4.0j]), model="upw", geom=geom)
        assert a.power() == pytest.approx(25.0, rel=1e-15)

    def test_accepts_plain_arrays(self):
        assert vector_power(np.array([1.0, 1.0j])) == pytest.approx(2.0)

    def test_grows_with_array_and_respects_aperture_bound(self):
        loc = UserLocation(50.0, math.pi / 2, 0.0)
        small = response(make_geom(num_y=101, num_z=101), loc, "pnusw").power()
        large = response(make_geom(num_y=201, num_z=201), loc, "pnusw").power()
        xi = make_geom().occupation_ratio
        assert large > small
        assert large < xi / 2.0


class TestCorrelation:
    def test_collinear_vectors(self):
        geom = make_geom(num_y=4, num_z=3)
        a = response(geom, UserLocation(30.0, 1.3, 0.2), "pnusw")
        b = ResponseVector(entries=(0.5 - 2.0j) * a.entries, model=a.model, geom=geom)
        assert correlation(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_powers_whose_product_leaves_the_float_range_are_rejected(self):
        geom = make_geom(num_y=2, num_z=2)
        a = ResponseVector(entries=np.full(4, 1e100 + 0j), model="upw", geom=geom)
        b = ResponseVector(entries=np.full(4, 1e-100 + 0j), model="upw", geom=geom)
        assert correlation(a, b) == pytest.approx(1.0, rel=1e-12)
        for big_or_small in (a, b):
            with pytest.raises(DegenerateChannelError, match="out of range"):
                correlation(big_or_small, big_or_small)

    def test_orthogonal_vectors(self):
        geom = make_geom(num_y=2, num_z=1)
        a = ResponseVector(entries=np.array([1.0, 0.0j]), model="upw", geom=geom)
        b = ResponseVector(entries=np.array([0.0j, 1.0]), model="upw", geom=geom)
        assert correlation(a, b) == 0.0

    def test_same_direction_users_decorrelate_as_array_grows(self):
        u1 = UserLocation(25.0, math.pi / 2, 0.0)
        u2 = UserLocation(250.0, math.pi / 2, 0.0)
        small = make_geom(num_y=10, num_z=11)
        large = make_geom(num_y=10, num_z=1001)
        rho_small = correlation(response(small, u1, "pnusw"), response(small, u2, "pnusw"))
        rho_large = correlation(response(large, u1, "pnusw"), response(large, u2, "pnusw"))
        assert rho_large < rho_small

    def test_mismatched_geometries_rejected(self):
        a = response(make_geom(num_y=3, num_z=3), UserLocation(30.0, 1.0, 0.0), "pnusw")
        b = response(make_geom(num_y=9, num_z=1), UserLocation(30.0, 1.0, 0.0), "pnusw")
        with pytest.raises(DimensionMismatchError):
            correlation(a, b)

    def test_zero_power_channel_rejected(self):
        geom = make_geom(num_y=3, num_z=3)
        on_axis = response(geom, UserLocation(30.0, 0.0, 0.0), "pnusw")
        other = response(geom, UserLocation(30.0, 1.0, 0.0), "pnusw")
        with pytest.raises(DegenerateChannelError):
            correlation(on_axis, other)

    def test_common_phase_leaves_correlation_unchanged(self):
        geom = make_geom(num_y=5, num_z=4)
        a = response(geom, UserLocation(30.0, 1.2, 0.3), "pnusw")
        b = response(geom, UserLocation(90.0, 1.4, 0.1), "pnusw")
        rho = correlation(a, b)
        twist = cmath.exp(0.7j)
        a2 = ResponseVector(entries=twist * a.entries, model=a.model, geom=geom)
        b2 = ResponseVector(entries=twist * b.entries, model=b.model, geom=geom)
        assert correlation(a2, b2) == pytest.approx(rho, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        r1=st.floats(min_value=15.0, max_value=300.0),
        r2=st.floats(min_value=15.0, max_value=300.0),
        t1=st.floats(min_value=0.2, max_value=math.pi - 0.2),
        t2=st.floats(min_value=0.2, max_value=math.pi - 0.2),
        p1=st.floats(min_value=-1.4, max_value=1.4),
        p2=st.floats(min_value=-1.4, max_value=1.4),
    )
    def test_cauchy_schwarz_bounds(self, r1, r2, t1, t2, p1, p2):
        geom = make_geom(num_y=6, num_z=5)
        a = response(geom, UserLocation(r1, t1, p1), "pnusw")
        b = response(geom, UserLocation(r2, t2, p2), "pnusw")
        rho = correlation(a, b)
        assert 0.0 <= rho <= 1.0
        assert correlation(a, a) == pytest.approx(1.0, abs=1e-9)


class TestUpwPowerClosed:
    @pytest.mark.parametrize("num_y, num_z", [(10, 11), (20, 20), (9, 7), (200, 200)])
    def test_matches_the_built_response(self, num_y, num_z):
        geom = make_geom(num_y=num_y, num_z=num_z)
        for cfg in (None, UpwConfig(beta0=2.5e-4)):
            for loc in (UserLocation(80.0, 1.0, 0.7), UserLocation(94.3, math.pi / 2, -0.56)):
                built = response_matrix(geom, [loc], "upw", cfg)[:, 0]
                assert _upw_power(geom, loc, cfg) == pytest.approx(vector_power(built), rel=1e-12)

    @pytest.mark.parametrize("r", [1e200, 1e-200])
    def test_zero_or_infinite_power_is_degenerate(self, r):
        with pytest.raises(DegenerateChannelError, match="zero or non-finite"):
            _upw_power(make_geom(), UserLocation(r, math.pi / 2, 0.0))


def mp_upw_gram(geom, users, beta0):
    """Plane-wave A^H A as 50-digit sums over every element, from the float user coordinates."""
    with mpmath.workdps(50):
        k = 2 * mpmath.pi / mpmath.mpf(geom.wavelength)
        d = mpmath.mpf(geom.spacing)
        cols = [
            [
                mpmath.sqrt(mpmath.mpf(beta0)) / mpmath.mpf(loc.r)
                * mpmath.expj(k * (d * (mpmath.mpf(loc.u_y) * mpmath.mpf(m_y)
                                        + mpmath.mpf(loc.u_z) * mpmath.mpf(m_z))
                                   - mpmath.mpf(loc.r)))
                for m_y, m_z in flat_indices(geom)
            ]
            for loc in users
        ]
        return np.array([
            [complex(mpmath.fsum(mpmath.conj(x) * y for x, y in zip(col_k, col_i)))
             for col_i in cols]
            for col_k in cols
        ])


class TestUpwGram:
    """The closed-form plane-wave Gram against built responses and mpmath sums."""

    def assert_close(self, got, want, rel=1e-13):
        scale = np.sqrt(np.outer(want.diagonal().real, want.diagonal().real))
        assert np.all(np.abs(got - want) <= rel * scale)

    @pytest.mark.parametrize(
        "num_y, num_z", [(7, 9), (8, 10), (4, 15)], ids=["odd", "even", "rect"]
    )
    def test_matches_built_responses_and_mpmath(self, num_y, num_z):
        geom = make_geom(num_y=num_y, num_z=num_z)
        rng = np.random.default_rng(num_y * num_z)
        angles = [(rng.uniform(0.3, 2.8), rng.uniform(-1.4, 1.4)) for _ in range(3)]
        # The build's own phase 2 pi r / lambda rounds to ~1e-12 rad at r / lambda ~ 800,
        # so it is compared on users a few meters out; mpmath also takes distant ones.
        near = [UserLocation(rng.uniform(2.0, 6.0), t, p) for t, p in angles]
        far = [UserLocation(rng.uniform(50.0, 170.0), t, p) for t, p in angles]
        for cfg in (None, UpwConfig(beta0=2.5e-4)):
            beta0 = (cfg or UpwConfig.matched_to(geom)).beta0
            for users in (near, far):
                g = _upw_gram(geom, users, cfg)
                assert np.array_equal(g, g.conj().T)
                self.assert_close(g, mp_upw_gram(geom, users, beta0))
            built = gram(response_matrix(geom, near, "upw", cfg))
            self.assert_close(_upw_gram(geom, near, cfg), built)

    @pytest.mark.parametrize("num_y", [8, 7])
    def test_grating_lobes_keep_the_kernel_sign(self, num_y):
        # d = lambda and u_y = +-1/2 put (d / lambda) delta u_y at an integer, where
        # D_N = N (-1)^(N - 1): negative for an even count
        geom = make_geom(num_y=num_y, num_z=3, spacing=LAM)
        phi = math.asin(0.5)
        users = [UserLocation(3.0, math.pi / 2, phi), UserLocation(4.5, math.pi / 2, -phi)]
        assert _dirichlet(num_y, -1.0) == (-num_y if num_y % 2 == 0 else num_y)
        g = _upw_gram(geom, users)
        self.assert_close(g, mp_upw_gram(geom, users, UpwConfig.matched_to(geom).beta0))
        self.assert_close(g, gram(response_matrix(geom, users, "upw")))
        # a full grating lobe makes the two channels collinear, so ZF is infeasible
        res = evaluate_scenario(None, np.full(2, 1e5), g=g)
        assert np.array_equal(res["zf"], np.zeros(2))

    def test_users_sharing_a_direction_give_a_rank_one_gram(self):
        geom = make_geom(num_y=10, num_z=11)
        users = [UserLocation(r, 1.1, 0.4) for r in (2.0, 3.7, 5.5)]
        g = _upw_gram(geom, users)
        self.assert_close(g, gram(response_matrix(geom, users, "upw")))
        beta0 = UpwConfig.matched_to(geom).beta0
        self.assert_close(g, mp_upw_gram(geom, users, beta0))
        # fully correlated users far out: their relative phase must not lose the
        # ~1e-13 of a cycle that r / lambda ~ 1000 rounds away
        far = [UserLocation(r, 1.1, 0.4) for r in (60.0, 117.3, 171.9)]
        self.assert_close(_upw_gram(geom, far), mp_upw_gram(geom, far, beta0))
        res = evaluate_scenario(None, np.full(3, 1e5), g=g)
        assert np.array_equal(res["zf"], np.zeros(3))
        assert np.all(res["mmse"] > 0.0)


    def test_stack_of_geometries_equals_one_geometry_calls_bitwise(self):
        # an M-sweep's Grams in one broadcast: mixed parities and shapes, grating
        # lobes (d = lambda) and users sharing a direction among them
        rng = np.random.default_rng(24)
        users = [UserLocation(rng.uniform(2.0, 170.0), rng.uniform(0.3, 2.8),
                              rng.uniform(-1.4, 1.4)) for _ in range(4)]
        users.append(UserLocation(40.0, users[0].theta, users[0].phi))
        for spacing in (D, LAM):
            geoms = [make_geom(ny, nz, spacing=spacing)
                     for ny, nz in ((10, 11), (10, 101), (7, 8), (1, 1), (200, 200))]
            for cfg in (None, UpwConfig(beta0=2.5e-4)):
                stack = _upw_gram(geoms, users, cfg)
                assert stack.shape == (len(geoms), 5, 5)
                for geom, got in zip(geoms, stack):
                    assert got.tobytes() == _upw_gram(geom, users, cfg).tobytes()

    def test_stack_needs_one_spacing_and_wavelength(self):
        users = [UserLocation(30.0, 1.0, 0.2), UserLocation(40.0, 1.2, 0.1)]
        others = (make_geom(spacing=LAM), make_geom(wavelength=2 * LAM), make_geom(area=AREA / 2))
        for other in others:
            with pytest.raises(ValueError, match="share"):
                _upw_gram([make_geom(), other], users)

    @pytest.mark.parametrize("r", [1e200, 1e-200])
    def test_stack_with_a_zero_or_infinite_power_is_degenerate(self, r):
        users = [UserLocation(30.0, 1.0, 0.2), UserLocation(r, 1.2, 0.1)]
        with pytest.raises(DegenerateChannelError, match="zero or non-finite"):
            _upw_gram([make_geom(), make_geom(num_z=31)], users)

class TestUpwCorrelationClosed:
    def test_same_direction_is_one(self):
        geom = make_geom(num_y=10, num_z=21)
        u1 = UserLocation(25.0, math.pi / 2, 0.0)
        u2 = UserLocation(250.0, math.pi / 2, 0.0)
        assert upw_correlation_closed(geom, u1, u2) == 1.0

    def test_dirichlet_null(self):
        # d/lambda = 1/2 and delta u_y = 2/num_y puts the first factor at sin(pi)
        num_y = 5
        geom = make_geom(num_y=num_y, num_z=3)
        u1 = UserLocation(30.0, math.pi / 2, math.asin(1.0 / num_y))
        u2 = UserLocation(30.0, math.pi / 2, -math.asin(1.0 / num_y))
        assert upw_correlation_closed(geom, u1, u2) == pytest.approx(0.0, abs=1e-20)

    def test_matches_direct_computation(self):
        geom = make_geom(num_y=7, num_z=7)
        cfg = UpwConfig.matched_to(geom)
        rng = np.random.default_rng(42)
        for _ in range(50):
            u1 = UserLocation(rng.uniform(20, 200), rng.uniform(0.3, 2.8), rng.uniform(-1.4, 1.4))
            u2 = UserLocation(rng.uniform(20, 200), rng.uniform(0.3, 2.8), rng.uniform(-1.4, 1.4))
            direct = correlation(response(geom, u1, "upw", cfg), response(geom, u2, "upw", cfg))
            assert upw_correlation_closed(geom, u1, u2) == pytest.approx(direct, abs=1e-9)

    def test_near_integer_arguments_match_direct(self):
        geom = make_geom(num_y=9, num_z=4)
        cfg = UpwConfig.matched_to(geom)
        u1 = UserLocation(40.0, math.pi / 2, math.pi / 2)  # u_y = 1
        for delta in (0.0, 1e-13, 1e-10, 3e-9, 1e-8):
            # delta u_y = 2 - delta, so (d/lambda) * delta u_y sits next to 1
            u2 = UserLocation(40.0, math.pi / 2, -math.asin(1.0 - delta))
            direct = correlation(response(geom, u1, "upw", cfg), response(geom, u2, "upw", cfg))
            closed = upw_correlation_closed(geom, u1, u2)
            assert closed == pytest.approx(direct, abs=1e-9)
