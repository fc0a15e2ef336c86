"""Tests for channel gains, response vectors, and correlation coefficients."""

import cmath
import itertools
import math
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xlmimo.channel as ch
import xlmimo.cli as cli
from oracles import compensated_sum, element_distance, element_position, pnusw_gain, user_position
from xlmimo.channel import (
    UpwConfig,
    _dirichlet,
    _pair_gram,
    _response_block,
    _upw_gram,
    correlation,
)
from xlmimo.beamforming import evaluate_scenario, response_matrix
from xlmimo.experiments import sample_users, sumrate_vs_m, sweep_correlation_vs_distance
from xlmimo.numerics import cdot, gram, vector_power
from xlmimo.errors import DegenerateChannelError, DegenerateGeometryError
from xlmimo.geometry import ArrayGeometry, NearArrayWarning, UserLocation

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


def column(geom, loc, model, cfg=None):
    """One user's response vector."""
    return response_matrix(geom, (loc,), model, cfg)[:, 0]


def upw_gram(geom, users, cfg=None):
    """The closed-form plane-wave Gram of users on geom's own size."""
    return _upw_gram(geom, [(geom.num_y, geom.num_z)], users, cfg)[0]


def pair_gram(a, b):
    """2 x 2 Gram matrix of two vectors from pairwise sums."""
    inner = cdot(a, b)
    return np.array([[vector_power(a), inner], [inner.conjugate(), vector_power(b)]])


def direct_rho(a, b):
    """|a^H b|^2 / (|a|^2 |b|^2) straight from the entries."""
    return abs(cdot(a, b)) ** 2 / (vector_power(a) * vector_power(b))


def fresh_thread_peak(fn):
    """tracemalloc's peak while fn runs on a new thread, so that nothing a thread
    keeps from an earlier call stays out of it."""
    with ThreadPoolExecutor(1) as thread:
        tracemalloc.start()
        try:
            thread.submit(fn).result()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def recorded_walks(monkeypatch):
    """The boxes of every _pnusw_walk from here on, one list per walk, as walked."""
    walks, walker = [], ch._pnusw_walk

    def recording(*args, **options):
        walks.append([])
        for box, *result in walker(*args, **options):
            walks[-1].append(box)
            yield box, *result

    monkeypatch.setattr(ch, "_pnusw_walk", recording)
    return walks


def geometric_gain_oracle(geom, loc, m_y, m_z):
    """First-principles form: area * (q - w) . x_hat / (4 pi |q - w|^3)."""
    diff = user_position(loc) - element_position(geom, m_y, m_z)
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
        a = column(geom, loc, "pnusw")
        expected = math.sqrt(AREA / (4 * math.pi * 25.0**2)) * cmath.exp(
            -2j * math.pi * 25.0 / LAM
        )
        assert a[0] == pytest.approx(expected, rel=1e-12)

    def test_entry_magnitudes_are_gains(self):
        geom = make_geom(num_y=4, num_z=3)
        loc = UserLocation(40.0, 1.2, -0.4)
        a = column(geom, loc, "pnusw")
        gains = [pnusw_gain(geom, loc, y, z) for y, z in flat_indices(geom)]
        assert np.abs(a) ** 2 == pytest.approx(gains, rel=1e-12)

    def test_power_matches_double_loop_oracle(self):
        geom = make_geom(num_y=10, num_z=10)
        loc = UserLocation(25.0, math.pi / 2, 0.0)
        oracle = 0.0
        for m_z in geom.indices_z():
            for m_y in geom.indices_y():
                oracle += pnusw_gain(geom, loc, m_y, m_z)
        assert vector_power(column(geom, loc, "pnusw")) == pytest.approx(oracle, rel=1e-12)

    def test_power_positive_off_plane(self):
        geom = make_geom()
        assert vector_power(column(geom, UserLocation(60.0, 1.0, 1.0), "pnusw")) > 0.0


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
            matched = response_matrix(geom, [loc], model, UpwConfig.matched_to(geom))
            assert a[:, k].tobytes() == matched.tobytes()

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
        with pytest.raises(DegenerateChannelError, match="finite"):
            _response_block(geom, users[1:], "upw", cfg)

    def test_unknown_model_is_rejected(self):
        with pytest.raises(ValueError, match="unknown channel model"):
            response_matrix(make_geom(), [UserLocation(30.0, 1.0, 0.2)], "fsw")

    @pytest.mark.parametrize("num_y, num_z", [(7, 13), (8, 12)])
    def test_far_pnusw_entries_lose_only_the_rounding_of_their_cycle_count(self, num_y, num_z):
        # 10^4 and 10^6 m out, an entry's phase is 8e4 to 8e6 cycles: its computed
        # cycle count r s / wavelength is off by a few eps of itself, and the
        # phasor kernel may add no more than a few eps of the amplitude to that
        eps = sys.float_info.epsilon
        geom = make_geom(num_y=num_y, num_z=num_z)
        users = [UserLocation(1e4, 1.1, 0.4), UserLocation(1e6, 2.0, -0.7)]
        a = _response_block(geom, users, "pnusw")
        with mpmath.workdps(50):
            d, lam = mpmath.mpf(geom.spacing), mpmath.mpf(geom.wavelength)
            for k, loc in enumerate(users):
                r = mpmath.mpf(loc.r)
                e = d / r
                u_x, u_y, u_z = (mpmath.mpf(u) for u in (loc.u_x, loc.u_y, loc.u_z))
                scale = mpmath.mpf(geom.occupation_ratio) * e * e * u_x / (4 * mpmath.pi)
                for (i, m_z), (j, m_y) in itertools.product(
                    enumerate(geom.indices_z()), enumerate(geom.indices_y())
                ):
                    m_y, m_z = mpmath.mpf(m_y), mpmath.mpf(m_z)
                    s = mpmath.sqrt(1 - 2 * e * (m_y * u_y + m_z * u_z) + (m_y**2 + m_z**2) * e * e)
                    amp = mpmath.sqrt(scale) / s**1.5
                    cycles = r * s / lam
                    want = amp * mpmath.expj(-2 * mpmath.pi * cycles)
                    bound = (4 * eps * 2 * mpmath.pi * cycles + 4 * eps) * amp
                    assert abs(mpmath.mpc(a[k, i, j]) - want) <= bound


class TestPhasorKernel:
    """_phasors, amp e^{-2 pi j cycles} into two float planes for every
    spherical-wave entry, against mpmath."""

    EXACT = [0.25, -0.25, 2.0**40 + 0.5, 2.0**52 - 0.5, -0.0, 1e-300]
    # whole and half cycles, fractions a few ulp either side of +-1/2, and
    # non-finite counts
    EDGES = [0.5, -0.5, 1.5, -1.5, 2.0**51 + 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
             np.nextafter(-0.5, 0.0), np.nextafter(-0.5, -1.0), 1e3 + 0.5, math.inf, -math.inf,
             math.nan, 3.0, -0.0]

    @staticmethod
    def phasors(cycles, amp):
        """_phasors into two fresh planes, as a complex array; cycles is left as given."""
        re, im = np.empty((2, len(cycles)))
        with np.errstate(all="ignore"):
            ch._phasors(cycles.copy(), amp, re, im)
        return re + 1j * im

    def test_matches_mpmath_within_a_few_eps_of_the_amplitude(self):
        # c - rint(c) is exact, so the error is the kernel's alone, also at huge
        # cycle counts and at every half cycle, where the half-angle tangent is
        # about +-1.6e16; amplitudes span the float range but for the ends, where
        # amp / (1 + t^2) would leave it
        eps = sys.float_info.epsilon
        rng = np.random.default_rng(24)
        cycles = np.concatenate([
            rng.uniform(-3.0, 3.0, 300),
            rng.uniform(1e3, 1e4, 300),
            rng.uniform(1e6, 1e7, 300),
            np.arange(-8, 9) / 2.0,
            self.EXACT,
            self.EDGES[:10],
        ])
        amp = 10.0 ** rng.uniform(-250.0, 250.0, len(cycles))
        amp[::3] = 1.0
        kept = amp.copy()
        out = self.phasors(cycles, amp)
        assert amp.tobytes() == kept.tobytes()
        with mpmath.workdps(50):
            for c, a, got in zip(cycles, amp, out):
                want = mpmath.mpf(a) * mpmath.expj(-2 * mpmath.pi * mpmath.mpf(c))
                assert abs(mpmath.mpc(got) - want) <= 4 * eps * a
                assert abs(abs(mpmath.mpc(got)) - a) <= 4 * eps * a

    def test_non_finite_cycles_give_non_finite_entries_without_warnings(self):
        # as the walker calls it: under np.errstate(all="ignore"), and a
        # non-finite entry is for the caller to reject
        cycles = np.array([math.inf, -math.inf, math.nan, 0.3])
        re, im = np.empty((2, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                ch._phasors(cycles, np.full(4, 2.0), re, im)
        assert not np.isfinite(re[:3] + 1j * im[:3]).any()
        assert np.isfinite(re[3]) and np.isfinite(im[3])

    def test_contiguous_planes_and_complex_views_get_the_same_entries(self):
        # the joint walk writes two contiguous float planes, the other walks the
        # .real and .imag views of a complex buffer (stride 16 B): bitwise the
        # same entries, also at the half cycles and for non-finite cycle counts
        rng = np.random.default_rng(27)
        cycles = np.concatenate([rng.uniform(-1e6, 1e6, 4099), self.EDGES])
        amp = 10.0 ** rng.uniform(-30.0, 30.0, len(cycles))
        planes = np.empty((2, len(cycles)))
        views = np.empty(len(cycles), dtype=complex)
        with np.errstate(all="ignore"):
            ch._phasors(cycles.copy(), amp, *planes)
            ch._phasors(cycles.copy(), amp, views.real, views.imag)
        assert planes[0].tobytes() == views.real.tobytes()
        assert planes[1].tobytes() == views.imag.tobytes()
        assert not np.isfinite(planes[:, len(cycles) - 5 : len(cycles) - 2]).any()


class TestBandedPnuswBuild:
    """The spherical-wave builder walks boxes of about one band (runs of whole
    users, bands of one user's m_z rows, or slices of one row); the boxes may
    not show."""

    USERS = [UserLocation(40.0, 1.2, 0.3), UserLocation(25.0, 1.6, -0.4)]

    def test_a_block_of_several_bands_equals_one_row_builds_bitwise(self, monkeypatch):
        # 201 rows of 201 entries per user: 2 bands of 101 rows; at 4 x 10 001,
        # 2 bands of 5 001 rows; with 3 users and with 1.  Bands of 201 entries
        # hold one row at 201 x 201, and bands of 67 cut each of its rows in three
        for users in (self.USERS + [UserLocation(90.0, 0.9, 0.1)], self.USERS[:1]):
            for geom in (make_geom(num_y=201, num_z=201), make_geom(num_y=4, num_z=10_001)):
                assert len(ch._boxes(0, 1, geom.num_z, geom.num_y)) == 2
                builds = []
                for band_entries in (ch._BAND_ENTRIES, 201, 67, 2**62):  # and one box
                    monkeypatch.setattr(ch, "_BAND_ENTRIES", band_entries)
                    builds.append(_response_block(geom, users, "pnusw").tobytes())
                    monkeypatch.undo()
                assert len(set(builds)) == 1

    def test_concurrent_builds_under_thread_switching_stress(self, monkeypatch):
        # four concurrent callers, a 1 us switch interval and 40 bands per block:
        # every block is the serial one bitwise
        geom = make_geom(num_y=201, num_z=101)
        serial = _response_block(geom, self.USERS, "pnusw").tobytes()
        monkeypatch.setattr(ch, "_BAND_ENTRIES", 2**10)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            started = time.perf_counter()
            with ThreadPoolExecutor(4) as callers:
                builds = list(
                    callers.map(
                        lambda _: _response_block(geom, self.USERS, "pnusw").tobytes(), range(16)
                    )
                )
            assert time.perf_counter() - started < 60.0
        finally:
            sys.setswitchinterval(interval)
        assert builds == [serial] * 16

    @pytest.mark.filterwarnings("ignore::xlmimo.geometry.NearArrayWarning")
    def test_a_user_on_an_element_in_a_later_band_is_degenerate(self):
        # the last user sits on element (m_y, m_z) = (1, 0): t = 0 exactly, in its
        # row 50, past its first band's 26 rows
        geom = make_geom(num_y=1001, num_z=101)
        on_element = UserLocation(geom.spacing, math.pi / 2, math.pi / 2)
        assert ch._boxes(0, 1, geom.num_z, geom.num_y)[0][1] == slice(0, 26)
        with pytest.raises(DegenerateGeometryError, match="coincident"):
            _response_block(geom, self.USERS + [on_element], "pnusw")

    def test_an_overflowing_cycle_count_raises_no_numpy_warnings(self):
        # at r = 1e308 the cycle count overflows to inf, so both bands meet
        # inf - rint(inf) and tan(nan); the block is rejected as non-finite, with
        # no RuntimeWarning
        geom = make_geom(num_y=201, num_z=201)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateChannelError, match="finite"):
                _response_block(geom, [UserLocation(1e308, 1.2, 0.3)], "pnusw")

    def test_a_row_longer_than_a_band_is_built_in_slices(self):
        # one row of 2^18 entries, 8 bands: besides its output and its index vector
        # the build holds a few band-sized buffers, no row-sized temporary
        geom = make_geom(num_y=2**18, num_z=1)
        build = lambda: _response_block(geom, self.USERS[:1], "pnusw")  # noqa: E731
        build()  # imports and first-call caches stay out of the peak
        peak = fresh_thread_peak(build)
        output, indices, band = 16 * geom.num_elements, 8 * geom.num_y, 16 * ch._BAND_ENTRIES
        assert peak <= output + indices + 4 * band

    # (band entries, array): bands of 1 cut every row into single entries, and
    # bands of 2^10 cut a 41 x 39 user (1 599 entries) into bands of rows; as
    # built and at 2^62 a box holds every run of users of one fold kind
    PACKINGS = [(1, (13, 11)), (2**10, (41, 39)), (None, (41, 39)), (2**62, (41, 39))]

    @pytest.mark.parametrize("band_entries, shape", PACKINGS)
    def test_a_block_is_bitwise_its_one_user_blocks(self, monkeypatch, band_entries, shape):
        if band_entries is not None:
            monkeypatch.setattr(ch, "_BAND_ENTRIES", band_entries)
        geom = make_geom(*shape)
        users = random_users(np.random.default_rng(3), 5) + TestStreamedPairGrams.FOLDING
        alone = [_response_block(geom, [loc], "pnusw") for loc in users]
        assert _response_block(geom, users, "pnusw").tobytes() == np.concatenate(alone).tobytes()

    @pytest.mark.parametrize("band_entries, shape", PACKINGS)
    def test_a_walk_computes_each_box_on_the_calling_thread_when_it_is_taken(
        self, monkeypatch, band_entries, shape
    ):
        # the boxes come in _boxes order, each computed only when the walk is
        # advanced to it, so a walk holds one box's buffer at a time
        if band_entries is not None:
            monkeypatch.setattr(ch, "_BAND_ENTRIES", band_entries)
        geom = make_geom(*shape)
        users = random_users(np.random.default_rng(3), 5)
        taken, phasors_kernel = [], ch._phasors

        def recording(cycles, *args):  # once per box, as it is computed
            taken.append((cycles.shape, threading.get_ident()))
            phasors_kernel(cycles, *args)

        monkeypatch.setattr(ch, "_phasors", recording)
        indices = [(geom.indices_y(), geom.indices_z())] * len(users)
        walk = ch._pnusw_walk(geom, ch._coordinates(users), indices)
        boxes = ch._boxes(0, len(users), geom.num_z, geom.num_y)
        block = np.empty((len(users), geom.num_z, geom.num_y), dtype=complex)
        assert taken == []
        for i, (box, phasors, _, _) in enumerate(walk):
            assert box[:3] == boxes[i]
            shapes = [tuple(s.stop - s.start for s in b) for b in boxes[: i + 1]]
            assert taken == [(shape, threading.get_ident()) for shape in shapes]
            block[box[:3]] = phasors
        assert len(taken) == len(boxes)
        assert block.tobytes() == _response_block(geom, users, "pnusw").tobytes()


class TestStreamedPairGrams:
    """The spherical-wave pair Grams walk every user 2 in boxes (runs of whole
    cells of one fold kind, bands of one cell's rows, or slices of one row), and
    each cell sums its per-row partials in row order."""

    LOC1 = UserLocation(40.0, 1.3, 0.2)

    @staticmethod
    def fsum_gram(geom, loc1, loc2):
        """Exactly rounded G_11, G_12, G_22 of a dense two-user build."""
        a1, a2 = response_matrix(geom, [loc1, loc2], "pnusw").T
        product = np.conj(a1) * a2
        return (
            compensated_sum(a1.real**2 + a1.imag**2),
            complex(compensated_sum(product.real), compensated_sum(product.imag)),
            compensated_sum(a2.real**2 + a2.imag**2),
        )

    @staticmethod
    def radial_phase_bound(geom, loc2):
        """G_12's allowance, relative to sqrt(G_11 G_22), for an on-axis user 2.

        Its radial cell walks the radicand 1 + rho^2 e^2 at m_y = sqrt(rho^2),
        rounded otherwise than the dense build's (1 + m_z^2 e^2) + m_y^2 e^2, so
        each entry's phase 2 pi distance / wavelength may differ by a few ulps
        of 1 in its squared distance over r^2: 4 eps times the largest phase.
        """
        corner = element_distance(geom, loc2, geom.indices_y()[0], geom.indices_z()[0])
        return 4.0 * sys.float_info.epsilon * 2.0 * math.pi * corner / geom.wavelength

    # on-axis user 2s (u_y == u_z == 0.0), whose cells group their entries by radius
    ON_AXIS = [UserLocation(r, math.pi / 2, 0.0) for r in (15.0, 35.0, 120.0, 300.0)]

    @pytest.mark.parametrize("num_y, num_z", [(7, 13), (8, 12), (200, 200), (4, 10_001)])
    def test_matches_exactly_rounded_sums_of_a_dense_build(self, num_y, num_z):
        # G_12 is held to 1e-13 of sqrt(G_11 G_22), its Cauchy-Schwarz bound, since
        # a nearly orthogonal pair has a tiny G_12 that no pairwise sum fixes
        # relatively; an on-axis user 2's entries are rounded otherwise than the
        # dense build's, so its G_12 is also allowed their phase rounding
        geom = make_geom(num_y=num_y, num_z=num_z)
        others = random_users(np.random.default_rng(num_y), 4) + [self.LOC1] + self.ON_AXIS
        for loc1 in (self.LOC1, UserLocation(30.0, math.pi / 2, 0.0)):
            grams = _pair_gram(geom, loc1, ch._coordinates(others), "pnusw")
            assert grams.shape == (len(others), 2, 2)
            for g, loc2 in zip(grams, others):
                g11, g12, g22 = self.fsum_gram(geom, loc1, loc2)
                radial = loc2.u_y == 0.0 and loc2.u_z == 0.0
                bound = 1e-13 + (self.radial_phase_bound(geom, loc2) if radial else 0.0)
                assert g[0, 0] == pytest.approx(g11, rel=1e-13, abs=0.0)
                assert g[1, 1] == pytest.approx(g22, rel=1e-13, abs=0.0)
                assert abs(g[0, 1] - g12) <= bound * math.sqrt(g11 * g22)
                assert g[1, 0] == g[0, 1].conjugate()

    def test_bitwise_the_same_for_any_band_size(self, monkeypatch):
        # at the default band size a band boundary falls inside every user 2's
        # rows: 2 bands of 101 rows at 201 x 201, 2 of 5 001 rows at 4 x 10 001;
        # bands of 201 entries hold one row at 201 x 201 (a shorter band would cut
        # the rows, whose sums then round otherwise)
        others = ch._coordinates(random_users(np.random.default_rng(5), 3))
        for geom in (make_geom(num_y=201, num_z=201), make_geom(num_y=4, num_z=10_001)):
            assert len(ch._boxes(0, 1, geom.num_z, geom.num_y)) == 2
            grams = []
            for band_entries in (ch._BAND_ENTRIES, 201, 2**62):  # and one band
                monkeypatch.setattr(ch, "_BAND_ENTRIES", band_entries)
                grams.append(_pair_gram(geom, self.LOC1, others, "pnusw").tobytes())
                monkeypatch.undo()
            assert len(set(grams)) == 1

    @pytest.mark.parametrize("band_entries, shape", TestBandedPnuswBuild.PACKINGS)
    def test_a_sweep_is_bitwise_its_one_cell_sweeps(self, monkeypatch, band_entries, shape):
        # cells of every fold kind, then a run of radial ones: however the walk
        # packs cells into boxes or cuts them, each matrix is bitwise its cell's alone
        if band_entries is not None:
            monkeypatch.setattr(ch, "_BAND_ENTRIES", band_entries)
        geom = make_geom(*shape)
        users = self.FOLDING + self.ON_AXIS
        alone = [_pair_gram(geom, self.LOC1, ch._coordinates([loc]), "pnusw") for loc in users]
        grams = _pair_gram(geom, self.LOC1, ch._coordinates(users), "pnusw")
        assert grams.tobytes() == np.concatenate(alone).tobytes()

    # user 2s folded on y only (u_y == 0), z only (u_z == 0), on both and on neither
    FOLDING = [
        UserLocation(55.0, 1.1, 0.0),
        UserLocation(70.0, math.pi / 2, -0.4),
        UserLocation(35.0, math.pi / 2, 0.0),
        UserLocation(90.0, 1.2, 0.3),
        UserLocation(48.0, math.pi / 2, 0.7),
        UserLocation(120.0, 2.0, 0.0),
    ]

    @pytest.mark.parametrize("num_y, num_z", [(7, 13), (8, 12), (9, 10), (12, 9), (200, 201)])
    def test_folded_cells_match_exactly_rounded_sums_of_a_dense_build(self, num_y, num_z):
        # cells of all four fold kinds in one sweep, on odd and even axes, each
        # against fsum of the dense two-user build, as the unfolded cells are held
        kinds = {(loc.u_y == 0.0, loc.u_z == 0.0) for loc in self.FOLDING}
        assert kinds == {(True, False), (False, True), (True, True), (False, False)}
        geom = make_geom(num_y=num_y, num_z=num_z)
        for loc1 in (self.LOC1, UserLocation(30.0, math.pi / 2, 0.0)):
            grams = _pair_gram(geom, loc1, ch._coordinates(self.FOLDING), "pnusw")
            for g, loc2 in zip(grams, self.FOLDING):
                g11, g12, g22 = self.fsum_gram(geom, loc1, loc2)
                assert g[0, 0] == pytest.approx(g11, rel=1e-13, abs=0.0)
                assert g[1, 1] == pytest.approx(g22, rel=1e-13, abs=0.0)
                assert abs(g[0, 1] - g12) <= 1e-13 * math.sqrt(g11 * g22)
                assert g[1, 0] == g[0, 1].conjugate()

    @staticmethod
    def kept_radii(geom):
        """The distinct m_y^2 + m_z^2 of the quadrant that an on-axis cell keeps."""
        half_y, half_z = geom.indices_y()[geom.num_y // 2 :], geom.indices_z()[geom.num_z // 2 :]
        return sorted({y * y + z * z for y in half_y for z in half_z})

    @pytest.mark.parametrize("num_y, num_z", [(7, 13), (8, 12)])
    def test_a_folded_cell_walks_only_the_indices_it_keeps(self, monkeypatch, num_y, num_z):
        # a folded axis of n indices keeps its n - n // 2 indices >= 0; a cell folded
        # on both (on-axis) walks the kept quadrant's distinct radii as one row.
        # Every cell here is a box of its own (its fold kind differs from its
        # neighbours'), walked by the last walk, after user 1's build
        walks = recorded_walks(monkeypatch)
        geom = make_geom(num_y=num_y, num_z=num_z)
        _pair_gram(geom, self.LOC1, ch._coordinates(self.FOLDING), "pnusw")
        boxes = walks[-1]
        assert [(users.start, users.stop) for users, *_ in boxes] == [
            (k, k + 1) for k in range(len(self.FOLDING))
        ]
        walked = [
            (tuple(m_y[entries]), tuple(m_z[rows]))
            for _, rows, entries, m_y, m_z in boxes
        ]
        m_y, m_z = tuple(geom.indices_y()), tuple(geom.indices_z())
        half_y, half_z = m_y[num_y // 2 :], m_z[num_z // 2 :]
        assert len(half_y) == num_y - num_y // 2 and min(half_y) >= 0.0
        radii = self.kept_radii(geom)
        assert len(radii) < len(half_y) * len(half_z)
        radial = (tuple(map(math.sqrt, radii)), (0.0,))
        assert walked == [
            (half_y, m_z), (m_y, half_z), radial, (m_y, m_z), (m_y, half_z), (half_y, m_z),
        ]

    def test_folded_sweeps_are_bitwise_the_same_for_any_band_size(self, monkeypatch):
        # every fold kind in one sweep, then a run of radial cells; a band boundary
        # falls inside the kept rows of every user 2 at 401 x 401 as built (the
        # 201 x 201 quarter is 2 bands), and at 4 x 2 001 with bands of 2^10
        # entries.  A box holds a run of whole cells of one kind up to a band's
        # entries: as built, two radial cells per box at 401 x 401 and all four at
        # 4 x 2 001; one per box in bands of the longest walked row (a radial
        # one).  Every stack is bitwise the same for any band size that cuts no
        # row.  Bands of 2^10 cut every radial row (13 788 and 2 002 entries) into
        # slices, whose sums only round otherwise
        assert len(ch._boxes(0, 1, 201, 201)) == 2
        users = ch._coordinates(self.FOLDING + self.ON_AXIS)
        for geom in (make_geom(num_y=401, num_z=401), make_geom(num_y=4, num_z=2_001)):
            longest = max(len(self.kept_radii(geom)), geom.num_y)
            assert longest > 2**10
            stacks = {}
            for band_entries in (ch._BAND_ENTRIES, longest, 2**62, 2**10):
                monkeypatch.setattr(ch, "_BAND_ENTRIES", band_entries)
                stacks[band_entries] = _pair_gram(geom, self.LOC1, users, "pnusw").tobytes()
                monkeypatch.undo()
            uncut = {stacks[band] for band in (ch._BAND_ENTRIES, longest, 2**62)}
            assert len(uncut) == 1
            g, cut = (np.frombuffer(b, dtype=complex).reshape(-1, 2, 2) for b in (*uncut, stacks[2**10]))
            scale = np.sqrt(g[:, 0, 0].real * g[:, 1, 1].real)
            assert np.all(np.abs(cut - g) <= 1e-13 * scale[:, None, None])

    def test_concurrent_folded_sweeps_under_thread_switching_stress(self, monkeypatch):
        # four concurrent callers, each cell reading its kind's fold of user 1,
        # with a 1 us switch interval: every stack is the serial one
        geom = make_geom(num_y=201, num_z=101)
        monkeypatch.setattr(ch, "_BAND_ENTRIES", 2**10)
        folding = ch._coordinates(self.FOLDING)
        serial = _pair_gram(geom, self.LOC1, folding, "pnusw").tobytes()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            started = time.perf_counter()
            with ThreadPoolExecutor(4) as callers:
                stacks = list(
                    callers.map(
                        lambda _: _pair_gram(geom, self.LOC1, folding, "pnusw").tobytes(),
                        range(8),
                    )
                )
            assert time.perf_counter() - started < 60.0
        finally:
            sys.setswitchinterval(interval)
        assert stacks == [serial] * 8

    def test_the_first_failing_cell_raises(self):
        # a user on element (1, 0), and one at r = 1e308 (cycle count inf, entries
        # NaN).  At 201 x 201 its cell is two boxes; at 21 x 21 every cell (all in
        # the x-y plane, so of one fold kind) shares one box.  Either way the
        # earlier cell's error wins
        for side, theta in ((201, 1.2), (21, math.pi / 2)):
            geom = make_geom(num_y=side, num_z=side)
            on_element = UserLocation(geom.spacing, math.pi / 2, math.pi / 2)
            far = UserLocation(1e308, theta, 0.3)
            fine = UserLocation(60.0, theta, -0.3)
            if side == 21:  # the z-folded cells keep 11 rows of 21 entries: one box
                assert on_element.u_z == far.u_z == fine.u_z == 0.0
                assert len(ch._boxes(0, 4, side // 2 + 1, side)) == 1
            cells = lambda *users: ch._coordinates(users)  # noqa: E731
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                warnings.simplefilter("ignore", NearArrayWarning)  # the on-element user is near
                with pytest.raises(DegenerateGeometryError, match="coincident"):
                    _pair_gram(geom, self.LOC1, cells(fine, on_element, far, fine), "pnusw")
                with pytest.raises(DegenerateChannelError, match="finite"):
                    _pair_gram(geom, self.LOC1, cells(far, on_element, fine), "pnusw")
                # the repeat of fine shares its key: far is key 1 at cell 2
                with pytest.raises(DegenerateChannelError, match="finite"):
                    _pair_gram(geom, self.LOC1, cells(fine, fine, far, on_element), "pnusw")

    # user 1 on the array's axis, whose response is the same at m and -m on both axes
    ON_AXIS_1 = UserLocation(30.0, math.pi / 2, 0.0)

    @staticmethod
    def mirror_z(loc):
        """loc's mirror image at -u_z, as theta -> pi - theta; the caller checks that it is exact."""
        return UserLocation(loc.r, math.pi - loc.theta, loc.phi)

    @staticmethod
    def mirror_y(loc):
        """loc's mirror image at -u_y, as phi -> -phi (sin is odd, so exactly)."""
        return UserLocation(loc.r, loc.theta, -loc.phi)

    def shared_sweep(self):
        """A sweep of 12 cells with 6 distinct keys against ON_AXIS_1, and each
        cell's key: ±u_y pairs, ±u_z pairs, a four-cell ±u_y ±u_z set, an exact
        duplicate, a pair whose theta -> pi - theta moves u_x by an ulp (two
        keys), and an on-axis cell."""
        a, b, c, d = (
            UserLocation(55.0, 1.8, 0.3),  # off both axes
            UserLocation(70.0, math.pi / 2, -0.4),  # folded on z
            UserLocation(90.0, 2.0, 0.2),
            UserLocation(120.0, 1.8, 0.0),  # folded on y
        )
        for loc in (a, d):
            mirror = self.mirror_z(loc)
            assert (mirror.r, mirror.u_x, mirror.u_y, mirror.u_z) == (
                loc.r, loc.u_x, loc.u_y, -loc.u_z
            )
        assert self.mirror_z(c).u_x != c.u_x
        my, mz = self.mirror_y, self.mirror_z
        cells = [
            (my(a), 0), (b, 1), (a, 0), (c, 2), (my(mz(a)), 0), (mz(c), 3),
            (my(b), 1), (mz(a), 0), (b, 1), (mz(d), 4), (d, 4), (self.ON_AXIS[0], 5),
        ]
        return [loc for loc, _ in cells], [key for _, key in cells]

    @pytest.mark.parametrize("num_y, num_z", [(7, 13), (8, 12), (200, 201)])
    def test_mirrored_and_repeated_cells_share_one_walk(self, monkeypatch, num_y, num_z):
        # each distinct key is walked once, in order of first occurrence, at |u_y|
        # and |u_z|; every cell of a key gets its Gram bitwise, and so does the
        # cell alone.  Each cell is held to fsum of the dense build at its own
        # position, as the cells that share no walk are held
        walks = recorded_walks(monkeypatch)
        geom = make_geom(num_y=num_y, num_z=num_z)
        loc1 = self.ON_AXIS_1
        sweep, keys = self.shared_sweep()
        coordinates = ch._coordinates(sweep)
        grams = _pair_gram(geom, loc1, coordinates, "pnusw")
        assert coordinates.tobytes() == ch._coordinates(sweep).tobytes()  # keyed on a copy
        walked = sorted({k for users, *_ in walks[-1] for k in range(users.start, users.stop)})
        assert walked == list(range(len(set(keys))))
        for g, loc2, key in zip(grams, sweep, keys):
            assert g.tobytes() == grams[keys.index(key)].tobytes()
            alone = _pair_gram(geom, loc1, ch._coordinates([loc2]), "pnusw")
            assert g.tobytes() == alone[0].tobytes()
            g11, g12, g22 = self.fsum_gram(geom, loc1, loc2)
            radial = loc2.u_y == 0.0 and loc2.u_z == 0.0
            bound = 1e-13 + (self.radial_phase_bound(geom, loc2) if radial else 0.0)
            assert g[0, 0] == pytest.approx(g11, rel=1e-13, abs=0.0)
            assert g[1, 1] == pytest.approx(g22, rel=1e-13, abs=0.0)
            assert abs(g[0, 1] - g12) <= bound * math.sqrt(g11 * g22)
            assert g[1, 0] == g[0, 1].conjugate()

    def test_off_axis_user_one_shares_no_mirrored_cell(self, monkeypatch):
        # user 1 at u_y != 0 in the x-y plane: ±u_y cells have different Grams, so
        # each is walked at its own coordinates, as when no cell shared a walk
        walked = []
        walker = ch._pnusw_walk

        def recording(geom, coordinates, indices, **options):
            walked.append(coordinates.copy())
            return walker(geom, coordinates, indices, **options)

        monkeypatch.setattr(ch, "_pnusw_walk", recording)
        geom = make_geom(num_y=9, num_z=10)
        loc1 = UserLocation(40.0, math.pi / 2, 0.2)
        assert loc1.u_y != 0.0 and loc1.u_z == 0.0
        sweep = [UserLocation(r, math.pi / 2, phi) for r in (30.0, 80.0) for phi in (0.4, -0.4)]
        grams = _pair_gram(geom, loc1, ch._coordinates(sweep), "pnusw")
        assert walked[-1].tobytes() == ch._coordinates(sweep).tobytes()
        assert grams[0].tobytes() != grams[1].tobytes()
        alone = [_pair_gram(geom, loc1, ch._coordinates([loc]), "pnusw") for loc in sweep]
        assert grams.tobytes() == np.concatenate(alone).tobytes()

    def test_the_default_map_is_exactly_symmetric_in_y(self):
        # user 1 on the axis and a symmetric y grid: each cell at -y shares the
        # walk of its mirror at +y, so the pnusw column repeats itself exactly
        cfg = cli.parse_config(experiment="snr-loss-heatmap", model="pnusw")
        loc1, ys = cfg.users[0], cfg.sweep["y_values_m"]
        assert loc1.u_y == loc1.u_z == 0.0 and sorted(-y for y in ys) == sorted(ys)
        result = cli.dispatch(cfg)
        alpha = {(x, y): value for x, y, value in result.rows}
        assert len(alpha) == 121
        assert all(alpha[x, -y] == value for (x, y), value in alpha.items())

    def test_the_first_failing_cell_raises_when_its_mirror_comes_first(self):
        # a cell that shares the key of a failing mirror image fails with it, and
        # keys are walked in order of first occurrence (not, say, by range, which
        # puts the on-element user first and the one at r = 1e308 last)
        for side in (201, 21):
            geom = make_geom(num_y=side, num_z=side)
            on_element = UserLocation(geom.spacing, math.pi / 2, math.pi / 2)  # element (1, 0)
            far = UserLocation(1e308, 1.2, 0.3)
            fine = UserLocation(60.0, 1.2, -0.3)
            for loc in (on_element, far):
                assert self.mirror_y(loc).u_y == -loc.u_y
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                warnings.simplefilter("ignore", NearArrayWarning)  # the on-element user is near
                sweep = [fine, self.mirror_y(on_element), far, on_element]
                with pytest.raises(DegenerateGeometryError, match="coincident"):
                    _pair_gram(geom, self.ON_AXIS_1, ch._coordinates(sweep), "pnusw")
                sweep = [fine, self.mirror_y(far), on_element, far]
                with pytest.raises(DegenerateChannelError, match="finite"):
                    _pair_gram(geom, self.ON_AXIS_1, ch._coordinates(sweep), "pnusw")

    def test_memory_is_user_one_and_a_few_bands(self):
        # 50 cells at 200 x 200: no cell may hold an M-sized array
        # (user 2, or the products of a reduction over it) beside user 1's response;
        # nor may user 1's fold when every user 2 is in the x-y plane (folded on z),
        # nor its radial grouping when every user 2 is on the axis (folded on both)
        geom = make_geom(num_y=200, num_z=200)
        user_one = 16 * geom.num_elements
        (_, rows, _), *_ = ch._boxes(0, 1, geom.num_z, geom.num_y)
        band = 16 * (rows.stop - rows.start) * geom.num_y
        for theta2, phi2 in ((1.2, 0.3), (math.pi / 2, 0.3), (math.pi / 2, 0.0)):
            assert (UserLocation(1.0, theta2, phi2).u_z == 0.0) == (theta2 == math.pi / 2)
            sweep = lambda: sweep_correlation_vs_distance(  # noqa: E731
                geom, self.LOC1, (theta2, phi2), range(50)
            )
            sweep()  # imports and first-call caches stay out of the peak
            assert fresh_thread_peak(sweep) < user_one + 3 * band

def default_drop():
    """The geometry, array sizes and users of the default sum-rate sweep's first drop."""
    cfg = cli.parse_config(experiment="sumrate-vs-m", overrides=[])
    sizes = [(s, s) for s in cfg.sweep["sides"]]
    return cfg.geometry, sizes, sample_users(cfg.region, cfg.sweep["n_users"], (cfg.seed, 0))


class TestStreamedNestedGrams:
    """The M-sweeps' Grams walk the largest array in boxes of all users (a band
    of their rows, or a slice of one row), each reduced to per-ring partials."""

    def test_memory_is_a_few_box_buffers(self):
        # a default drop's spherical-wave stack (10 users, arrays up to 200 x 200)
        # holds one box's buffer, its phasors, cycles and amp (32 B an entry), and
        # a strip's copies, never the largest array's 6.4 MB block
        geom, sizes, users = default_drop()
        stack = lambda: ch._nested_grams(geom, sizes, users, "pnusw")  # noqa: E731
        stack()  # imports and first-call caches stay out of the peak
        assert fresh_thread_peak(stack) <= 3 * 32 * ch._BAND_ENTRIES

    def test_a_default_drop_is_one_box_per_band_of_all_users(self, monkeypatch):
        # 200 rows of 10 users x 200 entries: 13 bands of at most 16 rows, where
        # one-user bands of at most 163 rows would make 20 boxes
        walks = recorded_walks(monkeypatch)
        cfg = cli.parse_config(experiment="sumrate-vs-m", overrides=[])
        sumrate_vs_m(
            cfg.geometry, cfg.region, cfg.sweep["n_users"], cfg.snr_linear(),
            cfg.sweep["sides"], seed=cfg.seed, n_drops=1, models=("pnusw",),
        )
        assert [[users for users, *_ in boxes] for boxes in walks] == [[slice(0, 10)] * 13]

    def test_the_smallest_window_of_a_default_drop_matches_the_oracle(self):
        # the default drop's 10 x 10 array, rows 95 to 104 of 200, straddles the
        # bands of rows 80 to 95 and 96 to 111: its Gram, the most ill-conditioned
        # of the drop, sums two real partials, so it is held to the exactly rounded
        # sums of a direct build, and is exactly Hermitian
        geom, sizes, users = default_drop()
        bands = [rows for _, rows, _ in ch._boxes(0, 10, 200, 200, joint=True)]
        assert slice(80, 96) in bands and slice(96, 112) in bands
        a = response_matrix(replace(geom, num_y=10, num_z=10), users, "pnusw")
        got = ch._nested_grams(geom, sizes, users, "pnusw")[0]
        assert np.array_equal(got, got.conj().T)
        powers = [compensated_sum(a[:, i].real ** 2 + a[:, i].imag ** 2) for i in range(10)]
        for i in range(10):
            for j in range(10):
                prod = np.conj(a[:, i]) * a[:, j]
                exact = complex(compensated_sum(prod.real), compensated_sum(prod.imag))
                assert abs(got[i, j] - exact) <= 1e-12 * math.sqrt(powers[i] * powers[j])

    def test_a_joint_walk_hands_its_reduce_the_planes_of_a_direct_build(self, monkeypatch):
        # the joint walk writes its phasors into two contiguous float planes:
        # bitwise the real and imaginary parts of _response_block's entries, in
        # bands of rows (64 entries) and slices of one row (7)
        geom, users = make_geom(num_y=13, num_z=9), random_users(np.random.default_rng(8), 3)
        direct = _response_block(geom, users, "pnusw")
        for band_entries in (64, 7):
            monkeypatch.setattr(ch, "_BAND_ENTRIES", band_entries)
            planes = np.empty((2, *direct.shape))
            indices = [(geom.indices_y(), geom.indices_z())] * len(users)
            walk = ch._pnusw_walk(geom, ch._coordinates(users), indices, joint=True)
            for (k, rows, entries, _, _), phasors, _, _ in walk:
                assert phasors.shape[0] == 2 and phasors[0].flags.c_contiguous
                planes[:, k, rows, entries] = phasors
            assert planes[0].tobytes() == direct.real.tobytes()
            assert planes[1].tobytes() == direct.imag.tobytes()


class TestUpwResponse:
    def test_boresight_entries_are_identical(self):
        geom = make_geom(num_y=3, num_z=3)
        cfg = UpwConfig.matched_to(geom)
        loc = UserLocation(25.0, math.pi / 2, 0.0)
        a = column(geom, loc, "upw", cfg)
        expected = (math.sqrt(cfg.beta0) / 25.0) * cmath.exp(-2j * math.pi * 25.0 / LAM)
        assert a == pytest.approx(np.full(9, expected), rel=1e-12)

    def test_power_is_count_times_reference(self):
        geom = make_geom(num_y=6, num_z=7)
        cfg = UpwConfig(beta0=2.5e-4)
        loc = UserLocation(80.0, 1.0, 0.7)
        assert vector_power(column(geom, loc, "upw", cfg)) == pytest.approx(
            geom.num_elements * cfg.beta0 / loc.r**2, rel=1e-12
        )

    def test_half_wavelength_phase_ramp(self):
        # d = lambda/2 and u_y = 1: neighbor phases step by pi
        geom = make_geom(num_y=3, num_z=1)
        cfg = UpwConfig.matched_to(geom)
        loc = UserLocation(30.0, math.pi / 2, math.pi / 2)
        a = column(geom, loc, "upw", cfg)
        assert a[0] / a[1] == pytest.approx(-1.0, rel=1e-12)
        assert a[2] / a[1] == pytest.approx(-1.0, rel=1e-12)


class TestChannelPower:
    def test_single_entry(self):
        assert vector_power(np.array([3.0 - 4.0j])) == pytest.approx(25.0, rel=1e-15)

    def test_accepts_plain_arrays(self):
        assert vector_power(np.array([1.0, 1.0j])) == pytest.approx(2.0)

    def test_grows_with_array_and_respects_aperture_bound(self):
        loc = UserLocation(50.0, math.pi / 2, 0.0)
        small = vector_power(column(make_geom(num_y=101, num_z=101), loc, "pnusw"))
        large = vector_power(column(make_geom(num_y=201, num_z=201), loc, "pnusw"))
        xi = make_geom().occupation_ratio
        assert large > small
        assert large < xi / 2.0

    @staticmethod
    def pnusw_power(geom, loc):
        """fsum of |a|^2 over the built spherical-wave response."""
        a = _response_block(geom, [loc], "pnusw")[0].ravel()
        return compensated_sum(a.real**2 + a.imag**2)

    @staticmethod
    def solid_angle(geom, loc):
        """Solid angle the array's rectangle (edges at +-N d / 2) subtends at the user.

        With (x, Y, Z) the rectangle's corners relative to the user, it is the
        signed four-corner sum of arctan(Y Z / (x sqrt(x^2 + Y^2 + Z^2))).
        """
        x, y, z = user_position(loc)
        ys = (-geom.num_y * geom.spacing / 2.0 - y, geom.num_y * geom.spacing / 2.0 - y)
        zs = (-geom.num_z * geom.spacing / 2.0 - z, geom.num_z * geom.spacing / 2.0 - z)
        return sum(
            (-1) ** (i + j) * math.atan(ys[i] * zs[j] / (x * math.hypot(x, ys[i], zs[j])))
            for i in (0, 1) for j in (0, 1)
        )

    @pytest.mark.parametrize(
        "side, loc",
        [
            (10, UserLocation(50.0, math.pi / 2, 0.0)),
            (200, UserLocation(5.0, math.pi / 2, 0.0)),
            (200, UserLocation(20.0, 1.2, 0.3)),
        ],
    )
    def test_power_is_a_midpoint_rule_for_the_solid_angle(self, side, loc):
        # each element's gain xi d^2 x / (4 pi |q - w|^3) is the solid-angle
        # integrand at the element's center times its cell's area d^2, so the
        # power approximates xi / (4 pi) Omega to the midpoint rule's order (d / x)^2
        geom = make_geom(num_y=side, num_z=side)
        closed = geom.occupation_ratio / (4.0 * math.pi) * self.solid_angle(geom, loc)
        x = user_position(loc)[0]
        assert self.pnusw_power(geom, loc) == pytest.approx(closed, rel=(geom.spacing / x) ** 2)

    @settings(max_examples=25, deadline=None)
    @given(
        side=st.integers(1, 40),
        r=st.floats(1.0, 1000.0),
        theta=st.floats(math.pi / 4, 3 * math.pi / 4),
        phi=st.floats(-1.2, 1.2),
    )
    def test_power_grows_with_the_array_and_stays_below_half_the_occupation(
        self, side, r, theta, phi
    ):
        # a (side + 2)^2 array holds the side^2 one as its centered sub-grid plus a
        # ring of positive gains.  The power is a midpoint rule for xi / (4 pi) Omega,
        # Omega < 2 pi; here x >= 0.25 m, about four spacings, so the rule's error
        # stays far below that gap and the power below xi / 2
        loc = UserLocation(r, theta, phi)
        small, large = (
            self.pnusw_power(make_geom(num_y=n, num_z=n), loc) for n in (side, side + 2)
        )
        assert 0.0 < small < large < make_geom().occupation_ratio / 2.0


class TestCorrelation:
    """rho read from the 2 x 2 Gram matrix of two users."""

    def test_collinear_vectors(self):
        geom = make_geom(num_y=4, num_z=3)
        a = column(geom, UserLocation(30.0, 1.3, 0.2), "pnusw")
        assert correlation(pair_gram(a, (0.5 - 2.0j) * a)) == pytest.approx(1.0, abs=1e-12)

    def test_powers_whose_product_leaves_the_float_range_are_scale_free(self):
        # G_11 G_22 and |G_12|^2 overflow (1e150) or underflow (1e-150) while each
        # power stays finite and positive; rho does not depend on either scale
        a = np.array([1.0, 2.0 - 1.0j, 0.5j, 3.0])
        b = np.array([2.0j, 1.0, -1.0, 0.5 + 0.5j])
        rho = correlation(pair_gram(a, b))
        assert 0.0 < rho < 1.0
        for scale_a, scale_b in ((1e150, 1e150), (1e-150, 1e-150), (1e150, 1e-150)):
            g = pair_gram(scale_a * a, scale_b * b)
            assert correlation(g) == pytest.approx(rho, rel=1e-14)
        for scale in (1e150, 1e-150):
            assert correlation(pair_gram(scale * a, scale * a)) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize(
        "g",
        [
            [[0.0, 0.0], [0.0, 1.0]],
            [[1.0, 0.0], [0.0, 0.0]],
            [[-1.0, 0.0], [0.0, 1.0]],
            [[math.inf, 1.0], [1.0, 1.0]],
            [[1.0, 1.0], [1.0, math.nan]],
            [[1.0, complex(math.inf, 0.0)], [1.0, 1.0]],
            [[1.0, complex(0.0, math.nan)], [1.0, 1.0]],
        ],
        ids=["zero-1", "zero-2", "negative", "inf-power", "nan-power", "inf-g12", "nan-g12"],
    )
    def test_zero_or_non_finite_entries_are_rejected(self, g):
        with pytest.raises(DegenerateChannelError, match="correlation undefined"):
            correlation(np.array(g, dtype=complex))

    def test_matches_mpmath_on_random_pairs(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            m = int(rng.integers(1, 40))
            scales = 10.0 ** rng.uniform(-150.0, 150.0, size=(2, 1))
            a, b = scales * (rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m)))
            g = pair_gram(a, b)
            with mpmath.workdps(50):
                power_a, power_b = mpmath.mpf(g[0, 0].real), mpmath.mpf(g[1, 1].real)
                want = abs(mpmath.mpc(g[0, 1])) ** 2 / (power_a * power_b)
            assert correlation(g) == pytest.approx(float(want), rel=1e-14)

    @pytest.mark.parametrize("num_y", [5, 8])
    def test_dirichlet_null_matches_mpmath(self, num_y):
        # d/lambda = 1/2 and delta u_y = 2/num_y: a null of the y kernel, where the
        # exact rho of the float user coordinates is below 1e-30
        geom = make_geom(num_y=num_y, num_z=3)
        u1 = UserLocation(30.0, math.pi / 2, math.asin(1.0 / num_y))
        u2 = UserLocation(70.0, math.pi / 2, -math.asin(1.0 / num_y))
        exact = mp_upw_gram(geom, (u1, u2), UpwConfig.matched_to(geom).beta0)
        want = abs(exact[0, 1]) ** 2 / (exact[0, 0].real * exact[1, 1].real)
        assert want < 1e-30
        assert correlation(upw_gram(geom, (u1, u2))) == pytest.approx(want, abs=1e-30)

    def test_orthogonal_vectors(self):
        a, b = np.array([1.0, 0.0j]), np.array([0.0j, 1.0])
        assert correlation(pair_gram(a, b)) == 0.0

    def test_same_direction_users_decorrelate_as_array_grows(self):
        u1 = UserLocation(25.0, math.pi / 2, 0.0)
        u2 = UserLocation(250.0, math.pi / 2, 0.0)
        small = make_geom(num_y=10, num_z=11)
        large = make_geom(num_y=10, num_z=1001)
        rho_small = correlation(gram(response_matrix(small, (u1, u2), "pnusw")))
        rho_large = correlation(gram(response_matrix(large, (u1, u2), "pnusw")))
        assert rho_large < rho_small

    def test_zero_power_channel_rejected(self):
        geom = make_geom(num_y=3, num_z=3)
        on_axis = column(geom, UserLocation(30.0, 0.0, 0.0), "pnusw")
        other = column(geom, UserLocation(30.0, 1.0, 0.0), "pnusw")
        with pytest.raises(DegenerateChannelError):
            correlation(pair_gram(on_axis, other))

    def test_common_phase_leaves_correlation_unchanged(self):
        geom = make_geom(num_y=5, num_z=4)
        a = column(geom, UserLocation(30.0, 1.2, 0.3), "pnusw")
        b = column(geom, UserLocation(90.0, 1.4, 0.1), "pnusw")
        rho = correlation(pair_gram(a, b))
        twist = cmath.exp(0.7j)
        assert correlation(pair_gram(twist * a, twist * b)) == pytest.approx(rho, rel=1e-12)

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
        a = column(geom, UserLocation(r1, t1, p1), "pnusw")
        b = column(geom, UserLocation(r2, t2, p2), "pnusw")
        rho = correlation(pair_gram(a, b))
        assert 0.0 <= rho <= 1.0
        assert correlation(pair_gram(a, a)) == pytest.approx(1.0, abs=1e-9)


class TestUpwPowerClosed:
    """The diagonal of the closed-form plane-wave Gram is the channel power."""

    @pytest.mark.parametrize("num_y, num_z", [(10, 11), (20, 20), (9, 7), (200, 200)])
    def test_matches_the_built_response(self, num_y, num_z):
        geom = make_geom(num_y=num_y, num_z=num_z)
        for cfg in (None, UpwConfig(beta0=2.5e-4)):
            for loc in (UserLocation(80.0, 1.0, 0.7), UserLocation(94.3, math.pi / 2, -0.56)):
                built = column(geom, loc, "upw", cfg)
                power = upw_gram(geom, (loc,), cfg)[0, 0].real
                assert power == pytest.approx(vector_power(built), rel=1e-12)

    @pytest.mark.parametrize("r", [1e200, 1e-200])
    def test_zero_or_infinite_power_is_degenerate(self, r):
        with pytest.raises(DegenerateChannelError, match="zero or non-finite"):
            upw_gram(make_geom(), (UserLocation(r, math.pi / 2, 0.0),))


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
                g = upw_gram(geom, users, cfg)
                assert np.array_equal(g, g.conj().T)
                self.assert_close(g, mp_upw_gram(geom, users, beta0))
            built = gram(response_matrix(geom, near, "upw", cfg))
            self.assert_close(upw_gram(geom, near, cfg), built)

    @pytest.mark.parametrize("num_y", [8, 7])
    def test_grating_lobes_keep_the_kernel_sign(self, num_y):
        # d = lambda and u_y = +-1/2 put (d / lambda) delta u_y at an integer, where
        # D_N = N (-1)^(N - 1): negative for an even count
        geom = make_geom(num_y=num_y, num_z=3, spacing=LAM)
        phi = math.asin(0.5)
        users = [UserLocation(3.0, math.pi / 2, phi), UserLocation(4.5, math.pi / 2, -phi)]
        assert _dirichlet(num_y, -1.0) == (-num_y if num_y % 2 == 0 else num_y)
        g = upw_gram(geom, users)
        self.assert_close(g, mp_upw_gram(geom, users, UpwConfig.matched_to(geom).beta0))
        self.assert_close(g, gram(response_matrix(geom, users, "upw")))
        # a full grating lobe makes the two channels collinear, so ZF is infeasible
        res = evaluate_scenario(None, np.full(2, 1e5), g=g)
        assert np.array_equal(res["zf"], np.zeros(2))

    def test_users_sharing_a_direction_give_a_rank_one_gram(self):
        geom = make_geom(num_y=10, num_z=11)
        users = [UserLocation(r, 1.1, 0.4) for r in (2.0, 3.7, 5.5)]
        g = upw_gram(geom, users)
        self.assert_close(g, gram(response_matrix(geom, users, "upw")))
        beta0 = UpwConfig.matched_to(geom).beta0
        self.assert_close(g, mp_upw_gram(geom, users, beta0))
        # fully correlated users far out: their relative phase must not lose the
        # ~1e-13 of a cycle that r / lambda ~ 1000 rounds away
        far = [UserLocation(r, 1.1, 0.4) for r in (60.0, 117.3, 171.9)]
        self.assert_close(upw_gram(geom, far), mp_upw_gram(geom, far, beta0))
        res = evaluate_scenario(None, np.full(3, 1e5), g=g)
        assert np.array_equal(res["zf"], np.zeros(3))
        assert np.all(res["mmse"] > 0.0)


    def test_stack_of_sizes_equals_one_size_calls_bitwise(self):
        # an M-sweep's Grams in one broadcast: mixed parities and shapes, grating
        # lobes (d = lambda) and users sharing a direction among them; the
        # geometry's own size is read by neither
        rng = np.random.default_rng(24)
        users = [UserLocation(rng.uniform(2.0, 170.0), rng.uniform(0.3, 2.8),
                              rng.uniform(-1.4, 1.4)) for _ in range(4)]
        users.append(UserLocation(40.0, users[0].theta, users[0].phi))
        sizes = [(10, 11), (10, 101), (7, 8), (1, 1), (200, 200)]
        for spacing in (D, LAM):
            geom = make_geom(3, 5, spacing=spacing)
            for cfg in (None, UpwConfig(beta0=2.5e-4)):
                stack = _upw_gram(geom, sizes, users, cfg)
                assert stack.shape == (len(sizes), 5, 5)
                for size, got in zip(sizes, stack):
                    assert got.tobytes() == _upw_gram(geom, [size], users, cfg)[0].tobytes()
                    alone = upw_gram(replace(geom, num_y=size[0], num_z=size[1]), users, cfg)
                    assert got.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("r", [1e200, 1e-200])
    def test_stack_with_a_zero_or_infinite_power_is_degenerate(self, r):
        users = [UserLocation(30.0, 1.0, 0.2), UserLocation(r, 1.2, 0.1)]
        with pytest.raises(DegenerateChannelError, match="zero or non-finite"):
            _upw_gram(make_geom(), [(11, 11), (11, 31)], users)
        with pytest.raises(DegenerateChannelError, match="zero or non-finite"):
            _pair_gram(make_geom(), users[0], ch._coordinates(users[1:]), "upw")

    def test_pair_grams_are_the_two_user_grams_bitwise(self):
        # one broadcast over user 1 and all others, against one _upw_gram per pair;
        # a user sharing user 1's direction and one at a grating lobe among them
        rng = np.random.default_rng(31)
        loc1, *others = random_users(rng, 40)
        others += [UserLocation(70.0, loc1.theta, loc1.phi), UserLocation(3.0, 1.5, 0.9)]
        for geom in (make_geom(num_y=20, num_z=31), make_geom(7, 8, spacing=LAM)):
            for cfg in (None, UpwConfig(beta0=2.5e-4)):
                grams = _pair_gram(geom, loc1, ch._coordinates(others), "upw", cfg)
                for j, loc2 in enumerate(others):
                    got, alone = grams[j], upw_gram(geom, (loc1, loc2), cfg)
                    read = ([0, 0, 1], [0, 1, 1])  # G_11, G_12, G_22
                    assert got[read].tobytes() == alone[read].tobytes()
                    assert got[1, 0] == got[0, 1].conjugate()

class TestUpwCorrelationClosed:
    """correlation of the closed-form plane-wave Gram against built responses."""

    def test_same_direction_is_one(self):
        geom = make_geom(num_y=10, num_z=21)
        u1 = UserLocation(25.0, math.pi / 2, 0.0)
        u2 = UserLocation(250.0, math.pi / 2, 0.0)
        assert correlation(upw_gram(geom, (u1, u2))) == 1.0

    def test_dirichlet_null(self):
        # d/lambda = 1/2 and delta u_y = 2/num_y puts the first factor at sin(pi)
        num_y = 5
        geom = make_geom(num_y=num_y, num_z=3)
        u1 = UserLocation(30.0, math.pi / 2, math.asin(1.0 / num_y))
        u2 = UserLocation(30.0, math.pi / 2, -math.asin(1.0 / num_y))
        assert correlation(upw_gram(geom, (u1, u2))) == pytest.approx(0.0, abs=1e-20)

    def test_matches_direct_computation(self):
        geom = make_geom(num_y=7, num_z=7)
        cfg = UpwConfig.matched_to(geom)
        rng = np.random.default_rng(42)
        for _ in range(50):
            u1 = UserLocation(rng.uniform(20, 200), rng.uniform(0.3, 2.8), rng.uniform(-1.4, 1.4))
            u2 = UserLocation(rng.uniform(20, 200), rng.uniform(0.3, 2.8), rng.uniform(-1.4, 1.4))
            direct = direct_rho(column(geom, u1, "upw", cfg), column(geom, u2, "upw", cfg))
            assert correlation(upw_gram(geom, (u1, u2), cfg)) == pytest.approx(direct, abs=1e-9)

    def test_near_integer_arguments_match_direct(self):
        geom = make_geom(num_y=9, num_z=4)
        cfg = UpwConfig.matched_to(geom)
        u1 = UserLocation(40.0, math.pi / 2, math.pi / 2)  # u_y = 1
        for delta in (0.0, 1e-13, 1e-10, 3e-9, 1e-8):
            # delta u_y = 2 - delta, so (d/lambda) * delta u_y sits next to 1
            u2 = UserLocation(40.0, math.pi / 2, -math.asin(1.0 - delta))
            direct = direct_rho(column(geom, u1, "upw", cfg), column(geom, u2, "upw", cfg))
            closed = correlation(upw_gram(geom, (u1, u2), cfg))
            assert closed == pytest.approx(direct, abs=1e-9)
