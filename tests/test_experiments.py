"""Tests for the sweep generators and random user sampling."""

import math
import warnings

import mpmath
import numpy as np
import pytest

import xlmimo.beamforming as bf
import xlmimo.channel as ch
import xlmimo.experiments as xp
from oracles import compensated_sum
from xlmimo.beamforming import evaluate_scenario, response_matrix
from xlmimo.channel import UpwConfig, _upw_gram
from xlmimo.errors import DegenerateChannelError, DegenerateGeometryError, NearSingularError
from xlmimo.experiments import (
    MIN_U_X,
    SweepResult,
    UserRegion,
    heatmap_snr_loss,
    sample_users,
    sumrate_vs_m,
    sweep_correlation_vs_distance,
    sweep_correlation_vs_m,
    sweep_sinr_vs_m,
)
from xlmimo.geometry import ArrayGeometry, NearArrayWarning, UserLocation, cartesian_to_spherical
from xlmimo.numerics import gram, vector_power

LAM = 0.1256
D = LAM / 2.0
AREA = LAM**2 / (4.0 * math.pi)
BETA0 = AREA / (4.0 * math.pi)
PBAR = 1e5 / BETA0


def make_geom(num_y=10, num_z=11):
    return ArrayGeometry(
        num_y=num_y, num_z=num_z, spacing=D, element_area=AREA, wavelength=LAM
    )


SAME_DIRECTION = (
    UserLocation(25.0, math.pi / 2, 0.0),
    UserLocation(250.0, math.pi / 2, 0.0),
)


class TestSampleUsers:
    def test_deterministic_in_seed(self):
        region = UserRegion(r=(50.0, 100.0), theta=(0.0, math.pi / 3), phi=(math.pi / 6, math.pi / 3))
        a = sample_users(region, 8, 123)
        b = sample_users(region, 8, 123)
        assert a == b
        assert a != sample_users(region, 8, 124)

    def test_samples_stay_inside_region(self):
        region = UserRegion(r=(50.0, 100.0), theta=(0.0, math.pi / 3), phi=(math.pi / 6, math.pi / 3))
        for loc in sample_users(region, 200, 5):
            assert 50.0 <= loc.r <= 100.0
            assert 0.0 <= loc.theta <= math.pi / 3
            assert math.pi / 6 <= loc.phi <= math.pi / 3

    def test_mean_range_matches_uniform_law(self):
        region = UserRegion(r=(50.0, 100.0), theta=(0.5, 1.0), phi=(0.2, 0.8))
        users = sample_users(region, 100_000, 11)
        mean_r = float(np.mean([u.r for u in users]))
        assert abs(mean_r - 75.0) <= 0.01 * 75.0

    def test_degenerate_directions_are_redrawn(self):
        # region hugging the array plane forces the u_x guard to reject draws
        region = UserRegion(r=(50.0, 60.0), theta=(math.pi / 2, math.pi / 2), phi=(1.5, math.pi / 2))
        for loc in sample_users(region, 50, 3):
            assert loc.u_x >= 1e-3

    def test_region_validation(self):
        with pytest.raises(ValueError):
            UserRegion(r=(0.0, 10.0), theta=(0.0, 1.0), phi=(0.0, 1.0))
        with pytest.raises(ValueError):
            UserRegion(r=(10.0, 5.0), theta=(0.0, 1.0), phi=(0.0, 1.0))
        with pytest.raises(ValueError):
            UserRegion(r=(1.0, 2.0), theta=(0.0, 4.0), phi=(0.0, 1.0))
        # every direction has u_x = sin(theta) cos(phi) < MIN_U_X
        with pytest.raises(ValueError, match="u_x"):
            UserRegion(r=(1.0, 2.0), theta=(0.0, 0.0), phi=(0.0, 1.0))
        with pytest.raises(ValueError, match="u_x"):
            UserRegion(r=(1.0, 2.0), theta=(0.5, 2.5), phi=(math.pi / 2, math.pi / 2))
        with pytest.raises(ValueError, match="u_x"):
            UserRegion(r=(1.0, 2.0), theta=(3.1412, math.pi), phi=(-0.5, 0.5))

    def test_nearly_degenerate_region_gives_up(self):
        # the region allows u_x >= MIN_U_X on a sliver of ~1e-9 of its phi range
        phi_lo = math.pi / 2 - math.asin(MIN_U_X) - 1e-12
        region = UserRegion(
            r=(50.0, 60.0), theta=(math.pi / 2, math.pi / 2), phi=(phi_lo, math.pi / 2)
        )
        with pytest.raises(DegenerateGeometryError, match="consecutive"):
            sample_users(region, 2, 0)


def oracle_gram(a):
    """A^H A with every entry an exactly rounded compensated_sum of its products."""
    k = a.shape[1]
    out = np.empty((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            prod = np.conj(a[:, i]) * a[:, j]
            out[i, j] = complex(compensated_sum(prod.real), compensated_sum(prod.imag))
    return out


def exact_sum_rate(gammas) -> float:
    """sum_k log2(1 + gamma_k), summed exactly rounded: apart from the sweep's own sum."""
    return compensated_sum(np.log2(1.0 + np.asarray(gammas)))


def ring_grams(geoms, users):
    """pnusw Grams of a chain of nested geometries, each ring strip read from a direct build.

    The first geometry's Gram is its whole direct build's; each later one adds,
    to the previous Gram, the Grams of its own direct build's rows above and
    below and columns left and right of the previous (centered) geometry.
    """
    grams = []
    for prev, g in zip([None] + geoms[:-1], geoms):
        direct = response_matrix(g, users, "pnusw").T.reshape(len(users), g.num_z, g.num_y)
        if prev is None:
            grams.append(gram(direct.reshape(len(users), -1).T))
            continue
        z0, y0 = (g.num_z - prev.num_z) // 2, (g.num_y - prev.num_y) // 2
        z1, y1 = z0 + prev.num_z, y0 + prev.num_y
        acc = grams[-1]
        for part in (direct[:, :z0], direct[:, z1:], direct[:, z0:z1, :y0], direct[:, z0:z1, y1:]):
            if part.size:
                acc = acc + gram(part.reshape(len(users), -1).T)
        grams.append(acc)
    return grams


class TestNestedResponses:
    """The nested-Gram step against direct builds, the closed form and the fsum oracle."""

    USERS = sample_users(
        UserRegion(r=(50.0, 100.0), theta=(0.2, 1.2), phi=(-0.6, 0.8)), 3, 7
    )

    def assert_oracle(self, geoms, grams, users=USERS):
        for g, got in zip(geoms, grams):
            exact = oracle_gram(response_matrix(g, users, "pnusw"))
            scale = np.sqrt(np.outer(exact.diagonal().real, exact.diagonal().real))
            assert np.all(np.abs(got - exact) <= 1e-12 * scale), g

    @pytest.mark.parametrize("model", ["pnusw", "upw"])
    @pytest.mark.parametrize("sides", [[4, 10, 16], [5, 11, 17]], ids=["even", "odd"])
    def test_nested_grams_match_the_oracle(self, model, sides):
        # upw is bitwise the closed form; a pnusw Gram sums its ring's partials
        # box by box, rounded otherwise than one product of a direct build, so it
        # is held to the exactly rounded sums of that build
        for geoms in ([make_geom(s, s + 4) for s in sides], [make_geom(10, mz) for mz in sides]):
            grams = ch._nested_grams(geoms, self.USERS, model)
            if model == "upw":
                for g, got in zip(geoms, grams):
                    assert np.array_equal(got, _upw_gram(g, self.USERS))
                continue
            self.assert_oracle(geoms, grams)

    @pytest.mark.parametrize("model", ["pnusw", "upw"])
    def test_geometries_that_do_not_nest_are_built_directly(self, model):
        # mixed parity, a geometry longer than the largest one on z, and a
        # nested geometry narrower than the one before it; each chain lists
        # the geometries that add a ring, and every other one has the Gram
        # of a direct build
        for geoms, rings in (
            ([make_geom(s, s) for s in (4, 5, 9, 10)], {3}),
            ([make_geom(2, 30), make_geom(10, 10)], set()),
            ([make_geom(8, 2), make_geom(2, 8), make_geom(10, 10)], {2}),
        ):
            grams = ch._nested_grams(geoms, self.USERS, model)
            for i, (g, got) in enumerate(zip(geoms, grams)):
                if model == "upw":
                    assert np.array_equal(got, _upw_gram(g, self.USERS))
                elif i not in rings:
                    direct = gram(response_matrix(g, self.USERS, model))
                    assert got.tobytes() == direct.tobytes()
            if model == "pnusw":
                self.assert_oracle(geoms, grams)

    def test_m_sweeps_build_only_the_largest_spherical_wave_array(self, monkeypatch):
        # one walk of the largest array per spherical-wave stack, and no response built
        walked = []
        walk = ch._pnusw_walk

        def recording(geom, *args, **kwargs):
            walked.append((geom.num_y, geom.num_z))
            return walk(geom, *args, **kwargs)

        def no_build(*args, **kwargs):
            raise AssertionError("an M-sweep built a response")

        monkeypatch.setattr(ch, "_pnusw_walk", recording)
        monkeypatch.setattr(bf, "response_matrix", no_build)
        monkeypatch.setattr(ch, "_response_block", no_build)
        region = UserRegion(r=(50.0, 100.0), theta=(0.1, 1.0), phi=(0.3, 1.0))
        sumrate_vs_m(make_geom(), region, 3, np.full(3, PBAR), [4, 8, 10], seed=6, n_drops=1)
        sweep_sinr_vs_m(make_geom(), SAME_DIRECTION, [PBAR, PBAR], mz_values=[11, 21])
        sweep_correlation_vs_m(make_geom(), *SAME_DIRECTION, mz_values=[11, 21])
        assert walked == [(10, 10), (10, 21), (10, 21)]

    # chains of one parity (even, odd on z), of both (the odd sides take a walk
    # each) and with geometries that do not nest (longer on z, or narrower than the
    # geometry before them)
    CHAINS = {
        "even": [make_geom(s, s + 4) for s in (4, 10, 16)],
        "odd": [make_geom(10, mz) for mz in (5, 11, 17)],
        "mixed": [make_geom(s, s) for s in (4, 5, 9, 10)],
        "not-nesting": [make_geom(8, 2), make_geom(2, 8), make_geom(2, 30), make_geom(10, 10)],
    }

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_streamed_grams_match_the_oracle_for_any_box(self, monkeypatch, chain, k):
        # as built (one box), bands of rows (at 64 entries: four rows of one user,
        # one row of three), and slices of one row (7 and 1 entries): every stack
        # is within the oracle's bound
        geoms, users = self.CHAINS[chain], self.USERS[:k]
        for band_entries in (None, 64, 7, 1):
            if band_entries is not None:
                monkeypatch.setattr(ch, "_BAND_ENTRIES", band_entries)
            big = max(geoms, key=lambda g: g.num_elements)
            boxes = ch._boxes(0, k, big.num_z, big.num_y, joint=True)
            assert all(users == slice(0, k) for users, _, _ in boxes)
            assert (len(boxes) == 1) == (band_entries is None)
            self.assert_oracle(geoms, ch._nested_grams(geoms, users, "pnusw"), users)

    @pytest.mark.filterwarnings("ignore::xlmimo.geometry.NearArrayWarning")
    def test_a_user_on_an_element_in_a_later_band_is_degenerate(self, monkeypatch):
        # the last user sits on element (m_y, m_z) = (1, 0), in row 10 of 21: in
        # the fourth of seven bands of 3 rows of all three users
        monkeypatch.setattr(ch, "_BAND_ENTRIES", 99)
        geoms = [make_geom(11, mz) for mz in (11, 21)]
        on_element = UserLocation(D, math.pi / 2, math.pi / 2)
        assert ch._boxes(0, 3, 21, 11, joint=True)[3][1] == slice(9, 12)
        with pytest.raises(DegenerateGeometryError, match="coincident"):
            ch._nested_grams(geoms, self.USERS[:2] + [on_element], "pnusw")

    def test_an_overflowing_cycle_count_raises_no_numpy_warnings(self):
        # at r = 1e308 the cycle count overflows to inf, so every band meets
        # inf - rint(inf) and tan(nan); the stack is rejected as non-finite, with
        # no RuntimeWarning
        geoms = [make_geom(s, s) for s in (51, 201)]
        far = UserLocation(1e308, 1.2, 0.3)
        assert len(ch._boxes(0, 3, 201, 201, joint=True)) > 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateChannelError, match="finite"):
                ch._nested_grams(geoms, self.USERS[:2] + [far], "pnusw")

    def test_m_sweeps_factor_one_stack_per_model_or_chunk_of_drops(self, monkeypatch):
        # sinr-vs-m: one stacked call per model; sum rate: one per chunk of whole
        # drops, every model of each (3 sizes x 2 models x 9 entries a drop)
        shapes = []

        def recording(a, snr, *, g=None):
            shapes.append(g.shape)
            return evaluate_scenario(a, snr, g=g)

        monkeypatch.setattr(xp, "evaluate_scenario", recording)
        sweep_sinr_vs_m(make_geom(), SAME_DIRECTION, [PBAR, PBAR], mz_values=[11, 21, 31])
        assert shapes == [(3, 2, 2)] * 2
        region = UserRegion(r=(50.0, 100.0), theta=(0.1, 1.0), phi=(0.3, 1.0))
        for chunk_entries, want in ((2**16, [(18, 3, 3)]), (108, [(12, 3, 3), (6, 3, 3)]),
                                    (53, [(6, 3, 3)] * 3), (1, [(6, 3, 3)] * 3)):
            monkeypatch.setattr(xp, "_CHUNK_ENTRIES", chunk_entries)
            shapes.clear()
            sumrate_vs_m(make_geom(), region, 3, np.full(3, PBAR), [4, 8, 10], seed=6, n_drops=3)
            assert shapes == want

    def test_the_table_is_the_same_for_any_chunk_of_drops(self, monkeypatch):
        # a stack's rows are bitwise what each matrix gives alone, and each rate
        # sums its own users' log2 terms, so the chunking does not show
        region = UserRegion(r=(50.0, 100.0), theta=(0.1, 1.0), phi=(0.3, 1.0))
        tables = []
        for chunk_entries in (1, 144, 216, 2**16):  # 1, 2, 3 and all 5 drops of 72 entries
            monkeypatch.setattr(xp, "_CHUNK_ENTRIES", chunk_entries)
            res = sumrate_vs_m(make_geom(), region, 3, np.full(3, PBAR), [4, 5, 9, 10], 6, 5)
            tables.append(res.rows)
        assert all(rows == tables[0] for rows in tables)

    @pytest.mark.parametrize("failing", ["factoring", "walk"])
    def test_the_first_failing_drop_raises_its_own_error(self, monkeypatch, failing):
        # drop 0 passes; from drop 1 on, the Grams are made rank one, so W fails
        # its gate with a condition number per drop and model (upw's larger), or,
        # with "walk", each later upw walk and drop 2's pnusw walk raise instead.
        # Each drop's pnusw factoring comes before its upw walk, and drops come
        # in order, so drop 1's pnusw NearSingularError is raised, whatever the chunk
        region = UserRegion(r=(50.0, 100.0), theta=(0.1, 1.0), phi=(0.3, 1.0))
        snr, nested = np.full(3, PBAR), ch._nested_grams

        def collinear(geoms, users, model, cfg=None):
            drop, g = len(made) // 2, nested(geoms, users, model, cfg)
            if drop > 0:
                if failing == "walk" and (model == "upw" or drop == 2):
                    raise DegenerateGeometryError("a later walk")
                root = np.sqrt(np.diagonal(g, axis1=-2, axis2=-1).real)
                root *= 10.0 ** (4 + drop + (model == "upw"))
                g = (root[:, :, None] * root[:, None, :]).astype(complex)
            made.append(g)
            return g

        monkeypatch.setattr(ch, "_nested_grams", collinear)
        for chunk_entries in (1, 108, 2**16):  # 1, 2 and all 3 drops a chunk
            monkeypatch.setattr(xp, "_CHUNK_ENTRIES", chunk_entries)
            made = []
            with pytest.raises(NearSingularError) as got:
                sumrate_vs_m(make_geom(), region, 3, snr, [4, 8, 10], seed=6, n_drops=3)
            worst = []
            for g in made[2:]:  # each later stack alone
                with pytest.raises(NearSingularError) as alone:
                    evaluate_scenario(None, snr, g=g)
                worst.append(alone.value.cond_estimate)
            assert got.value.cond_estimate == worst[0] < min(worst[1:], default=math.inf)
            assert f"{worst[0]:.3e}" in str(got.value)

    def test_mixed_parity_sum_rate_matches_direct_builds(self):
        # sides 4 and 5 take whole direct Grams and side 10 adds its ring to
        # side 4's, read from direct builds; upw is the closed-form Gram
        region = UserRegion(r=(50.0, 100.0), theta=(0.1, 1.0), phi=(0.3, 1.0))
        snr = np.full(3, PBAR)
        sides = [4, 5, 10]
        res = sumrate_vs_m(make_geom(), region, 3, snr, sides, seed=6, n_drops=2)
        for row, side in zip(res.rows, sides):
            for model in ("pnusw", "upw"):
                rates = {scheme: [] for scheme in ("mrc", "zf", "mmse")}
                for drop in range(2):
                    users = sample_users(region, 3, (6, drop))
                    geom = make_geom(side, side)
                    if model == "upw":
                        g = _upw_gram(geom, users)
                    elif side == 5:
                        g = gram(response_matrix(geom, users, model))
                    else:
                        g = ring_grams([make_geom(s, s) for s in (4, 10)], users)[side == 10]
                    for scheme, gammas in evaluate_scenario(None, snr, g=g).items():
                        rates[scheme].append(exact_sum_rate(gammas))
                for scheme, values in rates.items():
                    got = row[res.columns.index(f"{model}_{scheme}_sumrate_bpshz")]
                    assert got == pytest.approx(np.mean(values), rel=1e-15)


class TestCorrelationVsM:
    def test_single_point(self):
        res = sweep_correlation_vs_m(make_geom(), *SAME_DIRECTION, mz_values=[1])
        assert isinstance(res, SweepResult)
        assert len(res.rows) == 1
        assert res.columns == ["m", "m_z", "pnusw_rho_linear", "upw_rho_linear"]
        assert res.rows[0][0] == 10

    def test_upw_column_is_one_for_same_direction_users(self):
        res = sweep_correlation_vs_m(make_geom(), *SAME_DIRECTION, mz_values=[11, 101, 301])
        for row in res.rows:
            assert row[3] == pytest.approx(1.0, abs=1e-12)

    def test_pnusw_correlation_drops_with_m(self):
        res = sweep_correlation_vs_m(make_geom(), *SAME_DIRECTION, mz_values=[11, 301])
        assert res.rows[-1][2] < res.rows[0][2]

    def test_rows_sorted_by_axis(self):
        res = sweep_correlation_vs_m(make_geom(), *SAME_DIRECTION, mz_values=[301, 11, 101])
        assert [row[1] for row in res.rows] == [11, 101, 301]


class TestCorrelationVsDistance:
    def test_colocated_users_are_fully_correlated(self):
        geom = make_geom(num_y=20, num_z=20)
        res = sweep_correlation_vs_distance(
            geom, UserLocation(50.0, math.pi / 2, 0.0), (math.pi / 2, 0.0), [0.0, 10.0]
        )
        first = res.rows[0]
        assert first[0] == 0.0
        assert first[2] == pytest.approx(1.0, abs=1e-12)
        assert first[3] == pytest.approx(1.0, abs=1e-12)

    def test_upw_stays_one_and_pnusw_decays(self):
        geom = make_geom(num_y=40, num_z=40)
        res = sweep_correlation_vs_distance(
            geom, UserLocation(50.0, math.pi / 2, 0.0), (math.pi / 2, 0.0), [1.0, 200.0]
        )
        assert all(row[3] == pytest.approx(1.0, abs=1e-12) for row in res.rows)
        assert res.rows[-1][2] < res.rows[0][2]

    def test_fixed_user_sweeps_build_user_one_once_and_no_plane_wave_response(self, monkeypatch):
        # both sweeps that move user 2 read upw Grams in closed form and build the
        # spherical-wave user 1 once; every user 2 is streamed band by band, with
        # no response block per cell
        built = []
        block = ch._response_block

        def recording(geom, users, model, cfg=None):
            built.append((model, tuple(users)))
            return block(geom, users, model, cfg)

        monkeypatch.setattr(ch, "_response_block", recording)
        geom = make_geom(num_y=8, num_z=9)
        loc1 = UserLocation(30.0, math.pi / 2, 0.0)
        sweep_correlation_vs_distance(geom, loc1, (1.2, 0.3), [1.0, 5.0, 9.0])
        heatmap_snr_loss(geom, loc1, [20.0, 40.0], [-5.0, 5.0], [PBAR, PBAR])
        assert built == [("pnusw", (loc1,))] * 2


class TestSinrVsM:
    def test_schema_and_ordering(self):
        res = sweep_sinr_vs_m(
            make_geom(), SAME_DIRECTION, [PBAR, PBAR], mz_values=[11, 101, 301]
        )
        assert res.columns == [
            "m",
            "m_z",
            "pnusw_mrc_sinr_db",
            "pnusw_zf_sinr_db",
            "pnusw_mmse_sinr_db",
            "upw_mrc_sinr_db",
            "upw_zf_sinr_db",
            "upw_mmse_sinr_db",
        ]
        for row in res.rows:
            for base in (2, 5):
                mrc_db, zf_db, mmse_db = row[base], row[base + 1], row[base + 2]
                assert mmse_db >= mrc_db - 1e-9
                assert mmse_db >= zf_db - 1e-9

    def test_upw_zero_forcing_is_flagged_zero(self):
        res = sweep_sinr_vs_m(make_geom(), SAME_DIRECTION, [PBAR, PBAR], mz_values=[11, 101])
        for row in res.rows:
            assert row[6] == -math.inf

    def test_matches_evaluate_scenario(self):
        res = sweep_sinr_vs_m(make_geom(), SAME_DIRECTION, [PBAR, PBAR], mz_values=[21])
        geom = make_geom(num_z=21)
        a = response_matrix(geom, SAME_DIRECTION, "pnusw")
        gammas = evaluate_scenario(a, np.array([PBAR, PBAR]))
        assert res.rows[0][2] == pytest.approx(10 * math.log10(gammas["mrc"][0]), rel=1e-12)


def mp_mmse_loss(geom, loc1, loc2, p2, model):
    """q2 rho / (1 + q2) from element-by-element sums in the working mpmath precision.

    Each user sits at r (u_x, u_y, u_z) from its float coordinates.  pnusw entries
    are sqrt(area x / (4 pi dist^3)) exp(-j 2 pi dist / wavelength); the area
    factors cancel in rho and are applied to |a_2|^2 only.
    """
    d = mpmath.mpf(geom.spacing)
    k = 2 * mpmath.pi / mpmath.mpf(geom.wavelength)
    if model == "upw":
        delta = [mpmath.mpf(u1) - mpmath.mpf(u2) for u1, u2 in
                 ((loc1.u_y, loc2.u_y), (loc1.u_z, loc2.u_z))]
        sums = [mpmath.fsum(mpmath.expj(k * d * du * mpmath.mpf(m)) for m in idx)
                for du, idx in zip(delta, (geom.indices_y(), geom.indices_z()))]
        rho = abs(sums[0] * sums[1]) ** 2 / geom.num_elements**2
        beta0 = mpmath.mpf(geom.element_area) / (4 * mpmath.pi)
        q2 = p2 * geom.num_elements * beta0 / mpmath.mpf(loc2.r) ** 2
        return q2 * rho / (1 + q2)

    def squared_offsets(loc):
        r = mpmath.mpf(loc.r)
        qx, qy, qz = (r * mpmath.mpf(u) for u in (loc.u_x, loc.u_y, loc.u_z))
        along_y = [(qy - mpmath.mpf(m) * d) ** 2 for m in geom.indices_y()]
        along_z = [qx * qx + (qz - mpmath.mpf(m) * d) ** 2 for m in geom.indices_z()]
        return qx, along_y, along_z

    x1, y1, z1 = squared_offsets(loc1)
    x2, y2, z2 = squared_offsets(loc2)
    n1 = n2 = mpmath.mpf(0)
    inner = mpmath.mpc(0)
    for a1, a2 in zip(z1, z2):
        for b1, b2 in zip(y1, y2):
            s1, s2 = a1 + b1, a2 + b2
            r1, r2 = mpmath.sqrt(s1), mpmath.sqrt(s2)
            n1 += 1 / (s1 * r1)
            n2 += 1 / (s2 * r2)
            inner += mpmath.expj(k * (r1 - r2)) / mpmath.sqrt(s1 * r1 * s2 * r2)
    rho = abs(inner) ** 2 / (n1 * n2)
    q2 = p2 * mpmath.mpf(geom.element_area) / (4 * mpmath.pi) * x2 * n2
    return q2 * rho / (1 + q2)


class TestHeatmap:
    def test_colocated_cell_matches_closed_form(self):
        geom = make_geom(num_y=16, num_z=16)
        loc1 = UserLocation(100.0, math.pi / 2, 0.0)
        res = heatmap_snr_loss(geom, loc1, [100.0], [0.0], [PBAR, PBAR])
        a1 = response_matrix(geom, (loc1,), "upw", UpwConfig.matched_to(geom))[:, 0]
        power = vector_power(a1)
        expected_upw = PBAR * power / (1.0 + PBAR * power)
        row = res.rows[0]
        assert row[3] == pytest.approx(expected_upw, rel=1e-9)
        assert 0.0 <= row[2] <= 1.0

    def test_back_half_space_cells_are_missing(self):
        geom = make_geom(num_y=8, num_z=8)
        loc1 = UserLocation(100.0, math.pi / 2, 0.0)
        res = heatmap_snr_loss(geom, loc1, [-10.0, 0.0, 50.0], [0.0], [PBAR, PBAR])
        cells = {row[0]: row for row in res.rows}
        assert cells[-10.0][2] is None and cells[-10.0][3] is None
        assert cells[0.0][2] is None
        assert cells[50.0][2] is not None

    @pytest.mark.parametrize("snr", [[PBAR], [PBAR, 0.0], [PBAR, -1.0], [PBAR, math.inf], [math.nan, PBAR]])
    def test_needs_two_positive_finite_snrs(self, snr):
        geom = make_geom(num_y=4, num_z=4)
        with pytest.raises(ValueError, match="two positive finite SNRs"):
            heatmap_snr_loss(geom, UserLocation(100.0, math.pi / 2, 0.0), [50.0], [0.0], snr)

    @pytest.mark.parametrize("side", [20, 200])
    def test_matches_the_stacked_two_user_solve(self, side):
        # The stacked path reads alpha as 1 - gamma / (p1 |a_1|^2), which cancels to an
        # absolute error of a few 1e-15 (1.2e-9 relative at the upw cell (140, -30),
        # where mpmath sides with the closed form); hence abs=1e-13 beside rel=1e-9.
        geom = make_geom(num_y=side, num_z=side)
        loc1 = UserLocation(100.0, math.pi / 2, 0.0)
        snr = np.array([PBAR, PBAR])
        xs, ys = np.linspace(50.0, 150.0, 11), np.linspace(-50.0, 50.0, 11)
        res = heatmap_snr_loss(geom, loc1, xs, ys, snr)
        for x, y, *alphas in res.rows:
            loc2 = cartesian_to_spherical((x, y, 0.0))
            for model, alpha in zip(("pnusw", "upw"), alphas):
                a = response_matrix(geom, [loc1, loc2], model)
                gamma = evaluate_scenario(a, snr)["mmse"][0]
                stacked = 1.0 - gamma / (snr[0] * vector_power(a[:, 0]))
                assert alpha == pytest.approx(stacked, rel=1e-9, abs=1e-13), (x, y, model)

    @pytest.mark.parametrize(
        "model, x, y",
        [("upw", 80.0, -50.0), ("upw", 140.0, -30.0), ("pnusw", 80.0, -50.0)],
    )
    def test_matches_mpmath_at_default_size(self, model, x, y):
        geom = make_geom(num_y=200, num_z=200)
        loc1 = UserLocation(100.0, math.pi / 2, 0.0)
        loc2 = cartesian_to_spherical((x, y, 0.0))
        alpha = heatmap_snr_loss(geom, loc1, [x], [y], [PBAR, PBAR], models=(model,)).rows[0][2]
        with mpmath.workdps(50):
            expected = mp_mmse_loss(geom, loc1, loc2, mpmath.mpf(PBAR), model)
        assert alpha == pytest.approx(float(expected), rel=1e-9, abs=0.0)

    def test_near_array_cells_warn(self):
        # the near cell (0.3, 0) builds its two bands and warns
        geom = make_geom(num_y=201, num_z=201)
        assert geom.num_elements > ch._BAND_ENTRIES
        loc1 = UserLocation(100.0, math.pi / 2, 0.0)
        with pytest.warns(NearArrayWarning):
            res = heatmap_snr_loss(geom, loc1, [0.3], [-60.0, 0.0], [PBAR, PBAR], models=("pnusw",))
        assert all(row[2] is not None for row in res.rows)

    def test_rows_cover_grid_in_order(self):
        geom = make_geom(num_y=4, num_z=4)
        loc1 = UserLocation(100.0, math.pi / 2, 0.0)
        res = heatmap_snr_loss(geom, loc1, [60.0, 50.0], [5.0, -5.0], [PBAR, PBAR])
        assert [(row[0], row[1]) for row in res.rows] == [
            (50.0, -5.0),
            (50.0, 5.0),
            (60.0, -5.0),
            (60.0, 5.0),
        ]


class TestSumrateVsM:
    REGION = UserRegion(r=(50.0, 100.0), theta=(0.0, math.pi / 3), phi=(math.pi / 6, math.pi / 3))

    def test_single_user_rates_equal_across_schemes(self):
        res = sumrate_vs_m(
            make_geom(), self.REGION, 1, [PBAR], [6], seed=2, n_drops=3
        )
        row = res.rows[0]
        columns = res.columns
        rate = row[columns.index("pnusw_mrc_sumrate_bpshz")]
        assert row[columns.index("pnusw_zf_sumrate_bpshz")] == pytest.approx(rate, rel=1e-12)
        assert row[columns.index("pnusw_mmse_sumrate_bpshz")] == pytest.approx(rate, rel=1e-12)

    def test_single_user_rate_value(self):
        res = sumrate_vs_m(make_geom(), self.REGION, 1, [PBAR], [6], seed=2, n_drops=1)
        users = sample_users(self.REGION, 1, (2, 0))
        geom = make_geom(num_y=6, num_z=6)
        a = response_matrix(geom, users, "pnusw")
        expected = exact_sum_rate(evaluate_scenario(a, np.array([PBAR]))["mrc"])
        row = res.rows[0]
        assert row[res.columns.index("pnusw_mrc_sumrate_bpshz")] == pytest.approx(
            expected, rel=1e-12
        )

    def test_scheme_ordering_pointwise(self):
        res = sumrate_vs_m(
            make_geom(), self.REGION, 4, [PBAR] * 4, [5, 9], seed=4, n_drops=4
        )
        cols = res.columns
        for row in res.rows:
            for model in ("pnusw", "upw"):
                mrc = row[cols.index(f"{model}_mrc_sumrate_bpshz")]
                zf = row[cols.index(f"{model}_zf_sumrate_bpshz")]
                mmse = row[cols.index(f"{model}_mmse_sumrate_bpshz")]
                assert mmse >= zf - 1e-9 * mmse
                assert mmse >= mrc - 1e-9 * mmse
                assert zf >= 0.0

    def test_rejects_too_many_users(self):
        with pytest.raises(ValueError):
            sumrate_vs_m(make_geom(), self.REGION, 10, [PBAR] * 10, [3], seed=1, n_drops=1)

    def test_rectangular_pairs_accepted(self):
        res = sumrate_vs_m(
            make_geom(), self.REGION, 2, [PBAR] * 2, [(2, 3), 4], seed=9, n_drops=2
        )
        assert [(row[1], row[2]) for row in res.rows] == [(2, 3), (4, 4)]


def test_the_benchmark_worker_finds_the_old_thread_variable():
    # perfbench/worker.py still sets and reads the variable under this name,
    # although no sweep reads it any longer
    assert xp.THREADS_ENV == "XLMIMO_THREADS"
