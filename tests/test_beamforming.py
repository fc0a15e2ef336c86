"""Tests for MRC/ZF/MMSE beamformers, SINR decompositions, and sum rate."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from xlmimo import beamforming
from xlmimo.beamforming import (
    SCHEMES,
    ZF_COLLINEAR_TOL,
    BeamformerReport,
    _mmse_loss,
    evaluate_scenario,
    mmse,
    mrc,
    response_matrix,
    sinr,
    solve_user,
    sum_rate,
    two_user_sinrs,
    zf,
)
from xlmimo.channel import UpwConfig, _upw_gram
from xlmimo.errors import DegenerateChannelError, NearSingularError, ZeroForcingInfeasibleError
from xlmimo.experiments import UserRegion, sample_users
from xlmimo.geometry import ArrayGeometry, UserLocation
from xlmimo.numerics import MAX_CONDITION, cdot, condition, gram, hermitian_solve, vector_power

LAM = 0.1256
D = LAM / 2.0
AREA = LAM**2 / (4.0 * math.pi)
BETA0 = AREA / (4.0 * math.pi)
PBAR = 1e5 / BETA0  # 50 dB reference SNR


def make_geom(num_y=11, num_z=11):
    return ArrayGeometry(
        num_y=num_y, num_z=num_z, spacing=D, element_area=AREA, wavelength=LAM
    )


def complex_randn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_channels(rng, m, k):
    """Random dense channel matrix with O(1) column norms."""
    return complex_randn(rng, m, k) / math.sqrt(m)


def near_collinear_channels(rng, residual, extra, m=64):
    """Unit a_0 plus a_1 whose orthogonal part carries `residual` of its power,
    followed by `extra` random users."""
    a0 = complex_randn(rng, m)
    u = complex_randn(rng, m)
    u -= a0 * (cdot(a0, u) / cdot(a0, a0))
    a0 /= math.sqrt(vector_power(a0))
    u /= math.sqrt(vector_power(u))
    a1 = math.sqrt(1.0 - residual) * np.exp(0.3j) * a0 + math.sqrt(residual) * u
    return np.column_stack([a0, a1] + [complex_randn(rng, m) / 8.0 for _ in range(extra)])


def qr_sinrs(a, snr):
    """ZF and MMSE SINRs of every user from Householder QR, with no Gram matrix.

    With A = Q_A R_A, [G^-1]_kk is the squared norm of row k of R_A^-1, so
    ZF_k = p_k / |row k of R_A^-1|^2; with [A P^1/2; I] = Q R, R^H R = W and
    MMSE_k = 1 / |row k of R^-1|^2 - 1.  ZF is None for M < K.
    """
    k_users = a.shape[1]
    eye = np.eye(k_users)

    def inverse_row_powers(r):
        return np.sum(np.abs(solve_triangular(r, eye)) ** 2, axis=1)

    r = np.linalg.qr(np.vstack([a * np.sqrt(snr), eye]), mode="r")
    out = {"mmse": 1.0 / inverse_row_powers(r) - 1.0, "zf": None}
    if a.shape[0] >= k_users:
        out["zf"] = snr / inverse_row_powers(np.linalg.qr(a, mode="r"))
    return out


def direct_mrc(a, snr, k):
    return sinr(mrc(a[:, k]), a, snr, k)


def mp_zf_sinrs(a, snr):
    """ZF SINRs p_k / [G^-1]_kk in 50-digit arithmetic."""
    with mpmath.workdps(50):
        m = mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in a])
        g_inv = mpmath.inverse(m.H * m)
        return [float(snr[k] / mpmath.re(g_inv[k, k])) for k in range(a.shape[1])]


def vectors_with_correlation(rho, n2=4.0):
    """Two channels whose correlation coefficient is exactly rho."""
    a1 = np.zeros(6, dtype=complex)
    a1[0] = 1.0
    a2 = np.zeros(6, dtype=complex)
    a2[0] = math.sqrt(n2 * rho)
    a2[1] = math.sqrt(n2 * (1.0 - rho))
    return a1, a2


class TestMrc:
    def test_real_axis(self):
        assert mrc(np.array([2.0, 0.0])) == pytest.approx(np.array([1.0, 0.0]))

    def test_complex_direction(self):
        v = mrc(np.array([1.0, 1.0j]) * 5.3)
        assert v == pytest.approx(np.array([1.0, 1.0j]) / math.sqrt(2.0))

    def test_unit_norm_and_aligned(self):
        rng = np.random.default_rng(0)
        a = complex_randn(rng, 40)
        v = mrc(a)
        assert vector_power(v) == pytest.approx(1.0, rel=1e-12)
        inner = cdot(v, a)
        assert inner.imag == pytest.approx(0.0, abs=1e-12)
        assert inner.real == pytest.approx(math.sqrt(vector_power(a)), rel=1e-12)

    def test_zero_channel_rejected(self):
        with pytest.raises(DegenerateChannelError):
            mrc(np.zeros(4, dtype=complex))


class TestZf:
    def test_orthogonal_channels_keep_own_direction(self):
        a = np.eye(4, 2).astype(complex)
        assert zf(a, 0) == pytest.approx(a[:, 0])

    def test_projection_removes_interferer_coordinate(self):
        a1 = np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2.0)
        a2 = np.array([1.0, 0.0, 0.0, 0.0])
        v = zf(np.column_stack([a1, a2]).astype(complex), 0)
        assert v == pytest.approx(np.array([0.0, 1.0, 0.0, 0.0]), abs=1e-12)

    def test_nulls_every_interferer(self):
        rng = np.random.default_rng(1)
        a = random_channels(rng, 64, 4)
        for k in range(4):
            v = zf(a, k)
            assert vector_power(v) == pytest.approx(1.0, rel=1e-12)
            for i in range(4):
                if i != k:
                    assert abs(cdot(v, a[:, i])) <= 1e-10 * np.linalg.norm(a[:, i])

    def test_same_direction_plane_wave_users_are_infeasible(self):
        geom = make_geom(num_y=4, num_z=4)
        cfg = UpwConfig.matched_to(geom)
        users = (
            UserLocation(25.0, math.pi / 2, 0.0),
            UserLocation(250.0, math.pi / 2, 0.0),
        )
        a = response_matrix(geom, users, "upw", cfg)
        with pytest.raises(ZeroForcingInfeasibleError):
            zf(a, 0)

    def test_requires_enough_elements(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ZeroForcingInfeasibleError, match="M=3 and K=4"):
            zf(random_channels(rng, 3, 4), 0)


class TestMmse:
    def test_single_user_reduces_to_mrc(self):
        rng = np.random.default_rng(3)
        a = random_channels(rng, 30, 1)
        assert mmse(a, [PBAR], 0) == pytest.approx(mrc(a[:, 0]), rel=1e-12)

    def test_orthogonal_interferer_is_ignored(self):
        a = np.eye(4, 2).astype(complex)
        assert mmse(a, [2.0, 1.0], 0) == pytest.approx(a[:, 0], abs=1e-12)

    def test_beats_random_probes(self):
        rng = np.random.default_rng(4)
        a = random_channels(rng, 100, 5)
        snr = rng.uniform(0.5, 50.0, size=5)
        v_opt = mmse(a, snr, 2)
        best = sinr(v_opt, a, snr, 2)
        for _ in range(1000):
            u = complex_randn(rng, 100)
            u /= math.sqrt(vector_power(u))
            assert sinr(u, a, snr, 2) <= best * (1.0 + 1e-9)


class TestSinr:
    def test_single_user_snr(self):
        rng = np.random.default_rng(5)
        a = random_channels(rng, 25, 1)
        expected = 3.0 * vector_power(a[:, 0])
        assert sinr(mrc(a[:, 0]), a, [3.0], 0) == pytest.approx(expected, rel=1e-12)

    def test_orthogonal_beamformer_gives_zero(self):
        a = np.eye(4, 2).astype(complex)
        v = np.array([0.0, 0.0, 1.0, 0.0], dtype=complex)
        assert sinr(v, a, [1.0, 1.0], 0) == 0.0

    def test_rejects_non_unit_beamformer(self):
        a = np.eye(3, 1).astype(complex)
        with pytest.raises(ValueError, match="unit norm"):
            sinr(2.0 * a[:, 0], a, [1.0], 0)

    def test_two_user_closed_forms_cross_check(self):
        geom = make_geom(num_y=7, num_z=9)
        users = (UserLocation(25.0, 1.5, 0.1), UserLocation(60.0, 1.4, 0.3))
        snr = np.array([PBAR, 0.5 * PBAR])
        a = response_matrix(geom, users, "pnusw")
        g_mrc, g_zf, g_mmse = two_user_sinrs(a[:, 0], a[:, 1], snr[0], snr[1])
        assert sinr(mrc(a[:, 0]), a, snr, 0) == pytest.approx(g_mrc, rel=1e-10)
        assert sinr(zf(a, 0), a, snr, 0) == pytest.approx(g_zf, rel=1e-10)
        assert sinr(mmse(a, snr, 0), a, snr, 0) == pytest.approx(g_mmse, rel=1e-10)


class TestSinrClosed:
    """Closed-form SINRs and loss factors, as solve_user reports them."""

    def test_mrc_orthogonal_channels_lose_nothing(self):
        a = np.eye(6, 2).astype(complex) * 2.0
        report = solve_user(a, [5.0, 7.0], "mrc", 0)
        assert report.loss_factor == 0.0
        assert report.sinr == pytest.approx(5.0 * 4.0, rel=1e-12)

    def test_zf_two_user_loss_is_the_correlation(self):
        for rho in (0.0, 0.1, 0.5, 0.9, 0.999):
            a1, a2 = vectors_with_correlation(rho)
            report = solve_user(np.column_stack([a1, a2]), [2.0, 3.0], "zf", 0)
            assert report.loss_factor == pytest.approx(rho, abs=1e-12)
            assert report.sinr == pytest.approx(2.0 * (1.0 - rho), rel=1e-10)

    def test_mmse_collinear_loss_factor(self):
        a1, a2 = vectors_with_correlation(1.0, n2=9.0)
        a = np.column_stack([a1, a2])
        p2 = 4.0
        report = solve_user(a, [2.0, p2], "mmse", 0)
        expected_alpha = p2 * 9.0 / (1.0 + p2 * 9.0)
        assert report.loss_factor == pytest.approx(expected_alpha, rel=1e-12)
        assert report.sinr == pytest.approx(2.0 * (1.0 - expected_alpha), rel=1e-10)

    def test_zf_collinear_raises_infeasible(self):
        a1, a2 = vectors_with_correlation(1.0)
        a = np.column_stack([a1, a2])
        with pytest.raises(ZeroForcingInfeasibleError):
            zf(a, 0)
        assert solve_user(a, [1.0, 1.0], "zf", 0).infeasible

    def test_closed_matches_direct_for_all_schemes(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = int(rng.integers(8, 40))
            k = int(rng.integers(2, 5))
            a = random_channels(rng, m, k)
            snr = rng.uniform(0.5, 100.0, size=k)
            for user in range(k):
                for scheme in SCHEMES:
                    report = solve_user(a, snr, scheme, user)
                    direct = sinr(report.beamformer, a, snr, user)
                    assert report.sinr == pytest.approx(direct, rel=1e-10)
                    assert 0.0 <= report.loss_factor <= 1.0

    def test_decomposition_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_channels(rng, 32, 3)
            snr = rng.uniform(0.5, 200.0, size=3)
            for user in range(3):
                single = snr[user] * vector_power(a[:, user])
                for scheme in SCHEMES:
                    report = solve_user(a, snr, scheme, user)
                    assert report.sinr == pytest.approx(
                        single * (1.0 - report.loss_factor), rel=1e-10
                    )


class TestOrdering:
    def test_mmse_dominates_on_random_scenarios(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            m = int(rng.integers(6, 48))
            k = int(rng.integers(2, min(6, m + 1)))
            a = random_channels(rng, m, k)
            snr = rng.uniform(0.2, 300.0, size=k)
            res = evaluate_scenario(a, snr)
            for user in range(k):
                g_mmse = res["mmse"][user]
                assert g_mmse >= res["zf"][user] - 1e-9 * g_mmse
                assert g_mmse >= res["mrc"][user] - 1e-9 * g_mmse

    def test_all_closed_forms_non_increasing_in_correlation(self):
        rhos = np.linspace(0.0, 1.0, 21)
        previous = None
        for rho in rhos:
            a1, a2 = vectors_with_correlation(float(rho), n2=2.0)
            gammas = two_user_sinrs(a1, a2, 50.0, 80.0)
            if previous is not None:
                assert all(g <= p + 1e-12 for g, p in zip(gammas, previous))
            previous = gammas

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        p1=st.floats(1e-2, 1e6),
        p2=st.floats(1e-2, 1e6),
        n2=st.floats(1e-2, 1e2),
    )
    def test_two_user_theorem_holds_for_evaluate_scenario(self, p1, p2, n2):
        # The paper's two-user result: at fixed powers, each of the three SINRs
        # of user 1 falls as the correlation rises; evaluate_scenario must give
        # the closed forms of two_user_sinrs along the way.
        previous = None
        for rho in np.linspace(0.0, 0.99, 45):
            a1, a2 = vectors_with_correlation(float(rho), n2=n2)
            res = evaluate_scenario(np.column_stack([a1, a2]), np.array([p1, p2]))
            got = [float(res[scheme][0]) for scheme in SCHEMES]
            assert got == pytest.approx(two_user_sinrs(a1, a2, p1, p2), rel=1e-9)
            if previous is not None:
                assert all(g < p for g, p in zip(got, previous)), (rho, got, previous)
            previous = got

    def test_zf_beats_mrc_iff_correlation_is_small(self):
        # gamma_zf >= gamma_mrc exactly when rho <= 1 - 1/(p2 |a2|^2)
        p2, n2 = 5.0, 2.0
        threshold = 1.0 - 1.0 / (p2 * n2)
        for rho in np.linspace(0.0, 1.0, 41):
            a1, a2 = vectors_with_correlation(float(rho), n2=n2)
            g_mrc, g_zf, _ = two_user_sinrs(a1, a2, 3.0, p2)
            if rho <= threshold - 1e-9:
                assert g_zf >= g_mrc - 1e-12
            elif rho >= threshold + 1e-9:
                assert g_zf < g_mrc


class TestDenseOracle:
    def test_structured_sinrs_match_dense_formulas(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            m = int(rng.integers(4, 33))
            k = int(rng.integers(2, min(5, m + 1)))
            a = random_channels(rng, m, k)
            snr = rng.uniform(0.5, 100.0, size=k)
            user = int(rng.integers(0, k))
            abar = np.delete(a, user, axis=1)
            a_k = a[:, user]
            projector = np.eye(m) - abar @ np.linalg.inv(abar.conj().T @ abar) @ abar.conj().T
            dense_zf = snr[user] * (a_k.conj() @ projector @ a_k).real
            cov = np.eye(m) + (abar * np.delete(snr, user)) @ abar.conj().T
            dense_mmse = snr[user] * (a_k.conj() @ np.linalg.inv(cov) @ a_k).real
            res = evaluate_scenario(a, snr)
            assert res["zf"][user] == pytest.approx(dense_zf, rel=1e-9)
            assert res["mmse"][user] == pytest.approx(dense_mmse, rel=1e-9)


class TestEvaluateScenario:
    def test_matches_per_user_closed_forms(self):
        rng = np.random.default_rng(10)
        a = random_channels(rng, 50, 6)
        snr = rng.uniform(1.0, 50.0, size=6)
        res = evaluate_scenario(a, snr)
        oracle = qr_sinrs(a, snr)
        for user in range(6):
            assert res["mrc"][user] == pytest.approx(direct_mrc(a, snr, user), rel=1e-10)
            for scheme in ("zf", "mmse"):
                assert res[scheme][user] == pytest.approx(oracle[scheme][user], rel=1e-10)

    def test_single_inverse_matches_per_user_forms_on_random_cases(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            m = int(rng.integers(4, 200))
            k = int(rng.integers(1, min(11, m + 1)))
            a = random_channels(rng, m, k)
            snr = 10 ** rng.uniform(-1, 9, size=k)
            res = evaluate_scenario(a, snr)
            oracle = qr_sinrs(a, snr)
            for user in range(k):
                assert res["mrc"][user] == pytest.approx(direct_mrc(a, snr, user), rel=1e-10)
                for scheme in ("zf", "mmse"):
                    assert res[scheme][user] == pytest.approx(oracle[scheme][user], rel=1e-10)

    @pytest.mark.parametrize("extra", [0, 2])
    def test_near_collinear_users_on_both_sides_of_the_zf_tolerance(self, extra):
        # The Gram squares the condition number, so ZF loses about
        # eps / residual relative (1e-6 at residual 1e-10) on the K x K path.
        rng = np.random.default_rng(13)
        for residual in (100.0 * ZF_COLLINEAR_TOL, 0.01 * ZF_COLLINEAR_TOL):
            a = near_collinear_channels(rng, residual, extra)
            snr = np.full(a.shape[1], 1e6)
            res = evaluate_scenario(a, snr)
            oracle = qr_sinrs(a, snr)
            for user in range(a.shape[1]):
                assert res["mmse"][user] == pytest.approx(oracle["mmse"][user], rel=1e-8)
                if residual > ZF_COLLINEAR_TOL:
                    assert res["zf"][user] == pytest.approx(oracle["zf"][user], rel=1e-4)
                else:
                    with pytest.raises(ZeroForcingInfeasibleError):
                        zf(a, user)
                    assert res["zf"][user] == 0.0

    @pytest.mark.parametrize("extra", [0, 2])
    def test_near_collinear_zf_matches_extended_precision(self, extra):
        rng = np.random.default_rng(15)
        residual = 100.0 * ZF_COLLINEAR_TOL
        a = near_collinear_channels(rng, residual, extra)
        snr = np.full(a.shape[1], 1e6)
        res = evaluate_scenario(a, snr)
        exact = mp_zf_sinrs(a, snr)
        for user in range(a.shape[1]):
            assert res["zf"][user] == pytest.approx(exact[user], rel=1e-4)
            assert sinr(zf(a, user), a, snr, user) == pytest.approx(exact[user], rel=1e-4)
            if extra == 0:
                assert res["zf"][user] == pytest.approx(snr[user] * residual, rel=1e-4)
                assert exact[user] == pytest.approx(snr[user] * residual, rel=1e-4)

    def test_zf_raises_exactly_where_zf_sinr_is_zero(self):
        rng = np.random.default_rng(16)
        geom = make_geom(num_y=6, num_z=7)
        plane_wave = response_matrix(geom, (
            UserLocation(25.0, math.pi / 2, 0.0),
            UserLocation(250.0, math.pi / 2, 0.0),
            UserLocation(60.0, 1.2, 0.4),
        ), "upw")
        cases = [
            plane_wave,
            near_collinear_channels(rng, 0.01 * ZF_COLLINEAR_TOL, 0),
            near_collinear_channels(rng, 100.0 * ZF_COLLINEAR_TOL, 2),
            random_channels(rng, 2, 3),
            random_channels(rng, 5, 3),
        ]
        for a in cases:
            res = evaluate_scenario(a, np.full(a.shape[1], PBAR))
            for user in range(a.shape[1]):
                try:
                    zf(a, user)
                    raised = False
                except ZeroForcingInfeasibleError:
                    raised = True
                assert raised == (res["zf"][user] == 0.0)

    def test_zf_tolerance_applies_where_the_condition_gate_passes(self):
        # residual 0.5 * tol: cond(G) ~ 2e12 passes hermitian_solve's gate
        # (MAX_CONDITION ~ 4.5e12), so only ZF_COLLINEAR_TOL rules ZF out
        rng = np.random.default_rng(17)
        a = near_collinear_channels(rng, 0.5 * ZF_COLLINEAR_TOL, 0)
        assert np.array_equal(evaluate_scenario(a, np.full(2, 1e6))["zf"], np.zeros(2))
        for user in range(2):
            with pytest.raises(ZeroForcingInfeasibleError):
                zf(a, user)

    def test_solve_user_reports_evaluate_scenario_bitwise(self):
        users = (UserLocation(25.0, 1.5, 0.1), UserLocation(70.0, 1.3, -0.4),
                 UserLocation(40.0, 1.1, 0.3))
        a = response_matrix(make_geom(num_y=5, num_z=6), users, "pnusw")
        snr = (PBAR, 0.5 * PBAR, 2.0 * PBAR)
        res = evaluate_scenario(a, np.asarray(snr))
        for scheme in SCHEMES:
            for user in range(3):
                assert solve_user(a, snr, scheme, user).sinr == res[scheme][user]

    def test_solve_user_factors_once(self, monkeypatch):
        calls = []
        factorize = beamforming._factorize

        def counted(*args):
            calls.append(args)
            return factorize(*args)

        monkeypatch.setattr(beamforming, "_factorize", counted)
        rng = np.random.default_rng(32)
        a = random_channels(rng, 12, 3)
        for scheme in SCHEMES:
            calls.clear()
            report = solve_user(a, (2.0, 3.0, 5.0), scheme, 1)
            assert len(calls) == 1, scheme
            assert report.single_user_snr == 3.0 * gram(a)[1, 1].real

    def test_nan_off_diagonal_gram_is_a_value_error(self):
        g = np.eye(2, dtype=complex)
        g[0, 1] = g[1, 0] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            evaluate_scenario(None, np.ones(2), g=g)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 24),
        k=st.integers(2, 5),
        duplicate=st.booleans(),
        exponents=st.lists(st.floats(-6.0, 6.0), min_size=5, max_size=5),
    )
    def test_sinrs_do_not_depend_on_how_a_user_splits_channel_and_snr(
        self, seed, m, k, duplicate, exponents
    ):
        # Scaling user k's channel by c_k and its SNR by 1 / c_k^2 leaves every
        # SINR unchanged, and so must the gate: a power spread alone never rules
        # out zero forcing.  A duplicated channel keeps ZF infeasible at any scale.
        rng = np.random.default_rng(seed)
        a = random_channels(rng, m, k)
        if duplicate:
            a[:, -1] = 0.5j * a[:, 0]
        snr = rng.uniform(1.0, 1e4, size=k)
        c = 10.0 ** np.array(exponents[:k])
        base = evaluate_scenario(a, snr)
        scaled = evaluate_scenario(a * c, snr / c**2)
        assert np.array_equal(scaled["zf"] == 0.0, base["zf"] == 0.0)
        feasible = base["zf"] > 0.0
        if feasible.any():
            zf_tol = 100.0 * k * np.finfo(float).eps * condition(gram(a))
            assert np.allclose(scaled["zf"][feasible], base["zf"][feasible], rtol=zf_tol, atol=0.0)
        for scheme in ("mrc", "mmse"):
            assert np.allclose(scaled[scheme], base[scheme], rtol=1e-9, atol=0.0), scheme

    def test_near_and_far_plane_wave_users_match_mpmath(self):
        # User 1 at 1 m and user 2 at 3e6 m: channel powers 13 decades apart,
        # nearly orthogonal, at 110 dB.  ZF and MMSE both exist and agree with
        # 60-digit arithmetic on the same Gram.
        users = (UserLocation(1.0, math.pi / 2, 0.0), UserLocation(3e6, math.pi / 2, 0.5))
        grams = _upw_gram([make_geom(num_y=10, num_z=mz) for mz in (11, 101)], users)
        snr = np.full(2, 1e11 / BETA0)
        res = evaluate_scenario(None, snr, g=grams)
        for i, g in enumerate(grams):
            assert condition(g) < 10.0
            with mpmath.workdps(60):
                p = [mpmath.mpf(x) for x in snr]
                g_mp = mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in g])
                w_mp = mpmath.matrix([[mpmath.sqrt(p[r]) * g_mp[r, c] * mpmath.sqrt(p[c]) + (r == c)
                                       for c in range(2)] for r in range(2)])
                g_inv, w_inv = mpmath.inverse(g_mp), mpmath.inverse(w_mp)
                for user in range(2):
                    zf_exact = float(p[user] / mpmath.re(g_inv[user, user]))
                    mmse_exact = float(1 / mpmath.re(w_inv[user, user]) - 1)
                    assert res["zf"][i, user] == pytest.approx(zf_exact, rel=1e-14, abs=0.0)
                    assert res["mmse"][i, user] == pytest.approx(mmse_exact, rel=1e-14, abs=0.0)

    def test_plane_wave_users_sharing_a_direction(self):
        # users 0 and 1 share a direction, so user 2's interferers are collinear
        geom = make_geom(num_y=6, num_z=7)
        users = (
            UserLocation(25.0, math.pi / 2, 0.0),
            UserLocation(250.0, math.pi / 2, 0.0),
            UserLocation(60.0, 1.2, 0.4),
        )
        a = response_matrix(geom, users, "upw")
        snr = np.full(3, PBAR)
        res = evaluate_scenario(a, snr)
        oracle = qr_sinrs(a, snr)
        for user in range(3):
            assert res["zf"][user] == 0.0
            with pytest.raises(ZeroForcingInfeasibleError):
                zf(a, user)
            assert res["mmse"][user] == pytest.approx(oracle["mmse"][user], rel=1e-9)

    def test_fewer_elements_than_users_rules_out_zero_forcing_only(self):
        rng = np.random.default_rng(14)
        a = random_channels(rng, 2, 3)
        snr = np.array([3.0, 5.0, 7.0])
        res = evaluate_scenario(a, snr)
        assert np.array_equal(res["zf"], np.zeros(3))
        for user in range(3):
            abar = np.delete(a, user, axis=1)
            cov = np.eye(2) + (abar * np.delete(snr, user)) @ abar.conj().T
            dense = snr[user] * (a[:, user].conj() @ np.linalg.inv(cov) @ a[:, user]).real
            assert res["mmse"][user] == pytest.approx(dense, rel=1e-10)
            assert res["mrc"][user] == pytest.approx(direct_mrc(a, snr, user), rel=1e-12)

    def test_powers_whose_square_overflows_are_rejected(self):
        rng = np.random.default_rng(15)
        a = random_channels(rng, 16, 3)
        snr = np.full(3, 1e-100)
        scale = 1e75 / math.sqrt(vector_power(a[:, 0]))  # user 0's power 1e150
        res = evaluate_scenario(a * scale, snr)
        assert res["mrc"][0] > 0.0
        with pytest.raises(DegenerateChannelError, match="too large"):
            evaluate_scenario(a * (1e3 * scale), snr)

    def test_single_user_all_schemes_equal(self):
        rng = np.random.default_rng(11)
        a = random_channels(rng, 16, 1)
        res = evaluate_scenario(a, np.array([7.0]))
        expected = 7.0 * vector_power(a[:, 0])
        for scheme in SCHEMES:
            assert res[scheme][0] == pytest.approx(expected, rel=1e-12)

    def test_infeasible_zero_forcing_reports_zero(self):
        geom = make_geom(num_y=4, num_z=4)
        users = (
            UserLocation(25.0, math.pi / 2, 0.0),
            UserLocation(250.0, math.pi / 2, 0.0),
        )
        a = response_matrix(geom, users, "upw")
        res = evaluate_scenario(a, np.array([PBAR, PBAR]))
        assert res["zf"][0] == 0.0
        assert res["zf"][1] == 0.0
        assert res["mmse"][0] > 0.0

    @pytest.mark.parametrize("model", ["pnusw", "upw"])
    def test_low_snr_mmse_matches_mpmath(self, model):
        # The default sinr-vs-m pair at m_z = 11.  Read as 1 / [W^-1]_kk - 1, the
        # MMSE SINR lost 4e-11 of itself at -50 dB and all of it below -160 dB.
        geom = make_geom(num_y=10, num_z=11)
        users = (UserLocation(25.0, math.pi / 2, 0.0), UserLocation(250.0, math.pi / 2, 0.0))
        a = response_matrix(geom, users, model)
        with mpmath.workdps(60):
            cols = [[mpmath.mpc(complex(z)) for z in a[:, k]] for k in range(2)]
            g = [[mpmath.fsum(mpmath.conj(x) * y for x, y in zip(cols[k], cols[i]))
                  for i in range(2)] for k in range(2)]
            for ref_db in range(-50, -201, -30):
                snr = np.full(2, 10.0 ** (ref_db / 10.0) / BETA0)
                res = evaluate_scenario(a, snr)
                for k, j in ((0, 1), (1, 0)):
                    p_k, p_j = mpmath.mpf(snr[k]), mpmath.mpf(snr[j])
                    exact = p_k * mpmath.re(
                        g[k][k] - p_j * abs(g[k][j]) ** 2 / (1 + p_j * g[j][j])
                    )
                    assert res["mmse"][k] == pytest.approx(float(exact), rel=1e-13, abs=0.0), ref_db

    def test_random_scenarios_agree_with_the_old_sinr_forms(self):
        # MRC summed p_i |G_ik|^2 / G_kk and MMSE read 1 / [W^-1]_kk - 1 before;
        # at 50 dB with unit-scale channels neither underflows nor cancels
        rng = np.random.default_rng(17)
        for _ in range(50):
            k = int(rng.integers(2, 9))
            a = random_channels(rng, int(rng.integers(2 * k, 300)), k)
            snr = np.full(k, 1e5)
            g = gram(a)
            powers = g.diagonal().real
            coupling = np.abs(g) ** 2
            np.fill_diagonal(coupling, 0.0)
            old_mrc = snr * powers / ((coupling * snr).sum(axis=1) / powers + 1.0)
            root = np.sqrt(snr)
            w_inv = hermitian_solve(np.eye(k) + root[:, None] * g * root[None, :], np.eye(k))
            res = evaluate_scenario(a, snr)
            assert res["mrc"] == pytest.approx(old_mrc, rel=1e-12)
            assert res["mmse"] == pytest.approx(1.0 / w_inv.diagonal().real - 1.0, rel=1e-12)

    def test_mmse_equals_mrc_where_interference_vanishes(self):
        # far below the noise W = I to double precision, so both read p_k G_kk
        rng = np.random.default_rng(19)
        for _ in range(20):
            a = random_channels(rng, 30, 5)
            res = evaluate_scenario(a, rng.uniform(1e-30, 1e-28, size=5))
            assert np.array_equal(res["mmse"], res["mrc"])

    def test_mrc_keeps_interference_at_tiny_channel_powers(self):
        # G ~ 1e-304, so |G_ik|^2 underflows to 0 and MRC once dropped all
        # interference; SINRs depend on A and P only through p_i a_i
        rng = np.random.default_rng(18)
        a = random_channels(rng, 40, 4)
        snr = rng.uniform(1.0, 50.0, size=4)
        tiny = evaluate_scenario(a * 1e-152, snr * 1e304)
        for scheme, gammas in evaluate_scenario(a, snr).items():
            assert tiny[scheme] == pytest.approx(gammas, rel=1e-12)
        assert np.all(tiny["mrc"] <= tiny["mmse"])


def assert_rows_bitwise(stacked, grams, snr):
    """Row i of a stacked evaluate_scenario is bitwise the one-matrix call on grams[i]."""
    for i, g in enumerate(grams):
        for scheme, gammas in evaluate_scenario(None, snr, g=g).items():
            assert stacked[scheme].shape == (len(grams), len(snr))
            assert stacked[scheme][i].tobytes() == gammas.tobytes(), (i, scheme)


class TestStackedScenarios:
    """evaluate_scenario on an (n, K, K) stack of Grams: one call, per-matrix results."""

    def test_feasible_and_rank_deficient_grams_mixed(self):
        rng = np.random.default_rng(22)
        deficient = {1, 4, 5}
        grams = []
        for i in range(8):
            if i == 4:  # two equal columns, enough elements
                a = random_channels(rng, 40, 10)
                a[:, 7] = a[:, 2]
            else:  # fewer elements than users where deficient
                a = random_channels(rng, 6 if i in deficient else 40, 10)
            grams.append(gram(a))
        snr = rng.uniform(1.0, 1e5, size=10)
        stacked = evaluate_scenario(None, snr, g=np.stack(grams))
        assert_rows_bitwise(stacked, grams, snr)
        for i in range(8):
            assert np.all(stacked["zf"][i] == 0.0) == (i in deficient)
            assert np.all(stacked["zf"][i] > 0.0) == (i not in deficient)
            assert np.all(stacked["mmse"][i] >= stacked["mrc"][i])

    def test_all_infeasible_plane_wave_stack(self):
        # the default sinr-vs-m pair shares a direction: every Gram is rank 1
        users = (UserLocation(25.0, math.pi / 2, 0.0), UserLocation(250.0, math.pi / 2, 0.0))
        grams = _upw_gram([make_geom(num_y=10, num_z=mz) for mz in (11, 21, 51, 101)], users)
        snr = np.full(2, PBAR)
        stacked = evaluate_scenario(None, snr, g=grams)
        assert_rows_bitwise(stacked, grams, snr)
        assert np.array_equal(stacked["zf"], np.zeros((4, 2)))
        assert np.all(stacked["mmse"] > 0.0)

    def test_one_matrix_stack(self):
        rng = np.random.default_rng(23)
        g = gram(random_channels(rng, 30, 4))
        snr = rng.uniform(1.0, 1e3, size=4)
        stacked = evaluate_scenario(None, snr, g=g[None])
        assert_rows_bitwise(stacked, [g], snr)
        a = random_channels(rng, 3, 4)
        assert_rows_bitwise(evaluate_scenario(None, snr, g=gram(a)[None]), [gram(a)], snr)

    def test_a_failing_w_stack_raises_like_one_w(self):
        # plane-wave users sharing a direction at 200 dB: W = I + H is numerically
        # singular, and the stack raises as its matrix does alone
        users = [UserLocation(r, 1.2, 0.3) for r in (55.0, 70.0, 90.0)]
        grams = _upw_gram([make_geom(4, 4), make_geom(6, 6)], users)
        snr = np.full(3, 1e20 / BETA0)
        with pytest.raises(NearSingularError):
            evaluate_scenario(None, snr, g=grams[0])
        with pytest.raises(NearSingularError):
            evaluate_scenario(None, snr, g=grams)

    def test_a_failing_w_reports_its_condition_number(self):
        # G = [[1, 1], [1, 1]] and p = 1e14: the unit-diagonal form of W has
        # eigenvalues 1 +- p / (1 + p), so cond(W) = 2e14 + 1
        g = np.ones((3, 2, 2), dtype=complex)
        g[0, 0, 1] = g[0, 1, 0] = 0.5
        with pytest.raises(NearSingularError) as excinfo:
            evaluate_scenario(None, np.full(2, 1e14), g=g)
        assert excinfo.value.cond_estimate == pytest.approx(2e14, rel=0.05)

    def test_near_collinear_plane_wave_mmse_matches_mpmath(self):
        # Default sum-rate drop 62 (seed 0) on the 20 x 20 array: cond(W) ~ 2e4.
        # Its user-5 MMSE SINR moved by 2e-12 of itself when the K x K solve
        # changed LAPACK path; held to cond(W) eps against 60-digit arithmetic.
        region = UserRegion(
            r=(50.0, 100.0), theta=(0.0, math.pi / 3), phi=(math.pi / 6, math.pi / 3)
        )
        users = sample_users(region, 10, (0, 62))
        sides = (10, 20, 40)
        grams = _upw_gram([make_geom(s, s) for s in sides], users)
        snr = np.full(10, PBAR)
        got = evaluate_scenario(None, snr, g=grams)["mmse"][1, 5]
        g = grams[1]
        root = np.sqrt(snr)
        w = np.eye(10) + root[:, None] * g * root[None, :]
        with mpmath.workdps(60):
            p = [mpmath.sqrt(mpmath.mpf(x)) for x in snr]
            w_mp = mpmath.matrix([[p[i] * mpmath.mpc(complex(g[i, j])) * p[j] + (i == j)
                                   for j in range(10)] for i in range(10)])
            exact = float(1 / mpmath.re(mpmath.inverse(w_mp)[5, 5]) - 1)
        assert got == pytest.approx(exact, rel=np.linalg.cond(w) * np.finfo(float).eps, abs=0.0)


class TestScenarioAndReports:
    def test_scenario_validation(self):
        geom = make_geom(num_y=3, num_z=3)
        users = (UserLocation(30.0, 1.2, 0.0), UserLocation(60.0, 1.0, 0.4))
        a = response_matrix(geom, users, "pnusw")
        with pytest.raises(IndexError, match="out of range"):
            solve_user(a[:, :0], (), "mmse", 0)
        with pytest.raises(ValueError, match="SNRs"):
            solve_user(a, (1.0,), "mmse", 1)
        with pytest.raises(ValueError, match="SNRs"):
            solve_user(a, (1.0, 2.0, 3.0), "mmse", 0)
        with pytest.raises(ValueError, match="SNRs"):
            solve_user(a, (1.0, -1.0), "mrc", 0)
        with pytest.raises(ValueError, match="unknown channel model"):
            response_matrix(geom, users, "nope")

    def test_upw_scenario_gets_matched_config(self):
        geom = make_geom(num_y=3, num_z=3)
        users = (UserLocation(30.0, 1.2, 0.0), UserLocation(60.0, 1.0, 0.4))
        matched = response_matrix(geom, users, "upw", UpwConfig.matched_to(geom))
        assert response_matrix(geom, users, "upw").tobytes() == matched.tobytes()

    def test_report_invariants(self):
        users = (UserLocation(25.0, 1.5, 0.1), UserLocation(70.0, 1.3, -0.4))
        a = response_matrix(make_geom(num_y=5, num_z=5), users, "pnusw")
        for scheme in SCHEMES:
            report = solve_user(a, (PBAR, PBAR), scheme, 0)
            assert isinstance(report, BeamformerReport)
            assert not report.infeasible
            assert vector_power(report.beamformer) == pytest.approx(1.0, abs=1e-12)
            assert report.sinr == pytest.approx(
                report.single_user_snr * (1.0 - report.loss_factor), rel=1e-10
            )
            assert 0.0 <= report.loss_factor <= 1.0

    def test_infeasible_report(self):
        users = (UserLocation(25.0, math.pi / 2, 0.0), UserLocation(250.0, math.pi / 2, 0.0))
        a = response_matrix(make_geom(num_y=4, num_z=4), users, "upw")
        report = solve_user(a, (PBAR, PBAR), "zf", 0)
        assert report.infeasible
        assert report.beamformer is None
        assert report.sinr == 0.0
        assert report.loss_factor == 1.0


class TestTwoUserForms:
    def test_uncorrelated_users_see_no_interference(self):
        a1, a2 = vectors_with_correlation(0.0)
        g = two_user_sinrs(a1, a2, 6.0, 9.0)
        assert g == pytest.approx((6.0, 6.0, 6.0), rel=1e-12)

    def test_fully_correlated_kills_zero_forcing(self):
        a1, a2 = vectors_with_correlation(1.0)
        _, g_zf, _ = two_user_sinrs(a1, a2, 6.0, 9.0)
        assert g_zf == 0.0

    def test_degenerate_channel_rejected(self):
        with pytest.raises(DegenerateChannelError):
            two_user_sinrs(np.zeros(3, dtype=complex), np.ones(3, dtype=complex), 1.0, 1.0)

    @pytest.mark.parametrize("q2", [0.0, 1e-300, 0.5, 1.0, 1.0 + 2e-16, 3.0, 1e300, math.inf])
    def test_mmse_loss_is_q2_rho_over_one_plus_q2(self, q2):
        expected = 0.3 if q2 == math.inf else 0.3 * q2 / (1.0 + q2)
        assert _mmse_loss(q2, 0.3) == pytest.approx(expected, rel=1e-15, abs=0.0)


class TestSumRate:
    def test_zeros(self):
        assert sum_rate([0.0, 0.0]) == 0.0

    def test_known_values(self):
        assert sum_rate([1.0, 3.0]) == pytest.approx(3.0, rel=1e-15)

    def test_singleton(self):
        assert sum_rate([5.0]) == pytest.approx(math.log2(6.0), rel=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            sum_rate([-0.5])
        for row in range(4):  # in any row of a stack
            gammas = np.ones((4, 3))
            gammas[row, 2] = -1e-300
            with pytest.raises(ValueError, match="non-negative"):
                sum_rate(gammas)

    def test_a_stack_gives_its_rows_bitwise(self):
        # one pairwise sum per row of SINRs, as the sum-rate sweep takes them
        rng = np.random.default_rng(28)
        for k in (1, 3, 10, 64):
            gammas = rng.exponential(1e4, (5, k))
            got = sum_rate(gammas)
            assert got.shape == (5,)
            assert got.tobytes() == np.array([sum_rate(row) for row in gammas]).tobytes()
        stack = rng.exponential(1e4, (2, 3, 4))
        assert sum_rate(stack).tobytes() == np.array([sum_rate(m) for m in stack]).tobytes()
