"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance and runtime budget is pinned here.
"""

import math
import time

import numpy as np
import pytest

from xlmimo.beamforming import (
    SCHEMES,
    evaluate_scenario,
    mmse,
    mrc,
    response_matrix,
    sinr,
    two_user_sinrs,
    zf,
)
from xlmimo.channel import UpwConfig, _upw_gram, correlation
from xlmimo.cli import dispatch, main, parse_config, run
from xlmimo.experiments import (
    heatmap_snr_loss,
    sweep_correlation_vs_distance,
    sweep_correlation_vs_m,
    sweep_sinr_vs_m,
)
from xlmimo.geometry import ArrayGeometry, UserLocation
from xlmimo.numerics import cdot, vector_power

LAM = 0.1256
D = LAM / 2.0
AREA = LAM**2 / (4.0 * math.pi)
BETA0 = AREA / (4.0 * math.pi)
PBAR = 1e5 / BETA0  # 50 dB reference SNR

USER_NEAR = UserLocation(25.0, math.pi / 2, 0.0)
USER_FAR = UserLocation(250.0, math.pi / 2, 0.0)


def make_geom(num_y, num_z):
    return ArrayGeometry(
        num_y=num_y, num_z=num_z, spacing=D, element_area=AREA, wavelength=LAM
    )


def column(geom, loc, model, cfg=None):
    """One user's response vector."""
    return response_matrix(geom, (loc,), model, cfg)[:, 0]


class _Budget:
    def __init__(self, name, limit_s):
        self.name = name
        self.limit_s = limit_s
        self.start = time.perf_counter()

    def done(self, detail=""):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.limit_s, (
            f"{self.name} took {elapsed:.1f}s, budget {self.limit_s}s"
        )
        suffix = f" | {detail}" if detail else ""
        print(f"PASS {self.name} [{elapsed:.1f}s < {self.limit_s}s]{suffix}")


def test_c01_two_user_closed_forms_match_pipeline():
    budget = _Budget("criterion 1: two-user closed forms == beamformer pipeline", 5.0)
    rng = np.random.default_rng(20240101)
    worst = 0.0
    for _ in range(200):
        while True:
            num_y = int(rng.integers(1, 22))
            num_z = int(rng.integers(1, 22))
            if num_y * num_z >= 2:  # zero forcing needs M >= K
                break
        geom = make_geom(num_y, num_z)
        users = []
        while len(users) < 2:
            loc = UserLocation(
                rng.uniform(10.0, 300.0),
                rng.uniform(0.3, math.pi - 0.3),
                rng.uniform(-1.3, 1.3),
            )
            if loc.u_x >= 0.05:
                users.append(loc)
        a = response_matrix(geom, users, "pnusw")
        snr = np.array([10 ** rng.uniform(2, 9), 10 ** rng.uniform(2, 9)])
        closed = two_user_sinrs(a[:, 0], a[:, 1], snr[0], snr[1])
        direct = (
            sinr(mrc(a[:, 0]), a, snr, 0),
            sinr(zf(a, 0), a, snr, 0),
            sinr(mmse(a, snr, 0), a, snr, 0),
        )
        for got, want in zip(closed, direct):
            assert got == pytest.approx(want, rel=1e-10)
            worst = max(worst, abs(got - want) / max(want, 1e-300))
    budget.done(f"200 scenarios, worst rel diff {worst:.1e}")


def test_c02_upw_closed_correlation_matches_direct_sum():
    budget = _Budget("criterion 2: plane-wave closed correlation == direct sum", 5.0)
    rng = np.random.default_rng(777)
    pairs = []
    for _ in range(420):
        geom = make_geom(int(rng.integers(1, 16)), int(rng.integers(1, 16)))
        u1 = UserLocation(rng.uniform(20, 200), rng.uniform(0.2, 2.9), rng.uniform(-1.4, 1.4))
        u2 = UserLocation(rng.uniform(20, 200), rng.uniform(0.2, 2.9), rng.uniform(-1.4, 1.4))
        pairs.append((geom, u1, u2))
    # engineered pairs with (d/lambda)*delta within 1e-8 of an integer, both axes
    deltas = [0.0, 1e-13, 1e-11, 1e-10, 1e-9, 5e-9, 1e-8, 1.9e-8]
    for delta in deltas:
        for num_y in (4, 9, 15):
            geom = make_geom(num_y, int(rng.integers(1, 16)))
            u1 = UserLocation(40.0, math.pi / 2, math.pi / 2)  # u_y = 1
            u2 = UserLocation(55.0, math.pi / 2, -math.asin(1.0 - delta))
            pairs.append((geom, u1, u2))  # d_norm * delta_u_y next to 1
            u3 = UserLocation(70.0, math.pi / 2, math.asin(1.0 - delta))
            pairs.append((geom, u1, u3))  # d_norm * delta_u_y next to 0
        for num_z in (5, 7, 8, 12):
            geom = make_geom(int(rng.integers(1, 16)), num_z)
            u1 = UserLocation(40.0, 0.0, 0.0)  # u_z = 1
            u2 = UserLocation(55.0, math.acos(-(1.0 - delta)), 0.0)
            pairs.append((geom, u1, u2))  # d_norm * delta_u_z next to 1
    assert len(pairs) >= 500
    worst = 0.0
    for geom, u1, u2 in pairs[:500]:
        a1, a2 = column(geom, u1, "upw"), column(geom, u2, "upw")
        direct = abs(cdot(a1, a2)) ** 2 / (vector_power(a1) * vector_power(a2))
        closed = correlation(_upw_gram(geom, (u1, u2)))
        assert closed == pytest.approx(direct, abs=1e-9)
        worst = max(worst, abs(closed - direct))
    budget.done(f"500 pairs, worst abs diff {worst:.1e}")


def test_c03_correlation_vs_antenna_number():
    budget = _Budget("criterion 3: correlation vs antenna number (10 x 11..1001)", 30.0)
    result = sweep_correlation_vs_m(
        make_geom(10, 11), USER_NEAR, USER_FAR, mz_values=range(11, 1002, 10)
    )
    assert len(result.rows) == 100
    upw = [row[3] for row in result.rows]
    assert all(abs(value - 1.0) <= 1e-12 for value in upw)
    first = next(row[2] for row in result.rows if row[1] == 11)
    last = next(row[2] for row in result.rows if row[1] == 1001)
    assert last < first
    budget.done(f"pnusw rho {first:.4f} -> {last:.4f}, upw stays 1")


def test_c04_correlation_vs_distance_separation():
    budget = _Budget("criterion 4: correlation vs distance separation (200 x 200)", 60.0)
    result = sweep_correlation_vs_distance(
        make_geom(200, 200),
        UserLocation(50.0, math.pi / 2, 0.0),
        (math.pi / 2, 0.0),
        separations=range(0, 201),
    )
    by_sep = {row[0]: row for row in result.rows}
    assert all(abs(row[3] - 1.0) <= 1e-12 for row in result.rows)
    assert by_sep[200.0][2] < by_sep[1.0][2]
    budget.done(
        f"pnusw rho at 1 m {by_sep[1.0][2]:.4f} vs 200 m {by_sep[200.0][2]:.4f}"
    )


def test_c05_sinr_vs_antenna_number():
    budget = _Budget("criterion 5: SINR vs antenna number, both models", 60.0)
    result = sweep_sinr_vs_m(
        make_geom(10, 11),
        (USER_NEAR, USER_FAR),
        [PBAR, PBAR],
        mz_values=range(11, 1002, 10),
    )
    cols = result.columns

    def linear(row, name):
        db = row[cols.index(name)]
        return 0.0 if db == -math.inf else 10.0 ** (db / 10.0)

    for row in result.rows:
        for model in ("pnusw", "upw"):
            g_mmse = linear(row, f"{model}_mmse_sinr_db")
            assert g_mmse >= linear(row, f"{model}_mrc_sinr_db") - 1e-9 * g_mmse
            assert g_mmse >= linear(row, f"{model}_zf_sinr_db") - 1e-9 * g_mmse
        assert linear(row, "upw_zf_sinr_db") <= 1e-6
    zf_first = linear(result.rows[0], "pnusw_zf_sinr_db")
    zf_last = linear(result.rows[-1], "pnusw_zf_sinr_db")
    assert zf_last > zf_first

    # spherical-model schemes converge at large M as the correlation fades
    def db_gap(row):
        return row[cols.index("pnusw_mmse_sinr_db")] - row[cols.index("pnusw_mrc_sinr_db")]

    assert db_gap(result.rows[-1]) < db_gap(result.rows[len(result.rows) // 2])
    budget.done(f"pnusw zf grows {10*math.log10(zf_first):.1f} -> {10*math.log10(zf_last):.1f} dB")


def test_c06_snr_loss_map_spot_checks():
    budget = _Budget("criterion 6: MMSE SNR-loss map spot checks (200 x 200)", 60.0)
    geom = make_geom(200, 200)
    user1 = UserLocation(100.0, math.pi / 2, 0.0)
    snr = np.array([PBAR, PBAR])
    cfg = UpwConfig.matched_to(geom)

    # co-located user 2: loss factor hits the fully-correlated closed form
    for model, ref in (("pnusw", column(geom, user1, "pnusw")),
                       ("upw", column(geom, user1, "upw", cfg))):
        a = np.column_stack([ref, ref])
        power = vector_power(ref)
        alpha = 1.0 - evaluate_scenario(a, snr)["mmse"][0] / (PBAR * power)
        expected = PBAR * power / (1.0 + PBAR * power)
        assert alpha == pytest.approx(expected, rel=1e-9)

    # default 11 x 11 grid carries the runtime budget
    grid = heatmap_snr_loss(
        geom, user1,
        x_values=np.linspace(50.0, 150.0, 11),
        y_values=np.linspace(-50.0, 50.0, 11),
        snr=snr,
    )
    cells = {(row[0], row[1]): row for row in grid.rows}
    for (x, y), row in cells.items():
        for alpha in row[2:]:
            assert 0.0 <= alpha <= 1.0

    # spherical model: loss fades with range separation along the shared ray
    near = heatmap_snr_loss(geom, user1, [100.5, 110.0], [0.0], snr, models=("pnusw",))
    alpha_by_x = {row[0]: row[2] for row in near.rows}
    assert alpha_by_x[110.0] < alpha_by_x[100.5]

    # plane-wave model: along the ray the loss varies only through |a_2|^2
    m_total = geom.num_elements
    for x in np.linspace(50.0, 150.0, 11):
        power2 = m_total * cfg.beta0 / x**2
        expected = PBAR * power2 / (1.0 + PBAR * power2)
        assert cells[(x, 0.0)][3] == pytest.approx(expected, rel=1e-9)
    budget.done(
        f"alpha(100.5 m)={alpha_by_x[100.5]:.6f} > alpha(110 m)={alpha_by_x[110.0]:.6f}"
    )


def test_c07_sum_rate_trend():
    budget = _Budget("criterion 7: sum rate vs antenna number, 10 users, 100 drops", 600.0)
    cfg = parse_config(experiment="sumrate-vs-m", seed=2027)
    result = dispatch(cfg)
    cols = result.columns
    for row in result.rows:
        for model in ("pnusw", "upw"):
            mrc_rate = row[cols.index(f"{model}_mrc_sumrate_bpshz")]
            zf_rate = row[cols.index(f"{model}_zf_sumrate_bpshz")]
            mmse_rate = row[cols.index(f"{model}_mmse_sumrate_bpshz")]
            assert zf_rate >= 0.0
            assert mmse_rate >= zf_rate - 1e-9 * mmse_rate
            assert mmse_rate >= mrc_rate - 1e-9 * mmse_rate
    largest = result.rows[-1]
    assert largest[cols.index("m")] == 200 * 200
    gaps = []
    for scheme in SCHEMES:
        upw_rate = largest[cols.index(f"upw_{scheme}_sumrate_bpshz")]
        pnusw_rate = largest[cols.index(f"pnusw_{scheme}_sumrate_bpshz")]
        assert upw_rate > pnusw_rate
        gaps.append(upw_rate - pnusw_rate)
    budget.done(f"plane-wave over-estimates by {min(gaps):.1f}..{max(gaps):.1f} bps/Hz at M=40000")


def test_c08_power_bound_and_monotonicity():
    budget = _Budget("criterion 8: aperture power bound, arrays up to 401 x 401", 60.0)
    xi = make_geom(3, 3).occupation_ratio
    bound = xi / 2.0
    assert bound == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)
    closest = 0.0
    for r in (2.0, 25.0, 100.0):
        user = UserLocation(r, math.pi / 2, 0.0)
        for chain in ([11, 51, 101, 201, 301, 401], [10, 50, 100, 200, 400]):
            previous = 0.0
            for side in chain:
                power = vector_power(column(make_geom(side, side), user, "pnusw"))
                assert power > previous  # nested growth adds positive gains
                assert power < bound
                previous = power
                closest = max(closest, power)
    budget.done(f"max power {closest:.6f} stays below 1/(2 pi) = {bound:.6f}")


def test_c09_dense_oracle_equivalence():
    budget = _Budget("criterion 9: structured solves == dense constructions", 5.0)
    rng = np.random.default_rng(31415)
    for _ in range(100):
        m = int(rng.integers(4, 33))
        k = int(rng.integers(2, min(5, m + 1)))
        a = (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) / math.sqrt(m)
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
    budget.done("100 random cases, ZF and MMSE")


def test_c10_determinism_from_sidecar_and_threads(tmp_path, run_python):
    budget = _Budget("criterion 10: byte-identical reruns, thread independent", 120.0)
    corr_args = [
        "--experiment", "corr-vs-m",
        "--set", "geometry.num_y=4",
        "--set", "sweep.mz_values=[5,9,15]",
    ]
    assert main(corr_args + ["--out", str(tmp_path / "corr1.csv")]) == 0
    reference = (tmp_path / "corr1.csv").read_bytes()

    # rerun from the sidecar
    assert main([
        "--config", str(tmp_path / "corr1.json"),
        "--out", str(tmp_path / "corr2.csv"),
    ]) == 0
    assert (tmp_path / "corr2.csv").read_bytes() == reference

    # randomized experiment: rerun from the sidecar
    sum_args = [
        "--experiment", "sumrate-vs-m", "--seed", "5",
        "--set", "sweep.sides=[4,6]",
        "--set", "sweep.n_users=2",
        "--set", "sweep.n_drops=3",
    ]
    assert main(sum_args + ["--out", str(tmp_path / "sum1.csv")]) == 0
    run(parse_config(str(tmp_path / "sum1.json")), str(tmp_path / "sum2.csv"))
    sum_reference = (tmp_path / "sum1.csv").read_bytes()
    assert (tmp_path / "sum2.csv").read_bytes() == sum_reference

    # fresh processes at one and two BLAS threads, the one thread count that
    # could move a table (it does not at up to 16 users; here 2)
    for name, args, table in (("corr", corr_args, reference), ("sum", sum_args, sum_reference)):
        for blas_threads in (1, 2):
            out = tmp_path / f"{name}-blas{blas_threads}.csv"
            proc = run_python(["-m", "xlmimo.cli", *args, "--out", str(out)], blas_threads=blas_threads)
            assert proc.returncode == 0, proc.stderr
            assert out.read_bytes() == table
    budget.done("corr-vs-m and sumrate-vs-m reruns byte-identical")
