"""The paper's distance-domain claim, checked against closed forms.

The spherical-wave model tells apart users along one direction by their
distance; the plane-wave model cannot.  These tests hold the default
correlation-versus-distance table to the Fresnel approximation's closed form,
and a committed same-ray sum-rate config to the claim that only the
spherical-wave model makes zero forcing feasible there.
"""

import math
import sys
from pathlib import Path

import pytest

from xlmimo.cli import dispatch, parse_config

DATA = Path(__file__).resolve().parent / "data"


def fresnel_rho(special, n_d, r1, r2, wavelength):
    """rho_F = |F(a)|^4, F(a) = (C(a) + jS(a)) / a, a = (N d / 2) sqrt(2 |1/r1 - 1/r2| / lambda).

    Two boresight users on a square N x N array of spacing d, with each
    distance to an element at rho from the center taken to second order,
    r + rho^2 / (2 r), and a uniform amplitude: per axis, the normalized
    inner product is the Fresnel integral over the aperture, F(a).
    """
    a = n_d / 2.0 * math.sqrt(2.0 * abs(1.0 / r1 - 1.0 / r2) / wavelength)
    s, c = special.fresnel(a)
    return abs(complex(c, s) / a) ** 4


def test_default_correlation_vs_distance_follows_the_fresnel_form():
    # The Fresnel form drops terms in (rho / r)^2 of each entry, rho an element's
    # distance from the array center: the amplitude taper (r / d)^(3/2) =
    # 1 - (3/4)(rho / r)^2 + ..., and the quartic phase -k rho^4 / (8 r^3), which
    # is (rho / r)^2 / 4 of the quadratic one.  At the array corner, rho^2 =
    # L^2 / 2, and r = r1 (the nearer user) they are of order
    # eps = (L / r1)^2 / 2 = 0.032 (L / r1 = 0.2512), so the normalized inner
    # product c moves by about eps and rho = |c|^2 by
    # (|c| + |c_F|) ||c| - |c_F|| <= (sqrt(rho) + sqrt(rho_F)) eps.  The table
    # reaches 0.30 of that bound, at r2 = 56 m (|rho - rho_F| = 0.0127)
    special = pytest.importorskip("scipy.special")
    cfg = parse_config(experiment="corr-vs-dist")
    geom, (user1,) = cfg.geometry, cfg.users
    direction2 = cfg.sweep["direction2"]
    assert geom.num_y == geom.num_z and user1.u_y == user1.u_z == 0.0
    assert (direction2["theta_rad"], direction2["phi_rad"]) == (math.pi / 2, 0.0)
    n_d, r1 = geom.num_y * geom.spacing, user1.r
    eps = (n_d / r1) ** 2 / 2.0
    assert n_d / r1 == pytest.approx(0.2512)
    result = dispatch(cfg)
    assert result.columns[:3] == ["separation_m", "r2_m", "pnusw_rho_linear"]
    crossings = {}
    for separation, r2, rho, _ in result.rows:
        if separation == 0.0:
            assert rho == 1.0
            continue
        rho_f = fresnel_rho(special, n_d, r1, r2, geom.wavelength)
        assert abs(rho - rho_f) <= eps * (math.sqrt(rho) + math.sqrt(rho_f)), r2
        for name, value in (("table", rho), ("fresnel", rho_f)):
            if value < 0.5:
                crossings.setdefault(name, r2)
    # both first fall below 0.5 at a 6 m separation
    assert crossings == {"table": 56.0, "fresnel": 56.0}


def test_only_the_spherical_model_separates_users_on_one_ray():
    # four users on one ray (theta 1.2, phi 0.3) at ranges drawn in [5, 100] m:
    # their plane-wave channels are collinear, so plane-wave zero forcing is
    # infeasible in every drop (a drop's sum rate is >= 0, so a mean of 0.0 is
    # 0.0 in each), while spherical-wave zero forcing becomes feasible as the
    # array grows, and MMSE is at least MRC and ZF throughout
    cfg = parse_config(str(DATA / "same_ray_sumrate.json"))
    region = cfg.sweep["region"]
    assert region["theta_rad"][0] == region["theta_rad"][1]
    assert region["phi_rad"][0] == region["phi_rad"][1]
    result = dispatch(cfg)
    # MMSE equals MRC exactly for collinear users, and is read from W = I +
    # P^(1/2) G P^(1/2): rounding moves a SINR by about cond(W) eps relatively,
    # so a sum rate by n_users cond(W) eps / ln 2, where cond(W) <= 1 + trace,
    # each p G_kk below p xi / 2 (spherical, c08) or p M beta0 / r_min^2 (plane).
    # Plane-wave MMSE reads 5.2e-9 below MRC at 40 000 elements, against 8.2e-7
    users, p = cfg.sweep["n_users"], 10.0 ** (max(cfg.snr_db) / 10.0) / cfg.beta0
    xi, r_min = cfg.geometry.occupation_ratio, region["r_m"][0]
    table = [dict(zip(result.columns, row)) for row in result.rows]
    assert [row["m"] for row in table] == [100, 1600, 40_000]
    assert all(row["upw_zf_sumrate_bpshz"] == 0.0 for row in table)
    pnusw_zf = [row["pnusw_zf_sumrate_bpshz"] for row in table]
    assert 0.0 < pnusw_zf[0] < pnusw_zf[1] < pnusw_zf[2]
    assert pnusw_zf == pytest.approx([0.0231, 24.16, 85.81], rel=1e-3)
    for row in table:
        power = max(xi / 2.0, row["m"] * cfg.beta0 / r_min**2)
        rounding = users * (1.0 + users * p * power) * sys.float_info.epsilon / math.log(2.0)
        for model in ("pnusw", "upw"):
            mmse = row[f"{model}_mmse_sumrate_bpshz"]
            for scheme in ("mrc", "zf"):
                assert mmse >= row[f"{model}_{scheme}_sumrate_bpshz"] - rounding
