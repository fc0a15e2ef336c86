"""Receive beamformers (MRC, ZF, MMSE), SINR, loss factors, and sum rate.

For user k with channel a_k, unit beamformer v, transmit SNRs p_i, the
received SINR is

    gamma_k = p_k |v^H a_k|^2 / (sum_{i != k} p_i |v^H a_i|^2 + 1)

and every scheme admits the decomposition gamma = p_k |a_k|^2 (1 - alpha)
with a scheme-specific loss factor alpha in [0, 1]:

* MRC: v = a_k / |a_k|; alpha = S / (S + 1) with
  S = sum_{i != k} p_i rho_ki |a_i|^2.
* ZF:  v is the normalized projection of a_k onto the orthogonal
  complement of the interferers' span, which is A G^-1 e_k with
  G = A^H A; alpha is the projected power loss.
* MMSE: v proportional to C_k^-1 a_k with C_k = sum_{i != k} p_i a_i a_i^H
  + I, the SINR-optimal receiver.  By Sherman-Morrison C_k^-1 a_k is
  parallel to C^-1 a_k, and by the push-through identity
  C^-1 A P^1/2 = A P^1/2 W^-1 with W = I + P^1/2 G P^1/2, so v is
  A P^1/2 W^-1 e_k.

Every SINR, loss factor and beamformer comes from one K x K step per
scenario (_factorize): one numerics.hermitian_solve call each gates the
Gram matrix G and W by their condition numbers and forms their Cholesky
inverses.  evaluate_scenario() reads all users' SINRs off their diagonals,
from gram(A) or from a G the caller already holds (the M-sweeps accumulate
it without forming A); zf() and mmse() multiply A by one of their columns.
An (n, K, K) stack of Grams sharing one SNR vector is factored in one call;
nothing is M x M.  sinr() evaluates the quotient directly and serves as the
consistency oracle for the beamformers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import channel as ch
from .errors import (
    DegenerateChannelError,
    NearSingularError,
    ZeroForcingInfeasibleError,
)
from .geometry import ArrayGeometry
from .numerics import MAX_CONDITION, cdot, gram, hermitian_solve, vector_power

SCHEMES = ("mrc", "zf", "mmse")

# Zero forcing is declared infeasible when the projected channel keeps at
# most this fraction of its power (condition ~1e12, the double-precision
# collinearity limit with headroom).
ZF_COLLINEAR_TOL = 1e-12

# Largest channel power |a_k|^2 whose squared Gram entries |G_ik|^2 <= G_kk G_ii
# stay finite.
_MAX_POWER = math.sqrt(sys.float_info.max)


def response_matrix(
    geom: ArrayGeometry, users, model: str, upw_cfg: ch.UpwConfig | None = None
) -> np.ndarray:
    """M x K matrix whose k-th column is user k's channel vector, all built in one pass.

    It is the transposed view of a K x M array, so each column is contiguous.
    """
    block = ch._response_block(geom, users, model, upw_cfg)
    return block.reshape(len(block), geom.num_elements).T


@dataclass(frozen=True)
class BeamformerReport:
    """Per-user beamforming outcome for one scheme.

    beamformer is the unit-norm receive vector, or None when zero forcing
    is infeasible (the user's channel lies in the interferer span); then
    sinr is 0, loss_factor is 1, and infeasible is set.
    """

    scheme: str
    user: int
    beamformer: np.ndarray | None
    sinr: float
    loss_factor: float
    single_user_snr: float
    infeasible: bool = False


def _unit_canonical(w: np.ndarray, a_k: np.ndarray) -> np.ndarray:
    """Normalize w and fix its global phase so w^H a_k is real non-negative."""
    norm = math.sqrt(vector_power(w))
    if norm <= 0.0:
        raise DegenerateChannelError("cannot normalize a zero beamformer")
    v = w / norm
    inner = cdot(v, a_k)
    mag = abs(inner)
    if mag > 0.0:
        v = v * (inner / mag).conjugate()
    return v


def mrc(a_k: np.ndarray) -> np.ndarray:
    """Maximal-ratio combining: the user's own channel direction."""
    a_k = np.asarray(a_k, dtype=complex)
    return _unit_canonical(a_k, a_k)


def _diagonal(x: np.ndarray) -> np.ndarray:
    """Writable view of the diagonal of a K x K matrix, or of each matrix of a stack."""
    return np.einsum("...ii->...i", x)


def _factorize(g: np.ndarray, snr=None):
    """The K x K step behind every SINR and beamformer of one scenario, or of a stack.

    Takes the Gram matrix G = A^H A, or an (n, K, K) stack of them, and
    returns (G^-1, residual, W^-1, SINRs) with W = I + P^1/2 G P^1/2, each
    with the stack's leading axis; the SINRs are evaluate_scenario's.  One
    numerics.hermitian_solve call gates and inverts the G stack, and one the
    W stack; a failing G^-1 is NaN, as for M < K.  residual[k] = 1 /
    [G^-1]_kk is the power of a_k left after projecting out the
    interferers, or 0.0 where zero forcing is infeasible: at most
    ZF_COLLINEAR_TOL of the user's own power, or G failed.  W^-1 and the
    SINRs are None without snr, which must hold K positive finite SNRs.  A
    failing W raises NearSingularError with the largest condition number; a
    channel power of 0 or above _MAX_POWER raises DegenerateChannelError.
    """
    k_users = g.shape[-1]
    powers = _diagonal(g).real
    if not np.all((powers > 0.0) & (powers <= _MAX_POWER)):
        raise DegenerateChannelError("a user's channel power is zero or too large to square")
    g_inv, _ = hermitian_solve(g)
    residual = 1.0 / _diagonal(g_inv).real
    residual = np.where(residual > ZF_COLLINEAR_TOL * powers, residual, 0.0)
    if snr is None:
        return g_inv, residual, None, None
    if snr.shape != (k_users,) or not np.all(np.isfinite(snr) & (snr > 0.0)):
        raise ValueError(f"expected {k_users} positive finite SNRs, got {snr!r}")
    root = np.sqrt(snr)
    h = root[:, None] * g * root[None, :]
    # p_k G_kk exactly, as in the MRC SINR, so MMSE equals MRC where interference vanishes
    _diagonal(h)[...] = snr * powers
    w_inv, cond = hermitian_solve(np.eye(k_users) + h)
    worst = float(cond.max(initial=0.0))
    if worst > MAX_CONDITION:
        raise NearSingularError(
            f"condition number {worst:.3e} exceeds {MAX_CONDITION:.3e}; collinear user channels",
            cond_estimate=worst,
        )
    scaled = g / np.sqrt(powers)[..., None]
    coupling = scaled.real**2 + scaled.imag**2
    _diagonal(coupling)[...] = 0.0
    weighted = (coupling * snr).sum(axis=-1)
    mmse_gain = (h * np.swapaxes(w_inv, -2, -1)).sum(axis=-1).real
    sinrs = {
        "mrc": snr * powers / (weighted + 1.0),
        "zf": snr * residual,
        "mmse": np.maximum(mmse_gain / _diagonal(w_inv).real, 0.0),
    }
    return g_inv, residual, w_inv, sinrs


def _check_user(a: np.ndarray, k: int) -> None:
    if not 0 <= k < a.shape[1]:
        raise IndexError(f"user index {k} out of range for K={a.shape[1]}")


def _beamformer(a, snr, scheme: str, k: int, factors=None) -> np.ndarray:
    """User k's unit beamformer: a_k (MRC), A G^-1 e_k (ZF) or A P^1/2 W^-1 e_k (MMSE).

    factors, _factorize(gram(a), snr), are formed here unless given.
    """
    a = np.asarray(a, dtype=complex)
    _check_user(a, k)
    if scheme == "mrc":
        return mrc(a[:, k])
    g_inv, residual, w_inv, _ = _factorize(gram(a), snr) if factors is None else factors
    if scheme == "mmse":
        return _unit_canonical(a @ (np.sqrt(snr) * w_inv[:, k]), a[:, k])
    if residual[k] == 0.0:
        raise ZeroForcingInfeasibleError(
            f"zero forcing is infeasible for user {k}: with M={a.shape[0]} and "
            f"K={a.shape[1]} its channel lies in the span of the others"
        )
    return _unit_canonical(a @ g_inv[:, k], a[:, k])


def zf(a: np.ndarray, k: int) -> np.ndarray:
    """Zero-forcing beamformer for user k: null every interferer.

    Raises ZeroForcingInfeasibleError exactly where evaluate_scenario
    reports a ZF SINR of 0: when a_k is numerically inside the interferer
    span (e.g. plane-wave users sharing one direction), when the
    interferers are rank deficient, and when M < K.
    """
    return _beamformer(a, None, "zf", k)


def mmse(a: np.ndarray, snr, k: int) -> np.ndarray:
    """SINR-optimal beamformer for user k: A P^1/2 W^-1 e_k, normalized."""
    return _beamformer(a, np.asarray(snr, dtype=float), "mmse", k)


def sinr(v: np.ndarray, a: np.ndarray, snr, k: int) -> float:
    """Received SINR of user k under unit beamformer v, evaluated directly."""
    v = np.asarray(v, dtype=complex)
    a = np.asarray(a, dtype=complex)
    snr = np.asarray(snr, dtype=float)
    norm = math.sqrt(vector_power(v))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"beamformer must have unit norm, got {norm!r}")
    gains = [abs(cdot(v, a[:, i])) ** 2 for i in range(a.shape[1])]
    interference = math.fsum(
        snr[i] * gains[i] for i in range(a.shape[1]) if i != k
    )
    return snr[k] * gains[k] / (interference + 1.0)


def _mmse_loss(q2: float, rho: float) -> float:
    """MMSE loss factor of user 1 beside one interferer: q2 rho / (1 + q2), q2 = p2 |a_2|^2.

    Above q2 = 1 it is evaluated as rho / (1 + 1 / q2), so that an
    overflowed q2 = inf gives the limit rho instead of inf / inf.
    """
    return q2 * rho / (1.0 + q2) if q2 <= 1.0 else rho / (1.0 + 1.0 / q2)


def two_user_sinrs(a1, a2, p1: float, p2: float) -> tuple[float, float, float]:
    """Closed-form (MRC, ZF, MMSE) SINRs of user 1 in a two-user scenario."""
    n1 = vector_power(a1)
    n2 = vector_power(a2)
    inner = cdot(a1, a2)
    rho = ch.correlation([[n1, inner], [inner.conjugate(), n2]])
    gamma_mrc = p1 * n1 / (p2 * n2 * rho + 1.0)
    gamma_zf = p1 * n1 * (1.0 - rho)
    gamma_mmse = p1 * n1 * (1.0 - _mmse_loss(p2 * n2, rho))
    return gamma_mrc, gamma_zf, gamma_mmse


def sum_rate(gammas):
    """Achievable sum rate sum_k log2(1 + gamma_k), bits/s/Hz, over the last axis.

    One vector of K SINRs gives a float, an (..., K) stack the (...) array of
    its rows' sum rates, each bitwise its row's alone.  A negative SINR
    anywhere raises ValueError.
    """
    gammas = np.asarray(gammas, dtype=float)
    if np.any(gammas < 0.0):
        raise ValueError("SINRs must be non-negative")
    return np.log2(1.0 + gammas).sum(axis=-1)


def solve_user(a: np.ndarray, snr, scheme: str, k: int) -> BeamformerReport:
    """Build the beamformer for user k of channels a and report SINR and loss factor.

    The SINR is evaluate_scenario's entry for the user, and the loss factor
    is alpha = 1 - sinr / (p_k G_kk); both and the beamformer come from one
    Gram and one _factorize call.  Zero-forcing infeasibility is reported
    as sinr 0 with the infeasible flag instead of raising.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown beamforming scheme {scheme!r}")
    a = np.asarray(a, dtype=complex)
    snr = np.asarray(snr, dtype=float)
    _check_user(a, k)
    g = gram(a)
    factors = _factorize(g, snr)
    gamma = float(factors[-1][scheme][k])
    single = snr[k] * g[k, k].real
    if scheme == "zf" and gamma == 0.0:
        return BeamformerReport(scheme, k, None, 0.0, 1.0, single, infeasible=True)
    v = _beamformer(a, snr, scheme, k, factors)
    alpha = min(max(1.0 - gamma / single, 0.0), 1.0)
    return BeamformerReport(scheme, k, v, gamma, alpha, single)


def evaluate_scenario(a: np.ndarray | None, snr, *, g=None) -> dict[str, np.ndarray]:
    """Per-user SINRs of all schemes from one Gram matrix and one inverse each.

    With G = A^H A and P = diag(snr), every user's SINR comes from the
    diagonal of a single K x K Cholesky inverse per scheme (_factorize):

    * MRC:  gamma_k = p_k G_kk / (sum_{i != k} p_i |G_ik / sqrt(G_kk)|^2 + 1),
      whose squares stay within G_ii and so cannot underflow to 0;
    * ZF:   gamma_k = p_k / [G^-1]_kk, where 1 / [G^-1]_kk is the power of
      a_k left after projecting out the interferers;
    * MMSE: gamma_k = [H W^-1]_kk / [W^-1]_kk with H = P^1/2 G P^1/2 and
      W = I + H.  It equals 1 / [W^-1]_kk - 1, since H W^-1 = I - W^-1,
      without that form's cancellation when gamma_k is small.

    ZF entries are 0.0 where zero forcing is infeasible (see _factorize).
    Callers that already hold G (the nested M-sweeps accumulate it without
    the whole of A) pass it as g, and a is then not read.  g may also be an
    (n, K, K) stack sharing one snr; every entry is then (n, K), and row i
    is bitwise what g[i] alone gives.
    """
    snr = np.asarray(snr, dtype=float)
    if g is None:
        g = gram(a)
    return _factorize(g, snr)[-1]
