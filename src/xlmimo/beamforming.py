"""Receive beamformers (MRC, ZF, MMSE), SINR, loss factors, and sum rate.

For user k with channel a_k, unit beamformer v, transmit SNRs p_i, the
received SINR is

    gamma_k = p_k |v^H a_k|^2 / (sum_{i != k} p_i |v^H a_i|^2 + 1)

and every scheme admits the decomposition gamma = p_k |a_k|^2 (1 - alpha)
with a scheme-specific loss factor alpha in [0, 1]:

* MRC: v = a_k / |a_k|; alpha = S / (S + 1) with
  S = sum_{i != k} p_i rho_ki |a_i|^2.
* ZF:  v is the normalized projection of a_k onto the orthogonal
  complement of the interferers' span; alpha is the projected power loss.
* MMSE: v proportional to C_k^-1 a_k with C_k = sum p_i a_i a_i^H + I,
  the SINR-optimal receiver; applied through the low-rank whitening
  identity so cost stays O(M*K + K^3).

The per-user closed forms (sinr_closed) route through
numerics.project_orthogonal and numerics.whitened_apply; sinr() evaluates
the quotient directly and serves as the internal consistency oracle.
evaluate_scenario() gets every user's SINR under all schemes from one
K x K Gram matrix and one K x K Cholesky inverse per scheme; it is the
algebraically identical fast path used by the parameter sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel as ch
from .errors import (
    DegenerateChannelError,
    NearSingularError,
    ZeroForcingInfeasibleError,
)
from .geometry import ArrayGeometry, UserLocation
from .numerics import cdot, gram, hermitian_solve, project_orthogonal, vector_power, whitened_apply

SCHEMES = ("mrc", "zf", "mmse")

# Zero forcing is declared infeasible when the projected channel keeps less
# than this fraction of its power (condition ~1e12, the double-precision
# collinearity limit with headroom).
ZF_COLLINEAR_TOL = 1e-12


@dataclass(frozen=True)
class Scenario:
    """Immutable multi-user uplink setup: geometry, users, SNRs, channel model."""

    geom: ArrayGeometry
    users: tuple[UserLocation, ...]
    snr: tuple[float, ...]
    model: str
    upw_cfg: ch.UpwConfig | None = None

    def __post_init__(self):
        object.__setattr__(self, "users", tuple(self.users))
        object.__setattr__(self, "snr", tuple(float(p) for p in self.snr))
        if len(self.users) < 1:
            raise ValueError("a scenario needs at least one user")
        if len(self.snr) != len(self.users):
            raise ValueError(
                f"{len(self.snr)} SNRs for {len(self.users)} users"
            )
        if any(not (p > 0 and math.isfinite(p)) for p in self.snr):
            raise ValueError("transmit SNRs must be positive and finite")
        if self.model not in ch.VALID_MODELS:
            raise ValueError(f"unknown channel model {self.model!r}")
        if self.model == ch.UPW and self.upw_cfg is None:
            object.__setattr__(self, "upw_cfg", ch.UpwConfig.matched_to(self.geom))

    @property
    def num_users(self) -> int:
        return len(self.users)

    def response_matrix(self) -> np.ndarray:
        """M x K matrix whose k-th column is user k's channel vector."""
        return response_matrix(self.geom, self.users, self.model, self.upw_cfg)


def response_matrix(
    geom: ArrayGeometry, users, model: str, upw_cfg: ch.UpwConfig | None = None
) -> np.ndarray:
    """M x K matrix whose k-th column is user k's channel vector, all built in one pass.

    It is the transposed view of a K x M array, so each column is contiguous.
    """
    block = ch._response_block(geom, users, model, upw_cfg)
    if not np.isfinite(block).all():
        raise ValueError("channel entries must be finite")
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
    power = vector_power(a_k)
    if power <= 0.0:
        raise DegenerateChannelError("MRC undefined for a zero channel")
    return a_k / math.sqrt(power)


def _split_interferers(a: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    keep = [i for i in range(a.shape[1]) if i != k]
    return a[:, keep], np.asarray(keep, dtype=int)


def zf(a: np.ndarray, k: int) -> np.ndarray:
    """Zero-forcing beamformer for user k: null every interferer.

    Raises NearSingularError when interferer channels are rank deficient
    and ZeroForcingInfeasibleError when a_k is numerically inside their
    span (e.g. plane-wave users sharing one direction).
    """
    a = np.asarray(a, dtype=complex)
    m, k_users = a.shape
    if m < k_users:
        raise ValueError(f"zero forcing requires M >= K, got M={m}, K={k_users}")
    if not 0 <= k < k_users:
        raise IndexError(f"user index {k} out of range for K={k_users}")
    a_k = a[:, k]
    abar, _ = _split_interferers(a, k)
    projected = project_orthogonal(abar, a_k)
    if vector_power(projected) <= ZF_COLLINEAR_TOL * vector_power(a_k):
        raise ZeroForcingInfeasibleError(
            f"user {k}'s channel lies in the interferer span; zero forcing is infeasible"
        )
    return _unit_canonical(projected, a_k)


def mmse(a: np.ndarray, snr, k: int) -> np.ndarray:
    """SINR-optimal beamformer for user k: whitened channel direction."""
    a = np.asarray(a, dtype=complex)
    snr = np.asarray(snr, dtype=float)
    if not 0 <= k < a.shape[1]:
        raise IndexError(f"user index {k} out of range for K={a.shape[1]}")
    a_k = a[:, k]
    if vector_power(a_k) <= 0.0:
        raise DegenerateChannelError("MMSE undefined for a zero channel")
    abar, others = _split_interferers(a, k)
    w = whitened_apply(abar, snr[others], a_k)
    return _unit_canonical(w, a_k)


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


def sinr_closed(scheme: str, a: np.ndarray, snr, k: int) -> tuple[float, float]:
    """Closed-form (sinr, loss_factor) for one scheme and user.

    ZF raises ZeroForcingInfeasibleError (or NearSingularError for rank-
    deficient interferers); sweep-level callers map those to sinr 0.
    """
    a = np.asarray(a, dtype=complex)
    snr = np.asarray(snr, dtype=float)
    if not 0 <= k < a.shape[1]:
        raise IndexError(f"user index {k} out of range for K={a.shape[1]}")
    a_k = a[:, k]
    p_k = vector_power(a_k)
    if p_k <= 0.0:
        raise DegenerateChannelError(f"user {k} has a zero channel")
    single = snr[k] * p_k

    if scheme == "mrc":
        weighted = math.fsum(
            snr[i] * abs(cdot(a_k, a[:, i])) ** 2 / p_k
            for i in range(a.shape[1])
            if i != k
        )
        alpha = weighted / (weighted + 1.0)
        return single / (weighted + 1.0), alpha

    abar, others = _split_interferers(a, k)
    if scheme == "zf":
        if a.shape[0] < a.shape[1]:
            raise ValueError(
                f"zero forcing requires M >= K, got M={a.shape[0]}, K={a.shape[1]}"
            )
        projected_power = vector_power(project_orthogonal(abar, a_k))
        if projected_power <= ZF_COLLINEAR_TOL * p_k:
            raise ZeroForcingInfeasibleError(
                f"user {k}'s channel lies in the interferer span"
            )
        alpha = min(max(1.0 - projected_power / p_k, 0.0), 1.0)
        return snr[k] * projected_power, alpha

    if scheme == "mmse":
        w = whitened_apply(abar, snr[others], a_k)
        quad = cdot(a_k, w).real
        quad = min(max(quad, 0.0), p_k)
        alpha = min(max(1.0 - quad / p_k, 0.0), 1.0)
        return snr[k] * quad, alpha

    raise ValueError(f"unknown beamforming scheme {scheme!r}")


def two_user_sinrs(a1, a2, p1: float, p2: float) -> tuple[float, float, float]:
    """Closed-form (MRC, ZF, MMSE) SINRs of user 1 in a two-user scenario."""
    a1 = np.asarray(a1, dtype=complex)
    a2 = np.asarray(a2, dtype=complex)
    n1 = vector_power(a1)
    n2 = vector_power(a2)
    if n1 <= 0.0 or n2 <= 0.0:
        raise DegenerateChannelError("two-user forms need nonzero channels")
    inner = cdot(a1, a2)
    rho = min((inner.real**2 + inner.imag**2) / (n1 * n2), 1.0)
    gamma_mrc = p1 * n1 / (p2 * n2 * rho + 1.0)
    gamma_zf = p1 * n1 * (1.0 - rho)
    gamma_mmse = p1 * n1 * (1.0 - p2 * n2 * rho / (1.0 + p2 * n2))
    return gamma_mrc, gamma_zf, gamma_mmse


def sum_rate(gammas) -> float:
    """Achievable sum rate sum_k log2(1 + gamma_k), bits/s/Hz."""
    gammas = np.asarray(gammas, dtype=float)
    if np.any(gammas < 0.0):
        raise ValueError("SINRs must be non-negative")
    return math.fsum(math.log2(1.0 + g) for g in gammas)


def solve_user(scenario: Scenario, scheme: str, k: int, a: np.ndarray | None = None) -> BeamformerReport:
    """Build the beamformer for one user and report SINR and loss factor.

    Zero-forcing infeasibility (including rank-deficient interferers) is
    reported as sinr 0 with the infeasible flag instead of raising.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown beamforming scheme {scheme!r}")
    if a is None:
        a = scenario.response_matrix()
    snr = np.asarray(scenario.snr, dtype=float)
    single = snr[k] * vector_power(a[:, k])
    try:
        gamma, alpha = sinr_closed(scheme, a, snr, k)
        if scheme == "mrc":
            v = mrc(a[:, k])
        elif scheme == "zf":
            v = zf(a, k)
        else:
            v = mmse(a, snr, k)
    except (ZeroForcingInfeasibleError, NearSingularError):
        return BeamformerReport(
            scheme=scheme,
            user=k,
            beamformer=None,
            sinr=0.0,
            loss_factor=1.0,
            single_user_snr=single,
            infeasible=True,
        )
    return BeamformerReport(
        scheme=scheme,
        user=k,
        beamformer=v,
        sinr=gamma,
        loss_factor=alpha,
        single_user_snr=single,
    )


def evaluate_scenario(a: np.ndarray, snr) -> dict[str, np.ndarray]:
    """Per-user SINRs of all schemes from one Gram matrix and one inverse each.

    With G = A^H A and P = diag(snr), every user's SINR comes from the
    diagonal of a single K x K Cholesky inverse per scheme:

    * MRC:  gamma_k = p_k G_kk / (sum_{i != k} p_i |G_ik|^2 / G_kk + 1);
    * ZF:   gamma_k = p_k / [G^-1]_kk, where 1 / [G^-1]_kk is the power of
      a_k left after projecting out the interferers;
    * MMSE: gamma_k = 1 / [W^-1]_kk - 1 with W = I + P^1/2 G P^1/2, whose
      eigenvalues are all at least 1.

    ZF entries are 0.0 where zero forcing is infeasible: for a user whose
    projected power is at most ZF_COLLINEAR_TOL of its own, and for every
    user when G fails the condition gate of hermitian_solve, as it does
    for M < K.  Then some channel lies in the span of the others, so each
    user either is that channel or has linearly dependent interferers.
    """
    a = np.asarray(a, dtype=complex)
    snr = np.asarray(snr, dtype=float)
    k_users = a.shape[1]
    if snr.shape != (k_users,):
        raise ValueError(f"expected {k_users} SNRs, got shape {snr.shape}")
    if a.shape[0] < k_users:
        # zero rows leave A^H A unchanged and give gram a tall matrix
        a = np.vstack([a, np.zeros((k_users - a.shape[0], k_users))])
    g = gram(a)
    powers = g.diagonal().real
    if np.any(powers <= 0.0):
        raise DegenerateChannelError("a user has a zero channel")

    coupling = g.real**2 + g.imag**2
    np.fill_diagonal(coupling, 0.0)
    weighted = (coupling * snr).sum(axis=1) / powers
    out = {"mrc": snr * powers / (weighted + 1.0)}

    eye = np.eye(k_users)
    try:
        residual = 1.0 / hermitian_solve(g, eye).diagonal().real
        out["zf"] = np.where(residual > ZF_COLLINEAR_TOL * powers, snr * residual, 0.0)
    except NearSingularError:
        out["zf"] = np.zeros(k_users)

    root = np.sqrt(snr)
    w = eye + root[:, None] * g * root[None, :]
    out["mmse"] = np.maximum(1.0 / hermitian_solve(w, eye).diagonal().real - 1.0, 0.0)
    return out
