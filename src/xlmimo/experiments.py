"""Parameter sweeps: correlation, SINR, SNR-loss maps, and sum-rate curves.

Every sweep returns a SweepResult table that serializes directly to CSV:
the first column is the sweep axis, metric columns are named
``<model>_<scheme>_<metric>`` with a units suffix, and rows are sorted by
the axis.  All internal math is linear; dB conversion happens once, when a
row is materialized.

The three M-sweeps (correlation, SINR and sum rate versus the element
count) hand one geometry and their (num_y, num_z) sizes to
channel._nested_grams, which gives every size's K x K Gram matrix: the
plane-wave Gram is the paper's Dirichlet-kernel closed form, and the
spherical-wave model streams the largest array once and sums each nested
array's Gram ring by ring, so every element is read once and no block is held.
The two sweeps that move user 2 against a fixed user 1 (correlation versus
distance and the SNR-loss map) hand all their cells to channel._pair_gram
as one (4, n) coordinate array and index each cell's 2 x 2 Gram in the
(n, 2, 2) stack it gives per model: the plane-wave stack is one closed-form
broadcast, and the spherical-wave stack builds user 1 once and streams user
2s box by box, assembling their Grams a box at a time (only the part of a
user 2 that the array's mirror symmetry does not repeat; on the array's
axis, as in every default correlation-versus-distance cell, only its
distinct radii).  Cells whose user 2s are mirror images in user 1's
symmetric axes, such as the default map's cells at y and -y, or repeats,
share one walk and so one Gram.  Every correlation is channel.correlation.

A sweep runs its points, and the spherical-wave builds that dominate the
random drops and the fixed-user cells, in order on the calling thread, one
box of at most 2^15 entries at a time: a run of whole cells, a band of one's
rows, or a slice of one row (of every user, in an M-sweep).  Per-drop random
streams derive from (seed, drop index) and each Gram sums its partials in
box order, so a rerun of a table is bit-identical.  The sum-rate sweep
takes every Gram of a chunk of whole drops first and then factors them in
one stacked evaluate_scenario call; each matrix of a stack gets bitwise the
SINRs it gets alone, and a failing chunk is factored again a drop and a
model at a time, so the first failure in drop order raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel as ch
from .beamforming import SCHEMES, _mmse_loss, evaluate_scenario, sum_rate
from .errors import DegenerateGeometryError
from .geometry import ArrayGeometry, UserLocation, cartesian_to_spherical

# The name of a build-thread option that no longer exists, kept only because
# perfbench/worker.py reads it from here (as cli.xp.THREADS_ENV).
THREADS_ENV = "XLMIMO_THREADS"

# sample_users rejects draws with a direction cosine u_x below MIN_U_X (nearly
# in the array plane, hence a nearly zero channel) and gives up after
# MAX_REJECTIONS consecutive rejections.
MIN_U_X = 1e-3
MAX_REJECTIONS = 10_000

# Most K x K entries a sum-rate sweep factors in one stack (a chunk of whole drops).
_CHUNK_ENTRIES = 2**16


@dataclass
class SweepResult:
    """Tabular sweep output: ordered columns (axis first) and sorted rows."""

    columns: list[str]
    rows: list[tuple]


@dataclass(frozen=True)
class UserRegion:
    """Uniform sampling region in spherical coordinates (min, max per axis)."""

    r: tuple[float, float]
    theta: tuple[float, float]
    phi: tuple[float, float]

    def __post_init__(self):
        for name, (lo, hi) in (("r", self.r), ("theta", self.theta), ("phi", self.phi)):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ValueError(f"empty or invalid {name} range ({lo}, {hi})")
        if self.r[0] <= 0:
            raise ValueError("r range must be positive")
        if not (0.0 <= self.theta[0] and self.theta[1] <= math.pi):
            raise ValueError("theta range must lie in [0, pi]")
        if not (-math.pi / 2 <= self.phi[0] and self.phi[1] <= math.pi / 2):
            raise ValueError("phi range must lie in [-pi/2, pi/2]")
        # u_x = sin(theta) cos(phi); each factor peaks inside its range or at an end
        theta_lo, theta_hi = self.theta
        phi_lo, phi_hi = self.phi
        sin_max = 1.0 if theta_lo <= math.pi / 2 <= theta_hi else max(map(math.sin, self.theta))
        cos_max = 1.0 if phi_lo <= 0.0 <= phi_hi else max(map(math.cos, self.phi))
        if sin_max * cos_max < MIN_U_X:
            raise ValueError(
                f"every direction in the region has u_x < {MIN_U_X} (nearly in the array plane)"
            )


def sample_users(region: UserRegion, count: int, seed) -> list[UserLocation]:
    """Draw users uniformly per spherical coordinate; deterministic in seed.

    Draws with direction cosine u_x below MIN_U_X (nearly in the array
    plane, hence a nearly zero channel) are rejected and redrawn; after
    MAX_REJECTIONS rejections in a row DegenerateGeometryError is raised.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(seed)
    users: list[UserLocation] = []
    rejected = 0
    while len(users) < count:
        loc = UserLocation(
            r=rng.uniform(*region.r),
            theta=rng.uniform(*region.theta),
            phi=rng.uniform(*region.phi),
        )
        if loc.u_x >= MIN_U_X:
            users.append(loc)
            rejected = 0
            continue
        rejected += 1
        if rejected >= MAX_REJECTIONS:
            raise DegenerateGeometryError(
                f"{MAX_REJECTIONS} consecutive draws had u_x < {MIN_U_X}; "
                "the region is nearly in the array plane"
            )
    return users


def _to_db(x: float) -> float:
    return -math.inf if x <= 0.0 else 10.0 * math.log10(x)


def _check_models(models) -> tuple[str, ...]:
    models = tuple(models)
    if not models or any(m not in ch.VALID_MODELS for m in models):
        raise ValueError(f"models must be drawn from {ch.VALID_MODELS}, got {models!r}")
    return models


def sweep_correlation_vs_m(
    geom: ArrayGeometry,
    loc1: UserLocation,
    loc2: UserLocation,
    mz_values,
    models=ch.VALID_MODELS,
    upw_cfg: ch.UpwConfig | None = None,
) -> SweepResult:
    """Correlation of two fixed users as the z-axis element count grows."""
    models = _check_models(models)
    sizes = [(geom.num_y, mz) for mz in sorted(int(v) for v in mz_values)]
    grams = [ch._nested_grams(geom, sizes, (loc1, loc2), model, upw_cfg) for model in models]

    rows = [
        (ny * mz, mz) + tuple(ch.correlation(g[i]) for g in grams)
        for i, (ny, mz) in enumerate(sizes)
    ]
    return SweepResult(
        columns=["m", "m_z"] + [f"{model}_rho_linear" for model in models],
        rows=rows,
    )


def sweep_correlation_vs_distance(
    geom: ArrayGeometry,
    loc1: UserLocation,
    direction2: tuple[float, float],
    separations,
    models=ch.VALID_MODELS,
    upw_cfg: ch.UpwConfig | None = None,
) -> SweepResult:
    """Correlation versus range separation; user 2 sits at r1 + separation."""
    models = _check_models(models)
    theta2, phi2 = direction2
    separations = sorted(float(s) for s in separations)
    with np.errstate(over="ignore"):  # a range that overflows to inf raises below
        r = loc1.r + np.array(separations)
    for end in (*r[:1], *r[-1:], 1.0):  # the nearest and farthest ranges bound every cell's
        u = UserLocation(float(end), theta2, phi2)  # last at r = 1: only its cosines are read
    coordinates = np.vstack([r, np.full((3, len(r)), [[u.u_x], [u.u_y], [u.u_z]])])
    grams = [ch._pair_gram(geom, loc1, coordinates, model, upw_cfg) for model in models]

    rows = [
        (sep, r2) + tuple(ch.correlation(g[j]) for g in grams)
        for j, (sep, r2) in enumerate(zip(separations, r.tolist()))
    ]
    return SweepResult(
        columns=["separation_m", "r2_m"] + [f"{model}_rho_linear" for model in models],
        rows=rows,
    )


def sweep_sinr_vs_m(
    geom: ArrayGeometry,
    users,
    snr,
    mz_values,
    user_index: int = 0,
    models=ch.VALID_MODELS,
    upw_cfg: ch.UpwConfig | None = None,
) -> SweepResult:
    """SINR of one user under each scheme as the z-axis element count grows."""
    models = _check_models(models)
    users = tuple(users)
    snr = np.asarray(snr, dtype=float)
    if not 0 <= user_index < len(users):
        raise IndexError(f"user index {user_index} out of range for K={len(users)}")
    sizes = [(geom.num_y, mz) for mz in sorted(int(v) for v in mz_values)]
    per_model = [
        evaluate_scenario(None, snr, g=ch._nested_grams(geom, sizes, users, model, upw_cfg))
        for model in models
    ]
    columns = [gammas[scheme][:, user_index] for gammas in per_model for scheme in SCHEMES]
    rows = [
        (ny * mz, mz) + tuple(_to_db(column[i]) for column in columns)
        for i, (ny, mz) in enumerate(sizes)
    ]
    return SweepResult(
        columns=["m", "m_z"]
        + [f"{model}_{scheme}_sinr_db" for model in models for scheme in SCHEMES],
        rows=rows,
    )


def heatmap_snr_loss(
    geom: ArrayGeometry,
    loc1: UserLocation,
    x_values,
    y_values,
    snr,
    models=ch.VALID_MODELS,
    upw_cfg: ch.UpwConfig | None = None,
) -> SweepResult:
    """MMSE SNR loss factor of user 1 versus user 2's position on the x-y plane.

    Every cell reads the paper's two-user closed form alpha = q2 rho / (1 + q2),
    with q2 = p2 |a_2|^2 and rho the correlation of the two users' channels,
    both from the cell's 2 x 2 Gram (channel._pair_gram), so no cell factors
    or solves anything.  A cell and its mirror image at -y share one walk where
    user 1 has u_y == 0.0, so the default map is exactly symmetric in y.  A
    channel whose power is 0 or not finite raises DegenerateChannelError.

    Grid points with x <= 0 (outside the front half space) are emitted as
    missing values.  Long-form rows: (x, y, one loss factor per model).
    """
    models = _check_models(models)
    snr = np.asarray(snr, dtype=float)
    if snr.shape != (2,) or not np.all(np.isfinite(snr) & (snr > 0.0)):
        raise ValueError(f"the loss-factor map needs two positive finite SNRs, got {snr!r}")
    p2 = float(snr[1])
    x_values = sorted(float(x) for x in x_values)
    y_values = sorted(float(y) for y in y_values)
    cells = [(x, y) for x in x_values for y in y_values]
    behind = sum(x <= 0.0 for x, _ in cells)  # a prefix: x is sorted and outer
    front = cells[behind:]
    coordinates = ch._coordinates(cartesian_to_spherical((x, y, 0.0)) for x, y in front)
    grams = [ch._pair_gram(geom, loc1, coordinates, model, upw_cfg) for model in models]

    def loss(g: np.ndarray) -> float:
        return _mmse_loss(p2 * float(g[1, 1].real), ch.correlation(g))

    rows = [cell + (None,) * len(models) for cell in cells[:behind]]
    rows += [cell + tuple(loss(g[j]) for g in grams) for j, cell in enumerate(front)]
    return SweepResult(
        columns=["x_m", "y_m"] + [f"{model}_mmse_alpha_linear" for model in models],
        rows=rows,
    )


def sumrate_vs_m(
    geom: ArrayGeometry,
    region: UserRegion,
    num_users: int,
    snr,
    m_values,
    seed: int,
    n_drops: int = 100,
    models=ch.VALID_MODELS,
    upw_cfg: ch.UpwConfig | None = None,
) -> SweepResult:
    """Mean sum rate over random user drops versus total element count.

    m_values entries are either a single integer side (square array) or an
    explicit (num_y, num_z) pair.  Each drop d samples its users from the
    stream seeded by (seed, d) and is reused across every array size, so
    curves vary only through the size.  A drop's sum rate under a
    scheme is beamforming.sum_rate of its SINRs, one call per scheme for a
    chunk's whole stack of them.
    """
    models = _check_models(models)
    snr = np.asarray(snr, dtype=float)
    if snr.shape != (num_users,):
        raise ValueError(f"expected {num_users} SNRs, got shape {snr.shape}")
    if n_drops < 1:
        raise ValueError("n_drops must be at least 1")
    pairs = []
    for entry in m_values:
        if isinstance(entry, (int, np.integer)):
            pairs.append((int(entry), int(entry)))
        else:
            ny, nz = entry
            pairs.append((int(ny), int(nz)))
    pairs.sort(key=lambda p: p[0] * p[1])
    if num_users > min(p[0] * p[1] for p in pairs):
        raise ValueError("num_users exceeds the smallest array size in the sweep")

    def rates(g: np.ndarray) -> np.ndarray:
        """The sum rates, (..., schemes), of a stack of Grams g, (..., K, K), in one call."""
        gammas = evaluate_scenario(None, snr, g=g.reshape(-1, num_users, num_users))
        rate = [sum_rate(gammas[scheme]) for scheme in SCHEMES]
        return np.stack(rate, axis=-1).reshape(*g.shape[:-2], len(SCHEMES))

    def run_chunk(drops) -> np.ndarray:
        """(drops, sizes, models, schemes) sum rates: every drop's Grams, then one factoring."""
        grams = []  # per drop, its models' (sizes, K, K) stacks so far
        try:
            for drop in drops:
                users = sample_users(region, num_users, (seed, drop))
                grams.append([])
                for model in models:
                    grams[-1].append(ch._nested_grams(geom, pairs, users, model, upw_cfg))
            return rates(np.array(grams)).swapaxes(1, 2)
        except (ValueError, ArithmeticError):  # every error a walk or a factoring raises
            # a drop at a time, each model in turn: the first failure in sweep order raises
            for stacks in grams:
                for g in stacks:
                    rates(g)
            raise

    chunk = max(_CHUNK_ENTRIES // (len(pairs) * len(models) * num_users**2), 1)
    stacked = np.concatenate(
        [run_chunk(range(lo, min(lo + chunk, n_drops))) for lo in range(0, n_drops, chunk)]
    )
    mean = stacked.mean(axis=0)
    if n_drops > 1:
        stderr = stacked.std(axis=0, ddof=1) / math.sqrt(n_drops)
    else:
        stderr = np.zeros_like(mean)

    # per array: each model's schemes in order, each as its mean and then its stderr
    cells = np.stack([mean, stderr], axis=-1).reshape(len(pairs), -1).tolist()
    metric_columns = [
        f"{model}_{scheme}_sumrate{kind}_bpshz"
        for model in models for scheme in SCHEMES for kind in ("", "_stderr")
    ]
    return SweepResult(
        columns=["m", "m_y", "m_z"] + metric_columns,
        rows=[(ny * nz, ny, nz, *cells[gi]) for gi, (ny, nz) in enumerate(pairs)],
    )
