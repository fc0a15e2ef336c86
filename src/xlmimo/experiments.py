"""Parameter sweeps: correlation, SINR, SNR-loss maps, and sum-rate curves.

Every sweep returns a SweepResult table that serializes directly to CSV:
the first column is the sweep axis, metric columns are named
``<model>_<scheme>_<metric>`` with a units suffix, and rows are sorted by
the axis.  All internal math is linear; dB conversion happens once, when a
row is materialized.

Sweep points and random user drops are independent, so they may be mapped
over a thread pool; per-drop random streams derive from (seed, drop index)
and results are reduced in list order, which keeps every table
bit-identical regardless of thread count (capped by XLMIMO_THREADS).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import channel as ch
from .beamforming import SCHEMES, evaluate_scenario, response_matrix, sum_rate
from .errors import ConfigError, DegenerateGeometryError
from .geometry import ArrayGeometry, UserLocation, Vector3, cartesian_to_spherical
from .numerics import vector_power

THREADS_ENV = "XLMIMO_THREADS"

# sample_users rejects draws with a direction cosine u_x below MIN_U_X (nearly
# in the array plane, hence a nearly zero channel) and gives up after
# MAX_REJECTIONS consecutive rejections.
MIN_U_X = 1e-3
MAX_REJECTIONS = 10_000


def thread_count(explicit: int | None = None) -> int:
    """Worker cap: explicit argument, else XLMIMO_THREADS, else 1."""
    if explicit is None:
        text = os.environ.get(THREADS_ENV, "1")
        try:
            explicit = int(text)
        except ValueError:
            raise ConfigError(f"{THREADS_ENV} must be an integer, got {text!r}") from None
    return max(1, int(explicit))


def _pmap(fn, items, threads: int | None):
    items = list(items)
    workers = thread_count(threads)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


@dataclass
class SweepResult:
    """Tabular sweep output: ordered columns (axis first) and sorted rows."""

    axis_name: str
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


def nested_responses(geoms, users, model: str, upw_cfg: ch.UpwConfig | None = None):
    """M x K response matrices for a sweep over geoms, building one array.

    The largest geometry is built once.  Centered element indices of one
    parity nest, so a geometry of the same parity on both axes and no
    larger on either is a centered sub-grid of it whose indices, distances
    and phase ramps are bitwise those of a direct build: it gets its
    centered sub-block.  Any other geometry is built directly.  All
    geometries must share spacing, element area and wavelength.  Returns a
    function from a geometry in geoms to its response matrix.
    """
    big = max(geoms, key=lambda g: g.num_elements)
    a_big = response_matrix(big, users, model, upw_cfg).T.reshape(-1, big.num_z, big.num_y)

    def build(g: ArrayGeometry) -> np.ndarray:
        dy, dz = big.num_y - g.num_y, big.num_z - g.num_z
        if min(dy, dz) < 0 or dy % 2 or dz % 2:
            return response_matrix(g, users, model, upw_cfg)
        block = a_big[:, dz // 2 : dz // 2 + g.num_z, dy // 2 : dy // 2 + g.num_y]
        return block.reshape(len(block), g.num_elements).T

    return build


def sweep_correlation_vs_m(
    geom: ArrayGeometry,
    loc1: UserLocation,
    loc2: UserLocation,
    mz_values,
    models=ch.VALID_MODELS,
    upw_cfg: ch.UpwConfig | None = None,
    threads: int | None = None,
) -> SweepResult:
    """Correlation of two fixed users as the z-axis element count grows."""
    models = _check_models(models)
    mz_values = sorted(int(v) for v in mz_values)
    geoms = [replace(geom, num_z=mz) for mz in mz_values]
    builds = {model: nested_responses(geoms, (loc1, loc2), model, upw_cfg) for model in models}

    def point(g: ArrayGeometry) -> tuple:
        row = [g.num_elements, g.num_z]
        for model in models:
            a = builds[model](g)
            row.append(ch.correlation(
                ch.ResponseVector(a[:, 0], model, g), ch.ResponseVector(a[:, 1], model, g)
            ))
        return tuple(row)

    rows = _pmap(point, geoms, threads)
    return SweepResult(
        axis_name="m",
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
    threads: int | None = None,
) -> SweepResult:
    """Correlation versus range separation; user 2 sits at r1 + separation."""
    models = _check_models(models)
    theta2, phi2 = direction2
    separations = sorted(float(s) for s in separations)
    ref = {model: ch.response(geom, loc1, model, upw_cfg) for model in models}

    def point(sep: float) -> tuple:
        loc2 = UserLocation(r=loc1.r + sep, theta=theta2, phi=phi2)
        row = [sep, loc2.r]
        for model in models:
            row.append(ch.correlation(ref[model], ch.response(geom, loc2, model, upw_cfg)))
        return tuple(row)

    rows = _pmap(point, separations, threads)
    return SweepResult(
        axis_name="separation_m",
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
    threads: int | None = None,
) -> SweepResult:
    """SINR of one user under each scheme as the z-axis element count grows."""
    models = _check_models(models)
    users = tuple(users)
    snr = np.asarray(snr, dtype=float)
    mz_values = sorted(int(v) for v in mz_values)
    if not 0 <= user_index < len(users):
        raise IndexError(f"user index {user_index} out of range for K={len(users)}")
    geoms = [replace(geom, num_z=mz) for mz in mz_values]
    builds = {model: nested_responses(geoms, users, model, upw_cfg) for model in models}

    def point(g: ArrayGeometry) -> tuple:
        row = [g.num_elements, g.num_z]
        for model in models:
            gammas = evaluate_scenario(builds[model](g), snr)
            row.extend(_to_db(gammas[scheme][user_index]) for scheme in SCHEMES)
        return tuple(row)

    rows = _pmap(point, geoms, threads)
    return SweepResult(
        axis_name="m",
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
    threads: int | None = None,
) -> SweepResult:
    """MMSE SNR loss factor of user 1 versus user 2's position on the x-y plane.

    Grid points with x <= 0 (outside the front half space) are emitted as
    missing values.  Long-form rows: (x, y, one loss factor per model).
    """
    models = _check_models(models)
    snr = np.asarray(snr, dtype=float)
    if snr.shape != (2,):
        raise ValueError("the loss-factor map is a two-user experiment")
    x_values = sorted(float(x) for x in x_values)
    y_values = sorted(float(y) for y in y_values)
    ref = {model: response_matrix(geom, [loc1], model, upw_cfg)[:, 0] for model in models}
    single = {model: snr[0] * vector_power(ref[model]) for model in models}

    def point(cell: tuple[float, float]) -> tuple:
        x, y = cell
        if x <= 0.0:
            return (x, y) + (None,) * len(models)
        loc2 = cartesian_to_spherical(Vector3(x, y, 0.0))
        row = [x, y]
        for model in models:
            a2 = response_matrix(geom, [loc2], model, upw_cfg)[:, 0]
            gamma = evaluate_scenario(np.vstack([ref[model], a2]).T, snr)["mmse"][0]
            row.append(min(max(1.0 - gamma / single[model], 0.0), 1.0))
        return tuple(row)

    cells = [(x, y) for x in x_values for y in y_values]
    rows = _pmap(point, cells, threads)
    return SweepResult(
        axis_name="x_m",
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
    threads: int | None = None,
) -> SweepResult:
    """Mean sum rate over random user drops versus total element count.

    m_values entries are either a single integer side (square array) or an
    explicit (num_y, num_z) pair.  Each drop d samples its users from the
    stream seeded by (seed, d) and is reused across every array size, so
    curves vary only through the geometry.
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
    geoms = [replace(geom, num_y=ny, num_z=nz) for ny, nz in pairs]

    def run_drop(drop: int) -> np.ndarray:
        users = sample_users(region, num_users, (seed, drop))
        rates = np.empty((len(geoms), len(models), len(SCHEMES)))
        for mi, model in enumerate(models):
            build = nested_responses(geoms, users, model, upw_cfg)
            for gi, g in enumerate(geoms):
                gammas = evaluate_scenario(build(g), snr)
                for si, scheme in enumerate(SCHEMES):
                    rates[gi, mi, si] = sum_rate(gammas[scheme])
        return rates

    stacked = np.stack(_pmap(run_drop, range(n_drops), threads))
    mean = stacked.mean(axis=0)
    if n_drops > 1:
        stderr = stacked.std(axis=0, ddof=1) / math.sqrt(n_drops)
    else:
        stderr = np.zeros_like(mean)

    rows = []
    for gi, (ny, nz) in enumerate(pairs):
        row = [ny * nz, ny, nz]
        for mi, model in enumerate(models):
            for si, scheme in enumerate(SCHEMES):
                row.append(float(mean[gi, mi, si]))
                row.append(float(stderr[gi, mi, si]))
        rows.append(tuple(row))

    metric_columns = []
    for model in models:
        for scheme in SCHEMES:
            metric_columns.append(f"{model}_{scheme}_sumrate_bpshz")
            metric_columns.append(f"{model}_{scheme}_sumrate_stderr_bpshz")
    return SweepResult(
        axis_name="m",
        columns=["m", "m_y", "m_z"] + metric_columns,
        rows=rows,
    )
