"""Array response vectors for the spherical-wave and plane-wave channel models.

Two line-of-sight models produce the length-M complex channel vector of a
user, flattened in m_z-outer / m_y-inner element order:

* "pnusw" (projected-aperture non-uniform spherical wave): per-element
  power gain follows the exact element-user distance and the element
  aperture projected toward the user,

      g = area * (q - w) . x_hat / (4 pi |q - w|^3)
        = xi * e^2 * u_x / (4 pi * [1 - 2 m_y e u_y - 2 m_z e u_z
                                      + (m_y^2 + m_z^2) e^2]^(3/2)),

  with q the user position, w the element center, xi the occupation ratio
  and e = spacing / r; the phase is the exact spherical wavefront,
  -2 pi * distance / wavelength.

* "upw" (uniform plane wave): far-field approximation with one common
  amplitude sqrt(beta0) / r and a linear phase ramp
  +2 pi/wavelength * spacing * (m_y u_y + m_z u_z) across elements.

Every correlation coefficient is read from the 2 x 2 Gram matrix G of two
users' vectors as rho = |G_12|^2 / (G_11 G_22) (correlation).  Under the
plane-wave model the Gram matrix of any users has a closed form in signed
Dirichlet kernels of the direction-cosine differences (_upw_gram), with the
removable singularities filled in by their limits, so no plane-wave
response is built for it.  _pair_gram gives the stack of one fixed user's
Grams with many others under either model; under the spherical-wave model it
builds the fixed user once and streams every other user band by band over the
build threads, so no other user's response is ever held whole, and a user
with u_y == 0.0 or u_z == 0.0 only on the half of that axis that its mirror
symmetry does not repeat.

Every spherical-wave job is one user, whose N_z rows one band walker
(_pnusw_bands) builds band by band: the response builder runs one job per
user and the pair-Gram stream one job per cell.  XLMIMO_THREADS
(thread_count) caps the build threads; no result depends on it.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateChannelError, DegenerateGeometryError
from .geometry import ArrayGeometry, UserLocation, _warn_if_near, element_distance
from .numerics import cdot  # noqa: F401  (importable from here as before)

PNUSW = "pnusw"
UPW = "upw"
VALID_MODELS = (PNUSW, UPW)

THREADS_ENV = "XLMIMO_THREADS"
# Most build threads: a pool starts one thread per job in flight, up to its cap.
_MAX_THREADS = 256

# Most entries per band of a spherical-wave build (_pnusw_bands).
_BAND_ENTRIES = 2**15

# Build threads, one pool per thread cap, kept for the life of the process:
# starting threads costs about as much as building a 40 000-element response.
# A forked child starts with none, as the parent's threads do not exist there.
_pools: dict[int, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()
os.register_at_fork(after_in_child=_pools.clear)


def thread_count() -> int:
    """Build threads: XLMIMO_THREADS (1 to 256), else the usable cores, at most 256."""
    text = os.environ.get(THREADS_ENV)
    if text is None:
        affinity = getattr(os, "sched_getaffinity", None)
        return min(len(affinity(0)) if affinity else os.cpu_count() or 1, _MAX_THREADS)
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if not 1 <= threads <= _MAX_THREADS:
        raise ConfigError(
            f"{THREADS_ENV} must be a positive integer of at most {_MAX_THREADS}, got {text!r}"
        )
    return threads


def _build_pool(threads: int) -> ThreadPoolExecutor:
    with _pools_lock:
        if threads not in _pools:
            _pools[threads] = ThreadPoolExecutor(threads, thread_name_prefix="xlmimo-build")
        return _pools[threads]


@dataclass(frozen=True)
class UpwConfig:
    """Plane-wave model constants.

    beta0 is the channel power gain at the 1 m reference distance.  The
    matched default, element_area / (4 pi), is the gain one element sees at
    1 m under the aperture model, so both channel models agree at the array
    center for a boresight user.
    """

    beta0: float

    def __post_init__(self):
        if not (
            isinstance(self.beta0, (int, float))
            and math.isfinite(self.beta0)
            and self.beta0 > 0
        ):
            raise ValueError(f"beta0 must be a positive finite gain, got {self.beta0!r}")

    @classmethod
    def matched_to(cls, geom: ArrayGeometry) -> "UpwConfig":
        return cls(beta0=geom.element_area / (4.0 * math.pi))


def pnusw_gain(geom: ArrayGeometry, loc: UserLocation, m_y: float, m_z: float) -> float:
    """Spherical-model power gain between the user and one element."""
    dist = element_distance(geom, loc, m_y, m_z)
    eps = geom.spacing / loc.r
    scale = geom.occupation_ratio * eps * eps * loc.u_x / (4.0 * math.pi)
    return scale * (loc.r / dist) ** 3


def _coordinates(users) -> np.ndarray:
    """The (4, K) array of users' (r, u_x, u_y, u_z)."""
    params = np.array([(loc.r, loc.u_x, loc.u_y, loc.u_z) for loc in users], dtype=float)
    return params.reshape(-1, 4).T


def _warn_if_any_near(geom: ArrayGeometry, r) -> None:
    """Warn NearArrayWarning once if any of the ranges r is near the array."""
    with np.errstate(all="ignore"):
        _warn_if_near(float((geom.spacing / r).max(initial=0.0)))


def _pnusw_bands(geom: ArrayGeometry, user, out=None, indices=None):
    """Build one user's pnusw rows band by band, yielding (band, rows, amplitudes).

    user is the user's (r, u_x, u_y, u_z).  Its rows m_z of entries m_y, the
    index vectors indices (default: the geometry's), are cut into equal bands
    of at most about _BAND_ENTRIES entries (_band_step); band is a band's
    slice of the rows, rows its entries and amplitudes their real factors.
    With e = spacing / r and f(m) = m^2 e^2 - 2 e u m per axis, an entry's
    radicand t = (1 + f_z) + f_y is its squared distance over r^2 (so u_y ==
    0.0 makes m_y and -m_y bitwise equal), and the entry is
    sqrt(scale) / (s sqrt(s)) * exp(-j 2 pi r s / wavelength) with s = sqrt(t).
    The rows go to out[band], else to one band buffer that the next band
    overwrites, as it does the amplitudes.  A radicand t <= 0 (a user on an
    element) raises DegenerateGeometryError.  Safe on a pool thread: it calls
    only numpy, and errstate is per thread.
    """
    r, u_x, u_y, u_z = user
    m_y, m_z = (geom.indices_y(), geom.indices_z()) if indices is None else indices
    step = _band_step(len(m_z), len(m_y))
    radicand, amplitudes = np.empty((2, step, len(m_y)))
    buffer = np.empty((step, len(m_y)), dtype=complex) if out is None else None
    # overflow here leaves a non-finite entry, which the callers report
    with np.errstate(all="ignore"):
        e = geom.spacing / r
        f_y = (m_y * m_y) * (e * e) - (2.0 * e * u_y) * m_y
        f_z = 1.0 + ((m_z * m_z) * (e * e) - (2.0 * e * u_z) * m_z)
        root_scale = np.sqrt(geom.occupation_ratio * e * e * u_x / (4.0 * math.pi))
        wave = -2.0 * math.pi / geom.wavelength * r
    for lo in range(0, len(m_z), step):
        band = slice(lo, lo + step)
        rows = buffer[: len(m_z) - lo] if out is None else out[band]
        t, amp = radicand[: len(rows)], amplitudes[: len(rows)]
        with np.errstate(all="ignore"):
            t[...] = f_y  # then += f_z: a two-sided broadcast add would buffer twice as much
            t += f_z[band, None]
            if t.min() <= 0.0:
                raise DegenerateGeometryError(
                    "a user is numerically coincident with an array element"
                )
            np.sqrt(t, out=t)
            np.sqrt(t, out=amp)
            amp *= t
            np.divide(root_scale, amp, out=amp)
            t *= wave
            np.cos(t, out=rows.real)
            np.sin(t, out=rows.imag)
            rows.real *= amp
            rows.imag *= amp
        yield band, rows, amp


def _band_step(num_rows: int, row_len: int) -> int:
    """Rows per band when num_rows rows of row_len entries are cut into equal bands
    of at most about _BAND_ENTRIES entries (at least one row)."""
    bands = max(1, -(-num_rows * row_len // _BAND_ENTRIES))
    return max(1, -(-num_rows // bands))


def _map_bands(fn, jobs, count: int):
    """fn(*job) for each job, yielded in job order; count is the number of jobs.

    With one thread (thread_count()) or count <= 1 (a caller's way to keep the
    jobs here), the jobs run on the calling thread.  Otherwise they go to the
    kept build pool, at most 2 x threads jobs in flight, so at most
    min(threads, count) pool threads start.  fn must call no public function
    of the package (the benchmark tracer wraps those, and keeps one root span
    per calling thread).  When a job raises, its error is raised here, in job
    order, and the queued jobs are cancelled.
    """
    threads = thread_count()
    if threads == 1 or count <= 1:
        for job in jobs:
            yield fn(*job)
        return
    pool = _build_pool(threads)
    pending: deque = deque()
    try:
        for job in jobs:
            pending.append(pool.submit(fn, *job))
            if len(pending) >= 2 * threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def _response_block(
    geom: ArrayGeometry, users, model: str, cfg: UpwConfig | None = None
) -> np.ndarray:
    """Responses of K users as one (K, N_z, N_y) array.

    pnusw: an entry is _pnusw_bands's.  upw: an entry is one broadcast of
    (common * e^{j c u_z m_z}) * e^{j c u_y m_y}, c = 2 pi spacing / wavelength.
    Entries depend only on the user and their own (m_y, m_z), so the centered
    sub-grid of a larger same-parity array is bitwise a direct build.  pnusw
    runs one job per user (_map_bands, on up to thread_count() threads), which
    walks the user's rows band by band into out[k]: besides its output a build
    holds two band-sized temporaries per thread, and every entry is the same
    for any thread count; a block of at most _BAND_ENTRIES entries stays on
    the calling thread.  A radicand t <= 0 (a user on an element) raises
    DegenerateGeometryError.  A non-finite entry raises DegenerateChannelError.
    """
    if model not in VALID_MODELS:
        raise ValueError(f"unknown channel model {model!r}")
    coordinates = _coordinates(users)
    out = np.empty((coordinates.shape[1], geom.num_z, geom.num_y), dtype=complex)
    if model == UPW:
        r, _, u_y, u_z = coordinates[:, :, None]  # K x 1 columns
        m_y, m_z = geom.indices_y(), geom.indices_z()
        beta0 = (cfg or UpwConfig.matched_to(geom)).beta0
        c = 2.0 * math.pi * geom.spacing / geom.wavelength
        common = (math.sqrt(beta0) / r) * np.exp(-2j * math.pi * r / geom.wavelength)
        along_z = common * np.exp(1j * ((c * u_z) * m_z))
        np.multiply(along_z[:, :, None], np.exp(1j * ((c * u_y) * m_y))[:, None, :], out=out)
    else:
        _warn_if_any_near(geom, coordinates[0])

        def build(user, rows) -> None:
            deque(_pnusw_bands(geom, user, rows), maxlen=0)  # walk every band

        count = len(out) if out.size > _BAND_ENTRIES else 1
        deque(_map_bands(build, zip(coordinates.T, out), count), maxlen=0)
    if not np.isfinite(out).all():
        raise DegenerateChannelError("channel entries must be finite")
    return out


def _dirichlet(count, x):
    """Signed Dirichlet kernel sin(pi*count*x) / sin(pi*x), elementwise, singularities filled in.

    count is an element count, or an integer array of them that broadcasts
    against x.  The kernel is the sum of e^{j 2 pi x m} over the count
    centered indices m.  With x = n + f for the nearest integer n, and
    count*f = n' + f' likewise, it equals
    (-1)^(n (count - 1) + n') sin(pi f') / sin(pi f).  Both reductions are
    exact float subtractions, which keeps the ratio accurate arbitrarily
    close to the singular points (grating lobes, where it is +-count)
    instead of losing the tiny residual to rounding.
    """
    n = np.round(x)
    frac = x - n
    numerator_arg = count * frac
    n_num = np.round(numerator_arg)
    numerator_arg -= n_num
    sign = 1.0 - 2.0 * ((n * (count - 1) + n_num) % 2.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.sin(np.pi * numerator_arg) / np.sin(np.pi * frac)
    return sign * np.where(np.abs(frac) < 1e-12, count, ratio)


def _upw_gram(geoms, users, cfg: UpwConfig | None = None) -> np.ndarray:
    """Plane-wave Gram matrix A^H A of K users in closed form, without building A.

    G_ki = beta0 / (r_k r_i) e^{-j 2 pi (r_i - r_k) / lambda} D_{N_y}(x_y) D_{N_z}(x_z),
    with x = (d / lambda)(u_i - u_k) per axis and D the signed Dirichlet kernel;
    the diagonal is the power M beta0 / r^2, and a power that is 0 or not
    finite (r^2 beyond the float range either way) raises
    DegenerateChannelError.  The phase reads each range modulo lambda (fmod
    is exact), so it stays accurate however many wavelengths away the users
    are.  The result is exactly Hermitian.

    geoms is one ArrayGeometry, giving the K x K matrix, or a sequence of
    geometries that share spacing, element area and wavelength, giving the
    (n, K, K) stack of their Grams in one broadcast; each matrix of the
    stack is bitwise the one its geometry gives alone.
    """
    stack = [geoms] if isinstance(geoms, ArrayGeometry) else list(geoms)
    if len({(g.spacing, g.element_area, g.wavelength) for g in stack}) > 1:
        raise ValueError("stacked geometries must share spacing, element area and wavelength")
    beta0 = (cfg or UpwConfig.matched_to(stack[0])).beta0
    powers = _upw_powers(stack, users, beta0)
    g = _upw_entries(stack, users, users, beta0)
    np.einsum("...ii->...i", g)[...] = powers
    return g[0] if isinstance(geoms, ArrayGeometry) else g


def _upw_sizes(stack):
    """(num_y, num_z, num_elements), each an (n, 1, 1) array over the geometries of stack."""
    return np.array([(g.num_y, g.num_z, g.num_elements) for g in stack]).T[:, :, None, None]


def _upw_powers(stack, users, beta0: float) -> np.ndarray:
    """(n, K) plane-wave powers M beta0 / r^2; one that is 0 or not finite raises."""
    r = _coordinates(users)[0]
    with np.errstate(over="ignore"):
        powers = _upw_sizes(stack)[2][:, 0] * beta0 / r / r
    if not np.all((powers > 0.0) & (powers < math.inf)):
        raise DegenerateChannelError("a user has a zero or non-finite channel")
    return powers


def _upw_entries(stack, rows, cols, beta0: float) -> np.ndarray:
    """(n, len(rows), len(cols)) plane-wave Gram entries G_ki, k of rows and i of cols.

    The off-diagonal formula of _upw_gram; each entry depends only on its own
    pair of users and geometry.
    """
    num_y, num_z, _ = _upw_sizes(stack)
    (r_k, _, u_yk, u_zk), (r_i, _, u_yi, u_zi) = _coordinates(rows), _coordinates(cols)
    geom = stack[0]
    d_norm = geom.spacing / geom.wavelength
    root_beta0 = math.sqrt(beta0)
    cycles_k, cycles_i = (np.fmod(r, geom.wavelength) / geom.wavelength for r in (r_k, r_i))
    return ((root_beta0 / r_k)[:, None] * (root_beta0 / r_i)[None, :]) * (
        _dirichlet(num_y, d_norm * (u_yi[None, :] - u_yk[:, None]))
        * _dirichlet(num_z, d_norm * (u_zi[None, :] - u_zk[:, None]))
    ) * np.exp(-2j * math.pi * (cycles_i[None, :] - cycles_k[:, None]))


def _mirror(a, m, fold: bool):
    """(a, m, w) for a's last axis of indices m; fold keeps only m >= 0, each
    entry summed with its mirror image at -m, and w counts the images (1 or 2)."""
    if not fold:
        return a, m, np.ones(len(m))
    n = len(m)
    kept = a[..., n // 2 :].copy(order="K")  # in a's memory order: a.T's fold stays rows
    kept[..., n % 2 :] += np.flip(a[..., : n // 2], -1)
    return kept, m[n // 2 :], np.where(m[n // 2 :] > 0.0, 2.0, 1.0)


def _pair_cell(geom: ArrayGeometry, user, fold):
    """(G_12, |a_2|^2) of user 2 against user 1, user 2 walked band by band.

    user is user 2's (r, u_x, u_y, u_z), walked at the kept indices m_y, m_z of
    fold = (f, m_y, m_z, w_y, w_z) (_pair_gram): G_12 sums its entries times
    f, user 1's conjugate summed over their mirror images, and |a_2|^2 its
    squared amplitudes times w_y w_z.  Each row's partials are a numpy
    pairwise sum over that row, then the rows are summed in order, so neither
    the band size nor the thread shows.  A non-finite partial (user 2's: user
    1's entries are finite) raises DegenerateChannelError.
    """
    f, m_y, m_z, w_y, w_z = fold
    inner, power = np.empty(len(m_z), dtype=complex), np.empty(len(m_z))
    for band, rows, amp in _pnusw_bands(geom, user, indices=(m_y, m_z)):
        rows *= f[band]
        amp *= amp
        amp *= w_y
        inner[band], power[band] = rows.sum(axis=1), amp.sum(axis=1)
    power *= w_z
    if not (np.isfinite(inner).all() and np.isfinite(power).all()):
        raise DegenerateChannelError("channel entries must be finite")
    return inner.sum(), power.sum()


def _pair_gram(
    geom: ArrayGeometry, loc1: UserLocation, others, model: str, cfg: UpwConfig | None = None
) -> np.ndarray:
    """The (n, 2, 2) stack of the Gram matrices of (user 1, others[j]) on geom.

    upw builds nothing: the stack is one broadcast of _upw_gram's formula
    over user 1 and all of others, and each matrix is bitwise the G_11, G_12
    and G_22 of _upw_gram on that pair alone.  pnusw builds user 1's response
    once (_response_block), sums its power row by row over band-sized slices,
    and streams every user 2 of the sweep through _map_bands, one job per
    cell (_pair_cell): a job walks its user 2 band by band against user 1's
    matching rows and sums the per-row partials of G_12 and |a_2|^2 in row
    order, so every matrix is the same for any thread count and band size.
    A user 2 with u_y == 0.0 or u_z == 0.0 is walked only at m >= 0 on that
    axis, against user 1's conjugate folded onto it (_mirror, once per fold
    kind); user 1's unfolded response is dropped when no cell needs it.  No
    user 2 is ever held whole: a job holds one band of it and two band-sized
    temporaries.  The first failing cell raises: a user on an element
    DegenerateGeometryError, a non-finite entry DegenerateChannelError.
    User 1's channel (upw: every user's) is checked here; a zero or
    non-finite power raises DegenerateChannelError.
    """
    others = list(others)
    grams = np.empty((len(others), 2, 2), dtype=complex)
    if model == UPW:
        beta0 = (cfg or UpwConfig.matched_to(geom)).beta0
        powers = _upw_powers([geom], [loc1, *others], beta0)[0]
        inner = _upw_entries([geom], [loc1], others, beta0)[0, 0]
        grams[:, 0, 0] = powers[0]
        grams[:, 0, 1] = inner
        grams[:, 1, 0] = inner.conjugate()
        grams[:, 1, 1] = powers[1:]
        return grams
    a1 = _response_block(geom, (loc1,), model)[0]
    step = _band_step(geom.num_z, geom.num_y)
    bands = (a1[lo : lo + step] for lo in range(0, geom.num_z, step))
    power1 = np.concatenate([(b.real * b.real + b.imag * b.imag).sum(1) for b in bands]).sum()
    if not 0.0 < power1 < math.inf:
        raise DegenerateChannelError("a user has a zero or non-finite channel")
    np.conjugate(a1, out=a1)
    coordinates = _coordinates(others)
    _warn_if_any_near(geom, coordinates[0])
    kinds = [(u_y == 0.0, u_z == 0.0) for u_y, u_z in coordinates[2:].T]

    def fold(fold_y: bool, fold_z: bool):
        f, m_y, w_y = _mirror(a1, geom.indices_y(), fold_y)
        f, m_z, w_z = _mirror(f.T, geom.indices_z(), fold_z)
        return f.T, m_y, m_z, w_y, w_z

    folds = {kind: fold(*kind) for kind in dict.fromkeys(kinds)}
    del a1  # held on only by the unfolded kind's fold, if a cell needs it
    jobs = ((geom, user, folds[kind]) for user, kind in zip(coordinates.T, kinds))
    for (g12, power2), gram in zip(_map_bands(_pair_cell, jobs, len(others)), grams):
        gram[...] = [[power1, g12], [g12.conjugate(), power2]]
    return grams


def correlation(g) -> float:
    """Correlation rho = |G_12|^2 / (G_11 G_22) of two users from their 2 x 2 Gram matrix G.

    Evaluated scale-free as |G_12 / sqrt(G_11) / sqrt(G_22)|^2, so it is
    defined for any finite positive powers, however far their product
    leaves the float range; rho does not depend on a common gain such as
    beta0.  The result is capped at 1 against rounding.  Raises
    DegenerateChannelError when a power is 0 or not finite, or G_12 is not
    finite.
    """
    (g11, g12), (_, g22) = np.asarray(g, dtype=complex).tolist()
    power1, power2 = g11.real, g22.real
    finite = all(map(math.isfinite, (power1, power2, g12.real, g12.imag)))
    if not (finite and power1 > 0.0 and power2 > 0.0):
        raise DegenerateChannelError(
            "correlation undefined: a channel power is zero or not finite, or G_12 is not finite"
        )
    scaled = g12 / math.sqrt(power1) / math.sqrt(power2)
    return min(scaled.real * scaled.real + scaled.imag * scaled.imag, 1.0)
