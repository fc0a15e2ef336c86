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
response is built for it; _pair_gram gives one fixed user's Gram with any
other under either model.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateChannelError, DegenerateGeometryError
from .geometry import ArrayGeometry, UserLocation, _warn_if_near, element_distance
from .numerics import cdot, vector_power

PNUSW = "pnusw"
UPW = "upw"
VALID_MODELS = (PNUSW, UPW)

THREADS_ENV = "XLMIMO_THREADS"

# Most entries per band of a spherical-wave build (_response_block).
_BAND_ENTRIES = 2**15

# Build threads, one pool per thread cap, kept for the life of the process:
# starting threads costs about as much as building a 40 000-element response.
# A forked child starts with none, as the parent's threads do not exist there.
_pools: dict[int, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()
os.register_at_fork(after_in_child=_pools.clear)


def thread_count() -> int:
    """Threads one spherical-wave build may use: XLMIMO_THREADS, else the usable cores."""
    text = os.environ.get(THREADS_ENV)
    if text is None:
        affinity = getattr(os, "sched_getaffinity", None)
        return len(affinity(0)) if affinity else os.cpu_count() or 1
    try:
        return max(1, int(text))
    except ValueError:
        raise ConfigError(f"{THREADS_ENV} must be an integer, got {text!r}") from None


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


def _response_block(
    geom: ArrayGeometry, users, model: str, cfg: UpwConfig | None = None
) -> np.ndarray:
    """Responses of K users as one (K, N_z, N_y) array, built in one broadcast pass.

    pnusw: with e = spacing / r and f(m) = m^2 e^2 - 2 e u m per axis, t = (1 + f_z) + f_y
    is the squared distance over r^2 and, with s = sqrt(t), an entry is
    sqrt(scale) / (s sqrt(s)) * exp(-j 2 pi r s / wavelength).  upw: an entry is
    (common * e^{j c u_z m_z}) * e^{j c u_y m_y} with c = 2 pi spacing / wavelength.
    Entries depend only on the user and their own (m_y, m_z), so the centered sub-grid
    of a larger same-parity array is bitwise a direct build.  pnusw cuts the rows
    (user, m_z) into equal bands of at most about _BAND_ENTRIES entries and builds
    them into out on up to thread_count() threads, at most one per band; besides its
    output a build holds two band-sized temporaries per thread, and every entry is
    the same for any thread count.  A radicand t <= 0 (a user on an element) raises
    DegenerateGeometryError.  A non-finite entry raises DegenerateChannelError.
    """
    if model not in VALID_MODELS:
        raise ValueError(f"unknown channel model {model!r}")
    params = np.array([(loc.r, loc.u_x, loc.u_y, loc.u_z) for loc in users], dtype=float)
    r, u_x, u_y, u_z = params.reshape(-1, 4).T[:, :, None]  # K x 1 columns
    m_y, m_z = geom.indices_y(), geom.indices_z()
    out = np.empty((len(r), geom.num_z, geom.num_y), dtype=complex)
    if model == UPW:
        beta0 = (cfg or UpwConfig.matched_to(geom)).beta0
        c = 2.0 * math.pi * geom.spacing / geom.wavelength
        common = (math.sqrt(beta0) / r) * np.exp(-2j * math.pi * r / geom.wavelength)
        along_z = common * np.exp(1j * ((c * u_z) * m_z))
        np.multiply(along_z[:, :, None], np.exp(1j * ((c * u_y) * m_y))[:, None, :], out=out)
    else:
        # overflow here leaves a non-finite entry, which the check below reports
        with np.errstate(all="ignore"):
            e = geom.spacing / r
            _warn_if_near(float(e.max(initial=0.0)))
            f_y = (m_y * m_y) * (e * e) - (2.0 * e * u_y) * m_y
            f_z = 1.0 + ((m_z * m_z) * (e * e) - (2.0 * e * u_z) * m_z)
            scale = geom.occupation_ratio * e * e * u_x / (4.0 * math.pi)
            # one row of N_y entries per (user, m_z), built band by band into out
            user = np.repeat(np.arange(len(r)), geom.num_z)
            f_z = f_z.reshape(-1, 1)
            root_scale = np.sqrt(scale)[user]
            wave = (-2.0 * math.pi / geom.wavelength * r)[user]
        rows = out.reshape(-1, geom.num_y)
        bands = max(1, -(-out.size // _BAND_ENTRIES))
        step = max(1, -(-len(rows) // bands))

        def build(lo: int) -> None:
            band = slice(lo, lo + step)
            with np.errstate(all="ignore"):  # errstate is per thread
                s = f_y[user[band]]
                s += f_z[band]
                if s.min() <= 0.0:
                    raise DegenerateGeometryError(
                        "a user is numerically coincident with an array element"
                    )
                np.sqrt(s, out=s)
                amp = np.sqrt(s)
                amp *= s
                np.divide(root_scale[band], amp, out=amp)
                s *= wave[band]
                part = rows[band]
                np.cos(s, out=part.real)
                np.sin(s, out=part.imag)
                part.real *= amp
                part.imag *= amp

        starts = range(0, len(rows), step)
        threads = thread_count()
        if threads == 1 or len(starts) == 1:
            for lo in starts:
                build(lo)
        else:  # a pool thread takes one band at a time
            list(_build_pool(threads).map(build, starts))
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


def _upw_params(users):
    """The (r, u_y, u_z) columns of users' coordinates."""
    params = np.array([(loc.r, loc.u_y, loc.u_z) for loc in users], dtype=float)
    return params.reshape(-1, 3).T


def _upw_sizes(stack):
    """(num_y, num_z, num_elements), each an (n, 1, 1) array over the geometries of stack."""
    return np.array([(g.num_y, g.num_z, g.num_elements) for g in stack]).T[:, :, None, None]


def _upw_powers(stack, users, beta0: float) -> np.ndarray:
    """(n, K) plane-wave powers M beta0 / r^2; one that is 0 or not finite raises."""
    r = _upw_params(users)[0]
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
    (r_k, u_yk, u_zk), (r_i, u_yi, u_zi) = _upw_params(rows), _upw_params(cols)
    geom = stack[0]
    d_norm = geom.spacing / geom.wavelength
    root_beta0 = math.sqrt(beta0)
    cycles_k, cycles_i = (np.fmod(r, geom.wavelength) / geom.wavelength for r in (r_k, r_i))
    return ((root_beta0 / r_k)[:, None] * (root_beta0 / r_i)[None, :]) * (
        _dirichlet(num_y, d_norm * (u_yi[None, :] - u_yk[:, None]))
        * _dirichlet(num_z, d_norm * (u_zi[None, :] - u_zk[:, None]))
    ) * np.exp(-2j * math.pi * (cycles_i[None, :] - cycles_k[:, None]))


def _pair_gram(
    geom: ArrayGeometry, loc1: UserLocation, others, model: str, cfg: UpwConfig | None = None
):
    """The function from j to the 2 x 2 Gram matrix of (user 1, others[j]) on geom.

    upw builds nothing: every pair's Gram is read here, in one broadcast of
    _upw_gram's formula over user 1 and all of others, and each is bitwise
    the G_11, G_12 and G_22 of _upw_gram on that pair alone.  pnusw builds
    user 1's response once, here, and each call builds others[j]'s and takes
    the entries as pairwise sums (cdot, vector_power): for one pair that is
    faster than a BLAS product of the stacked M x 2 matrix.  User 1's channel
    is checked here (upw: every user's); a zero or non-finite power raises
    DegenerateChannelError.
    """
    others = list(others)
    if model == UPW:
        beta0 = (cfg or UpwConfig.matched_to(geom)).beta0
        powers = _upw_powers([geom], [loc1, *others], beta0)[0]
        inner = _upw_entries([geom], [loc1], others, beta0)[0, 0]
        grams = np.empty((len(others), 2, 2), dtype=complex)
        grams[:, 0, 0] = powers[0]
        grams[:, 0, 1] = inner
        grams[:, 1, 0] = inner.conjugate()
        grams[:, 1, 1] = powers[1:]
        return grams.__getitem__
    a1 = _response_block(geom, (loc1,), model).reshape(-1)
    power1 = vector_power(a1)
    if not 0.0 < power1 < math.inf:
        raise DegenerateChannelError("a user has a zero or non-finite channel")

    def pair(j: int) -> np.ndarray:
        a2 = _response_block(geom, (others[j],), model).reshape(-1)
        inner = cdot(a1, a2)
        return np.array([[power1, inner], [inner.conjugate(), vector_power(a2)]])

    return pair


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
