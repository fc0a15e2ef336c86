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

The correlation coefficient between two users' vectors is
|a_k^H a_i|^2 / (|a_k|^2 |a_i|^2); under the plane-wave model it collapses
to a product of two squared Dirichlet kernels in the direction-cosine
differences, implemented in closed form with the removable singularities
filled in by their limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateChannelError, DegenerateGeometryError, DimensionMismatchError
from .geometry import ArrayGeometry, UserLocation, _warn_if_near, element_distance
from .numerics import cdot, vector_power

PNUSW = "pnusw"
UPW = "upw"
VALID_MODELS = (PNUSW, UPW)


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


@dataclass(frozen=True)
class ResponseVector:
    """Complex channel vector of one user, tagged with its model and geometry."""

    entries: np.ndarray
    model: str
    geom: ArrayGeometry

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", entries)
        if entries.shape != (self.geom.num_elements,):
            raise DimensionMismatchError(
                f"expected {self.geom.num_elements} entries, got shape {entries.shape}"
            )
        if self.model not in VALID_MODELS:
            raise ValueError(f"unknown channel model {self.model!r}")
        if not np.isfinite(entries).all():
            raise DegenerateChannelError("channel entries must be finite")
        object.__setattr__(self, "_power", vector_power(entries))

    def __len__(self) -> int:
        return self.entries.shape[0]

    def power(self) -> float:
        """Channel power |a|^2, summed once at construction."""
        return self._power


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
    of a larger same-parity array is bitwise a direct build.  Callers check finiteness.
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
        return np.multiply(along_z[:, :, None], np.exp(1j * ((c * u_y) * m_y))[:, None, :], out=out)

    # overflow here leaves a non-finite entry, which the callers' finite check reports
    with np.errstate(all="ignore"):
        e = geom.spacing / r
        _warn_if_near(float(e.max(initial=0.0)))
        f_y = (m_y * m_y) * (e * e) - (2.0 * e * u_y) * m_y
        f_z = 1.0 + ((m_z * m_z) * (e * e) - (2.0 * e * u_z) * m_z)
        s = np.add(f_z[:, :, None], f_y[:, None, :])
        if s.min() <= 0.0:
            raise DegenerateGeometryError("a user is numerically coincident with an array element")
        np.sqrt(s, out=s)
        amp = np.sqrt(s)
        amp *= s
        scale = geom.occupation_ratio * e * e * u_x / (4.0 * math.pi)
        np.divide(np.sqrt(scale)[:, :, None], amp, out=amp)
        s *= (-2.0 * math.pi / geom.wavelength * r)[:, :, None]
        np.cos(s, out=out.real)
        np.sin(s, out=out.imag)
        out.real *= amp
        out.imag *= amp
    return out


def response(
    geom: ArrayGeometry, loc: UserLocation, model: str, cfg: UpwConfig | None = None
) -> ResponseVector:
    """Response vector of one user; the plane-wave model uses cfg, or the matched config."""
    return ResponseVector(_response_block(geom, (loc,), model, cfg).reshape(-1), model, geom)


def correlation(a_k: ResponseVector, a_i: ResponseVector) -> float:
    """Normalized squared inner product of two users' channel vectors, in [0, 1]."""
    if a_k.geom != a_i.geom:
        raise DimensionMismatchError("channel vectors belong to different geometries")
    inner = cdot(a_k.entries, a_i.entries)
    overlap = inner.real * inner.real + inner.imag * inner.imag
    norms = a_k.power() * a_i.power()
    if not (overlap < math.inf and 0.0 < norms < math.inf):
        raise DegenerateChannelError("correlation undefined: channel powers zero or out of range")
    return min(max(overlap / norms, 0.0), 1.0)


def _dirichlet_magnitude(count: int, x: float) -> float:
    """|sin(pi*count*x) / sin(pi*x)| with the removable singularity filled in.

    Both sine arguments are reduced by their nearest integer multiple of pi
    before evaluation (an exact float subtraction, magnitude unchanged since
    count is an integer), which keeps the ratio accurate arbitrarily close
    to the singular points instead of losing the tiny residual to rounding.
    """
    frac = x - round(x)
    if abs(frac) < 1e-12:
        return float(count)
    numerator_arg = count * frac
    numerator_arg -= round(numerator_arg)
    return abs(math.sin(math.pi * numerator_arg) / math.sin(math.pi * frac))


def _upw_power(geom: ArrayGeometry, loc: UserLocation, cfg: UpwConfig | None = None) -> float:
    """Plane-wave channel power in closed form, M beta0 / r^2, without building a response.

    Raises DegenerateChannelError when it is 0 or not finite (r^2 beyond the
    float range either way).
    """
    beta0 = (cfg or UpwConfig.matched_to(geom)).beta0
    power = geom.num_elements * beta0 / loc.r / loc.r
    if not 0.0 < power < math.inf:
        raise DegenerateChannelError("a user has a zero or non-finite channel")
    return power


def upw_correlation_closed(
    geom: ArrayGeometry, loc_k: UserLocation, loc_i: UserLocation
) -> float:
    """Plane-wave correlation in closed form: product of squared Dirichlet kernels."""
    d_norm = geom.spacing / geom.wavelength
    f_y = _dirichlet_magnitude(geom.num_y, d_norm * (loc_k.u_y - loc_i.u_y))
    f_z = _dirichlet_magnitude(geom.num_z, d_norm * (loc_k.u_z - loc_i.u_z))
    rho = (f_y * f_z / geom.num_elements) ** 2
    return min(rho, 1.0)
