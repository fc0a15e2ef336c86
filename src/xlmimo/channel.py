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

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateChannelError, DimensionMismatchError
from .geometry import ArrayGeometry, UserLocation, element_distance, element_distances
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
        if not np.all(np.isfinite(entries.real)) or not np.all(np.isfinite(entries.imag)):
            raise ValueError("channel entries must be finite")

    @property
    def geom_digest(self) -> str:
        return self.geom.digest()

    def __len__(self) -> int:
        return self.entries.shape[0]

    def power(self) -> float:
        return channel_power(self)


def pnusw_gain(geom: ArrayGeometry, loc: UserLocation, m_y: float, m_z: float) -> float:
    """Spherical-model power gain between the user and one element."""
    dist = element_distance(geom, loc, m_y, m_z)
    eps = geom.spacing / loc.r
    scale = geom.occupation_ratio * eps * eps * loc.u_x / (4.0 * math.pi)
    return scale * (loc.r / dist) ** 3


def pnusw_gains(geom: ArrayGeometry, loc: UserLocation) -> np.ndarray:
    """Spherical-model power gains for every element, flattened m_z-outer."""
    dist = element_distances(geom, loc)
    eps = geom.spacing / loc.r
    scale = geom.occupation_ratio * eps * eps * loc.u_x / (4.0 * math.pi)
    return scale * (loc.r / dist) ** 3


def pnusw_response(geom: ArrayGeometry, loc: UserLocation) -> ResponseVector:
    """Spherical-wavefront response: sqrt(gain) * exp(-j 2 pi distance / wavelength)."""
    dist = element_distances(geom, loc)
    eps = geom.spacing / loc.r
    scale = geom.occupation_ratio * eps * eps * loc.u_x / (4.0 * math.pi)
    amp = np.sqrt(scale * (loc.r / dist) ** 3)
    phase = (-2.0 * math.pi / geom.wavelength) * dist
    return ResponseVector(entries=amp * np.exp(1j * phase), model=PNUSW, geom=geom)


def upw_response(geom: ArrayGeometry, loc: UserLocation, cfg: UpwConfig) -> ResponseVector:
    """Plane-wave response: common amplitude and a linear phase ramp."""
    my, mz = geom.index_grid()
    ramp = (2.0 * math.pi * geom.spacing / geom.wavelength) * (my * loc.u_y + mz * loc.u_z)
    common = (math.sqrt(cfg.beta0) / loc.r) * cmath.exp(
        -2j * math.pi * loc.r / geom.wavelength
    )
    return ResponseVector(entries=common * np.exp(1j * ramp), model=UPW, geom=geom)


def response(
    geom: ArrayGeometry, loc: UserLocation, model: str, cfg: UpwConfig | None = None
) -> ResponseVector:
    """Response vector of one user under the named model.

    The plane-wave model uses cfg, or the matched config when cfg is None.
    """
    if model == PNUSW:
        return pnusw_response(geom, loc)
    if model == UPW:
        return upw_response(geom, loc, cfg if cfg is not None else UpwConfig.matched_to(geom))
    raise ValueError(f"unknown channel model {model!r}")


def channel_power(a) -> float:
    """Total channel power |a|^2."""
    entries = a.entries if isinstance(a, ResponseVector) else np.asarray(a)
    return vector_power(entries)


def correlation(a_k: ResponseVector, a_i: ResponseVector) -> float:
    """Normalized squared inner product of two users' channel vectors, in [0, 1]."""
    if a_k.geom_digest != a_i.geom_digest or len(a_k) != len(a_i):
        raise DimensionMismatchError("channel vectors belong to different geometries")
    p_k = channel_power(a_k)
    p_i = channel_power(a_i)
    if p_k <= 0.0 or p_i <= 0.0:
        raise DegenerateChannelError("correlation undefined for a zero-power channel")
    inner = cdot(a_k.entries, a_i.entries)
    rho = (inner.real * inner.real + inner.imag * inner.imag) / (p_k * p_i)
    return min(max(rho, 0.0), 1.0)


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


def upw_correlation_closed(
    geom: ArrayGeometry, loc_k: UserLocation, loc_i: UserLocation
) -> float:
    """Plane-wave correlation in closed form: product of squared Dirichlet kernels."""
    d_norm = geom.spacing / geom.wavelength
    f_y = _dirichlet_magnitude(geom.num_y, d_norm * (loc_k.u_y - loc_i.u_y))
    f_z = _dirichlet_magnitude(geom.num_z, d_norm * (loc_k.u_z - loc_i.u_z))
    rho = (f_y * f_z / geom.num_elements) ** 2
    return min(rho, 1.0)
