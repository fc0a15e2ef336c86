"""Uniform planar array layout and exact element-user distances.

The array sits on the y-z plane, centered at the origin, with element
centers spaced ``spacing`` meters apart along both axes.  Element indices
are centered: along an axis with ``n`` elements the index m runs over
-(n-1)/2, ..., (n-1)/2 in unit steps, so indices are integers for odd
counts and half-integers for even counts.  Either parity yields the same
distance and array-factor formulas.

Users live in the x >= 0 half space at spherical coordinates
(r, theta, phi) with direction cosines

    u_x = sin(theta) * cos(phi)     (normal to the array plane)
    u_y = sin(theta) * sin(phi)
    u_z = cos(theta) = sin(pi/2 - theta)

so the user position is r * (u_x, u_y, u_z).  In the sine form of u_z the
subtraction is exact for theta >= pi/4, so theta = pi/2 (z = 0) gives
u_z = 0.0 exactly, not cos(pi/2) = 6.1e-17.  The exact distance between the
user and the element at index (m_y, m_z) is

    r * sqrt(1 - 2*m_y*e*u_y - 2*m_z*e*u_z + (m_y^2 + m_z^2) * e^2)

with e = spacing / r, which equals the Euclidean distance between the two
points.  channel's response builder evaluates this form for every element
at once, with the radicand summed in a separable order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError

# Warn when the element spacing is no longer small against the user range;
# the square-root expansion stays exact but the scenario is suspicious.
NEAR_ARRAY_RATIO = 0.1


class NearArrayWarning(UserWarning):
    """User range is within a few element spacings of the array."""


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform planar array on the y-z plane.

    Attributes:
        num_y: element count along the y axis.
        num_z: element count along the z axis.
        spacing: center-to-center element separation d, meters.
        element_area: physical aperture of a single element, square meters.
        wavelength: carrier wavelength, meters.
    """

    num_y: int
    num_z: int
    spacing: float
    element_area: float
    wavelength: float

    def __post_init__(self):
        for name in ("num_y", "num_z"):
            count = getattr(self, name)
            if not isinstance(count, (int, np.integer)) or isinstance(count, bool):
                raise ValueError(f"{name} must be an integer, got {count!r}")
            if count < 1:
                raise ValueError(f"{name} must be positive, got {count}")
        for name in ("spacing", "element_area", "wavelength"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")
        try:
            plate = self.spacing**2
        except OverflowError:
            raise ValueError(f"spacing {self.spacing!r} is too large: its square overflows") from None
        if self.element_area > plate * (1.0 + 1e-12):
            raise ValueError(
                f"elements overlap: spacing {self.spacing} is smaller than "
                f"sqrt(element_area) {math.sqrt(self.element_area)}"
            )

    @property
    def num_elements(self) -> int:
        return self.num_y * self.num_z

    @property
    def occupation_ratio(self) -> float:
        """Fraction of the array plate covered by elements, element_area / spacing^2."""
        return self.element_area / self.spacing**2

    def indices_y(self) -> np.ndarray:
        """Centered element indices along y, ascending."""
        return np.arange(self.num_y) - (self.num_y - 1) / 2.0

    def indices_z(self) -> np.ndarray:
        """Centered element indices along z, ascending."""
        return np.arange(self.num_z) - (self.num_z - 1) / 2.0


@dataclass(frozen=True)
class UserLocation:
    """Spherical user position: range r (m), zenith theta and azimuth phi (rad).

    theta is measured from the +z axis and phi from the +x axis inside the
    x-y plane, so phi in [-pi/2, pi/2] keeps the user in front of the array.
    """

    r: float
    theta: float
    phi: float

    def __post_init__(self):
        if not (isinstance(self.r, (int, float)) and self.r > 0):
            raise ValueError(f"r must be a positive finite range, got {self.r!r}")
        if self.r == math.inf:  # too far for a float: a numerical error, not a bad value
            raise DegenerateGeometryError("the user's range r overflows to inf")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta!r}")
        if not -math.pi / 2 <= self.phi <= math.pi / 2:
            raise ValueError(f"phi must lie in [-pi/2, pi/2], got {self.phi!r}")

    @property
    def u_x(self) -> float:
        """Direction cosine along x; non-negative for the allowed angle ranges."""
        return math.sin(self.theta) * math.cos(self.phi)

    @property
    def u_y(self) -> float:
        """Direction cosine along y."""
        return math.sin(self.theta) * math.sin(self.phi)

    @property
    def u_z(self) -> float:
        """Direction cosine along z, as sin(pi/2 - theta): exactly 0 at theta = pi/2."""
        return math.sin(math.pi / 2 - self.theta)


def cartesian_to_spherical(p) -> UserLocation:
    """Convert a point in the x >= 0 half space to (r, theta, phi).

    The polar-degenerate directions (on the z axis) get phi = 0 so the
    conversion is deterministic, and r * (u_x, u_y, u_z) gives the point back.
    """
    x, y, z = (float(v) for v in p)
    r = math.hypot(x, y, z)
    if r == 0.0:
        raise DegenerateGeometryError("cannot assign angles to the origin")
    if x < 0.0:
        raise ValueError(f"point {p!r} lies behind the array plane (x < 0)")
    # atan2 form stays accurate near the poles, unlike acos(z/r)
    theta = math.atan2(math.hypot(x, y), z)
    phi = math.atan2(y, x) if (x != 0.0 or y != 0.0) else 0.0
    return UserLocation(r=r, theta=theta, phi=phi)


def _warn_if_near(geom: ArrayGeometry, r) -> None:
    """Warn NearArrayWarning, from the caller, once if any of the ranges r (an array) is
    within 1 / NEAR_ARRAY_RATIO element spacings of the array; a non-finite ratio is skipped."""
    with np.errstate(all="ignore"):
        eps = geom.spacing / r
    eps = float(eps[np.isfinite(eps)].max(initial=0.0))
    if eps >= NEAR_ARRAY_RATIO:
        warnings.warn(
            f"element spacing is {eps:.3g} of the user range; "
            "the scenario is unusually close to the array",
            NearArrayWarning,
            stacklevel=2,
        )
