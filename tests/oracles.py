"""Scalar forms of the package's formulas, one element or one sum at a time.

The package computes each of these only in vectorized form (channel's box
walker, numerics' pairwise sums); the tests hold it against these slower,
independent forms.  Element indices are centered, as in
ArrayGeometry.indices_y and indices_z, and are not checked here.
"""

import math

import numpy as np


def compensated_sum(values) -> float:
    """Exactly rounded sum of real values (math.fsum); the result is order independent."""
    return math.fsum(np.asarray(values, dtype=float).tolist())


def element_position(geom, m_y, m_z) -> np.ndarray:
    """Center (0, m_y d, m_z d) of the element at index (m_y, m_z)."""
    return np.array([0.0, m_y * geom.spacing, m_z * geom.spacing])


def user_position(loc) -> np.ndarray:
    """Cartesian user position r (u_x, u_y, u_z)."""
    return np.array([loc.r * loc.u_x, loc.r * loc.u_y, loc.r * loc.u_z])


def element_distance(geom, loc, m_y, m_z) -> float:
    """Exact user-element distance in the paper's form, e = d / r:

        r sqrt(1 - 2 m_y e u_y - 2 m_z e u_z + (m_y^2 + m_z^2) e^2)
    """
    eps = geom.spacing / loc.r
    radicand = (
        1.0
        - (2.0 * eps * loc.u_y) * m_y
        - (2.0 * eps * loc.u_z) * m_z
        + (m_y * m_y + m_z * m_z) * (eps * eps)
    )
    return loc.r * math.sqrt(radicand)


def pnusw_gain(geom, loc, m_y, m_z) -> float:
    """Spherical-model power gain between the user and one element:
    xi e^2 u_x / (4 pi) times (r / distance)^3."""
    eps = geom.spacing / loc.r
    scale = geom.occupation_ratio * eps * eps * loc.u_x / (4.0 * math.pi)
    return scale * (loc.r / element_distance(geom, loc, m_y, m_z)) ** 3
