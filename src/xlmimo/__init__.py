"""Uplink simulator for extremely large planar arrays.

Compares a spherical-wavefront channel model with per-element amplitude
and projected-aperture variation ("pnusw") against the far-field plane
wave approximation ("upw"), and evaluates MRC/ZF/MMSE receive beamforming
SINR, correlation coefficients, loss factors, and sum rate.
"""

__version__ = "0.1.0"

from .beamforming import (
    BeamformerReport,
    evaluate_scenario,
    mmse,
    mrc,
    response_matrix,
    sinr,
    solve_user,
    sum_rate,
    two_user_sinrs,
    zf,
)
from .channel import UpwConfig, correlation
from .errors import (
    ConfigError,
    DegenerateChannelError,
    DegenerateGeometryError,
    NearSingularError,
    ZeroForcingInfeasibleError,
)
from .experiments import SweepResult, UserRegion, sample_users
from .geometry import (
    ArrayGeometry,
    UserLocation,
    cartesian_to_spherical,
)

__all__ = [
    "ArrayGeometry",
    "BeamformerReport",
    "ConfigError",
    "DegenerateChannelError",
    "DegenerateGeometryError",
    "NearSingularError",
    "SweepResult",
    "UpwConfig",
    "UserLocation",
    "UserRegion",
    "ZeroForcingInfeasibleError",
    "cartesian_to_spherical",
    "correlation",
    "evaluate_scenario",
    "mmse",
    "mrc",
    "response_matrix",
    "sample_users",
    "sinr",
    "solve_user",
    "sum_rate",
    "two_user_sinrs",
    "zf",
]
