"""Exception types shared across the simulator."""


class DegenerateGeometryError(ValueError):
    """User position coincides with an array element or with the origin."""


class DegenerateChannelError(ValueError):
    """Channel vector has zero power or non-finite entries and cannot be used downstream."""


class NearSingularError(ArithmeticError):
    """A K x K matrix is too ill-conditioned to invert: collinear user channels.

    Carries the exact condition number of its unit-diagonal form (numerics.condition),
    or inf when a matrix that passed numerics.hermitian_solve's gate has no Cholesky factor.
    """

    def __init__(self, message: str, cond_estimate: float = float("inf")):
        super().__init__(message)
        self.cond_estimate = cond_estimate


class ZeroForcingInfeasibleError(ArithmeticError):
    """Desired channel lies (numerically) inside the interferer span."""


class ConfigError(ValueError):
    """Invalid, unknown, or out-of-range run configuration entry."""
