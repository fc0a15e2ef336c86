"""Exception types shared across the simulator."""


class DegenerateGeometryError(ValueError):
    """User position coincides with an array element or with the origin."""


class DegenerateChannelError(ValueError):
    """Channel vector has zero power or non-finite entries and cannot be used downstream."""


class NearSingularError(ArithmeticError):
    """Hermitian system is too ill-conditioned to solve reliably.

    Raised when user channels are (numerically) collinear.  Carries the
    condition estimate derived from the Cholesky factor diagonal.
    """

    def __init__(self, message: str, cond_estimate: float = float("inf")):
        super().__init__(message)
        self.cond_estimate = cond_estimate


class ZeroForcingInfeasibleError(ArithmeticError):
    """Desired channel lies (numerically) inside the interferer span."""


class ConfigError(ValueError):
    """Invalid, unknown, or out-of-range run configuration entry."""
