"""Exception taxonomy shared by all radns modules."""


class RadnsError(Exception):
    """Base class for all radns-specific errors."""


class ConfigurationError(RadnsError, ValueError):
    """A parameter is outside its permitted range (grid size, exponents, ...)."""


class UsageError(RadnsError, TypeError):
    """An operation was called with arguments of the wrong shape (a spectral
    pair that is not (2, N); an empty, non-3D or off-axis probe set)."""


class NumericDomainError(RadnsError, ValueError):
    """A numeric argument is outside the mathematical domain of the operation
    (non-positive frequency, negative time, a Besov weight that overflows)."""


class UnsupportedParameterError(RadnsError, ValueError):
    """A parameter combination the implementation deliberately does not cover."""


class FitError(RadnsError, ValueError):
    """A decay-exponent fit cannot be performed on the given window."""


class SolverAbort(RadnsError, RuntimeError):
    """The time integrator or a refinement loop left its validity regime.

    Carries the failure time and, when known, the offending mode index.
    """

    def __init__(self, message: str, time: float, mode_index: int | None = None):
        super().__init__(message)
        self.time = time
        self.mode_index = mode_index
