"""Exception hierarchy shared by all modules."""


class CarlemanError(Exception):
    """Base class for errors raised by this package."""


class DomainError(CarlemanError, ValueError):
    """Input outside the mathematical domain of an operation (pole, t <= 0, ...)."""


class ConfigurationError(CarlemanError, ValueError):
    """Invalid configuration: bad profile parameters, malformed grids, ..."""


class NumericalError(CarlemanError, RuntimeError):
    """A numerical procedure failed to reach its stated accuracy."""


class NearExceptionalPointError(NumericalError):
    """Fredholm solve ill-conditioned: lambda is numerically in the exceptional set."""

    def __init__(self, lam, rcond):
        self.lam = lam
        self.rcond = rcond
        super().__init__(
            f"Lippmann-Schwinger matrix near-singular at lambda={lam!r} "
            f"(rcond={rcond:.3e}); energy too close to the exceptional set"
        )


class ResolutionError(NumericalError):
    """A stationary point fell outside the resolved region."""

    def __init__(self, msg, suggested_x_split=None):
        self.suggested_x_split = suggested_x_split
        super().__init__(msg)
