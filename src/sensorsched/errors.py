"""Exception types shared across the package."""


class SensorSchedError(Exception):
    """Base class for all package-specific errors."""


class NotPositiveDefiniteError(SensorSchedError):
    """A matrix required to be symmetric positive definite is not.

    ``pivot`` is the matrix that failed to factor: the Schur pivot of the
    failing block of a block-tridiagonal matrix, whose index is
    ``block_index``, or a dense matrix, where ``block_index`` is the block
    of the failing column if its caller gave the block size. Each is None
    where it does not apply (both when a log-determinant came out non-finite).
    """

    def __init__(self, message: str, pivot=None, block_index: int | None = None):
        super().__init__(message)
        self.pivot = pivot
        self.block_index = block_index


class DimensionMismatchError(SensorSchedError):
    """Operands have inconsistent dimensions."""


class InvalidParamsError(SensorSchedError):
    """Bad or non-finite parameters, or a sensor evaluated at a singular point."""


class TooLargeError(SensorSchedError):
    """Exhaustive enumeration would exceed the configured cap."""


class OracleInconsistencyError(SensorSchedError):
    """The entropy oracle returned a gain pattern that monotonicity forbids,
    or two evaluations of one schedule's entropy disagree."""


class ConfigError(SensorSchedError):
    """A scenario config failed validation; the message names the field."""
