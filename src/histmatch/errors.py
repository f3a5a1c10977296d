"""Exception types raised by the package."""


class HistmatchError(Exception):
    """Base class for all package-specific errors."""


class EmptyStringError(HistmatchError):
    """A histogram was requested for an empty observation sequence."""


class InvalidCoordinateError(HistmatchError):
    """A geographic coordinate was not a finite number, or its grid cell's index overflows."""


class ZeroMassAfterSuppressionError(HistmatchError):
    """Suppression removed all of a histogram's probability mass."""


class SwapSidesError(HistmatchError):
    """The left histogram set is larger than the right; pass the smaller set as left."""


class InvalidCardinalityError(HistmatchError):
    """Requested matching cardinality is outside the feasible range."""


class TooLargeForOracleError(HistmatchError):
    """Instance exceeds the size limit of the brute-force oracle."""


class MetricMismatchError(HistmatchError):
    """Operation requires an instance built with a different metric."""


class MatrixTooLargeError(HistmatchError):
    """A dense N x N' float64 array alone would exceed the address-space limit or physical memory."""


class InvalidKError(HistmatchError):
    """k-anonymity parameter outside 1..N."""


class InvalidOverlapError(HistmatchError):
    """Overlap specification is infeasible for the population."""


class InvalidPopulationError(HistmatchError, ValueError):
    """A population's habit distributions are empty, of unequal lengths, or not probability vectors."""


class ConfigError(HistmatchError):
    """Experiment configuration is invalid."""


class FileFormatError(HistmatchError):
    """An input file does not follow the documented format."""


class PartitionCoverageError(HistmatchError, ValueError):
    """A cluster partition does not cover the owners of the histogram set it scores."""
