"""Exception types shared across the package.

Each error derives from one of three categories under ``SensorSelError``:
``ConfigError`` (CLI exit code 2), ``DataError`` (3) and ``NumericalError`` (4).
"""


class SensorSelError(Exception):
    """Base class for all sensorsel errors."""


class ConfigError(SensorSelError):
    """Invalid request: experiment configuration, sensor indices or sizes."""


class DataError(SensorSelError):
    """Unusable snapshot data: malformed file, non-finite valid entries or no valid location."""


class NumericalError(SensorSelError):
    """A numerical failure on valid input."""


class DuplicateSensorError(ConfigError):
    """A sensor index appears more than once in a selection."""


class IndexOutOfRangeError(ConfigError):
    """A sensor index lies outside [1, n]."""


class TooManySensorsError(ConfigError):
    """More sensors requested than candidate locations available."""


class InstanceTooLargeError(ConfigError):
    """A combinatorial enumeration would exceed the safety guard."""


class RankOutOfRangeError(ConfigError):
    """Requested truncation rank is outside [1, min(n, m)]."""


class FoldError(ConfigError):
    """Invalid cross-validation fold count."""


class FormatError(DataError):
    """A snapshot file is malformed or truncated."""


class NoAdmissibleCandidateError(NumericalError):
    """Every remaining candidate was skipped as informationally redundant."""


class SingularInformationError(NumericalError):
    """The information (Gram) matrix is singular or too ill-conditioned."""


class EigenSolverError(NumericalError):
    """The symmetric eigensolver failed to converge."""


class RankDeficientError(NumericalError):
    """The measurement matrix does not have full row or column rank."""


class ZeroReferenceError(NumericalError):
    """A relative error was requested against a zero-norm reference."""
