"""Exception types shared across the package."""


class TtaError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(TtaError):
    pass


class NotPositiveDefinite(TtaError):
    """Cholesky factorization hit a non-positive pivot; caller must regularize."""


class EmptyInput(TtaError):
    pass


class BatchTooSmall(TtaError):
    """Batch statistics require at least 2 samples."""


class NonFiniteLoss(TtaError):
    """A loss, forward or distance report went NaN/Inf. May carry a partial run record."""

    def __init__(self, msg, record=None):
        super().__init__(msg)
        self.record = record


class NonFiniteInput(TtaError, ValueError):
    """An input array holds NaN or infinite entries."""


class MissingClass(TtaError):
    pass


class UnknownClass(TtaError):
    pass


class SingleClass(TtaError):
    """Inter-class distance is undefined with a single class."""


class ConfigInvalid(TtaError):
    pass


class TrainingDiverged(TtaError):
    pass


class StatsIoError(TtaError):
    """I/O failure while reading or writing a stats/checkpoint file."""


class FormatVersionMismatch(StatsIoError):
    pass
