"""Exception types shared across the toolkit."""


class AnalysisError(Exception):
    """Base class for domain-level failures (as opposed to malformed configs)."""


class InvalidCovarianceError(AnalysisError):
    """Covariance matrix is not Hermitian positive-definite."""


class InsufficientMassError(AnalysisError):
    """A shell lower bound was requested with no probability mass behind it."""


class SlopeNonPositiveError(AnalysisError):
    """The support-radius bound does not close for the given multiplier and shell."""


class ScaleOverflowError(AnalysisError):
    """A scale (a construction, a squared norm, a variance) left double range."""


class NotConvergedError(AnalysisError):
    """An optimization run or iterative solve exhausted its iteration budget."""


class ConfigError(Exception):
    """Malformed run configuration or input file."""
