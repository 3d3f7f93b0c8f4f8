"""Exception hierarchy shared by all pmrisk modules."""


class PmriskError(Exception):
    """Base class for every error raised by this package."""


class DomainError(PmriskError, ValueError):
    """An argument or parameter value is outside its mathematical domain."""


class UsageError(DomainError):
    """A run's own settings are invalid: alpha, estimator, budget, grid, split."""


class DataError(PmriskError):
    """Input data is malformed, inconsistent, or insufficient."""


class CalibrationError(PmriskError):
    """Model fitting failed (non-PD matrix, optimizer breakdown, ...)."""


class NumericError(PmriskError):
    """A numerical routine failed to reach its accuracy or convergence target."""
