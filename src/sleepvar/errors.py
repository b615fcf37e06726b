"""Exception types shared across the toolkit."""


class SleepVarError(Exception):
    """Base class for every error raised by this package."""


class DataError(SleepVarError):
    """Malformed or out-of-contract input data."""


class NumericError(SleepVarError):
    """Numerical failure inside an estimation or transform."""


class SingularDesignError(NumericError):
    """Regression design is rank deficient.

    ``column`` identifies the first column that is (numerically) a linear
    combination of the columns before it: its design label where the
    raiser knows the naming (the VAR fit and order search), else its index.
    """

    def __init__(self, message: str, column):
        super().__init__(message)
        self.column = column


class NotPositiveDefiniteError(NumericError):
    """A matrix that must be positive definite is not.

    ``pivot`` is the first non-positive Cholesky pivot.
    """

    def __init__(self, message: str, pivot: int):
        super().__init__(message)
        self.pivot = pivot


class ConvergenceError(NumericError):
    """An iterative numerical routine failed to converge."""


class ModelFormatError(SleepVarError):
    """A persisted model or process document is corrupted or has the wrong version."""
