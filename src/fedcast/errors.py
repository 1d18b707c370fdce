"""Exception types shared across the package."""


class FedcastError(Exception):
    """Base class for every error this package raises on purpose."""


class ValidationError(FedcastError):
    """Arguments violate an operation's contract (shape, range, or option)."""


class DataError(FedcastError):
    """Input data cannot be turned into a usable dataset."""


class NumericalError(FedcastError):
    """Training or evaluation produced a non-finite value.

    `param_index` is the first bad coordinate of a parameter vector, and
    `session` the row of the model it belongs to when several train at once.
    """

    def __init__(self, message: str, param_index: int | None = None,
                 session: int | None = None):
        super().__init__(message)
        self.param_index = param_index
        self.session = session
