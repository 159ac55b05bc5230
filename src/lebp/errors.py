"""Exception types shared across the library."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class PrecisionError(ValueError):
    """A value cannot be certified to the library's fixed precision: a series
    gap below rect_kernels.MIN_GAP, or coefficients that underflow."""


class TruncationError(RuntimeError):
    """A truncated series could not certify the requested tolerance.

    The ``achieved`` attribute carries the best certified bound at the point
    of failure, so callers can decide whether the partial result is usable.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class EnumerationBudgetError(RuntimeError):
    """A combinatorial enumeration exceeded its configured budget.

    ``reached`` records how far the enumeration got: the depth of the path
    being extended when the budget ran out.
    """

    def __init__(self, message, reached=None):
        super().__init__(message)
        self.reached = reached
