"""Exception hierarchy for the vineshap package."""


class VineShapError(Exception):
    """Base class for all vineshap errors."""


class InvalidInputError(VineShapError):
    """Raised when an argument violates a documented precondition."""


class DataError(VineShapError):
    """Raised for malformed input files (bad cells, missing columns, ...)."""


class CoverageError(VineShapError):
    """Raised when a coalition is not served by a cover plan or a vine order."""


class NumericError(VineShapError):
    """Raised when a numeric procedure fails irrecoverably."""
