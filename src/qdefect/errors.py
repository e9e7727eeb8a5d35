"""Exception types shared across the package, and the number rules of its checks."""

import numbers


def _is_int(x) -> bool:
    """A Python or NumPy integer, not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """A Python or NumPy real number (integers included), not a bool, that a float
    can hold: an integer past the float range is not."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return False
    try:
        float(x)
    except OverflowError:
        return False
    return True


class QDefectError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParams(QDefectError, ValueError):
    """Model or solver parameters violate a documented precondition."""


class GridError(QDefectError, ValueError):
    """Bad grid construction or a grid mismatch between operands."""


class CsvFormatError(QDefectError, ValueError):
    """A CSV input file does not match the documented schema.

    ``line`` is the 1-based offending line number (0 for file-level
    problems such as an empty file).
    """

    def __init__(self, message, line=0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


class NonConvergence(QDefectError, RuntimeError):
    """The iteration cap was reached before the requested tolerance.

    The best iterate found so far is attached as ``profile`` together with
    its ``report`` so callers can inspect or persist partial results.
    """

    def __init__(self, message, profile=None, report=None):
        super().__init__(message)
        self.profile = profile
        self.report = report
