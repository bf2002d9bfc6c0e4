"""Exception types shared across the package."""

__all__ = [
    "CumskewError", "EmptyOrTooSmall", "NonFiniteValue", "ConstantSample",
    "CountTooLarge", "ColumnNotFound", "ParseError", "FloatRangeError",
    "NonNumericData",
]


class CumskewError(Exception):
    """Base class for all cumskew errors."""


class EmptyOrTooSmall(CumskewError, ValueError):
    """Fewer than two observations were supplied."""


class NonFiniteValue(CumskewError, ValueError):
    """A NaN or infinity was found in the input data."""

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(f"non-finite value {value!r} at index {index}")


class NonNumericData(CumskewError, TypeError):
    """The input holds strings, bytes or booleans rather than real numbers."""


class ConstantSample(CumskewError, ValueError):
    """All observations are equal, so a moment ratio is undefined."""


class CountTooLarge(CumskewError, ValueError):
    """More outliers requested than half the sample size."""


class ColumnNotFound(CumskewError, ValueError):
    """The requested CSV column does not exist."""


class ParseError(CumskewError, ValueError):
    """A CSV cell could not be parsed as a number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class FloatRangeError(CumskewError, ArithmeticError):
    """A statistic of finite data falls outside the float range."""
