"""Exception types shared across the package."""

__all__ = [
    "CumskewError", "EmptyOrTooSmall", "NonFiniteValue", "ConstantSample",
    "CountTooLarge", "ColumnNotFound", "ParseError", "FloatRangeError",
    "NonNumericData", "NotOneDimensional", "InvalidParameter", "NonPositiveTotal",
]


class CumskewError(Exception):
    """Base class for all cumskew errors.

    Every subclass keeps its constructor arguments in `args`, so an error
    raised in a pool worker pickles back to the caller unchanged.
    """


class EmptyOrTooSmall(CumskewError, ValueError):
    """Fewer than two observations were supplied."""


class NonFiniteValue(CumskewError, ValueError):
    """A NaN or infinity was found in the input data."""

    def __init__(self, index: int, value: float):
        super().__init__(index, value)
        self.index = index
        self.value = value

    def __str__(self) -> str:
        return f"non-finite value {self.value!r} at index {self.index}"


class NonNumericData(CumskewError, TypeError):
    """The input is not real numbers: strings, bytes, booleans, complex
    numbers, dates, other objects, or a masked array."""


class NotOneDimensional(CumskewError, ValueError):
    """The input is a scalar, has more than one dimension, or is ragged."""


class ConstantSample(CumskewError, ValueError):
    """All observations are equal, so a moment ratio is undefined."""


class CountTooLarge(CumskewError, ValueError):
    """More outliers requested than half the sample size."""


class ColumnNotFound(CumskewError, ValueError):
    """The requested CSV column does not exist."""


class ParseError(CumskewError, ValueError):
    """A CSV cell could not be parsed as a number."""

    def __init__(self, line: int, message: str):
        super().__init__(line, message)
        self.line = line
        self.message = message

    def __str__(self) -> str:
        return f"line {self.line}: {self.message}"


class InvalidParameter(CumskewError, ValueError):
    """A parameter of a sampler or an experiment is out of its range: a
    distribution's kind or shape, an outlier policy, a sample size, a
    replication or worker count, a g-curve grid, or no values to average."""


class NonPositiveTotal(CumskewError, ValueError):
    """The values sum to zero or less, so the classical Lorenz curve,
    whose heights are shares of the total, is undefined."""


class FloatRangeError(CumskewError, ArithmeticError):
    """A finite input value, or a statistic of finite data, falls outside
    the float range."""
