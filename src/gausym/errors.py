"""Semantic exception hierarchy for the package."""


class GausymError(Exception):
    """Base class for all package errors."""


class DomainError(GausymError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class NonFiniteFieldError(DomainError):
    """Field value or gradient is not finite at a grid point."""


class CellBudgetError(GausymError, ValueError):
    """Requested grid exceeds the configured cell budget."""


class ExpressionError(GausymError, ValueError):
    """Expression parse failure; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class UnknownFieldError(GausymError, ValueError):
    """Builtin field family name not in the corpus."""


class InvalidParameterError(GausymError, ValueError):
    """Bad parameter for a field family, Young function, or norm."""


class NonSmoothFieldError(GausymError, ValueError):
    """Check requires a smooth field but the field is flagged non-smooth."""


class IntervalError(GausymError, ValueError):
    """Interval union is overlapping, unordered, or out of range."""


class BracketingError(GausymError, ArithmeticError):
    """Luxemburg root-finding failed to bracket or to reach the
    unit-integral level."""
