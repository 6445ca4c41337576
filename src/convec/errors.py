"""Exception types shared across the package.

Everything raised on purpose derives from ConvecError so callers (and the
command line front end) can catch one class and map it to a machine-readable
error code.
"""

from __future__ import annotations


class ConvecError(Exception):
    """Base class for all errors raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


class NotPrime(ConvecError):
    pass


class Reducible(ConvecError):
    pass


class NoPrimitiveFound(ConvecError):
    pass


class DivisionByZero(ConvecError):
    pass


class FieldMismatch(ConvecError):
    pass


class DimensionMismatch(ConvecError):
    pass


class IndexOutOfRange(ConvecError):
    pass


class BadCardinality(ConvecError):
    pass


class NoParityCheck(ConvecError):
    pass


class RankDeficient(ConvecError):
    pass


class DegreeMismatch(ConvecError):
    pass


class DivisibilityViolated(ConvecError):
    pass


class FieldTooLarge(ConvecError):
    pass


class SearchExhausted(ConvecError):
    pass


class NotDelayFree(ConvecError):
    pass


class InconsistentStream(ConvecError):
    pass


class NonUnique(ConvecError):
    pass


class ParseError(ConvecError):
    pass


class LengthMismatch(ConvecError):
    pass


class BudgetExceeded(ConvecError):
    """An enumeration or brute-force search would exceed its work budget.

    Carries the estimated amount of work so callers can report it or retry
    with a larger explicit budget.
    """

    def __init__(self, message: str, estimate: int | None = None):
        super().__init__(message)
        self.estimate = estimate
