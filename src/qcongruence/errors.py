"""Shared error types.

Every failure mode that callers are expected to catch gets its own class so
that reports can name it; plain ValueError is reserved for programming errors
(malformed arguments, such as p < 2).  A class stays only while some module
raises it.
"""

from __future__ import annotations


class QCongruenceError(Exception):
    """Base class for all library errors."""


class NotPIntegral(QCongruenceError):
    """A rational with p in its denominator was used where a p-adic integer is required."""


class DivisionByZeroPoly(QCongruenceError):
    """Polynomial or rational-function division by zero."""


class DenominatorNotUnit(QCongruenceError):
    """A denominator shares a factor with the modulus and cannot be cancelled."""


class NegativeLength(QCongruenceError):
    """A Pochhammer length or truncation order evaluated to a negative integer."""


class ZeroDenominatorFactor(QCongruenceError):
    """A denominator Pochhammer factor is identically zero (k outside the valid range)."""


class NonTerminating(QCongruenceError):
    """An identity check was requested for parameters where the series does not terminate."""


class DegenerateParameters(QCongruenceError):
    """Identity or statement parameters that collapse a required denominator."""


class SpecSyntaxError(QCongruenceError):
    """Expression or spec-file syntax error, with position information."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class UnboundSymbol(QCongruenceError):
    """An expression refers to a symbol with no binding."""


class NonIntegerBound(QCongruenceError):
    """An exponent, bound or length expression did not evaluate to an exact integer."""


class UnknownKind(QCongruenceError):
    """Unknown modulus kind or statement identifier."""


class SideConditionViolated(QCongruenceError):
    """Bindings do not satisfy any branch of the requested statement."""


class SamplingExhausted(QCongruenceError):
    """The parameter sampler could not satisfy its guards within the rejection limit."""
