"""Exception hierarchy shared by all jetweil modules."""
from __future__ import annotations


class JetweilError(Exception):
    """Base class for all errors raised by this package."""


class ShapeTooLargeError(JetweilError):
    """Requested coefficient space exceeds the configured dimension limit."""

    def __init__(self, dim: int, limit: int):
        super().__init__(f"coefficient dimension {dim} exceeds limit {limit}")
        self.dim = dim
        self.limit = limit


class IncompatibleShapesError(JetweilError):
    """Two values with different truncation shapes were combined."""


class DimensionMismatchError(JetweilError):
    """A vector argument has the wrong length for its role."""


class DomainError(JetweilError):
    """A primitive was evaluated outside its domain.

    ``node`` is filled in by the program evaluator when the offending
    primitive sits inside a program; it stays None for bare value ops.
    """

    def __init__(self, message: str, value=None, node: int | None = None):
        super().__init__(message)
        self.value = value
        self.node = node


class NumericOverflowError(JetweilError):
    """An intermediate became non-finite during evaluation."""

    def __init__(self, message: str, node: int | None = None):
        super().__init__(message)
        self.node = node


class ParseError(JetweilError):
    """Program text failed to parse; carries the line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnsupportedPrimitiveError(JetweilError):
    """An oracle was asked to handle a primitive outside its closed set."""


class UnsupportedOrderError(JetweilError):
    """A finite-difference stencil of useless order was requested."""
