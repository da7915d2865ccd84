"""Exception hierarchy for the conseq package.

Every error raised on purpose by this package derives from ConseqError, so
callers (and the CLI) can catch one type.  Errors that originate from a text
document carry an optional 1-based source location.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError


class ConseqError(Exception):
    """Base class for all conseq errors."""

    def __init__(self, message: str, *, line: int | None = None, col: int | None = None):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(message)

    def __str__(self) -> str:
        if self.line is not None:
            where = f"line {self.line}"
            if self.col is not None:
                where += f", col {self.col}"
            return f"{where}: {self.message}"
        return self.message


class InvalidValue(ConseqError, ValueError):
    """An argument lies outside what a constructor or lookup accepts (a
    symbol in the wrong part, an unsorted universe, a negative count).

    Also a ValueError, so code that catches ValueError still catches it.
    """


# -- language construction ---------------------------------------------------

class BadIdentifier(ConseqError):
    """Symbol name is not an identifier matching [A-Za-z0-9_]+."""


class FrozenSymbol(ConseqError, FrozenInstanceError):
    """A symbol's fields cannot be assigned or deleted.

    Also the FrozenInstanceError (an AttributeError) that frozen dataclasses
    raise, so code that catches either still catches it.
    """


class EmptyStandardPart(ConseqError):
    """A language must declare at least one standard symbol."""


class NameCollision(ConseqError):
    """The same name was declared in both sorts of one language."""


# -- system construction -----------------------------------------------------

class EmptySystem(ConseqError):
    """A logic system must contain at least one rule."""


class UnknownSymbol(ConseqError):
    """A symbol name does not resolve in the language at hand."""


class NullaryRule(ConseqError):
    """Rules need at least one premise."""


# -- closure engine ----------------------------------------------------------

class LanguageMismatch(ConseqError):
    """A deduction set contains symbols outside the system's language."""


class PreconditionViolated(ConseqError):
    """A fast path or shaped operation was called on a system of the wrong shape."""


class DuplicateElement(ConseqError):
    """Chain elements must be pairwise distinct."""


class TooShort(ConseqError):
    """A chain needs at least two elements."""


# -- operator tables ---------------------------------------------------------

class UniverseTooLarge(ConseqError):
    """Operator tables are capped at 16 universe symbols (65536 subsets)."""


class UniverseIncomplete(ConseqError):
    """The table universe must contain every symbol used by the system."""


class UniverseMismatch(ConseqError):
    """Two tables can only be compared over the same universe."""


# -- text format -------------------------------------------------------------

class ParseError(ConseqError):
    """Malformed .lgs input; reports what was expected at a 1-based line/col."""

    def __init__(self, message: str, *, line: int, col: int, expected: str | None = None):
        self.expected = expected
        super().__init__(message, line=line, col=col)
