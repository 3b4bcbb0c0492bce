"""Exception and warning types shared across the package."""

from __future__ import annotations


class PifmapError(Exception):
    """Base class for every error raised by this package.

    ``exit_code`` is the status the command line exits with when the error
    reaches it: 2 (usage or invalid value) unless a subclass says otherwise.
    """

    exit_code = 2


class UnitSyntaxError(PifmapError):
    """Malformed unit expression; carries the character position."""

    def __init__(self, message: str, position: int, text: str | None = None):
        self.position = position
        self.text = text
        suffix = f" in {text!r}" if text is not None else ""
        super().__init__(f"{message} at position {position}{suffix}")


class UnknownUnitSymbol(UnitSyntaxError):
    """A token that is not a base unit, known alias, or declared alias."""

    def __init__(self, symbol: str, position: int, text: str | None = None):
        self.symbol = symbol
        UnitSyntaxError.__init__(
            self, f"unknown unit symbol {symbol!r}", position, text
        )


class LengthMismatch(PifmapError):
    """Exponent vectors do not line up with the declared features/constants."""


class SchemaMismatch(PifmapError):
    """A dataset's columns do not match the feature map's declared schema."""


class DimensionMismatch(PifmapError):
    """Monomials whose dimension differs from the declared target.

    ``entries`` holds ``(index, actual, target)`` triples, 0-based.
    """

    def __init__(self, entries):
        self.entries = tuple(entries)
        parts = ", ".join(
            f"monomial {i + 1}: {actual} != target {target}"
            for i, actual, target in self.entries
        )
        super().__init__(f"dimensionally inconsistent monomials: {parts}")


class BudgetExceeded(PifmapError):
    """Enumeration needs more half-grid rows plus join candidates than the budget."""

    exit_code = 4


class DivisionByZero(PifmapError):
    """A negative exponent met a zero value during evaluation."""

    exit_code = 5

    def __init__(self, message: str, row: int | None = None, monomial: int | None = None):
        self.row = row
        self.monomial = monomial
        super().__init__(message)


class NonFiniteResult(PifmapError):
    """Evaluation produced an inf or NaN."""

    exit_code = 5

    def __init__(self, message: str, row: int | None = None, monomial: int | None = None):
        self.row = row
        self.monomial = monomial
        super().__init__(message)


class NonFiniteInput(PifmapError):
    """An input array contains inf or NaN."""

    exit_code = 5


class EmptyInput(PifmapError):
    """An operation received no data."""


class ColumnMismatch(PifmapError):
    """Matrix column count differs from what the fitted parameters expect."""


class ZeroScale(PifmapError):
    """A standardization scale is zero or negative where it must not be."""

    exit_code = 5


class SingularSystem(PifmapError):
    """The regularized normal equations could not be solved reliably."""

    exit_code = 5


class InsufficientData(PifmapError):
    """Not enough rows for the requested split or fit."""


class NonBinaryLabel(PifmapError):
    """Classification labels must be exactly 0 or 1."""


class InvalidRange(PifmapError):
    """A sampling range or size parameter is unusable."""


class InvalidNoiseLevel(PifmapError):
    """Relative noise level must satisfy 0 <= level < 1."""


class UnknownCatalog(PifmapError):
    """No curated catalog is registered under the requested name."""


class DroppedColumnWarning(UserWarning):
    """A zero-variance column was dropped during standardization."""


class DegenerateClassBalanceWarning(UserWarning):
    """A generated classification dataset contains only one class."""
