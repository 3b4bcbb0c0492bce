"""Exact dimensional algebra over the seven SI base units.

A :class:`Dimension` is a vector of rational exponents over
``(kg, m, s, A, K, mol, cd)``.  Exponents are `fractions.Fraction` values,
kept in lowest terms with positive denominators, so equality and hashing
are exact.  Dimensions form an abelian group under multiplication.

The module also provides a parser and canonical formatter for unit
expressions:

    expr   := term (('*' | '\N{MIDDLE DOT}' | '/') term)*
    term   := symbol power? | '1' | '(' expr ')'
    power  := '^' (int | '(' int '/' int ')')

``/`` is left-associative, so ``kg/m/s == kg/(m*s)``.  Whitespace is
ignored everywhere.  Recognized symbols are the seven base units plus the
derived aliases Pa, W, J, N, T, Hz and rad (rad is dimensionless); extra
aliases can be supplied per call but the built-in table is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import UnitSyntaxError, UnknownUnitSymbol

__all__ = [
    "BASE_UNITS",
    "Dimension",
    "DIMENSIONLESS",
    "UNIT_SYMBOLS",
    "parse_unit",
    "format_unit",
]

BASE_UNITS: tuple[str, ...] = ("kg", "m", "s", "A", "K", "mol", "cd")

Rational = Union[int, Fraction]


def _as_fraction(value: Rational) -> Fraction:
    # Floats are rejected: 0.1 would smuggle in a binary approximation and
    # break exact equality.
    if isinstance(value, float):
        raise TypeError("dimension exponents must be int or Fraction, not float")
    return Fraction(value)


@dataclass(frozen=True)
class Dimension:
    """Rational exponent vector over the SI base units."""

    exponents: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        exps = tuple(_as_fraction(e) for e in self.exponents)
        if len(exps) != len(BASE_UNITS):
            raise ValueError(
                f"expected {len(BASE_UNITS)} exponents, got {len(exps)}"
            )
        object.__setattr__(self, "exponents", exps)

    @classmethod
    def of(cls, **units: Rational) -> "Dimension":
        """Build a dimension from keyword exponents, e.g. ``of(kg=1, m=-3)``."""
        unknown = sorted(set(units) - set(BASE_UNITS))
        if unknown:
            raise ValueError(f"unknown base units: {unknown}")
        return cls(tuple(_as_fraction(units.get(u, 0)) for u in BASE_UNITS))

    @property
    def is_dimensionless(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def __mul__(self, other: "Dimension") -> "Dimension":
        if not isinstance(other, Dimension):
            return NotImplemented
        return Dimension(
            tuple(a + b for a, b in zip(self.exponents, other.exponents))
        )

    def __truediv__(self, other: "Dimension") -> "Dimension":
        if not isinstance(other, Dimension):
            return NotImplemented
        return Dimension(
            tuple(a - b for a, b in zip(self.exponents, other.exponents))
        )

    def __pow__(self, exponent: Rational) -> "Dimension":
        q = _as_fraction(exponent)
        return Dimension(tuple(e * q for e in self.exponents))

    def __str__(self) -> str:
        return format_unit(self)


DIMENSIONLESS = Dimension((Fraction(0),) * len(BASE_UNITS))


def _base(**units: Rational) -> Dimension:
    return Dimension.of(**units)


#: Fixed symbol table: the seven base units and seven derived aliases.
UNIT_SYMBOLS: Mapping[str, Dimension] = {
    "kg": _base(kg=1),
    "m": _base(m=1),
    "s": _base(s=1),
    "A": _base(A=1),
    "K": _base(K=1),
    "mol": _base(mol=1),
    "cd": _base(cd=1),
    "Pa": _base(kg=1, m=-1, s=-2),
    "W": _base(kg=1, m=2, s=-3),
    "J": _base(kg=1, m=2, s=-2),
    "N": _base(kg=1, m=1, s=-2),
    "T": _base(kg=1, s=-2, A=-1),
    "Hz": _base(s=-1),
    "rad": _base(),
}

_MULTIPLY_CHARS = frozenset({"*", "\N{MIDDLE DOT}"})


class _Parser:
    def __init__(self, text: str, symbols: Mapping[str, Dimension]):
        self.text = text
        self.pos = 0
        self.symbols = symbols

    def fail(self, message: str, position: int | None = None) -> None:
        raise UnitSyntaxError(
            message, self.pos if position is None else position, self.text
        )

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str | None:
        self.skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def expect(self, char: str) -> None:
        if self.peek() != char:
            self.fail(f"expected {char!r}")
        self.pos += 1

    def parse(self) -> Dimension:
        if self.peek() is None:
            self.fail("empty unit expression")
        dim = self.parse_expr()
        if self.peek() is not None:
            self.fail(f"unexpected character {self.text[self.pos]!r}")
        return dim

    def parse_expr(self) -> Dimension:
        dim = self.parse_term()
        while True:
            ch = self.peek()
            if ch in _MULTIPLY_CHARS:
                self.pos += 1
                dim = dim * self.parse_term()
            elif ch == "/":
                self.pos += 1
                dim = dim / self.parse_term()
            else:
                return dim

    def parse_term(self) -> Dimension:
        ch = self.peek()
        if ch is None:
            self.fail("expected unit symbol")
        if ch == "(":
            self.pos += 1
            dim = self.parse_expr()
            self.expect(")")
            return dim
        if ch == "1":
            self.pos += 1
            return DIMENSIONLESS
        if ch.isalpha():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isalpha():
                self.pos += 1
            symbol = self.text[start : self.pos]
            try:
                dim = self.symbols[symbol]
            except KeyError:
                raise UnknownUnitSymbol(symbol, start, self.text) from None
            if self.peek() == "^":
                self.pos += 1
                dim = dim ** self.parse_exponent()
            return dim
        self.fail(f"unexpected character {ch!r}")

    def parse_exponent(self) -> Fraction:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            numerator = self.parse_int()
            self.expect("/")
            denominator = self.parse_int()
            if denominator <= 0:
                self.fail("exponent denominator must be positive")
            self.expect(")")
            return Fraction(numerator, denominator)
        return Fraction(self.parse_int())

    def parse_int(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        digits_start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits_start:
            self.fail("expected integer", start)
        return int(self.text[start : self.pos])


def parse_unit(
    text: str, aliases: Mapping[str, Dimension] | None = None
) -> Dimension:
    """Parse a unit expression into a :class:`Dimension`.

    ``aliases`` optionally extends the symbol table for this call only
    (catalog files may declare their own shorthands).
    """
    if not isinstance(text, str):
        raise TypeError(f"unit expression must be a string, got {type(text).__name__}")
    symbols = UNIT_SYMBOLS if not aliases else {**UNIT_SYMBOLS, **aliases}
    return _Parser(text, symbols).parse()


def _exponent_suffix(e: Fraction) -> str:
    if e == 1:
        return ""
    if e.denominator == 1:
        return f"^{e.numerator}"
    return f"^({e.numerator}/{e.denominator})"


def format_unit(d: Dimension) -> str:
    """Canonical product form: base units in fixed order, caret powers.

    The output always parses back to ``d``; the dimensionless dimension
    formats as ``"1"``.
    """
    parts = [
        f"{symbol}{_exponent_suffix(e)}"
        for symbol, e in zip(BASE_UNITS, d.exponents)
        if e != 0
    ]
    if not parts:
        return "1"
    return "*".join(parts)
