"""Exact dimensional algebra over the seven SI base units.

A :class:`Dimension` is a vector of rational exponents over
``(kg, m, s, A, K, mol, cd)``.  A whole exponent, which nearly every one
is, is stored as an ``int`` and any other as a `fractions.Fraction` in
lowest terms with a positive denominator.  Equality and hashing are exact,
since ``2 == Fraction(2)`` and both hash the same.  Dimensions form an
abelian group under multiplication, which combines the stored exponents in
integer arithmetic wherever they are whole.

The module also provides a parser and canonical formatter for unit
expressions:

    expr   := term (('*' | '\N{MIDDLE DOT}' | '/') term)*
    term   := symbol power? | '1' | '(' expr ')'
    power  := '^' (int | '(' int '/' int ')')

``/`` is left-associative, so ``kg/m/s == kg/(m*s)``.  Whitespace is
ignored everywhere.  A symbol is a run of letters (``str.isalpha``) and an
integer an optional ``-`` and decimal digits.  Recognized symbols are the
seven base units plus the derived aliases Pa, W, J, N, T, Hz and rad (rad
is dimensionless); the table is fixed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, mul, sub
from typing import Mapping, Union

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


def _exponent(value: Rational) -> Rational:
    """``value`` as an int if it is whole, else as a lowest-terms Fraction."""
    if type(value) is int:
        return value
    # Floats are rejected: 0.1 would smuggle in a binary approximation and
    # break exact equality.
    if isinstance(value, float):
        raise TypeError("dimension exponents must be int or Fraction, not float")
    q = Fraction(value)
    return int(q.numerator) if q.denominator == 1 else q


def _combined(exponents: tuple[Rational, ...]) -> "Dimension":
    """A dimension of exponents combined from stored ones, not validated again.

    Ints combine to ints; a Fraction result that is whole becomes its int.
    """
    if Fraction in map(type, exponents):
        exponents = tuple(e if type(e) is int or e.denominator != 1 else e.numerator
                          for e in exponents)
    dimension = object.__new__(Dimension)
    object.__setattr__(dimension, "exponents", exponents)
    return dimension


@dataclass(frozen=True)
class Dimension:
    """Rational exponent vector over the SI base units: ints where whole."""

    exponents: tuple[Rational, ...]

    def __post_init__(self) -> None:
        exps = tuple(map(_exponent, self.exponents))
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
        return cls(tuple(units.get(u, 0) for u in BASE_UNITS))

    def __mul__(self, other: "Dimension") -> "Dimension":
        if not isinstance(other, Dimension):
            return NotImplemented
        return _combined(tuple(map(add, self.exponents, other.exponents)))

    def __truediv__(self, other: "Dimension") -> "Dimension":
        if not isinstance(other, Dimension):
            return NotImplemented
        return _combined(tuple(map(sub, self.exponents, other.exponents)))

    def __pow__(self, exponent: Rational) -> "Dimension":
        return _combined(tuple(map(mul, self.exponents, repeat(_exponent(exponent)))))

    def __str__(self) -> str:
        return format_unit(self)


DIMENSIONLESS = Dimension((0,) * len(BASE_UNITS))


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
_SPACES = re.compile(r"\s*")
# \w less digits and "_": every letter (str.isalpha), and the few numeric
# characters that are not decimal digits, such as "\N{SUPERSCRIPT TWO}",
# which end a symbol (_Parser.symbol)
_WORD = re.compile(r"[^\W\d_]+")
_INTEGER = re.compile(r"-?\d+")


class _Parser:
    """Recursive descent over ``text``; ``pos`` is the next character read.

    Each step matches one compiled pattern at ``pos``: a run of spaces, a
    symbol or an integer.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, message: str) -> None:
        raise UnitSyntaxError(message, self.pos, self.text)

    def peek(self) -> str:
        """The next character that is not a space, or "" at the end."""
        ch = self.text[self.pos : self.pos + 1]
        if ch.isspace():
            self.pos = _SPACES.match(self.text, self.pos).end()
            ch = self.text[self.pos : self.pos + 1]
        return ch

    def expect(self, char: str) -> None:
        if self.peek() != char:
            self.fail(f"expected {char!r}")
        self.pos += 1

    def parse(self) -> Dimension:
        if not self.peek():
            self.fail("empty unit expression")
        dim = self.parse_expr()
        if self.peek():
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
        if not ch:
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
            symbol = self.symbol()
            try:
                dim = UNIT_SYMBOLS[symbol]
            except KeyError:
                raise UnknownUnitSymbol(symbol, start, self.text) from None
            if self.peek() == "^":
                self.pos += 1
                dim = dim ** self.parse_exponent()
            return dim
        self.fail(f"unexpected character {ch!r}")

    def symbol(self) -> str:
        """The run of letters at ``pos``, which is a letter."""
        symbol = _WORD.match(self.text, self.pos)[0]
        if not symbol.isalpha():
            symbol = symbol[: next(i for i, c in enumerate(symbol) if not c.isalpha())]
        self.pos += len(symbol)
        return symbol

    def parse_exponent(self) -> Rational:
        if self.peek() == "(":
            self.pos += 1
            numerator = self.parse_int()
            self.expect("/")
            denominator = self.parse_int()
            if denominator <= 0:
                self.fail("exponent denominator must be positive")
            self.expect(")")
            return Fraction(numerator, denominator)
        return self.parse_int()

    def parse_int(self) -> int:
        self.peek()
        match = _INTEGER.match(self.text, self.pos)
        if match is None:
            self.fail("expected integer")
        self.pos = match.end()
        return int(match[0])


def parse_unit(text: str) -> Dimension:
    """Parse a unit expression into a :class:`Dimension`."""
    if not isinstance(text, str):
        raise TypeError(f"unit expression must be a string, got {type(text).__name__}")
    return _Parser(text).parse()


def _exponent_suffix(e: Rational) -> str:
    if e == 1:
        return ""
    if type(e) is int:
        return f"^{e}"
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
