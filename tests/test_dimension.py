"""Unit expression parsing, formatting, and the exact exponent algebra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pifmap.dimension import (
    BASE_UNITS,
    DIMENSIONLESS,
    Dimension,
    format_unit,
    parse_unit,
)
from pifmap.errors import UnitSyntaxError, UnknownUnitSymbol


def dim(*exps):
    return Dimension(tuple(Fraction(e) for e in exps))


# Hand-expanded expected exponent vectors, order (kg, m, s, A, K, mol, cd).
PARSE_CASES = [
    ("kg", (1, 0, 0, 0, 0, 0, 0)),
    ("m^2", (0, 2, 0, 0, 0, 0, 0)),
    ("kg/(m*s^2)", (1, -1, -2, 0, 0, 0, 0)),
    ("Pa", (1, -1, -2, 0, 0, 0, 0)),
    ("T*A*m^2", (1, 2, -2, 0, 0, 0, 0)),
    ("T\N{MIDDLE DOT}A\N{MIDDLE DOT}m^2", (1, 2, -2, 0, 0, 0, 0)),
    ("1/s", (0, 0, -1, 0, 0, 0, 0)),
    ("Hz", (0, 0, -1, 0, 0, 0, 0)),
    ("rad", (0, 0, 0, 0, 0, 0, 0)),
    ("1", (0, 0, 0, 0, 0, 0, 0)),
    ("W", (1, 2, -3, 0, 0, 0, 0)),
    ("J", (1, 2, -2, 0, 0, 0, 0)),
    ("N", (1, 1, -2, 0, 0, 0, 0)),
    ("m^3/(kg*s^2)", (-1, 3, -2, 0, 0, 0, 0)),
    ("kg*m/(A^2*s^2)", (1, 1, -2, -2, 0, 0, 0)),
    ("kg/m/s", (1, -1, -1, 0, 0, 0, 0)),
    (" kg * m ^ -1 * s ^ -2 ", (1, -1, -2, 0, 0, 0, 0)),
    ("m^(1/2)", (0, Fraction(1, 2), 0, 0, 0, 0, 0)),
    ("m^(-1/2)*s^(3/2)", (0, Fraction(-1, 2), Fraction(3, 2), 0, 0, 0, 0)),
    ("K*mol/cd", (0, 0, 0, 0, 1, 1, -1)),
]


@pytest.mark.parametrize("text,expected", PARSE_CASES)
def test_parse_unit(text, expected):
    assert parse_unit(text) == dim(*expected)


# Every unit string that appears in the bundled catalog tables.
CATALOG_UNIT_STRINGS = [
    "kg/(m*s^2)", "kg/m^3", "m/s", "m^3/s", "m^2", "kg/(m*s)", "m", "Pa",
    "T", "1/s", "rad", "s", "kg", "kg*m^2", "kg*m^2/s^2", "W",
    "A", "T*A*m", "T^2/m", "T*m^2", "T*A/m", "T/m", "T*A*m^2", "J",
    "kg/(m\N{MIDDLE DOT}s^2)", "T\N{MIDDLE DOT}A\N{MIDDLE DOT}m",
]


@pytest.mark.parametrize("text", CATALOG_UNIT_STRINGS)
def test_catalog_unit_strings_parse(text):
    parse_unit(text)


@pytest.mark.parametrize(
    "text",
    ["", "  ", "kg*", "*kg", "kg^", "kg^(1/", "(kg", "kg)", "kg^x",
     "2*m", "kg^(1/0)", "m^1/2^3^", "kg^-", "kg~m"],
)
def test_syntax_errors(text):
    with pytest.raises(UnitSyntaxError):
        parse_unit(text)


# Each malformed string's exact error: class, message and position.
ERROR_CASES = [
    ("", UnitSyntaxError, "empty unit expression", 0),
    ("   ", UnitSyntaxError, "empty unit expression", 3),
    ("kg*", UnitSyntaxError, "expected unit symbol", 3),
    ("m\N{MIDDLE DOT}", UnitSyntaxError, "expected unit symbol", 2),
    ("kg/", UnitSyntaxError, "expected unit symbol", 3),
    ("*kg", UnitSyntaxError, "unexpected character '*'", 0),
    ("kg**2", UnitSyntaxError, "unexpected character '*'", 3),
    ("m/\N{MIDDLE DOT}s", UnitSyntaxError, "unexpected character '\N{MIDDLE DOT}'", 2),
    ("m^", UnitSyntaxError, "expected integer", 2),
    ("rad^", UnitSyntaxError, "expected integer", 4),
    ("m^ -", UnitSyntaxError, "expected integer", 3),
    ("m^--1", UnitSyntaxError, "expected integer", 2),
    ("m^+2", UnitSyntaxError, "expected integer", 2),
    ("kg^(x/2)", UnitSyntaxError, "expected integer", 4),
    ("m^(1/0)", UnitSyntaxError, "exponent denominator must be positive", 6),
    ("m^(1/-2)", UnitSyntaxError, "exponent denominator must be positive", 7),
    ("m^ (1/ 0)", UnitSyntaxError, "exponent denominator must be positive", 8),
    ("kg^(1 2)", UnitSyntaxError, "expected '/'", 6),
    ("kg^(1/2", UnitSyntaxError, "expected ')'", 7),
    ("kg^(1/2/3)", UnitSyntaxError, "expected ')'", 7),
    ("m^(1/2)^2", UnitSyntaxError, "unexpected character '^'", 7),
    ("(kg", UnitSyntaxError, "expected ')'", 3),
    ("kg*(m^2", UnitSyntaxError, "expected ')'", 7),
    ("kg)", UnitSyntaxError, "unexpected character ')'", 2),
    ("(kg))", UnitSyntaxError, "unexpected character ')'", 4),
    ("()", UnitSyntaxError, "unexpected character ')'", 1),
    ("kg m", UnitSyntaxError, "unexpected character 'm'", 3),
    ("2*m", UnitSyntaxError, "unexpected character '2'", 0),
    ("11", UnitSyntaxError, "unexpected character '1'", 1),
    ("m2", UnitSyntaxError, "unexpected character '2'", 1),
    ("kg^2.5", UnitSyntaxError, "unexpected character '.'", 4),
    ("m_s", UnitSyntaxError, "unexpected character '_'", 1),
    # '\N{SUPERSCRIPT TWO}' and '\N{VULGAR FRACTION ONE HALF}' are not
    # letters (str.isalpha), so they end a symbol
    ("m\N{SUPERSCRIPT TWO}", UnitSyntaxError,
     "unexpected character '\N{SUPERSCRIPT TWO}'", 1),
    ("kg*s\N{VULGAR FRACTION ONE HALF}", UnitSyntaxError,
     "unexpected character '\N{VULGAR FRACTION ONE HALF}'", 4),
    ("\N{MICRO SIGN}", UnknownUnitSymbol, "unknown unit symbol '\N{MICRO SIGN}'", 0),
    ("m\N{MICRO SIGN}^2*q", UnknownUnitSymbol,
     "unknown unit symbol 'm\N{MICRO SIGN}'", 0),
    ("kg*furlong", UnknownUnitSymbol, "unknown unit symbol 'furlong'", 3),
    ("kg\N{MIDDLE DOT}Kg", UnknownUnitSymbol, "unknown unit symbol 'Kg'", 3),
]


@pytest.mark.parametrize("text, error, message, position", ERROR_CASES)
def test_error_message_and_position(text, error, message, position):
    with pytest.raises(UnitSyntaxError) as excinfo:
        parse_unit(text)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == f"{message} at position {position} in {text!r}"
    assert excinfo.value.position == position
    assert excinfo.value.text == text


def test_unknown_symbol_position():
    with pytest.raises(UnknownUnitSymbol) as excinfo:
        parse_unit("kg*furlong")
    assert excinfo.value.symbol == "furlong"
    assert excinfo.value.position == 3


def test_division_is_left_associative():
    assert parse_unit("kg/m/s") == parse_unit("kg/(m*s)")
    assert parse_unit("kg/m*s") == parse_unit("(kg/m)*s")


class TestAlgebra:
    def test_mul_matches_hand_sum(self):
        density = parse_unit("kg/m^3")
        specific = parse_unit("m^2/s^2")
        assert density * specific == dim(1, -1, -2, 0, 0, 0, 0)

    def test_pow_examples(self):
        m2 = parse_unit("m^2")
        assert m2 ** 3 == parse_unit("m^6")
        assert m2 ** 0 == DIMENSIONLESS
        assert m2 ** Fraction(1, 2) == parse_unit("m")

    def test_identity_and_inverse(self):
        pa = parse_unit("Pa")
        assert pa * DIMENSIONLESS == pa
        assert pa * pa ** -1 == DIMENSIONLESS

    def test_float_exponents_rejected(self):
        with pytest.raises(TypeError):
            Dimension((0.5,) * 7)
        with pytest.raises(TypeError):
            parse_unit("m") ** 0.5

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            Dimension((Fraction(1),) * 3)


def test_format_canonical():
    assert format_unit(dim(1, -1, -2, 0, 0, 0, 0)) == "kg*m^-1*s^-2"
    assert format_unit(DIMENSIONLESS) == "1"
    assert format_unit(dim(0, Fraction(1, 2), 0, 0, 0, 0, 0)) == "m^(1/2)"
    assert format_unit(parse_unit("T")) == "kg*s^-2*A^-1"


def test_format_orders_base_units():
    d = dim(0, 1, 0, 2, -1, 0, 3)
    assert format_unit(d) == "m*A^2*K^-1*cd^3"


rationals = st.fractions(
    min_value=-6, max_value=6, max_denominator=12
)
dimensions = st.builds(
    lambda exps: Dimension(tuple(exps)),
    st.lists(rationals, min_size=len(BASE_UNITS), max_size=len(BASE_UNITS)),
)


@given(dimensions)
def test_roundtrip_parse_format(d):
    assert parse_unit(format_unit(d)) == d


@given(dimensions)
def test_format_idempotent_on_canonical(d):
    text = format_unit(d)
    assert format_unit(parse_unit(text)) == text


@given(dimensions, dimensions)
def test_commutativity(a, b):
    assert a * b == b * a


@given(dimensions, dimensions, dimensions)
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(dimensions, st.integers(min_value=-5, max_value=5))
def test_pow_is_iterated_mul(d, k):
    expected = DIMENSIONLESS
    step = d if k >= 0 else d ** -1
    for _ in range(abs(k)):
        expected = expected * step
    assert d ** k == expected


def test_integral_fraction_and_int_exponents_are_one_dimension():
    as_fraction = Dimension((Fraction(2), 0, 0, 0, 0, 0, 0))
    as_int = Dimension((2, 0, 0, 0, 0, 0, 0))
    assert as_fraction == as_int
    assert hash(as_fraction) == hash(as_int)
    assert {as_fraction: "kg^2"}[as_int] == "kg^2"
    assert Dimension((Fraction(4, 2),) + (0,) * 6) == parse_unit("kg^2")


def test_whole_exponents_are_stored_as_ints():
    assert all(type(e) is int for e in parse_unit("kg*m^-1/(s^2*T)").exponents)
    assert all(type(e) is int for e in DIMENSIONLESS.exponents)
    half = parse_unit("m^(1/2)")
    assert half.exponents[1] == Fraction(1, 2)
    assert type(half.exponents[1]) is Fraction
    for whole in (half * half, half ** 2, (half ** Fraction(4, 3)) ** Fraction(3, 2),
                  Dimension((Fraction(4, 2), True) + (0,) * 5),
                  Dimension.of(m=Fraction(-3, 1))):
        assert all(type(e) is int for e in whole.exponents), whole.exponents
    assert parse_unit("m^(2/4)").exponents[1] == Fraction(1, 2)


@pytest.mark.parametrize("text, message, position", [
    # a digit that is not a decimal digit ends an integer
    ("m^\N{SUPERSCRIPT TWO}", "expected integer", 2),
    ("m^2\N{SUPERSCRIPT TWO}", "unexpected character '\N{SUPERSCRIPT TWO}'", 3),
])
def test_a_superscript_digit_is_a_syntax_error(text, message, position):
    with pytest.raises(UnitSyntaxError) as excinfo:
        parse_unit(text)
    assert str(excinfo.value) == f"{message} at position {position} in {text!r}"


def test_decimal_digits_of_any_script_make_an_integer():
    assert parse_unit("m^\N{ARABIC-INDIC DIGIT THREE}") == parse_unit("m^3")


# --------------------------------------------------------------------------
# Differential test: unit strings drawn with their meaning, and parse_unit
# compared with that meaning.  The meaning is worked out here with Fraction
# exponents in a dict per base unit, from a symbol table written out anew,
# and shares no code with the parser or with Dimension.

_SI = ("kg", "m", "s", "A", "K", "mol", "cd")
_MEANINGS = {
    "kg": {"kg": 1}, "m": {"m": 1}, "s": {"s": 1}, "A": {"A": 1},
    "K": {"K": 1}, "mol": {"mol": 1}, "cd": {"cd": 1},
    "Pa": {"kg": 1, "m": -1, "s": -2}, "W": {"kg": 1, "m": 2, "s": -3},
    "J": {"kg": 1, "m": 2, "s": -2}, "N": {"kg": 1, "m": 1, "s": -2},
    "T": {"kg": 1, "s": -2, "A": -1}, "Hz": {"s": -1}, "rad": {},
}
_spaces = st.sampled_from(["", "", " ", "  ", "\t"])


def _scaled(meaning, power):
    return {unit: Fraction(e) * power for unit, e in meaning.items()}


def _summed(left, right, sign):
    return {unit: left.get(unit, Fraction(0)) + sign * right.get(unit, Fraction(0))
            for unit in _SI}


@st.composite
def _powers(draw):
    """The text after a '^' and the power it means."""
    if draw(st.booleans()):
        k = draw(st.integers(min_value=-12, max_value=12))
        return f"{draw(_spaces)}{k}", Fraction(k)
    p = draw(st.integers(min_value=-12, max_value=12))
    q = draw(st.integers(min_value=1, max_value=12))
    w = [draw(_spaces) for _ in range(5)]
    return f"{w[0]}({w[1]}{p}{w[2]}/{w[3]}{q}{w[4]})", Fraction(p, q)


@st.composite
def _terms(draw, depth):
    kind = draw(st.sampled_from(["symbol", "symbol", "one", "group"][: 4 if depth else 3]))
    if kind == "one":
        return "1", {}
    if kind == "group":
        text, meaning = draw(_expressions(depth - 1))
        return f"({draw(_spaces)}{text}{draw(_spaces)})", meaning
    symbol = draw(st.sampled_from(sorted(_MEANINGS)))
    if draw(st.booleans()):
        power_text, power = draw(_powers())
        return f"{symbol}{draw(_spaces)}^{power_text}", _scaled(_MEANINGS[symbol], power)
    return symbol, dict(_MEANINGS[symbol])


@st.composite
def _expressions(draw, depth=2):
    """A unit expression of up to four terms, ``/`` chains included."""
    text, meaning = draw(_terms(depth))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        operator = draw(st.sampled_from(["*", "\N{MIDDLE DOT}", "/"]))
        term_text, term_meaning = draw(_terms(depth))
        text += f"{draw(_spaces)}{operator}{draw(_spaces)}{term_text}"
        meaning = _summed(meaning, term_meaning, -1 if operator == "/" else 1)
    return text, meaning


@settings(max_examples=300)
@given(_expressions(), _spaces, _spaces)
def test_parse_unit_matches_a_fraction_evaluator(drawn, before, after):
    text, meaning = drawn
    exponents = parse_unit(before + text + after).exponents
    assert exponents == tuple(meaning.get(unit, Fraction(0)) for unit in _SI)
