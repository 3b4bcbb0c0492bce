"""Unit expression parsing, formatting, and the exact exponent algebra."""

from fractions import Fraction

import pytest
from hypothesis import given
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


def test_unknown_symbol_position():
    with pytest.raises(UnknownUnitSymbol) as excinfo:
        parse_unit("kg*furlong")
    assert excinfo.value.symbol == "furlong"
    assert excinfo.value.position == 3


def test_aliases_extend_table_per_call():
    gauss = parse_unit("T") ** Fraction(1)
    assert parse_unit("Gs/m", aliases={"Gs": gauss}) == gauss / parse_unit("m")
    with pytest.raises(UnknownUnitSymbol):
        parse_unit("Gs/m")


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
