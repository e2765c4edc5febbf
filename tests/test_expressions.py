"""Expression grammar: parsing to polynomials, located errors and their order,
parameter binding."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridlab import (
    ComplexRational,
    ExpressionError,
    InvalidDivisor,
    OperatorPolynomial,
    ParameterBinding,
    ParseError,
    UnboundParameter,
    constant,
    generator,
    gens,
    parse_polynomial,
)

Q, P, X, Y, PX, PY = gens()


def test_basic_forms():
    assert parse_polynomial("q") == Q
    assert parse_polynomial("q + p") == Q + P
    assert parse_polynomial("q - q").is_zero
    assert parse_polynomial("3") == constant(3)
    assert parse_polynomial("i") == constant(1j)
    assert parse_polynomial("q^0") == constant(1)
    assert parse_polynomial("q^2") == Q * Q
    assert parse_polynomial("q^(3)") == Q * Q * Q


def test_precedence_and_grouping():
    assert parse_polynomial("q + p*x^2") == Q + P * X * X
    assert parse_polynomial("(q + p)*x") == (Q + P) * X
    assert parse_polynomial("-q^2") == -(Q * Q)
    assert parse_polynomial("(-q)^2") == Q * Q
    assert parse_polynomial("2*-q") == constant(-2) * Q
    assert parse_polynomial("q - p - x") == Q - P - X


def test_division():
    assert parse_polynomial("q/2") == constant(Fraction(1, 2)) * Q
    assert parse_polynomial("x/(1/4)") == constant(4) * X
    assert parse_polynomial("q/i") == constant(-1j) * Q
    assert parse_polynomial("(q^2+p^2)/2") == (Q * Q + P * P) * constant(
        Fraction(1, 2)
    )


def test_decimal_coefficients_are_exact():
    poly = parse_polynomial("0.2*q")
    assert poly.coefficient((1, 0, 0, 0, 0, 0)).real == Fraction(1, 5)


def test_whitespace_insensitive():
    a = parse_polynomial("q^2*x - p")
    b = parse_polynomial("  q^2 * x\n - p ")
    assert a == b


@pytest.mark.parametrize(
    "source, exc, fragment",
    [
        ("q +", ParseError, "line 1, column 4: unexpected end of input"),
        ("q^(-2)", ParseError, "negative exponents are not supported"),
        ("2 q", ParseError, "missing '*' before 'q'"),
        ("1/q", InvalidDivisor, "scalar divisor"),
        ("q/0", InvalidDivisor, "division by zero"),
        ("q/(x - x)", InvalidDivisor, "division by zero"),
        ("k*q", UnboundParameter, "unbound parameter 'k'"),
        ("", ParseError, "empty input"),
        ("q^", ParseError, "exponent must be an integer"),
        ("(q", ParseError, "expected ')'"),
        ("q$", ParseError, "unknown character '$'"),
        ("q +\np*", ParseError, "line 2, column 3"),
        # a grammar error wins; of the other two, the first in the source
        ("k*q +", ParseError, "line 1, column 6: unexpected end of input"),
        ("q/k", UnboundParameter, "line 1, column 3: unbound parameter 'k'"),
        ("1/q + k", InvalidDivisor, "line 1, column 3: division requires a scalar divisor"),
        ("k/0", UnboundParameter, "line 1, column 1: unbound parameter 'k'"),
    ],
)
def test_located_errors(source, exc, fragment):
    with pytest.raises(exc) as err:
        parse_polynomial(source)
    assert fragment in str(err.value)
    assert isinstance(err.value, ExpressionError)


def test_error_location_points_into_source():
    with pytest.raises(ParseError) as err:
        parse_polynomial("q + 2 x")
    assert "column 7" in str(err.value)


def test_parameter_binding():
    binding = ParameterBinding({"k": 0.2, "mass": 2})
    assert parse_polynomial("k*q + mass*x", binding) == (
        constant(Fraction(1, 5)) * Q + constant(2) * X
    )


def test_parameter_binding_validation():
    with pytest.raises(ValueError, match="reserved"):
        ParameterBinding({"q": 1})
    with pytest.raises(ValueError, match="identifier"):
        ParameterBinding({"2bad": 1})
    with pytest.raises(ValueError, match="identifier"):
        ParameterBinding({"": 1})
    with pytest.raises(TypeError):  # one mapping, not keywords
        ParameterBinding(k=1)


def test_parameter_values_coerce_exactly():
    binding = ParameterBinding({"k": Fraction(1, 3)})
    poly = parse_polynomial("k*q", binding)
    assert poly == constant(Fraction(1, 3)) * Q


def test_division_by_parameter_scalar():
    binding = ParameterBinding({"w": 4})
    assert parse_polynomial("q/w", binding) == constant(Fraction(1, 4)) * Q


_exponents = st.lists(st.sampled_from(range(6)), min_size=0, max_size=3).map(
    lambda picks: tuple(picks.count(i) for i in range(6))
)
_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(_exponents, _fractions, _fractions).filter(
            lambda t: t[1] != 0 or t[2] != 0
        ),
        min_size=0,
        max_size=4,
    )
)
def test_round_trip_parse_of_canonical_text(pairs):
    poly = OperatorPolynomial()
    for mono, re_, im_ in pairs:
        poly = poly + OperatorPolynomial({mono: ComplexRational(re_, im_)})
    assert parse_polynomial(str(poly)) == poly


@settings(max_examples=50, deadline=None)
@given(st.text(alphabet="qpxy+-*/^()0123456789. i_", max_size=24))
def test_parser_never_crashes(source):
    try:
        parse_polynomial(source)
    except ExpressionError:
        pass
