"""Exact operator algebra: CCR table, ordering, derivations, rendering."""

from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridlab import algebra
from hybridlab import (
    CONJUGATE_PAIRS,
    GENERATOR_NAMES,
    ComplexRational,
    OperatorPolynomial,
    ShiftOperatorPresent,
    UnsupportedMixing,
    commutator,
    constant,
    coupled_hamiltonian,
    generator,
    gens,
    heisenberg_rhs,
    hybrid_koopmanian,
    hybridize,
    jacobi_residual,
    koopmanize,
    nogo_witness,
    parse_polynomial,
    partial_derivative,
)

I = ComplexRational.coerce(1j)
Q, P, X, Y, PX, PY = gens()


def test_ccr_table():
    expected_i = {("q", "p"), ("x", "p_x"), ("y", "p_y")}
    for a in GENERATOR_NAMES:
        for b in GENERATOR_NAMES:
            c = commutator(generator(a), generator(b))
            if (a, b) in expected_i:
                assert c == constant(1j), (a, b)
            elif (b, a) in expected_i:
                assert c == constant(-1j), (a, b)
            else:
                assert c.is_zero, (a, b)


def test_conjugate_pairs_match_table():
    names = [GENERATOR_NAMES[i] for pair in CONJUGATE_PAIRS for i in pair]
    assert names == ["q", "p", "x", "p_x", "y", "p_y"]


def test_reordering_examples():
    assert str(P * Q) == "q*p - i"
    assert str(P * P * Q) == "q*p^2 - 2*i*p"
    assert P * Q == Q * P - constant(1j)
    # same-pair reordering only; cross-pair generators commute
    assert PX * X == X * PX - constant(1j)
    assert P * X == X * P


def test_powers_and_degree():
    poly = (Q + P) ** 3
    assert poly.degree == 3
    assert ((Q + X) ** 2) == Q * Q + constant(2) * Q * X + X * X


def test_constant_term_and_coefficient():
    poly = constant(Fraction(3, 7)) + Q * P * constant(2)
    assert poly.constant_term() == ComplexRational.coerce(Fraction(3, 7))
    assert poly.coefficient((1, 1, 0, 0, 0, 0)) == ComplexRational.coerce(2)


@pytest.mark.parametrize("build", [
    lambda: OperatorPolynomial({(1, 0, 0, 0, 0): 1}),  # five exponents
    lambda: OperatorPolynomial({(0, -1, 0, 0, 0, 0): 1}),
    lambda: OperatorPolynomial({(0, 0, 1.0, 0, 0, 0): 1}),
    lambda: OperatorPolynomial({(1, 0, 0, 0, 0): 0}),  # checked even when dropped
    lambda: Q.coefficient((1, 1)),
], ids=["five-tuple", "negative", "non-int", "zero-coefficient", "coefficient"])
def test_malformed_monomial_keys_raise(build):
    with pytest.raises(ValueError, match="monomial"):
        build()


# -- small random polynomials for property tests ----------------------------

_coeffs = st.integers(min_value=-3, max_value=3)
_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)
_complex_coeffs = st.builds(ComplexRational, _fractions, _fractions)


def _monomial(max_total=2, indices=tuple(range(6))):
    # draw at most max_total generator picks; multiplicity becomes the exponent
    return st.lists(
        st.sampled_from(tuple(indices)), min_size=0, max_size=max_total
    ).map(lambda picks: tuple(picks.count(i) for i in range(6)))


def _polynomials(max_total=2, indices=range(6), max_terms=3, coeffs=_coeffs):
    def build(pairs):
        total = OperatorPolynomial()
        for mono, c in pairs:
            total = total + OperatorPolynomial({mono: ComplexRational.coerce(c)})
        return total

    pair = st.tuples(_monomial(max_total, indices), coeffs)
    return st.lists(pair, min_size=0, max_size=max_terms).map(build)


@settings(max_examples=60, deadline=None)
@given(_polynomials(), _polynomials(), _polynomials())
def test_jacobi_identity_holds(a, b, c):
    assert jacobi_residual(a, b, c).is_zero


@settings(max_examples=60, deadline=None)
@given(_polynomials(), _polynomials(), _polynomials())
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(_polynomials(), _polynomials(), _polynomials())
def test_commutator_is_a_derivation(a, b, c):
    assert commutator(a, b * c) == commutator(a, b) * c + b * commutator(a, c)
    assert commutator(a, b) == -(commutator(b, a))


_complex_cubics = _polynomials(max_total=3, max_terms=4, coeffs=_complex_coeffs)


@settings(max_examples=60, deadline=None)
@given(_complex_cubics, _complex_cubics)
def test_commutator_equals_the_product_difference(a, b):
    # commutator skips the uncontracted terms; the full products are the oracle
    assert commutator(a, b) == a * b - b * a
    assert heisenberg_rhs(a, b) == constant(-1j) * (a * b - b * a)


@settings(max_examples=60, deadline=None)
@given(_complex_cubics, _complex_cubics)
def test_commutator_expands_only_orders_with_a_contraction(a, b):
    # an order whose full expansion is its uncontracted term alone adds nothing
    expanded = []

    def spy(left, right):
        expanded.append((left, right))
        return product(left, right)

    product = algebra._monomial_product
    with mock.patch.object(algebra, "_monomial_product", spy):
        result = commutator(a, b)
    assert result == a * b - b * a
    orders = [(ma, mb) for ma, _ in a.monomials() for mb, _ in b.monomials()]
    orders += [(mb, ma) for ma, mb in orders]
    assert Counter(expanded) == Counter(o for o in orders if len(list(product(*o))) > 1)


@settings(max_examples=60, deadline=None)
@given(_polynomials(max_total=3, indices=(2, 3), max_terms=4))
def test_hamilton_recovery(h):
    k = koopmanize(h)
    assert heisenberg_rhs(X, k) == partial_derivative(h, "y")
    assert heisenberg_rhs(Y, k) == -partial_derivative(h, "x")


def test_koopmanize_harmonic_oscillator():
    h = (X * X + Y * Y) * constant(Fraction(1, 2))
    assert koopmanize(h) == Y * PX - X * PY


def test_koopmanize_derivative_factors_stay_left():
    # koopmanize(x^2 * y) carries the x-derivative 2*x*y onto p_y unreordered
    h = X * X * Y
    expected = X * X * PX - constant(2) * X * Y * PY
    assert koopmanize(h) == expected


def test_partial_derivative():
    h = X * X * Y + constant(5) * Y
    assert partial_derivative(h, "x") == constant(2) * X * Y
    assert partial_derivative(h, "y") == X * X + constant(5)


def test_shift_operators_rejected():
    with pytest.raises(ShiftOperatorPresent):
        koopmanize(PX * X)
    with pytest.raises(ShiftOperatorPresent):
        hybridize(PY)
    with pytest.raises(ShiftOperatorPresent):
        partial_derivative(PX, "x")


def test_hybridize_benchmark():
    k = Fraction(1, 5)
    K = hybridize(coupled_hamiltonian(k))
    expected = (
        (Q * Q + P * P) * constant(Fraction(1, 2))
        + Y * PX
        - X * PY
        - constant(k) * Q * PY
    )
    assert K == expected
    assert K == hybrid_koopmanian(k)


def test_hybridize_rejects_momentum_mixing():
    with pytest.raises(UnsupportedMixing):
        hybridize(P * Y)


def test_hybrid_equations_of_motion():
    k = Fraction(1, 5)
    K = hybrid_koopmanian(k)
    kq = constant(k) * Q
    kpy = constant(k) * PY
    assert heisenberg_rhs(Q, K) == P
    # [p, -k*q*p_y] = +i*k*p_y, so after the -i of the Heisenberg equation
    # the interaction feeds p_y into dp/dt with a plus sign: +k*p_y.
    assert heisenberg_rhs(P, K) == -Q + kpy
    assert heisenberg_rhs(X, K) == Y
    assert heisenberg_rhs(Y, K) == -X - kq
    assert heisenberg_rhs(PX, K) == PY
    assert heisenberg_rhs(PY, K) == -PX


def test_nogo_witness_values():
    assert nogo_witness(0).is_zero
    assert nogo_witness(Fraction(1, 5)) == constant(Fraction(-1, 5)) * constant(1j)
    assert nogo_witness(1) == constant(-1j)
    assert str(nogo_witness(Fraction(1, 5))) == "-0.2*i"


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=-4, max_value=4, max_denominator=20))
def test_nogo_witness_nonzero_iff_coupled(k):
    assert nogo_witness(k).is_zero == (k == 0)


def test_float_coefficients_read_as_decimals():
    assert ComplexRational.coerce(0.2).real == Fraction(1, 5)
    assert constant(0.2) * Q == constant(Fraction(1, 5)) * Q


def test_rendering_examples():
    k = Fraction(1, 5)
    assert str(hybrid_koopmanian(k)) == "0.5*q^2 - 0.2*q*p_y + 0.5*p^2 - x*p_y + y*p_x"
    assert str(constant(1j)) == "i"
    assert str(constant(-1j)) == "-i"
    assert str(constant(Fraction(1, 5)) * constant(1j) * Q) == "0.2*i*q"
    assert str((constant(0.5) - constant(1j)) * Q) == "(0.5-i)*q"
    assert str(constant(Fraction(1, 3)) * Q) == "1/3*q"
    assert str(constant(Fraction(-1, 3))) == "-1/3"
    assert str(OperatorPolynomial()) == "0"
    assert str(Q * Q * X - P) == "q^2*x - p"


_render_coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(
    lambda f: f != 0
)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(_monomial(max_total=3), _render_coeffs, _render_coeffs),
        min_size=1,
        max_size=4,
    )
)
def test_rendering_round_trips_through_parser(pairs):
    poly = OperatorPolynomial()
    for mono, re_, im_ in pairs:
        poly = poly + OperatorPolynomial({mono: ComplexRational(re_, im_)})
    assert parse_polynomial(str(poly)) == poly


def test_complex_rational_arithmetic():
    a = ComplexRational(Fraction(1, 2), Fraction(-1, 3))
    b = ComplexRational(Fraction(2), Fraction(5))
    assert (a + b) - b == a
    assert a * b.reciprocal() * b == a
    assert (a * b).to_complex() == pytest.approx(a.to_complex() * b.to_complex())
    with pytest.raises(ZeroDivisionError):
        ComplexRational.coerce(0).reciprocal()


def test_heisenberg_rhs_of_conserved_quantity_is_zero():
    K = hybrid_koopmanian(Fraction(1, 5))
    assert heisenberg_rhs(K, K).is_zero
