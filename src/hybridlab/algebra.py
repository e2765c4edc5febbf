"""Exact operator algebra over the six canonical generators.

The generators q, p, x, y, p_x, p_y satisfy

    [q, p] = [x, p_x] = [y, p_y] = i        (all other pairs commute)

with q, p the quantum pair, x, y the observable classical phase-space
coordinates, and p_x, p_y the unobservable shift/boost operators that
generate translations of x and y.  A polynomial maps each monomial, the
tuple of its six exponents in GENERATOR_NAMES order (q, p, x, y, p_x, p_y),
to an exact rational-complex coefficient.  Each conjugate pair is
normal-ordered with position left of momentum, and factors from different
pairs commute, so the tuple fixes the operator and every identity the test
suite checks holds without floating-point tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Union

__all__ = [
    "AlgebraError",
    "ShiftOperatorPresent",
    "UnsupportedMixing",
    "ComplexRational",
    "OperatorPolynomial",
    "GENERATOR_NAMES",
    "GENERATORS",
    "CONJUGATE_PAIRS",
    "gens",
    "generator",
    "constant",
    "commutator",
    "jacobi_residual",
    "nogo_witness",
    "partial_derivative",
    "koopmanize",
    "hybridize",
    "heisenberg_rhs",
]


class AlgebraError(Exception):
    """Base class for algebra-level failures."""


class ShiftOperatorPresent(AlgebraError):
    """Raised when an operation restricted to q, p, x, y meets p_x or p_y."""


class UnsupportedMixing(AlgebraError):
    """Raised when the quantum momentum p multiplies classical coordinates."""


# ---------------------------------------------------------------------------
# Coefficients: exact complex numbers with rational real and imaginary parts.
# ---------------------------------------------------------------------------

_NumberLike = Union[int, float, complex, Fraction, "ComplexRational"]


def _fraction_from_real(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"cannot represent non-finite value {value!r} exactly")
        # Floats are read at their shortest round-tripping decimal, so 0.2
        # becomes 1/5 rather than the underlying binary fraction.
        return Fraction(repr(value))
    raise TypeError(f"cannot convert {type(value).__name__} to an exact rational")


@dataclass(frozen=True)
class ComplexRational:
    """Complex number with exact rational components."""

    real: Fraction = Fraction(0)
    imag: Fraction = Fraction(0)

    @staticmethod
    def coerce(value: _NumberLike) -> "ComplexRational":
        if isinstance(value, ComplexRational):
            return value
        if isinstance(value, complex):
            return ComplexRational(_fraction_from_real(value.real), _fraction_from_real(value.imag))
        return ComplexRational(_fraction_from_real(value))

    @property
    def is_zero(self) -> bool:
        return not self.real and not self.imag

    @property
    def is_real(self) -> bool:
        return not self.imag

    def __add__(self, other: "ComplexRational") -> "ComplexRational":
        if not (self.imag or other.imag):  # real coefficients: skip the imaginary Fractions
            return ComplexRational(self.real + other.real)
        return ComplexRational(self.real + other.real, self.imag + other.imag)

    def __sub__(self, other: "ComplexRational") -> "ComplexRational":
        return ComplexRational(self.real - other.real, self.imag - other.imag)

    def __mul__(self, other: "ComplexRational") -> "ComplexRational":
        if not (self.imag or other.imag):
            return ComplexRational(self.real * other.real)
        return ComplexRational(
            self.real * other.real - self.imag * other.imag,
            self.real * other.imag + self.imag * other.real,
        )

    def __neg__(self) -> "ComplexRational":
        return ComplexRational(-self.real, -self.imag)

    def reciprocal(self) -> "ComplexRational":
        norm = self.real * self.real + self.imag * self.imag
        if not norm:
            raise ZeroDivisionError("reciprocal of zero")
        return ComplexRational(self.real / norm, -self.imag / norm)

    def scale(self, factor: Fraction) -> "ComplexRational":
        return ComplexRational(self.real * factor, self.imag * factor)

    def to_complex(self) -> complex:
        return complex(self.real, self.imag)


CR_ZERO = ComplexRational()
CR_ONE = ComplexRational(Fraction(1))
CR_I = ComplexRational(Fraction(0), Fraction(1))
CR_MINUS_I = ComplexRational(Fraction(0), Fraction(-1))

# (-i)^k for k mod 4; used by the normal-ordering kernel.
_MINUS_I_POWERS = (CR_ONE, CR_MINUS_I, ComplexRational(Fraction(-1)), CR_I)


# ---------------------------------------------------------------------------
# Generators and monomials: a monomial is its 6-tuple of exponents.
# ---------------------------------------------------------------------------

GENERATOR_NAMES = ("q", "p", "x", "y", "p_x", "p_y")

# (position index, momentum index) of each conjugate pair within the
# exponent tuple; indices refer to GENERATOR_NAMES order.
CONJUGATE_PAIRS = ((0, 1), (2, 4), (3, 5))

_SHIFT_INDICES = (4, 5)

# each generator's index in a monomial's exponent tuple
GENERATORS: dict[str, int] = {name: i for i, name in enumerate(GENERATOR_NAMES)}

_Monomial = tuple[int, int, int, int, int, int]
_MONOMIAL_ONE: _Monomial = (0,) * 6


def _monomial(key) -> _Monomial:
    """A monomial key from outside, checked: six nonnegative ints."""
    mono = tuple(key)
    if len(mono) != 6:
        raise ValueError("monomial needs one exponent per generator")
    if any((not isinstance(e, int)) or e < 0 for e in mono):
        raise ValueError("monomial exponents must be nonnegative integers")
    return mono


def _monomial_product(ea: _Monomial, eb: _Monomial) -> Iterator[tuple[_Monomial, ComplexRational]]:
    """Expand a*b into normal-ordered terms.

    Within each conjugate pair, mom^m pos^n is reordered with
    mom^m pos^n = sum_k C(m,k) C(n,k) k! (-i)^k pos^(n-k) mom^(m-k),
    the standard consequence of [pos, mom] = i; pairs are independent.
    """
    bounds = [min(ea[mom], eb[pos]) for pos, mom in CONJUGATE_PAIRS]
    for k0 in range(bounds[0] + 1):
        for k1 in range(bounds[1] + 1):
            for k2 in range(bounds[2] + 1):
                ks = (k0, k1, k2)
                coeff = CR_ONE
                exps = [0] * 6
                for (pos, mom), k in zip(CONJUGATE_PAIRS, ks):
                    m, n = ea[mom], eb[pos]
                    if k:  # k = 0 multiplies by exactly one
                        weight = math.comb(m, k) * math.comb(n, k) * math.factorial(k)
                        coeff = coeff.scale(Fraction(weight)) * _MINUS_I_POWERS[k % 4]
                    exps[pos] = ea[pos] + n - k
                    exps[mom] = m - k + eb[mom]
                yield tuple(exps), coeff


# ---------------------------------------------------------------------------
# Polynomials.
# ---------------------------------------------------------------------------


class OperatorPolynomial:
    """Finite sum of normal-ordered monomials with exact coefficients.

    The key of each term is its exponent tuple in GENERATOR_NAMES order
    (q, p, x, y, p_x, p_y), each conjugate pair normal-ordered with position
    left of momentum.  OperatorPolynomial() is zero.  Instances are
    immutable; arithmetic returns new polynomials and never stores explicit
    zero coefficients.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, ...], _NumberLike] | None = None):
        clean: dict[_Monomial, ComplexRational] = {}
        if terms:
            for mono, coeff in terms.items():
                mono, coeff = _monomial(mono), ComplexRational.coerce(coeff)
                if not coeff.is_zero:
                    clean[mono] = coeff
        self._terms = clean

    # -- views ---------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self) -> int:
        """Total degree; the zero polynomial reports 0."""
        return max(map(sum, self._terms), default=0)

    def coefficient(self, monomial: tuple[int, ...]) -> ComplexRational:
        return self._terms.get(_monomial(monomial), CR_ZERO)

    def constant_term(self) -> ComplexRational:
        return self._terms.get(_MONOMIAL_ONE, CR_ZERO)

    def monomials(self) -> Iterator[tuple[_Monomial, ComplexRational]]:
        return iter(self._terms.items())

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "OperatorPolynomial":
        other = _as_polynomial(other)
        if other is NotImplemented:
            return NotImplemented
        merged = dict(self._terms)
        for mono, coeff in other._terms.items():
            total = merged.get(mono, CR_ZERO) + coeff
            if total.is_zero:
                merged.pop(mono, None)
            else:
                merged[mono] = total
        return _wrap(merged)

    __radd__ = __add__

    def __sub__(self, other) -> "OperatorPolynomial":
        other = _as_polynomial(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "OperatorPolynomial":
        other = _as_polynomial(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self) -> "OperatorPolynomial":
        return _wrap({m: -c for m, c in self._terms.items()})

    def __mul__(self, other) -> "OperatorPolynomial":
        other = _as_polynomial(other)
        if other is NotImplemented:
            return NotImplemented
        acc: dict[_Monomial, ComplexRational] = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                cab = ca * cb
                for mono, reorder in _monomial_product(ma, mb):
                    term = cab if reorder is CR_ONE else cab * reorder
                    total = acc.get(mono, CR_ZERO) + term
                    if total.is_zero:
                        acc.pop(mono, None)
                    else:
                        acc[mono] = total
        return _wrap(acc)

    def __rmul__(self, other) -> "OperatorPolynomial":
        other = _as_polynomial(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def __pow__(self, exponent: int) -> "OperatorPolynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take nonnegative integer exponents")
        result = constant(1)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        other = _as_polynomial(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # mutable-dict backed; equality is structural

    # -- rendering -----------------------------------------------------------

    def canonical_text(self) -> str:
        """Deterministic text form; re-parsing it reproduces the polynomial.

        Terms are sorted by exponent vector, lexicographic descending, so
        e.g. q-terms print before p-terms and the constant prints last.
        """
        if not self._terms:
            return "0"
        parts: list[str] = []
        for mono in sorted(self._terms, reverse=True):
            sign, body = _term_text(mono, self._terms[mono])
            if not parts:
                parts.append(body if sign >= 0 else "-" + body)
            else:
                parts.append((" + " if sign >= 0 else " - ") + body)
        return "".join(parts)

    def __str__(self) -> str:
        return self.canonical_text()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<OperatorPolynomial {self.canonical_text()}>"


def _wrap(terms: dict[_Monomial, ComplexRational]) -> OperatorPolynomial:
    """A polynomial on terms already checked and free of zeros, not copied."""
    out = OperatorPolynomial.__new__(OperatorPolynomial)
    out._terms = terms
    return out


def _as_polynomial(value) -> OperatorPolynomial:
    if isinstance(value, OperatorPolynomial):
        return value
    if isinstance(value, (int, float, complex, Fraction, ComplexRational)):
        return constant(value)
    return NotImplemented


def _decimal_text(value: Fraction) -> str | None:
    """Finite decimal rendering of a nonnegative rational, if one is short."""
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return None
    shift = max(twos, fives)
    if shift > 17:
        return None
    digits = value.numerator * 10**shift // value.denominator
    text = str(digits).rjust(shift + 1, "0")
    if shift == 0:
        return text
    whole, frac = text[:-shift], text[-shift:]
    frac = frac.rstrip("0")
    return whole if not frac else f"{whole}.{frac}"


def _rational_text(value: Fraction) -> str:
    dec = _decimal_text(value)
    if dec is not None:
        return dec
    return f"{value.numerator}/{value.denominator}"


def _term_text(mono: _Monomial, coeff: ComplexRational) -> tuple[int, str]:
    """Render one term; returns (sign, body-without-sign)."""
    factors = []
    for name, exp in zip(GENERATOR_NAMES, mono):
        if exp == 1:
            factors.append(name)
        elif exp > 1:
            factors.append(f"{name}^{exp}")

    if coeff.imag == 0:
        sign = 1 if coeff.real > 0 else -1
        mag = abs(coeff.real)
        if mag == 1 and factors:
            return sign, "*".join(factors)
        return sign, "*".join([_rational_text(mag)] + factors)
    if coeff.real == 0:
        sign = 1 if coeff.imag > 0 else -1
        mag = abs(coeff.imag)
        head = ["i"] if mag == 1 else [_rational_text(mag), "i"]
        return sign, "*".join(head + factors)
    # Mixed real and imaginary parts: parenthesize the whole coefficient.
    re_text = _rational_text(abs(coeff.real))
    if coeff.real < 0:
        re_text = "-" + re_text
    im_mag = abs(coeff.imag)
    im_text = "i" if im_mag == 1 else f"{_rational_text(im_mag)}*i"
    joiner = "+" if coeff.imag > 0 else "-"
    body = f"({re_text}{joiner}{im_text})"
    return 1, "*".join([body] + factors)


# ---------------------------------------------------------------------------
# Core operations.
# ---------------------------------------------------------------------------


def gens() -> tuple[OperatorPolynomial, ...]:
    """The six generators as polynomials, in (q, p, x, y, p_x, p_y) order."""
    return tuple(generator(n) for n in GENERATOR_NAMES)


def generator(name: str) -> OperatorPolynomial:
    """The generator called name (one of GENERATOR_NAMES) as a polynomial."""
    if name not in GENERATORS:
        raise KeyError(f"unknown generator {name!r}")
    exps = [0] * 6
    exps[GENERATORS[name]] = 1
    return _wrap({tuple(exps): CR_ONE})


def constant(value: _NumberLike) -> OperatorPolynomial:
    coeff = ComplexRational.coerce(value)
    return _wrap({} if coeff.is_zero else {_MONOMIAL_ONE: coeff})


def commutator(a: OperatorPolynomial, b: OperatorPolynomial) -> OperatorPolynomial:
    """[a, b] = a*b - b*a, accumulated in one pass over monomial pairs.

    For each pair (ma, mb), the uncontracted term of ma*mb (the first that
    _monomial_product yields, no reordering) is the merged monomial with
    coefficient ca*cb, and so is that of mb*ma: the two cancel exactly, so
    neither is accumulated.  Only the contraction terms of each order remain.
    """
    acc: dict[_Monomial, ComplexRational] = {}
    for ma, ca in a._terms.items():
        for mb, cb in b._terms.items():
            # an order with no conjugate pair to contract is its uncontracted term alone
            ab = any(ma[mom] and mb[pos] for pos, mom in CONJUGATE_PAIRS)
            ba = any(mb[mom] and ma[pos] for pos, mom in CONJUGATE_PAIRS)
            if not (ab or ba):
                continue
            cab = ca * cb
            for left, right, c in [(ma, mb, cab)] * ab + [(mb, ma, -cab)] * ba:
                products = _monomial_product(left, right)
                next(products)  # the uncontracted term, cancelled by the other order
                for mono, reorder in products:
                    total = acc.get(mono, CR_ZERO) + c * reorder
                    if total.is_zero:
                        acc.pop(mono, None)
                    else:
                        acc[mono] = total
    return _wrap(acc)


def jacobi_residual(
    a: OperatorPolynomial, b: OperatorPolynomial, c: OperatorPolynomial
) -> OperatorPolynomial:
    """[[a,[b,c]] + [b,[c,a]] + [c,[a,b]]; identically zero in any associative algebra."""
    return (
        commutator(a, commutator(b, c))
        + commutator(b, commutator(c, a))
        + commutator(c, commutator(a, b))
    )


def nogo_witness(k: _NumberLike) -> OperatorPolynomial:
    """Obstruction to a coupling that acts classically on both sectors.

    A coupling k*q*x would need [p, K_int] = -i*k*x scaled into the quantum
    equation and [y, K_int] = -i*k*q into the classical one while [y, p] = 0.
    The witness [y, -k*x] + [p, k*q] collapses to the constant -i*k: it
    vanishes only for k = 0, so no generator meets both demands at once.
    """
    kc = ComplexRational.coerce(k)
    y_, p_, x_, q_ = (generator(n) for n in ("y", "p", "x", "q"))
    return commutator(y_, -(constant(kc) * x_)) + commutator(p_, constant(kc) * q_)


def _require_shift_free(h: OperatorPolynomial, operation: str) -> None:
    for mono in h._terms:
        if any(mono[i] for i in _SHIFT_INDICES):
            raise ShiftOperatorPresent(
                f"{operation} expects a polynomial in q, p, x, y only; "
                f"found shift factor in term {OperatorPolynomial({mono: h._terms[mono]})}"
            )


def partial_derivative(h: OperatorPolynomial, name: str) -> OperatorPolynomial:
    """Formal monomial-wise derivative of a shift-free polynomial by a generator name.

    Lowering one exponent maps distinct monomials to distinct monomials, so
    no two terms merge and no coefficient cancels.
    """
    if name not in GENERATORS:
        raise KeyError(f"unknown generator {name!r}")
    _require_shift_free(h, "partial_derivative")
    idx = GENERATORS[name]
    return _wrap({
        mono[:idx] + (e - 1,) + mono[idx + 1:]: coeff.scale(Fraction(e))
        for mono, coeff in h._terms.items()
        if (e := mono[idx])
    })


def koopmanize(h: OperatorPolynomial) -> OperatorPolynomial:
    """Lift a classical Hamiltonian term to its phase-space flow generator.

    Returns (dh/dy)*p_x - (dh/dx)*p_y with the derivative factors on the
    left; the result generates the classical characteristics of h while
    commuting with every function of x and y it should commute with.
    """
    _require_shift_free(h, "koopmanize")
    p_x, p_y = generator("p_x"), generator("p_y")
    return partial_derivative(h, "y") * p_x - partial_derivative(h, "x") * p_y


def hybridize(h_total: OperatorPolynomial) -> OperatorPolynomial:
    """Split a coupled Hamiltonian and koopmanize its classical content.

    Monomials in q, p only (constants included) pass through untouched;
    monomials in x, y only and mixed q-with-x/y interaction monomials are
    koopmanized.  Monomials mixing p with x or y have no consistent
    treatment and raise UnsupportedMixing.
    """
    _require_shift_free(h_total, "hybridize")
    quantum = classical = OperatorPolynomial()
    for e, coeff in h_total._terms.items():
        term = _wrap({e: coeff})
        touches_quantum = e[0] or e[1]
        touches_classical = e[2] or e[3]
        if not touches_classical:
            quantum = quantum + term
        elif not touches_quantum:
            classical = classical + term
        elif e[1]:
            raise UnsupportedMixing(
                f"term {term} mixes the quantum momentum p with classical coordinates"
            )
        else:
            classical = classical + term
    return quantum + koopmanize(classical)


def heisenberg_rhs(x_op: OperatorPolynomial, k_op: OperatorPolynomial) -> OperatorPolynomial:
    """Right-hand side of the Heisenberg equation of motion, -i*[x_op, k_op].

    Multiplying by -i rotates each coefficient: -i*(a + b*i) = b - a*i.
    """
    return _wrap({
        mono: ComplexRational(c.imag, -c.real)
        for mono, c in commutator(x_op, k_op)._terms.items()
    })
