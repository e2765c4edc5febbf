"""Text frontend: parse operator expressions straight to polynomials.

Grammar (EBNF, also published in docs/grammar.md):

    expr     := term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := '-' factor | power
    power    := atom ('^' exponent)?
    exponent := integer | '(' ['-'] integer ')'
    atom     := number | 'i' | name | '(' expr ')'

Numbers are unsigned decimals read exactly (0.2 becomes 1/5).  Names are
identifiers; the six generator names are reserved, `i` is the imaginary
unit, and anything else is a parameter whose value the binding supplies.
`*` is mandatory between factors, and a divisor must be a nonzero scalar,
so the target stays a polynomial algebra.  Each grammar rule returns its
polynomial.  A grammar error (ParseError) wins over the other two; of
those, the first unbound parameter or bad divisor in the source is
raised, once the whole source has parsed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .algebra import (
    GENERATOR_NAMES,
    ComplexRational,
    InputRefused,
    OperatorPolynomial,
    constant,
    generator,
)

__all__ = [
    "ExpressionError",
    "ParseError",
    "UnboundParameter",
    "InvalidDivisor",
    "ParameterBinding",
    "parse_polynomial",
]

_RESERVED = set(GENERATOR_NAMES) | {"i"}


class ExpressionError(InputRefused):
    """Expression-level failure; carries a source location when known."""

    def __init__(self, message: str, *, source: str | None = None, pos: int | None = None):
        self.pos = pos
        self.line = None
        self.column = None
        if source is not None and pos is not None:
            at = min(pos, len(source))
            self.line = source.count("\n", 0, at) + 1
            self.column = at - (source.rfind("\n", 0, at) + 1) + 1
            message = f"line {self.line}, column {self.column}: {message}"
        super().__init__(message)


class ParseError(ExpressionError):
    """Source text does not conform to the grammar."""


class UnboundParameter(ExpressionError):
    """The source names a parameter with no bound value."""


class InvalidDivisor(ExpressionError):
    """Division by something that is not a nonzero scalar."""


# ---------------------------------------------------------------------------
# Tokens.
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<number>\d+(?:\.\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<symbol>[-+*/^()])"
)
_WS_RE = re.compile(r"\s*")


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "name" | one of "+-*/^()" | "end"
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    n = len(source)
    while True:
        pos = _WS_RE.match(source, pos).end()
        if pos >= n:
            break
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unknown character {source[pos]!r}", source=source, pos=pos)
        kind = m.group() if m.lastgroup == "symbol" else m.lastgroup
        tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Parameter binding.
# ---------------------------------------------------------------------------


class ParameterBinding(Mapping):
    """Immutable map from parameter names to exact scalar values.

    Built from one mapping; values are coerced to ComplexRational, and
    floats are read at their repr, so ParameterBinding({"k": 0.2}) binds k
    to exactly 1/5.  A name that is not an identifier, or that is one of
    the generators or i, raises InputRefused.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Mapping):
        out: dict[str, ComplexRational] = {}
        for name, value in values.items():
            if not isinstance(name, str) or not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name):
                raise InputRefused(f"parameter name {name!r} is not a valid identifier")
            if name in _RESERVED:
                raise InputRefused(f"parameter name {name!r} collides with a reserved symbol")
            out[name] = ComplexRational.coerce(value)
        self._values = out

    def __getitem__(self, name: str) -> ComplexRational:
        return self._values[name]

    def __iter__(self):
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in self._values.items())
        return f"ParameterBinding({inner})"


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


class _Parser:
    """Recursive descent whose rules return polynomials.

    An unbound parameter or a bad divisor does not stop the parse: the
    first one met is kept, zero stands in for the value, and
    parse_polynomial raises it once the whole source has parsed, so a
    grammar error anywhere in the source wins.
    """

    def __init__(self, source: str, params: ParameterBinding):
        self.source = source
        self.params = params
        self.tokens = _tokenize(source)
        self.i = 0
        self.error: ExpressionError | None = None

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, source=self.source, pos=tok.pos)

    def keep(self, error: type[ExpressionError], message: str, pos: int) -> OperatorPolynomial:
        if self.error is None:
            self.error = error(message, source=self.source, pos=pos)
        return OperatorPolynomial()

    # expr := term (('+' | '-') term)*
    def expr(self) -> OperatorPolynomial:
        poly = self.term()
        while True:
            tok = self.peek()
            if tok.kind in ("+", "-"):
                self.advance()
                rhs = self.term()
                poly = poly + (-rhs if tok.kind == "-" else rhs)
            elif tok.kind in ("number", "name", "("):
                # e.g. "2q" or "k q": adjacency is never multiplication here
                self.fail(
                    f"missing '*' before {tok.text!r} (implicit multiplication is not allowed)",
                    tok,
                )
            else:
                return poly

    # term := factor (('*' | '/') factor)*
    def term(self) -> OperatorPolynomial:
        poly = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            pos = self.peek().pos
            rhs = self.factor()
            poly = poly * (rhs if op == "*" else self.reciprocal(rhs, pos))
        return poly

    def reciprocal(self, divisor: OperatorPolynomial, pos: int) -> OperatorPolynomial:
        if divisor.degree > 0:
            return self.keep(
                InvalidDivisor, "division requires a scalar divisor (no generators)", pos
            )
        scalar = divisor.constant_term()
        if scalar.is_zero:
            return self.keep(InvalidDivisor, "division by zero", pos)
        return constant(scalar.reciprocal())

    # factor := '-' factor | power
    def factor(self) -> OperatorPolynomial:
        if self.peek().kind == "-":
            self.advance()
            return -self.factor()
        return self.power()

    # power := atom ('^' exponent)?
    def power(self) -> OperatorPolynomial:
        base = self.atom()
        if self.peek().kind != "^":
            return base
        self.advance()
        return base ** self.exponent()

    # exponent := integer | '(' ['-'] integer ')'
    def exponent(self) -> int:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            if "." in tok.text:
                self.fail("exponent must be an integer", tok)
            return int(tok.text)
        if tok.kind == "(":
            self.advance()
            sign_tok = None
            if self.peek().kind == "-":
                sign_tok = self.advance()
            num = self.peek()
            if num.kind != "number" or "." in num.text:
                self.fail("exponent must be an integer", num)
            self.advance()
            if self.peek().kind != ")":
                self.fail("expected ')' after exponent")
            self.advance()
            if sign_tok is not None:
                self.fail("negative exponents are not supported", sign_tok)
            return int(num.text)
        self.fail("exponent must be an integer or a parenthesized integer", tok)

    # atom := number | 'i' | name | '(' expr ')'
    def atom(self) -> OperatorPolynomial:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return constant(ComplexRational(Fraction(tok.text)))
        if tok.kind == "name":
            self.advance()
            if tok.text == "i":
                return constant(ComplexRational(Fraction(0), Fraction(1)))
            if tok.text in GENERATOR_NAMES:
                return generator(tok.text)
            if tok.text not in self.params:
                return self.keep(UnboundParameter, f"unbound parameter {tok.text!r}", tok.pos)
            return constant(self.params[tok.text])
        if tok.kind == "(":
            self.advance()
            inner = self.expr()
            if self.peek().kind != ")":
                self.fail("expected ')'")
            self.advance()
            return inner
        if tok.kind == "end":
            self.fail("unexpected end of input", tok)
        self.fail(f"unexpected {tok.text!r}", tok)


def parse_polynomial(
    source: str, parameters: ParameterBinding | Mapping | None = None
) -> OperatorPolynomial:
    """Parse source text into a normal-ordered OperatorPolynomial.

    Products multiply left to right through the exact algebra.  Raises
    ParseError (with line/column) on empty input, unknown characters or
    any grammar violation; otherwise UnboundParameter for a parameter
    missing from `parameters`, or InvalidDivisor for a divisor that is not
    a nonzero scalar, whichever comes first in the source.
    """
    if not isinstance(source, str):
        raise TypeError("expression source must be a string")
    if not isinstance(parameters, ParameterBinding):
        parameters = ParameterBinding(parameters or {})
    parser = _Parser(source, parameters)
    if parser.peek().kind == "end":
        raise ParseError("empty input", source=source, pos=0)
    poly = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        parser.fail(f"unexpected {trailing.text!r}", trailing)
    if parser.error is not None:
        raise parser.error
    return poly
