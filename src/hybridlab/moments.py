"""Linear Heisenberg dynamics for quadratic evolution generators.

A quadratic generator K closes the equations of motion on the span of the
six canonical generators plus constants: d<v>/dt = G <v> + c.  This module
derives G and c symbolically, exponentiates them, propagates first and
second moments exactly, classifies the spectrum of G including Jordan
structure (the algebraic signature of secular growth), and fits growth
envelopes to scalar time series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

import numpy as np

from .algebra import (
    GENERATOR_NAMES,
    GENERATORS,
    CONJUGATE_PAIRS,
    Monomial,
    OperatorPolynomial,
    heisenberg_rhs,
    partial_derivative,
)

__all__ = [
    "NonlinearDynamics",
    "DegreeTooHigh",
    "InsufficientData",
    "MomentOverflow",
    "GeneratorMatrix",
    "MomentState",
    "SpectrumLine",
    "SpectrumReport",
    "EnvelopeFit",
    "derive_generator",
    "hamilton_generator",
    "structure_residual",
    "matrix_exponential",
    "propagate_moments",
    "propagate_trajectory",
    "classify_spectrum",
    "quadratic_expectation",
    "fit_envelope",
]

_DIM = 6

class NonlinearDynamics(Exception):
    """The Heisenberg flow of a basis element leaves the affine span."""

    def __init__(self, basis_label: str, residual: OperatorPolynomial):
        self.basis_label = basis_label
        self.residual = residual
        super().__init__(
            f"d{basis_label}/dt is not affine in the generators; "
            f"offending part: {residual}"
        )


class DegreeTooHigh(Exception):
    """Observable degree exceeds what a MomentState determines."""


class InsufficientData(Exception):
    """Too few samples or oscillation periods for an envelope fit."""


class MomentOverflow(Exception):
    """The propagated moments left the float range; the run is unreliable."""


# ---------------------------------------------------------------------------
# Generator matrices.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorMatrix:
    """Affine mean-flow d<v>/dt = matrix @ <v> + affine.

    Rows and columns follow `labels` (always the canonical generator
    order).  For every quadratic generator with no linear part the affine
    vector is zero.  `exact` is derived from `matrix`, as rows of Fractions:
    int and Fraction entries stay exact, any other entry is the Fraction of
    its float64 value.
    """

    matrix: np.ndarray
    affine: np.ndarray = field(default_factory=lambda: np.zeros(_DIM))
    labels: tuple[str, ...] = GENERATOR_NAMES
    exact: tuple[tuple[Fraction, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        c = np.asarray(self.affine, dtype=float)
        if m.shape != (_DIM, _DIM):
            raise ValueError(f"generator matrix must be {_DIM}x{_DIM}, got {m.shape}")
        if c.shape != (_DIM,):
            raise ValueError(f"affine vector must have length {_DIM}, got {c.shape}")
        if not np.isfinite(m).all():
            raise ValueError("generator matrix entries must be finite")
        given = self.matrix.tolist() if isinstance(self.matrix, np.ndarray) else self.matrix
        object.__setattr__(self, "exact", tuple(
            tuple(Fraction(x if isinstance(x, (int, Fraction)) else y) for x, y in zip(r, f))
            for r, f in zip(given, m.tolist())))
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "affine", c)

    def entry(self, row: str, col: str) -> float:
        return float(self.matrix[GENERATORS[row].index, GENERATORS[col].index])


def _affine_expansion(rhs: OperatorPolynomial, label: str) -> tuple[list, Fraction]:
    """Split an affine polynomial into (linear coefficients, constant)."""
    row, const = [0] * _DIM, 0
    for mono, coeff in rhs.monomials():
        if not coeff.is_real:
            raise NonlinearDynamics(label, OperatorPolynomial({mono: coeff}))
        deg = mono.degree
        if deg == 0:
            const = coeff.real
        elif deg == 1:
            row[mono.exponents.index(1)] = coeff.real
        else:
            raise NonlinearDynamics(label, OperatorPolynomial({mono: coeff}))
    return row, const


def _exact_generator(flows: dict[str, OperatorPolynomial]) -> GeneratorMatrix:
    """GeneratorMatrix whose row b expands flows[b]; absent rows stay zero."""
    rows, consts = [[0] * _DIM] * _DIM, [0] * _DIM
    for name, rhs in flows.items():
        i = GENERATORS[name].index
        rows[i], consts[i] = _affine_expansion(rhs, name)
    return GeneratorMatrix(rows, consts)


def derive_generator(k_op: OperatorPolynomial) -> GeneratorMatrix:
    """Read the mean-flow matrix off the Heisenberg equations of k_op.

    Row b holds the expansion of heisenberg_rhs(b, k_op) over the
    generators; constants land in the affine vector.  Raises
    NonlinearDynamics naming the basis element whose flow leaves the
    affine span (or carries a non-real coefficient), and OverflowError
    when an entry is too large for a float.
    """
    return _exact_generator({
        name: heisenberg_rhs(OperatorPolynomial.generator(name), k_op)
        for name in GENERATOR_NAMES
    })


def hamilton_generator(h: OperatorPolynomial) -> GeneratorMatrix:
    """Mean-flow matrix of the fully classical Hamilton equations of h.

    Treats all four observable generators as classical phase-space
    coordinates in canonical pairs (q, p) and (x, y): dq/dt = dh/dp,
    dp/dt = -dh/dq, dx/dt = dh/dy, dy/dt = -dh/dx.  The shift rows stay
    zero; h must be free of shift operators and at most quadratic.
    """
    return _exact_generator({
        "q": partial_derivative(h, "p"),
        "p": -partial_derivative(h, "q"),
        "x": partial_derivative(h, "y"),
        "y": -partial_derivative(h, "x"),
    })


def structure_residual(G: GeneratorMatrix | np.ndarray) -> float:
    """How far a linear flow is from being generated by any quadratic K.

    A matrix A is the commutator flow of a quadratic generator exactly
    when Omega @ A is symmetric, where Omega is the commutator table of
    the basis ([v_i, v_j] = i * Omega_ij).  Returns max|M - M^T| for
    M = Omega @ A; zero means a quadratic generator exists.
    """
    A = G.matrix if isinstance(G, GeneratorMatrix) else np.asarray(G, dtype=float)
    omega = np.zeros((_DIM, _DIM))
    for pos, mom in CONJUGATE_PAIRS:
        omega[pos, mom] = 1.0
        omega[mom, pos] = -1.0
    M = omega @ A
    return float(np.max(np.abs(M - M.T)))


# ---------------------------------------------------------------------------
# Moment states and propagation.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentState:
    """First moments m = <v> and symmetrized second moments S.

    S_ij = <(v_i v_j + v_j v_i)/2>.  A single state has a 6-vector mean and
    a 6x6 S; a time series of states has a leading time axis, mean (T, 6)
    and S (T, 6, 6), and every check below holds along the trailing axes.
    Both must be finite and the covariance S - m m^T must have nonnegative
    diagonal, up to a roundoff that scales with the state's largest S_ii;
    construction enforces symmetry of S.
    """

    mean: np.ndarray
    second: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mean, dtype=float)
        S = np.asarray(self.second, dtype=float)
        if m.ndim not in (1, 2) or m.shape[-1] != _DIM or S.shape != m.shape + (_DIM,):
            raise ValueError("moment state needs a 6-vector mean and 6x6 second moments")
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(S))):
            raise ValueError("moment state needs finite means and second moments")
        ST = np.swapaxes(S, -1, -2)
        if not np.array_equal(S, ST):  # an exactly symmetric S (as _apply_flow makes) stays
            if not np.all(np.abs(S - ST) <= 1e-10 + 1e-5 * np.abs(ST)):  # np.allclose
                raise ValueError("second-moment matrix must be symmetric")
            S = (S + ST) / 2
        diagonal = np.diagonal(S, axis1=-2, axis2=-1)
        # S_ii - m_i^2 cancels: allow the roundoff of the state's largest S_ii
        slack = 1e-10 + 64 * np.finfo(float).eps * np.abs(diagonal).max(axis=-1, keepdims=True)
        if np.any(diagonal - m * m < -slack):
            raise ValueError("covariance diagonal has a negative entry")
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "second", S)

    @staticmethod
    def vacuum_like(mean=None) -> "MomentState":
        """Width-1/2 uncorrelated state, optionally displaced in the means."""
        m = np.zeros(_DIM) if mean is None else np.asarray(mean, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # the constructor rejects inf
            S = np.diag(np.full(_DIM, 0.5)) + np.outer(m, m)
        return MomentState(m, S)

    def covariance(self) -> np.ndarray:
        return self.second - _outer(self.mean, self.mean)


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.outer along the last axis, batched over any leading axes."""
    return a[..., :, None] * b[..., None, :]


# Degree-13 Pade coefficients b_0..b_13 and the 1-norm bound theta_13 below
# which the [13/13] approximant is accurate to unit roundoff (Higham, SIAM
# J. Matrix Anal. Appl. 26, 1179-1193, 2005, Table 2.3).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def expm(A) -> np.ndarray:
    """Matrix exponential of a square matrix or a stack of them.

    Pade-13 scaling and squaring (Higham 2005): each matrix is scaled by
    2^-s with s = max(0, ceil(log2(|A|_1 / theta_13))), put through the
    [13/13] approximant (one batched solve for the stack), and squared
    back s times.  Every step acts on each matrix alone, so a stacked call
    equals per-matrix calls bit for bit.  A matrix with a non-finite entry,
    or whose exponential overflows, gives non-finite entries in its result.
    """
    A = np.asarray(A, dtype=float)
    shape, n = A.shape, A.shape[-1]
    A = A.reshape(-1, n, n)
    norm = np.abs(A).sum(axis=-2).max(axis=-1, initial=0.0)
    finite = np.isfinite(norm)
    # frexp gives x = m * 2^e with m in [0.5, 1): ceil(log2(x)) is e - (m == 0.5)
    mant, expo = np.frexp(np.where(finite, norm, 0.0) / _THETA13)
    s = np.maximum(expo - (mant == 0.5), 0)
    A = np.ldexp(np.where(finite[:, None, None], A, 0.0), -s[:, None, None])
    b, eye = _PADE13, np.eye(n)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    R = np.linalg.solve(V - U, V + U)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow shows as inf or nan
        for k in range(int(s.max(initial=0))):
            todo = s > k
            Rk = R[todo]
            R[todo] = Rk @ Rk
    # LAPACK may divide by multiplying with a rounded reciprocal: pin exp(0) = I
    R[norm == 0] = eye
    R[~finite] = np.nan
    return R.reshape(shape)


def matrix_exponential(G: GeneratorMatrix, t) -> np.ndarray:
    """M(t) = exp(matrix * t) via scaling and squaring.

    A 1-D array of times gives the stacked (T, 6, 6) flows in one call.
    """
    return expm(G.matrix * np.asarray(t, dtype=float)[..., None, None])


def _flow_with_drift(G: GeneratorMatrix, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(M(t), d(t)) with d the accumulated affine response, stacked like t."""
    if not np.any(G.affine):
        M = matrix_exponential(G, t)
        return M, np.zeros(M.shape[:-1])
    # Augmented block [[G, c], [0, 0]]: its exponential's last column is
    # the integral of e^{G(t-s)} c ds.
    aug = np.zeros((_DIM + 1, _DIM + 1))
    aug[:_DIM, :_DIM] = G.matrix
    aug[:_DIM, _DIM] = G.affine
    E = expm(aug * t[..., None, None])
    return E[..., :_DIM, :_DIM], E[..., :_DIM, _DIM]


def _apply_flow(M, d, mean, second, times) -> MomentState:
    """The moments (mean, second) carried by the affine flow v -> M v + d.

    m -> M m + d and S -> M S M^T + (M m) d^T + d (M m)^T + d d^T.  The
    arguments broadcast along their leading axes to one result per entry
    of times, in the same order.  Raises MomentOverflow naming the first
    of times whose moments are not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # MomentOverflow names the time
        Mm = (M @ mean[..., None])[..., 0]
        m1 = Mm + d
        S1 = M @ second @ np.swapaxes(M, -1, -2) + _outer(Mm, d) + _outer(d, Mm) + _outer(d, d)
        S1 = (S1 + np.swapaxes(S1, -1, -2)) / 2
    try:
        return MomentState(m1, S1)
    except ValueError:
        finite = np.isfinite(m1).all(axis=-1) & np.isfinite(S1).all(axis=(-2, -1))
        if np.all(finite):
            raise
    first_bad = float(times.flat[np.argmin(finite)])
    raise MomentOverflow(f"moment flow left the float range by t = {first_bad!r}")


def propagate_moments(G: GeneratorMatrix, s0: MomentState, t) -> MomentState:
    """Exact moment propagation under the affine flow v(t) = M v(0) + d of G.

    Symmetry and the ordering content of S are preserved because the flow
    is linear.  A scalar t gives one state; a 1-D array of T times gives one
    state with a leading time axis (mean (T, 6), second (T, 6, 6)) from one
    stacked exponential, equal bit for bit to T scalar calls.  Raises
    MomentOverflow naming the first time whose moments are not finite.
    """
    times = np.asarray(t, dtype=float)
    M, d = _flow_with_drift(G, times)
    return _apply_flow(M, d, s0.mean, s0.second, times)


def propagate_trajectory(
    G: GeneratorMatrix, s0: MomentState, times
) -> list[MomentState]:
    """Propagated states at each requested time (each exact from t=0)."""
    batch = propagate_moments(G, s0, times)
    return [MomentState(m, S) for m, S in zip(batch.mean, batch.second)]


# ---------------------------------------------------------------------------
# Spectrum classification.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumLine:
    eigenvalue: complex
    algebraic: int
    geometric: int
    chain: int

    @property
    def defective(self) -> bool:
        return self.geometric < self.algebraic

    def to_dict(self) -> dict:
        return {
            "real": self.eigenvalue.real,
            "imag": self.eigenvalue.imag,
            "algebraic": self.algebraic,
            "geometric": self.geometric,
            "chain": self.chain,
        }


@dataclass(frozen=True)
class SpectrumReport:
    lines: tuple[SpectrumLine, ...]
    tol: float

    def __post_init__(self):
        total = sum(line.algebraic for line in self.lines)
        if total != _DIM:
            raise ValueError(f"algebraic multiplicities sum to {total}, expected {_DIM}")
        for line in self.lines:
            if line.geometric > line.algebraic:
                raise ValueError("geometric multiplicity exceeds algebraic")

    @property
    def secular(self) -> bool:
        """True when a defective eigenvalue sits on the imaginary axis."""
        return any(
            line.defective and abs(line.eigenvalue.real) <= 10 * self.tol
            for line in self.lines
        )

    @property
    def max_chain(self) -> int:
        return max(line.chain for line in self.lines)

    def closest(self, value: complex) -> SpectrumLine:
        return min(self.lines, key=lambda line: abs(line.eigenvalue - value))

    def to_dict(self) -> dict:
        return {
            "tolerance": self.tol,
            "eigenvalues": [line.to_dict() for line in self.lines],
            "secular_growth": self.secular,
        }


# Exact arithmetic on integer matrices (lists of rows) and polynomials
# (coefficient lists, constant term first, no trailing zeros).


def _matmul(A, B, c=0):  # A @ B + c I
    return [[sum(map(mul, row, col)) + c * (i == j) for j, col in enumerate(zip(*B))]
            for i, row in enumerate(A)]


def _divmod(a, b):
    """Pseudo-division: (q, r) with lc(b)^len(q) a = q b + r and deg r < deg b."""
    q, r = [], a[:]
    while len(r) >= len(b):
        lead, k = r.pop(), len(r) - len(b) + 1
        q = [lead] + [b[-1] * x for x in q]
        r = [b[-1] * x - lead * (b[i - k] if i >= k else 0) for i, x in enumerate(r)]
    while r and not r[-1]:
        r.pop()
    return q, r


def _remainders(a, b):
    """Euclid's sequence a, b, ... of pseudo-remainders, each divided by its
    content and signed as the true remainder's negative: the last divides a
    and b, and for b = a' the sequence is Sturm's."""
    seq = [a]
    while b:
        seq.append(b)
        q, r = _divmod(seq[-2], b)  # the remainder is r / lc(b)^len(q)
        sign = 1 if b[-1] < 0 and len(q) % 2 else -1
        b = [sign * x // math.gcd(*r) for x in r]
    return seq


def _gcd(a, b):
    """Monic gcd of a monic a and b; integral by Gauss's lemma."""
    g = _remainders(a, b)[-1]
    return [x // g[-1] for x in g]


def _nullity(M):
    """Nullity over Q by fraction-free (Bareiss) elimination; pivot rows drop out."""
    rows, prev = M, 1
    for col in range(len(M)):
        top = next((row for row in rows if row[col]), None)
        if top is not None:
            rows = [[(top[col] * x - row[col] * y) // prev for x, y in zip(row, top)]
                    for row in rows if row is not top]
            prev = top[col]
    return len(rows)


def _jordan(B, h, m):
    """(geometric multiplicity, chain length) of the roots of a monic factor h
    of multiplicity m, from the nullities of h(B)^j, which reach m deg h."""
    e, H = len(h) - 1, [[0] * _DIM] * _DIM
    for c in reversed(h):
        H = _matmul(B, H, c)
    power, nullities = H, [_nullity(H)]
    while nullities[-1] < m * e:
        power = _matmul(power, H)
        nullities.append(_nullity(power))
    if any(k % e for k in nullities):
        raise ValueError(f"roots of one factor differ in Jordan structure: {nullities}")
    return nullities[0] // e, len(nullities)


def _newton(c, z):
    """c(z) / c'(z) for an integer polynomial c at a complex float z, exact
    over the Gaussian integers and rounded once."""
    (a, e), (b, f) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    a, b, e = a * f, b * e, e * f  # z = (a + ib) / e
    (p, pi), (d, di), scale = (c[-1], 0), (0, 0), 1  # Horner: c(z) e^j, c'(z) e^(j-1)
    for x in reversed(c[:-1]):
        scale *= e
        d, di = d * a - di * b + p, d * b + di * a + pi
        p, pi = p * a - pi * b + x * scale, p * b + pi * a
    d, di = d * e, di * e
    norm = d * d + di * di
    return complex((p * d + pi * di) / norm, (pi * d - p * di) / norm)


def _polish(c, roots):
    """Aberth-Ehrlich sweeps over float roots of a squarefree integer
    polynomial c, each c(z) / c'(z) exact, until no root moves by more than
    a float resolves.  The roots start turned slightly apart, so that equal
    or conjugate floats standing for distinct real roots can separate, and
    a root lost to underflow starts tiny.
    """
    roots = [(z or 2.0 ** -1000) * (1 + (3 + 4j) * 2.0 ** -40 * i) for i, z in enumerate(roots, 1)]
    for _ in range(60):
        settled = True
        for i, z in enumerate(roots):
            r = _newton(c, z)
            s = sum(1 / (z - y) for y in roots[:i] + roots[i + 1:])
            roots[i] = z - r / (1 - r * s)
            if not abs(roots[i]) < math.inf:  # roots closer together than floats resolve
                raise OverflowError("roots too far apart for floats")
            settled &= abs(roots[i] - z) <= 4e-16 * abs(z)
        if settled:
            break
    return roots


def _roots(h, d):
    """Roots of h(d x), for a monic factor h of the polynomial of B = d A.

    Float roots of the scaled polynomial are polished against its exact
    integer coefficients; Sturm's theorem says how many are real, and those
    get imaginary part exactly 0.  An even h(x) = u(x^2) gives x = +-sqrt(mu)
    over the roots mu of u, so imaginary pairs have real part exactly 0 (+ 0.0
    clears the -0.0 of negated roots).  The variable is scaled by a power of
    two near the roots' geometric mean, so coefficients beyond the float
    range still give finite roots.
    """
    step = 1 if any(h[1::2]) else 2
    v = h[::step]
    n = len(v) - 1
    t = (abs(v[0]).bit_length() - (d ** (step * n)).bit_length()) // n // 2 * 2
    c = [x * d ** (step * i) << (t * i - min(t, 0) * n) for i, x in enumerate(v)]
    start = np.roots([x / c[-1] for x in reversed(c)]).astype(complex).tolist()
    roots = sorted(_polish(c, start), key=lambda z: abs(z.imag))
    sturm = _remainders(v, [i * x for i, x in enumerate(v)][1:])
    changes = lambda signs: sum(map(bool.__ne__, signs, signs[1:]))
    real = (changes([(p[-1] > 0) == (len(p) % 2 == 1) for p in sturm])  # at -inf
            - changes([p[-1] > 0 for p in sturm]))  # at +inf
    upper = sorted(roots[real:], key=lambda z: -z.imag)[:(n - real) // 2]
    roots = np.array([complex(z.real, 0.0) for z in roots[:real]]
                     + upper + [z.conjugate() for z in upper])
    if step == 2:
        roots = np.concatenate([np.sqrt(roots), -np.sqrt(roots)])
    return [complex(math.ldexp(r.real, t // step) + 0.0, math.ldexp(r.imag, t // step) + 0.0)
            for r in roots.tolist()]


def classify_spectrum(G: GeneratorMatrix, tol: float = 1e-9) -> SpectrumReport:
    """Exact eigenvalue multiplicities and Jordan chains of G's matrix.

    Splits the characteristic polynomial of the integer B = d A into the
    root 0 and squarefree factors h of multiplicity m (Musser), and reads
    each root's structure off the exact ranks of h(B)^j; only the simple
    roots of h are found in floats.  tol only decides which defective
    eigenvalues are on the imaginary axis.  Raises OverflowError for
    eigenvalues too large, or too far apart, for floats.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    d = math.lcm(*(x.denominator for row in G.exact for x in row))
    B = [[x.numerator * (d // x.denominator) for x in row] for row in G.exact]
    n, p, M = _DIM, [0] * _DIM + [1], [[0] * _DIM] * _DIM
    for k in range(1, n + 1):  # Faddeev-LeVerrier; every division is exact
        M = _matmul(B, M, p[n - k + 1])
        p[n - k] = -sum(B[i][j] * M[j][i] for i in range(n) for j in range(n)) // k
    zeros = next(i for i, c in enumerate(p) if c)
    lines = [SpectrumLine(0j, zeros, *_jordan(B, [0, 1], zeros))] if zeros else []
    f = p[zeros:]  # Musser: s has each root of multiplicity >= m once, g the powers beyond m
    g = _gcd(f, [i * c for i, c in enumerate(f)][1:])
    s, m = _divmod(f, g)[0], 1
    while len(s) > 1:
        t = _gcd(s, g)
        if len(t) < len(s):  # h = s / t has the roots of multiplicity exactly m
            h = _divmod(s, t)[0]
            structure = _jordan(B, h, m)
            lines += [SpectrumLine(value, m, *structure) for value in _roots(h, d)]
        g, s, m = _divmod(g, t)[0], t, m + 1
    lines.sort(key=lambda line: (line.eigenvalue.real, line.eigenvalue.imag))
    return SpectrumReport(tuple(lines), tol)


# ---------------------------------------------------------------------------
# Quadratic expectations.
# ---------------------------------------------------------------------------


def quadratic_expectation(k_op: OperatorPolynomial, s: MomentState) -> float | np.ndarray:
    """<k_op> on a MomentState, exact through degree 2.

    Returns a float for a single state and a (T,) array for a state with a
    leading time axis; each element sees the float operations of the
    single-state sum.  Symmetrized second moments carry no ordering
    information, so the normal-ordered cross term of a conjugate pair picks
    up the exact correction <u v> = S_uv + i/2 from u v = (uv+vu)/2 +
    [u,v]/2.  The correction is purely imaginary and is dropped with the
    rest of the imaginary part (it cancels for every Hermitian-symmetric
    input; for the benchmark generators all cross terms commute and it is
    zero).
    """
    total = np.zeros(s.mean.shape[:-1])
    for mono, coeff in k_op.monomials():
        deg = mono.degree
        if deg > 2:
            raise DegreeTooHigh(
                f"term {OperatorPolynomial({mono: coeff})} has degree {deg}; "
                "moment states determine degree <= 2 only"
            )
        if deg == 0:
            value = 1.0
        elif deg == 1:
            value = s.mean[..., mono.exponents.index(1)]
        else:
            idx = [i for i, e in enumerate(mono.exponents) for _ in range(e)]
            # same-pair cross term: real part is the symmetrized moment,
            # the +i/2 ordering correction is imaginary and drops here
            value = s.second[..., idx[0], idx[1]]
        total = total + float(coeff.real) * value
    return float(total) if total.ndim == 0 else total


# ---------------------------------------------------------------------------
# Envelope fitting.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvelopeFit:
    degree: int
    coefficients: tuple[float, ...]
    residual: float

    def __post_init__(self):
        if self.degree not in (0, 1, 2):
            raise ValueError("envelope degree must be 0, 1, or 2")
        if self.residual < 0:
            raise ValueError("residual must be nonnegative")


_MIN_SAMPLES = 32
_MIN_PERIODS = 10
_RESIDUAL_GATE = 1e-2
_TRANSIENT_FRACTION = 0.2


def _count_periods(times: np.ndarray, values: np.ndarray) -> float:
    """Oscillation periods spanned, counted from detrended sign changes."""
    scaled = times / (np.max(np.abs(times)) or 1.0)  # a well-posed fit at any time scale
    detrended = values - np.polyval(np.polyfit(scaled, values, 2), scaled)
    floor = 1e-7 * float(np.max(np.abs(values))) if np.any(values) else 0.0
    signs = np.sign(detrended)
    signs[np.abs(detrended) <= floor] = 0
    signs = signs[signs != 0]
    if signs.size == 0:
        return 0.0
    crossings = int(np.sum(signs[1:] != signs[:-1]))
    return crossings / 2.0


def _local_maxima(values: np.ndarray) -> np.ndarray:
    interior = (values[1:-1] > values[:-2]) & (values[1:-1] > values[2:])
    return np.flatnonzero(interior) + 1


def fit_envelope(times, values) -> EnvelopeFit:
    """Fit the amplitude envelope of an oscillating series.

    Extracts strict local maxima of |values| as envelope samples; a
    series whose magnitude grows monotonically (oscillation buried in a
    dominant trend) produces too few peaks, and then the samples
    themselves serve as the envelope.  The leading 20% of the time span
    is dropped as transient before fitting polynomials of degree 0, 1, 2
    by least squares; the lowest degree with relative L2 residual below
    1% wins.  Raises InsufficientData for fewer than 32 samples, fewer
    than 10 oscillation periods, or when no degree fits.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1:
        raise ValueError("times and values must be 1-D arrays of equal length")
    if t.size < _MIN_SAMPLES:
        raise InsufficientData(f"need at least {_MIN_SAMPLES} samples, got {t.size}")
    periods = _count_periods(t, v)
    if periods < _MIN_PERIODS:
        raise InsufficientData(
            f"series spans about {periods:.1f} oscillation periods; "
            f"need at least {_MIN_PERIODS}"
        )

    magnitude = np.abs(v)
    peaks = _local_maxima(magnitude)
    if peaks.size >= _MIN_PERIODS:
        et, ev = t[peaks], magnitude[peaks]
    else:
        et, ev = t, magnitude

    cutoff = t[0] + _TRANSIENT_FRACTION * (t[-1] - t[0])
    keep = et >= cutoff
    if int(np.sum(keep)) >= 4:
        et, ev = et[keep], ev[keep]

    norm = float(np.linalg.norm(ev))
    if norm == 0.0:
        return EnvelopeFit(0, (0.0,), 0.0)
    for degree in (0, 1, 2):
        coeffs = np.polyfit(et, ev, degree)
        residual = float(np.linalg.norm(ev - np.polyval(coeffs, et))) / norm
        if residual < _RESIDUAL_GATE:
            return EnvelopeFit(degree, tuple(float(c) for c in coeffs), residual)
    raise InsufficientData(
        "no polynomial envelope of degree <= 2 fits within the 1% residual gate"
    )
