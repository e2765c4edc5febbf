"""Linear Heisenberg dynamics for quadratic evolution generators.

A quadratic generator K closes the equations of motion on the span of the
six canonical generators plus constants: d<v>/dt = G <v> + c.  This module
derives G and c symbolically, exponentiates them, propagates first and
second moments exactly, classifies the spectrum of G including Jordan
structure (the algebraic signature of secular growth), and fits growth
envelopes to scalar time series.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

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
    "IllConditionedWarning",
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

# Relative SVD cutoff for the numerical rank decisions inside
# classify_spectrum.  Large against roundoff in small matrix powers, small
# against every structural singular value met in practice (the clean gap is
# ~1e-2 vs ~1e-15).
RANK_RTOL = 1e-8


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


class IllConditionedWarning(UserWarning):
    """Eigenvalue clustering was ambiguous at the requested tolerance."""


# ---------------------------------------------------------------------------
# Generator matrices.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorMatrix:
    """Affine mean-flow d<v>/dt = matrix @ <v> + affine.

    Rows and columns follow `labels` (always the canonical generator
    order).  For every quadratic generator with no linear part the affine
    vector is zero.
    """

    matrix: np.ndarray
    affine: np.ndarray = field(default_factory=lambda: np.zeros(_DIM))
    labels: tuple[str, ...] = GENERATOR_NAMES

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        c = np.asarray(self.affine, dtype=float)
        if m.shape != (_DIM, _DIM):
            raise ValueError(f"generator matrix must be {_DIM}x{_DIM}, got {m.shape}")
        if c.shape != (_DIM,):
            raise ValueError(f"affine vector must have length {_DIM}, got {c.shape}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "affine", c)

    def entry(self, row: str, col: str) -> float:
        return float(self.matrix[GENERATORS[row].index, GENERATORS[col].index])


def _affine_expansion(rhs: OperatorPolynomial, label: str) -> tuple[np.ndarray, float]:
    """Split an affine polynomial into (linear coefficients, constant)."""
    row = np.zeros(_DIM)
    const = 0.0
    for mono, coeff in rhs.monomials():
        if not coeff.is_real:
            raise NonlinearDynamics(label, OperatorPolynomial({mono: coeff}))
        deg = mono.degree
        if deg == 0:
            const = float(coeff.real)
        elif deg == 1:
            idx = mono.exponents.index(1)
            row[idx] = float(coeff.real)
        else:
            raise NonlinearDynamics(label, OperatorPolynomial({mono: coeff}))
    return row, const


def derive_generator(k_op: OperatorPolynomial) -> GeneratorMatrix:
    """Read the mean-flow matrix off the Heisenberg equations of k_op.

    Row b holds the expansion of heisenberg_rhs(b, k_op) over the
    generators; constants land in the affine vector.  Raises
    NonlinearDynamics naming the basis element whose flow leaves the
    affine span (or carries a non-real coefficient).
    """
    G = np.zeros((_DIM, _DIM))
    c = np.zeros(_DIM)
    for i, name in enumerate(GENERATOR_NAMES):
        rhs = heisenberg_rhs(OperatorPolynomial.generator(name), k_op)
        G[i], c[i] = _affine_expansion(rhs, name)
    return GeneratorMatrix(G, c)


def hamilton_generator(h: OperatorPolynomial) -> GeneratorMatrix:
    """Mean-flow matrix of the fully classical Hamilton equations of h.

    Treats all four observable generators as classical phase-space
    coordinates in canonical pairs (q, p) and (x, y): dq/dt = dh/dp,
    dp/dt = -dh/dq, dx/dt = dh/dy, dy/dt = -dh/dx.  The shift rows stay
    zero; h must be free of shift operators and at most quadratic.
    """
    flows = {
        "q": partial_derivative(h, "p"),
        "p": -partial_derivative(h, "q"),
        "x": partial_derivative(h, "y"),
        "y": -partial_derivative(h, "x"),
    }
    G = np.zeros((_DIM, _DIM))
    c = np.zeros(_DIM)
    for name, rhs in flows.items():
        i = GENERATORS[name].index
        G[i], c[i] = _affine_expansion(rhs, name)
    return GeneratorMatrix(G, c)


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

    S_ij = <(v_i v_j + v_j v_i)/2>.  Both must be finite and the covariance
    S - m m^T must have nonnegative diagonal; construction enforces
    symmetry of S.
    """

    mean: np.ndarray
    second: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mean, dtype=float)
        S = np.asarray(self.second, dtype=float)
        if m.shape != (_DIM,) or S.shape != (_DIM, _DIM):
            raise ValueError("moment state needs a 6-vector mean and 6x6 second moments")
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(S))):
            raise ValueError("moment state needs finite means and second moments")
        if not np.allclose(S, S.T, atol=1e-10):
            raise ValueError("second-moment matrix must be symmetric")
        S = (S + S.T) / 2
        variances = np.diag(S) - m * m
        if np.any(variances < -1e-10):
            raise ValueError("covariance diagonal has a negative entry")
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "second", S)

    @staticmethod
    def vacuum_like(mean=None) -> "MomentState":
        """Width-1/2 uncorrelated state, optionally displaced in the means."""
        m = np.zeros(_DIM) if mean is None else np.asarray(mean, dtype=float)
        S = np.diag(np.full(_DIM, 0.5)) + np.outer(m, m)
        return MomentState(m, S)

    def covariance(self) -> np.ndarray:
        return self.second - np.outer(self.mean, self.mean)


def matrix_exponential(G: GeneratorMatrix, t: float) -> np.ndarray:
    """M(t) = exp(matrix * t) via scaling and squaring."""
    return expm(G.matrix * float(t))


def _flow_with_drift(G: GeneratorMatrix, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(M(t), d(t)) with d the accumulated affine response."""
    if not np.any(G.affine):
        return matrix_exponential(G, t), np.zeros(_DIM)
    # Augmented block [[G, c], [0, 0]]: its exponential's last column is
    # the integral of e^{G(t-s)} c ds.
    aug = np.zeros((_DIM + 1, _DIM + 1))
    aug[:_DIM, :_DIM] = G.matrix
    aug[:_DIM, _DIM] = G.affine
    E = expm(aug * float(t))
    return E[:_DIM, :_DIM], E[:_DIM, _DIM]


def propagate_moments(G: GeneratorMatrix, s0: MomentState, t: float) -> MomentState:
    """Exact moment propagation under the affine flow of G.

    v(t) = M v(0) + d implies m -> M m + d and
    S -> M S M^T + (M m) d^T + d (M m)^T + d d^T; symmetry and the
    ordering content of S are preserved because the flow is linear.
    """
    M, d = _flow_with_drift(G, t)
    m1 = M @ s0.mean + d
    Mm = M @ s0.mean
    S1 = M @ s0.second @ M.T + np.outer(Mm, d) + np.outer(d, Mm) + np.outer(d, d)
    return MomentState(m1, (S1 + S1.T) / 2)


def propagate_trajectory(
    G: GeneratorMatrix, s0: MomentState, times
) -> list[MomentState]:
    """Propagated states at each requested time (each exact from t=0)."""
    return [propagate_moments(G, s0, float(t)) for t in np.asarray(times, dtype=float)]


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


def _numerical_nullity(M: np.ndarray, rtol: float = RANK_RTOL) -> int:
    svals = np.linalg.svd(M, compute_uv=False)
    if svals[0] == 0.0:
        return M.shape[0]
    return int(np.sum(svals <= rtol * svals[0]))


def classify_spectrum(G: GeneratorMatrix, tol: float = 1e-9) -> SpectrumReport:
    """Cluster eigenvalues, then certify multiplicities by numerical rank.

    Defective eigenvalues are computed by eig with an O(eps^(1/m)) scatter
    that can exceed any reasonable clustering tolerance, so after the
    first pass each cluster's algebraic multiplicity is certified from
    nullity((A - lam I)^6); when the certificate exceeds the cluster size,
    nearby clusters are merged (with an IllConditionedWarning) until the
    counts agree.  Geometric multiplicity and Jordan chain length come
    from ranks of (A - lam I)^m.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    A = G.matrix
    eigvals = np.linalg.eigvals(A)
    scale = max(1.0, float(np.max(np.abs(eigvals))))

    # Pass 1: union-find clustering at the requested tolerance.
    parent = list(range(_DIM))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(_DIM):
        for j in range(i + 1, _DIM):
            if abs(eigvals[i] - eigvals[j]) <= tol:
                parent[find(i)] = find(j)

    clusters: dict[int, list[int]] = {}
    for i in range(_DIM):
        clusters.setdefault(find(i), []).append(i)
    groups = [sorted(members) for members in clusters.values()]

    # Pass 2: rank-certified merging of scattered defective clusters.
    eps = np.finfo(float).eps
    merged_any = False
    result_groups: list[list[int]] = []
    remaining = sorted(groups, key=lambda g: (eigvals[g[0]].real, eigvals[g[0]].imag))
    while remaining:
        group = remaining.pop(0)
        center = complex(np.mean(eigvals[group]))
        cert = _numerical_nullity(np.linalg.matrix_power(A - center * np.eye(_DIM), _DIM))
        while cert > len(group) and remaining:
            # Worst-case eig scatter for a chain of length m is
            # O(eps^(1/m)); the merge radius covers it with margin while
            # staying far below the O(k) >= 0.05 physical splittings.
            radius = min(100.0 * (6 * eps) ** (1.0 / max(cert, 2)) * scale, 0.01 * scale)
            near = [
                g for g in remaining
                if abs(complex(np.mean(eigvals[g])) - center) <= radius
            ]
            if not near:
                break
            closest = min(near, key=lambda g: abs(complex(np.mean(eigvals[g])) - center))
            remaining.remove(closest)
            group = sorted(group + closest)
            center = complex(np.mean(eigvals[group]))
            cert = _numerical_nullity(
                np.linalg.matrix_power(A - center * np.eye(_DIM), _DIM)
            )
            merged_any = True
        result_groups.append(group)

    if merged_any:
        warnings.warn(
            "eigenvalue clusters were merged using rank certificates; "
            "the clustering tolerance alone was ambiguous",
            IllConditionedWarning,
            stacklevel=2,
        )

    # Warn when distinct clusters sit uncomfortably close to the tolerance.
    centers = [complex(np.mean(eigvals[g])) for g in result_groups]
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            if abs(centers[i] - centers[j]) < 10 * tol:
                warnings.warn(
                    f"eigenvalue gap |{centers[i]:.3e} - {centers[j]:.3e}| is within "
                    f"10x the clustering tolerance {tol:.1e}",
                    IllConditionedWarning,
                    stacklevel=2,
                )

    lines = []
    for group, center in zip(result_groups, centers):
        algebraic = len(group)
        shifted = A - center * np.eye(_DIM)
        geometric = min(_numerical_nullity(shifted), algebraic)
        chain = 1
        power = shifted.copy()
        while _numerical_nullity(power) < algebraic and chain < _DIM:
            chain += 1
            power = power @ shifted
        lines.append(SpectrumLine(center, algebraic, geometric, chain))

    lines.sort(key=lambda line: (line.eigenvalue.real, line.eigenvalue.imag))
    return SpectrumReport(tuple(lines), tol)


# ---------------------------------------------------------------------------
# Quadratic expectations.
# ---------------------------------------------------------------------------


def quadratic_expectation(k_op: OperatorPolynomial, s: MomentState) -> float:
    """<k_op> on a MomentState, exact through degree 2.

    Symmetrized second moments carry no ordering information, so the
    normal-ordered cross term of a conjugate pair picks up the exact
    correction <u v> = S_uv + i/2 from u v = (uv+vu)/2 + [u,v]/2.  The
    correction is purely imaginary and is dropped with the rest of the
    imaginary part (it cancels for every Hermitian-symmetric input; for
    the benchmark generators all cross terms commute and it is zero).
    """
    total = 0.0
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
            value = float(s.mean[mono.exponents.index(1)])
        else:
            idx = [i for i, e in enumerate(mono.exponents) for _ in range(e)]
            a, b = idx[0], idx[1]
            # same-pair cross term: real part is the symmetrized moment,
            # the +i/2 ordering correction is imaginary and drops here
            value = float(s.second[a, b])
        total += float(coeff.real) * value
    return total


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
    detrended = values - np.polyval(np.polyfit(times, values, 2), times)
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
