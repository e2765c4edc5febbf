"""Finite-dimensional density-matrix utilities.

Expectations as trace pairings, variances, validation, and the rank-1
purification that promotes a diagonal classical distribution to a state
vector while reproducing every statistic of commuting observables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "DimensionMismatch",
    "NonHermitianObservable",
    "Expectation",
    "FiniteDensity",
    "DiagonalDistribution",
    "DensityReport",
    "purify_diagonal",
    "trace_expectation",
    "variance",
    "validate_density",
]

_HERMITICITY_TOL = 1e-12
# One trace gate for every density here, the grid's reduced ones included.
# A grid state's norm drifts with the step count (|tr rho - 1| was 8.2e-13
# after 1 000 steps and 1.3e-11 after 16 000 on a 32^3 run), and criterion
# 7 accepts norm drift up to 1e-10, so the gate sits there, not at roundoff.
_TRACE_TOL = 1e-10
_PSD_TOL = 1e-10
_OBSERVABLE_HERMITICITY_TOL = 1e-10


class DimensionMismatch(Exception):
    pass


class NonHermitianObservable(Exception):
    pass


class Expectation(NamedTuple):
    """Real expectation value plus the imaginary part that was discarded."""

    value: float
    imag_residual: float


@dataclass(frozen=True)
class DensityReport:
    hermiticity_residual: float
    trace_deviation: float
    min_eigenvalue: float
    passed: bool


def validate_density(rho) -> DensityReport:
    """Check Hermiticity, unit trace, and positivity; never raises."""
    m = np.asarray(rho, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"density matrix must be square, got shape {m.shape}")
    herm = float(np.max(np.abs(m - m.conj().T)))
    trace_dev = float(abs(np.trace(m) - 1.0))
    min_eig = float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2)))
    passed = (
        herm <= _HERMITICITY_TOL
        and trace_dev <= _TRACE_TOL
        and min_eig >= -_PSD_TOL
    )
    return DensityReport(herm, trace_dev, min_eig, passed)


@dataclass(frozen=True)
class FiniteDensity:
    """Validated d x d density matrix; also the grid's reduced density."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        report = validate_density(m)
        if not report.passed:
            raise ValueError(
                "not a density matrix: "
                f"hermiticity residual {report.hermiticity_residual:.2e}, "
                f"trace deviation {report.trace_deviation:.2e}, "
                f"min eigenvalue {report.min_eigenvalue:.2e}"
            )
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal().real.copy()

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


@dataclass(frozen=True)
class DiagonalDistribution:
    """Nonnegative weights summing to one: the measurable content of a
    classical state (off-diagonals carry no commuting-observable statistics)."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-D array")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(float(np.sum(w)) - 1.0) > _TRACE_TOL:
            raise ValueError(f"weights sum to {np.sum(w)!r}, expected 1")
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.weights.size


def purify_diagonal(d: DiagonalDistribution) -> tuple[np.ndarray, FiniteDensity]:
    """Rank-1 state with the given diagonal: psi_m = sqrt(w_m), rho = |psi><psi|.

    Every off-diagonal becomes sqrt(w_m w_n).  Phases are fixed to
    nonnegative reals; any phase choice reproduces the same diagonal, this
    one is deterministic.
    """
    psi = np.sqrt(d.weights).astype(complex)
    rho = np.outer(psi, psi.conj())
    return psi, FiniteDensity(rho)


def _check_observable(rho: FiniteDensity, a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape != (rho.dim, rho.dim):
        raise DimensionMismatch(
            f"observable shape {m.shape} does not match density dimension {rho.dim}"
        )
    herm = float(np.max(np.abs(m - m.conj().T)))
    if herm > _OBSERVABLE_HERMITICITY_TOL:
        raise NonHermitianObservable(f"hermiticity residual {herm:.2e}")
    return m


def trace_expectation(rho: FiniteDensity, a) -> Expectation:
    """<A> = tr(rho A); the imaginary residual is returned, not hidden."""
    m = _check_observable(rho, a)
    value = complex(np.trace(rho.matrix @ m))
    return Expectation(float(value.real), float(value.imag))


def variance(rho: FiniteDensity, a) -> float:
    """tr(rho a^2) - tr(rho a)^2; nonnegative up to roundoff."""
    m = _check_observable(rho, a)
    mean = float(np.trace(rho.matrix @ m).real)
    square = float(np.trace(rho.matrix @ m @ m).real)
    return square - mean * mean
