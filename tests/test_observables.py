"""Finite density matrices: validation, purification, expectations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridlab import (
    AxisSpec,
    DiagonalDistribution,
    DimensionMismatch,
    FiniteDensity,
    GridSpec,
    NonHermitianObservable,
    gaussian_state,
    operator_matrix_1d,
    purify_diagonal,
    trace_expectation,
    validate_density,
    variance,
)


def test_purify_point_mass():
    psi, rho = purify_diagonal(DiagonalDistribution(np.array([1.0, 0.0, 0.0])))
    assert np.array_equal(psi, [1, 0, 0])
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    assert np.array_equal(rho.matrix, expected)
    assert rho.purity() == pytest.approx(1.0)


def test_purify_equal_mixture():
    psi, rho = purify_diagonal(DiagonalDistribution(np.array([0.5, 0.5])))
    assert np.allclose(psi, [math.sqrt(0.5)] * 2)
    assert np.allclose(rho.matrix, 0.5 * np.ones((2, 2)))
    # the purified state is pure even though its diagonal is maximally mixed
    assert rho.purity() == pytest.approx(1.0)


def test_purify_off_diagonals_are_geometric_means():
    w = np.array([0.1, 0.2, 0.3, 0.4])
    _, rho = purify_diagonal(DiagonalDistribution(w))
    for m in range(4):
        for n in range(4):
            assert rho.matrix[m, n] == pytest.approx(math.sqrt(w[m] * w[n]))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=64).filter(
        lambda w: sum(w) > 1e-3
    )
)
def test_purification_properties(raw):
    w = np.array(raw) / np.sum(raw)
    psi, rho = purify_diagonal(DiagonalDistribution(w))
    # diagonal reproduced essentially exactly
    assert np.max(np.abs(rho.diagonal() - w)) < 1e-15
    # rank one: all eigenvalues but the top vanish
    eigs = np.linalg.eigvalsh(rho.matrix)
    assert eigs[-1] == pytest.approx(1.0, abs=1e-12)
    if len(eigs) > 1:
        assert abs(eigs[-2]) < 1e-12
    # means of diagonal observables are untouched by purification
    rng = np.random.default_rng(7)
    a = np.diag(rng.uniform(-1, 1, size=len(w)))
    got = trace_expectation(rho, a).value
    want = float(np.sum(w * np.diag(a).real))
    assert got == pytest.approx(want, rel=1e-14, abs=1e-14)


def test_diagonal_distribution_validation():
    with pytest.raises(ValueError):
        DiagonalDistribution(np.array([0.5, -0.1, 0.6]))
    with pytest.raises(ValueError):
        DiagonalDistribution(np.array([0.5, 0.3]))  # does not sum to one
    with pytest.raises(ValueError):
        DiagonalDistribution(np.zeros((2, 2)))


def test_validate_density_reports():
    good = validate_density(np.eye(2) / 2)
    assert good.passed
    assert good.trace_deviation < 1e-15

    lopsided = np.array([[0.5, 0.4], [0.1, 0.5]])
    assert not validate_density(lopsided).passed

    hot = np.eye(2)  # trace 2
    report = validate_density(hot)
    assert not report.passed
    assert report.trace_deviation == pytest.approx(1.0)

    negative = np.diag([1.5, -0.5])
    assert validate_density(negative).min_eigenvalue == pytest.approx(-0.5)
    assert not validate_density(negative).passed

    with pytest.raises(DimensionMismatch):
        validate_density(np.zeros((2, 3)))


def test_finite_density_rejects_invalid():
    with pytest.raises(ValueError):
        FiniteDensity(np.eye(3))  # trace 3
    rho = FiniteDensity(np.diag([0.25, 0.75]))
    assert rho.dim == 2
    assert rho.purity() == pytest.approx(0.25**2 + 0.75**2)
    assert np.allclose(rho.diagonal(), [0.25, 0.75])


def test_one_trace_gate_admits_grid_norm_drift():
    # a long grid run's |tr rho - 1| reaches ~1e-11; the shared gate is 1e-10
    drifted = np.diag([0.25, 0.75 + 3e-12])
    assert validate_density(drifted).passed
    assert FiniteDensity(drifted).trace() == pytest.approx(1.0 + 3e-12, abs=1e-15)
    DiagonalDistribution(np.diag(drifted).copy())
    off = np.diag([0.25, 0.75 + 1e-9])
    assert not validate_density(off).passed
    with pytest.raises(ValueError, match="trace deviation"):
        FiniteDensity(off)
    with pytest.raises(ValueError, match="sum to"):
        DiagonalDistribution(np.diag(off).copy())


def test_trace_expectation_and_variance():
    rho = FiniteDensity(np.diag([0.25, 0.75]))
    a = np.diag([1.0, -1.0])
    e = trace_expectation(rho, a)
    assert e.value == pytest.approx(-0.5)
    assert abs(e.imag_residual) < 1e-15
    assert variance(rho, a) == pytest.approx(1.0 - 0.25)

    # an eigenstate has zero spread
    pure = FiniteDensity(np.diag([1.0, 0.0]))
    assert variance(pure, a) == pytest.approx(0.0, abs=1e-15)


def test_observables_must_be_hermitian():
    rho = FiniteDensity(np.eye(2) / 2)
    with pytest.raises(NonHermitianObservable):
        trace_expectation(rho, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        trace_expectation(rho, np.eye(3))


def test_ground_state_energy_on_grid():
    # the width-1/sqrt(2) Gaussian is the oscillator ground state: energy
    # 1/2 and, because it is an eigenstate, essentially zero energy spread
    ax = AxisSpec("q", 8.0, 64)
    spec = GridSpec((ax,))
    state = gaussian_state(spec, {"q": 0.0}, 1.0 / math.sqrt(2.0))
    psi = state.array * math.sqrt(ax.spacing)  # quadrature -> unit vector
    rho = FiniteDensity(np.outer(psi, psi.conj()))
    h = 0.5 * (operator_matrix_1d(ax, 2, 0) + operator_matrix_1d(ax, 0, 2))
    energy = trace_expectation(rho, h)
    assert energy.value == pytest.approx(0.5, abs=1e-9)
    assert variance(rho, h) == pytest.approx(0.0, abs=1e-9)
