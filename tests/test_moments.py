"""Moment flow: generator derivation, spectra, propagation oracles, envelopes.

The quantitative targets here were frozen from independent derivations:
the displaced-oscillator mean, the resonantly driven second moment, and
the conserved generator expectation all have closed forms obtained by
solving the linear system by hand and checked against an ODE integrator
before being written into the assertions.
"""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridlab import (
    DegreeTooHigh,
    IllConditionedWarning,
    InsufficientData,
    MomentState,
    NonlinearDynamics,
    classical_flow_generator,
    classify_spectrum,
    coupled_hamiltonian,
    default_moment_state,
    derive_generator,
    fit_envelope,
    gens,
    hamilton_generator,
    hybrid_koopmanian,
    koopmanize,
    matrix_exponential,
    mode_generator_matrix,
    parse_polynomial,
    propagate_moments,
    propagate_trajectory,
    quadratic_expectation,
    structure_residual,
)

K_COUPLING = Fraction(1, 5)
Q, P, X, Y, PX, PY = gens()


# -- generator derivation ----------------------------------------------------


def test_hybrid_generator_entries():
    G = derive_generator(hybrid_koopmanian(K_COUPLING))
    expected = {
        ("q", "p"): 1.0,
        ("p", "q"): -1.0,
        ("p", "p_y"): 0.2,
        ("x", "y"): 1.0,
        ("y", "x"): -1.0,
        ("y", "q"): -0.2,
        ("p_x", "p_y"): 1.0,
        ("p_y", "p_x"): -1.0,
    }
    for row in G.labels:
        for col in G.labels:
            assert G.entry(row, col) == expected.get((row, col), 0.0), (row, col)
    assert np.all(G.affine == 0.0)


def test_classical_flow_generator_rows():
    G = classical_flow_generator(K_COUPLING)
    expected = {
        ("q", "p"): 1.0,
        ("p", "q"): -1.0,
        ("p", "x"): -0.2,
        ("x", "y"): 1.0,
        ("y", "x"): -1.0,
        ("y", "q"): -0.2,
    }
    for row in G.labels:
        for col in G.labels:
            assert G.entry(row, col) == expected.get((row, col), 0.0), (row, col)


def test_structure_residual():
    G = derive_generator(hybrid_koopmanian(K_COUPLING))
    assert structure_residual(G) == 0.0
    assert structure_residual(derive_generator(hybrid_koopmanian(0))) == 0.0
    # flipping the sign of the p <- p_y feedback breaks the pairing symmetry
    flipped = G.matrix.copy()
    flipped[1, 5] = -flipped[1, 5]
    assert structure_residual(flipped) == pytest.approx(0.4)


def test_nonlinear_dynamics_rejected():
    quartic = koopmanize(X * X * X * X)
    with pytest.raises(NonlinearDynamics):
        derive_generator(quartic)


def test_affine_part_from_linear_hamiltonian_terms():
    h = (X * X + Y * Y) * parse_polynomial("1/2") + X
    G = hamilton_generator(h)
    # dx/dt = y, dy/dt = -x - 1
    assert G.entry("x", "y") == 1.0
    assert G.affine[G.labels.index("y")] == -1.0


# -- propagation oracles -----------------------------------------------------


def _resonant_q2(t, k=0.2):
    return 0.5 + (k * k / 8.0) * (t * t + np.sin(t) ** 2 - t * np.sin(2 * t))


def test_resonant_second_moment_matches_closed_form():
    G = mode_generator_matrix("hybrid", K_COUPLING)
    s0 = default_moment_state()
    q2 = parse_polynomial("q^2")
    for t in (0.0, 1.0, 5.0, 20.0, 100.0):
        value = quadratic_expectation(q2, propagate_moments(G, s0, t))
        assert value == pytest.approx(_resonant_q2(t), rel=1e-10)


def test_quantum_energy_matches_closed_form():
    # (<q^2> + <p^2>)/2 = 1/2 + (k^2/8)(t^2 + sin^2 t): the oscillating
    # cross terms cancel between position and momentum.
    G = mode_generator_matrix("hybrid", K_COUPLING)
    s0 = default_moment_state()
    q2 = parse_polynomial("q^2")
    p2 = parse_polynomial("p^2")
    k = float(K_COUPLING)
    for t in (10.0, 50.0, 100.0):
        s = propagate_moments(G, s0, t)
        hq = 0.5 * (quadratic_expectation(q2, s) + quadratic_expectation(p2, s))
        assert hq == pytest.approx(0.5 + (k * k / 8) * (t * t + np.sin(t) ** 2),
                                   rel=1e-10)


def test_koopmanian_expectation_is_conserved():
    G = mode_generator_matrix("hybrid", K_COUPLING)
    K = hybrid_koopmanian(K_COUPLING)
    s0 = default_moment_state()
    k0 = quadratic_expectation(K, s0)
    assert k0 == pytest.approx(0.5)
    for t in np.linspace(0.0, 100.0, 26):
        drift = abs(quadratic_expectation(K, propagate_moments(G, s0, float(t))) - k0)
        assert drift / abs(k0) < 1e-10


def test_classical_mean_matches_normal_mode_sum():
    # displaced classical-classical start: <q>(t) = (cos w+ t + cos w- t)/2
    G = mode_generator_matrix("classical-classical", K_COUPLING)
    s0 = default_moment_state({"q": 1.0})
    qpoly = parse_polynomial("q")
    wp, wm = np.sqrt(1.2), np.sqrt(0.8)
    for t in (0.0, 3.7, 12.0, 40.0):
        value = quadratic_expectation(qpoly, propagate_moments(G, s0, t))
        assert value == pytest.approx(0.5 * (np.cos(wp * t) + np.cos(wm * t)),
                                      abs=1e-11)


def test_affine_drift_closed_form():
    h = (X * X + Y * Y) * parse_polynomial("1/2") + X
    G = hamilton_generator(h)
    s0 = default_moment_state()
    xpoly = parse_polynomial("x")
    for t in (0.5, np.pi / 2, 4.0):
        value = quadratic_expectation(xpoly, propagate_moments(G, s0, float(t)))
        assert value == pytest.approx(np.cos(t) - 1.0, abs=1e-12)


def test_matrix_exponential_basics():
    G = mode_generator_matrix("hybrid", K_COUPLING)
    assert np.allclose(matrix_exponential(G, 0.0), np.eye(6), atol=1e-15)
    forward = matrix_exponential(G, 2.3)
    backward = matrix_exponential(G, -2.3)
    assert np.max(np.abs(forward @ backward - np.eye(6))) < 1e-12


def test_trajectory_matches_pointwise_propagation():
    G = mode_generator_matrix("hybrid", K_COUPLING)
    s0 = default_moment_state({"q": 0.3})
    times = np.array([0.0, 0.7, 1.9, 6.0])
    states = propagate_trajectory(G, s0, times)
    for t, s in zip(times, states):
        single = propagate_moments(G, s0, float(t))
        assert np.allclose(s.mean, single.mean, atol=1e-13)
        assert np.allclose(s.second, single.second, atol=1e-13)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
def test_propagation_preserves_state_shape(t):
    G = mode_generator_matrix("hybrid", K_COUPLING)
    s = propagate_moments(G, default_moment_state({"q": 1.0}), t)
    assert np.allclose(s.second, s.second.T, atol=1e-9)
    cov = s.covariance()
    assert np.min(np.linalg.eigvalsh((cov + cov.T) / 2)) > -1e-8


# -- spectra -----------------------------------------------------------------


def test_hybrid_spectrum_is_defective():
    with pytest.warns(IllConditionedWarning):
        report = classify_spectrum(mode_generator_matrix("hybrid", K_COUPLING))
    assert len(report.lines) == 2
    for line in report.lines:
        assert abs(abs(line.eigenvalue.imag) - 1.0) < 1e-9
        assert abs(line.eigenvalue.real) < 1e-9
        assert line.algebraic == 3
        assert line.geometric == 1
        assert line.chain == 3
        assert line.defective
    assert report.secular
    assert report.max_chain == 3


def test_uncoupled_spectrum_is_diagonalizable():
    report = classify_spectrum(mode_generator_matrix("hybrid", 0))
    assert sorted(line.eigenvalue.imag for line in report.lines) == [-1.0, 1.0]
    for line in report.lines:
        assert line.algebraic == 3
        assert line.geometric == 3
        assert line.chain == 1
        assert not line.defective
    assert not report.secular


def test_classical_pair_normal_modes():
    report = classify_spectrum(mode_generator_matrix("classical-classical",
                                                     K_COUPLING))
    for target in (np.sqrt(1.2), np.sqrt(0.8)):
        for sign in (1, -1):
            line = report.closest(complex(0.0, sign * target))
            assert abs(line.eigenvalue - complex(0.0, sign * target)) < 1e-12
            assert line.algebraic == 1 and line.geometric == 1
    zero = report.closest(0j)
    assert zero.algebraic == 2 and zero.geometric == 2 and not zero.defective
    assert not report.secular


def test_quantum_pair_spectrum_matches_classical_pair():
    cc = classify_spectrum(mode_generator_matrix("classical-classical", K_COUPLING))
    qq = classify_spectrum(mode_generator_matrix("quantum-quantum", K_COUPLING))
    cc_vals = sorted((l.eigenvalue.imag, l.algebraic) for l in cc.lines)
    qq_vals = sorted((l.eigenvalue.imag, l.algebraic) for l in qq.lines)
    assert len(cc_vals) == len(qq_vals) == 5
    for (vi, ai), (wi, bi) in zip(cc_vals, qq_vals):
        assert abs(vi - wi) < 1e-12 and ai == bi


def test_spectrum_report_serializes():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = classify_spectrum(mode_generator_matrix("hybrid", K_COUPLING))
    data = report.to_dict()
    assert sum(line["algebraic"] for line in data["eigenvalues"]) == 6
    assert data["secular_growth"] is True
    assert data["tolerance"] == pytest.approx(1e-9)


# -- quadratic expectations --------------------------------------------------


def test_quadratic_expectation_on_vacuum():
    s = default_moment_state()
    assert quadratic_expectation(parse_polynomial("q^2"), s) == pytest.approx(0.5)
    assert quadratic_expectation(parse_polynomial("q"), s) == 0.0
    assert quadratic_expectation(parse_polynomial("q*x"), s) == 0.0
    assert quadratic_expectation(parse_polynomial("q*p"), s) == 0.0
    assert quadratic_expectation(parse_polynomial("3"), s) == pytest.approx(3.0)


def test_quadratic_expectation_with_displacement():
    s = default_moment_state({"q": 2.0})
    assert quadratic_expectation(parse_polynomial("q"), s) == pytest.approx(2.0)
    assert quadratic_expectation(parse_polynomial("q^2"), s) == pytest.approx(4.5)


def test_quadratic_expectation_rejects_cubics():
    with pytest.raises(DegreeTooHigh):
        quadratic_expectation(parse_polynomial("q^3"), default_moment_state())


def test_moment_state_validation():
    bad = np.eye(6)
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        MomentState(np.zeros(6), bad)
    # covariance must stay positive semidefinite
    second = np.zeros((6, 6))
    second[0, 0] = -0.5
    with pytest.raises(ValueError):
        MomentState(np.zeros(6), second)


@pytest.mark.parametrize("mean, second", [
    (np.full(6, np.nan), 0.5 * np.eye(6)),
    (np.zeros(6), np.full((6, 6), np.inf)),
])
def test_moment_state_rejects_non_finite(mean, second):
    with pytest.raises(ValueError, match="finite"):
        MomentState(mean, second)


# -- envelope fits -----------------------------------------------------------


def test_envelope_degrees_on_synthetic_series():
    t = np.linspace(0.0, 100.0, 2001)
    assert fit_envelope(t, np.abs(np.sin(t))).degree == 0
    assert fit_envelope(t, np.abs(t * np.sin(t))).degree == 1
    assert fit_envelope(t, np.abs(t * t * np.sin(t))).degree == 2
    # a flat series has no oscillation to take the envelope of
    with pytest.raises(InsufficientData):
        fit_envelope(t, np.full_like(t, 2.5))


def test_envelope_of_resonant_benchmark_is_linear():
    G = mode_generator_matrix("hybrid", K_COUPLING)
    s0 = default_moment_state()
    q2 = parse_polynomial("q^2")
    t = np.linspace(0.0, 100.0, 1001)
    amplitude = np.sqrt(
        [quadratic_expectation(q2, s) for s in propagate_trajectory(G, s0, t)]
    )
    fit = fit_envelope(t, amplitude)
    assert fit.degree == 1
    assert fit.residual < 1e-2


def test_envelope_insufficient_data():
    with pytest.raises(InsufficientData):
        fit_envelope(np.linspace(0, 100, 20), np.ones(20))
    short = np.linspace(0.0, 6.0, 200)
    with pytest.raises(InsufficientData):
        fit_envelope(short, np.abs(np.sin(short)))
