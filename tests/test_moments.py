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
from scipy.linalg import expm as scipy_expm

from hybridlab import (
    MODES,
    DegreeTooHigh,
    GeneratorMatrix,
    InsufficientData,
    MomentOverflow,
    MomentState,
    NonlinearDynamics,
    classical_flow_generator,
    classify_spectrum,
    coupled_hamiltonian,
    default_moment_state,
    default_observers,
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
from hybridlab.moments import expm

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


def test_exact_matrix_is_derived_from_the_entries():
    G = derive_generator(hybrid_koopmanian(K_COUPLING))
    assert G.exact[1][5] == Fraction(1, 5)  # the algebra's coefficient, not float(0.2)
    with pytest.raises(TypeError):
        GeneratorMatrix(G.matrix, exact=G.exact)
    # float32 entries take their float value exactly
    tenth = GeneratorMatrix(np.eye(6, dtype=np.float32) / np.float32(10))
    assert tenth.exact[0][0] == Fraction(float(np.float32(0.1)))
    (line,) = classify_spectrum(tenth).lines
    assert (line.eigenvalue, line.algebraic, line.geometric) == (float(np.float32(0.1)), 6, 6)
    # int64 entries stay exact integers: the characteristic polynomial reaches 10^36
    big = GeneratorMatrix(np.diag(np.arange(1, 7, dtype=np.int64) * 10**6))
    assert all(type(x.numerator) is int for row in big.exact for x in row)
    assert [line.eigenvalue for line in classify_spectrum(big).lines] == [
        j * 1e6 for j in range(1, 7)]


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_generator_matrix_rejects_non_finite_entries(bad):
    matrix = np.zeros((6, 6))
    matrix[2, 3] = bad
    with pytest.raises(ValueError, match="finite"):
        GeneratorMatrix(matrix)


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


_BATCH_GENERATORS = {
    **{mode: mode_generator_matrix(mode, K_COUPLING) for mode in MODES},
    # dx/dt = y, dy/dt = -x - 1: a non-zero affine part takes the 7x7 path
    "affine": hamilton_generator((X * X + Y * Y) * parse_polynomial("1/2") + X),
}


def _flow_matrix(G):
    """What propagate_moments exponentiates: G, or [[G, c], [0, 0]] with a drift c."""
    if not np.any(G.affine):
        return G.matrix
    aug = np.zeros((7, 7))
    aug[:6, :6], aug[:6, 6] = G.matrix, G.affine
    return aug


@pytest.mark.parametrize("name", sorted(_BATCH_GENERATORS))
def test_batched_propagation_is_bit_identical_to_scalar_calls(name):
    G = _BATCH_GENERATORS[name]
    assert np.any(G.affine) == (name == "affine")
    s0 = default_moment_state({"q": 0.3, "x": -0.2})
    # longer than the CLI's 128-sample block, then on to t = 100
    times = np.concatenate([np.arange(300) * 0.037, np.linspace(11.5, 100.0, 60)])
    observers = [poly for _, poly in default_observers("hybrid", K_COUPLING)]
    observers.append(parse_polynomial("3 + q - 2*x*p_y"))
    A = _flow_matrix(G)
    flows = expm(A * times[:, None, None])
    assert all(np.array_equal(E, expm(A * t)) for E, t in zip(flows, times))
    for E, t in zip(flows, times):
        reference = scipy_expm(A * t)
        assert np.linalg.norm(E - reference) <= 2e-12 * np.linalg.norm(reference), t
    if A.shape == (6, 6):
        assert np.array_equal(matrix_exponential(G, times), flows)
    batch = propagate_moments(G, s0, times)
    assert batch.mean.shape == (360, 6) and batch.second.shape == (360, 6, 6)
    singles = [propagate_moments(G, s0, float(t)) for t in times]
    assert np.array_equal(batch.mean, [s.mean for s in singles])
    assert np.array_equal(batch.second, [s.second for s in singles])
    for poly in observers:
        values = [quadratic_expectation(poly, s) for s in singles]
        assert all(type(v) is float for v in values)
        assert np.array_equal(quadratic_expectation(poly, batch), values)
    assert singles[7].mean.shape == (6,) and singles[7].second.shape == (6, 6)


@pytest.mark.parametrize("name", sorted(_BATCH_GENERATORS))
def test_expm_of_zero_is_exactly_the_identity(name):
    G = _BATCH_GENERATORS[name]
    A = _flow_matrix(G)
    for E in (expm(0.0 * A), expm(A * np.array([0.0, 1.0])[:, None, None])[0]):
        assert np.array_equal(E, np.eye(len(A))) and not np.signbit(E).any()
    # so a moment CSV's t = 0 row is the initial state itself
    s0 = default_moment_state({"q": 0.3, "x": -0.2})
    start = propagate_moments(G, s0, 0.0)
    assert np.array_equal(start.mean, s0.mean) and np.array_equal(start.second, s0.second)


def test_expm_keeps_the_shape_of_an_empty_stack():
    assert expm(np.zeros((0, 6, 6))).shape == (0, 6, 6)
    assert expm(np.zeros((2, 0, 7, 7))).shape == (2, 0, 7, 7)


def test_expm_of_non_finite_or_overflowing_input_is_non_finite():
    stack = np.stack([
        np.eye(3),
        np.full((3, 3), np.inf),
        np.full((3, 3), np.nan),
        np.full((3, 3), 1e300),  # finite, but its exponential overflows
        np.full((3, 3), 1e-300),
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = expm(stack)
    assert np.isfinite(result).all(axis=(-2, -1)).tolist() == [True, False, False, False, True]
    assert np.allclose(result[0], np.diag(np.full(3, np.e)), rtol=1e-15, atol=0)


def test_moment_state_validates_each_time():
    s0 = default_moment_state()
    series = MomentState(np.zeros((3, 6)), np.stack([s0.second] * 3))
    assert series.covariance().shape == (3, 6, 6)
    bad = np.stack([s0.second] * 3)
    bad[2, 0, 0] = -1.0
    with pytest.raises(ValueError, match="negative"):
        MomentState(np.zeros((3, 6)), bad)
    bad[2, 0, 0], bad[1, 0, 1] = 0.5, 1.0
    with pytest.raises(ValueError, match="symmetric"):
        MomentState(np.zeros((3, 6)), bad)
    with pytest.raises(ValueError, match="6-vector"):
        MomentState(np.zeros((3, 6)), s0.second)


def test_moment_state_keeps_an_exactly_symmetric_second_moment_matrix():
    s0 = default_moment_state({"q": 0.3, "x": -1.25})
    second = np.stack([s0.second * 3.0, s0.second])
    state = MomentState(np.zeros((2, 6)), second)
    assert state.second is second  # nothing to symmetrize: no new array
    second = second.copy()
    second[0, 1, 2] += 1e-12  # within the tolerance: symmetrized
    got = MomentState(np.zeros((2, 6)), second).second
    assert np.array_equal(got, np.swapaxes(got, -1, -2))
    assert got[0, 1, 2] == (second[0, 1, 2] + second[0, 2, 1]) / 2


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
    report = classify_spectrum(mode_generator_matrix("hybrid", K_COUPLING))
    assert len(report.lines) == 2
    for line in report.lines:
        assert abs(line.eigenvalue.imag) == 1.0
        assert line.eigenvalue.real == 0.0
        assert line.algebraic == 3
        assert line.geometric == 1
        assert line.chain == 3
        assert line.defective
    assert report.secular
    assert report.max_chain == 3


def test_degenerate_normal_modes_are_not_split():
    # both oscillators at frequency sqrt(0.03): a diagonalizable double pair
    K = parse_polynomial("(p^2 + 0.03*q^2)/2 + (0.1*p_x^2 + 0.3*x^2)/2")
    report = classify_spectrum(derive_generator(K))
    for sign in (1, -1):
        line = report.closest(sign * 0.03 ** 0.5 * 1j)
        assert line.eigenvalue.real == 0.0
        assert abs(line.eigenvalue.imag - sign * 0.03 ** 0.5) < 1e-15
        assert (line.algebraic, line.geometric, line.chain) == (2, 2, 1)
    assert not report.secular


@pytest.mark.parametrize("mode", ["quantum-quantum", "classical-classical"])
@pytest.mark.parametrize("k", ["1e-5", "1e-6", "1e-8", "1e-12", "1e-15"])
def test_nearly_degenerate_normal_modes_are_accurate(mode, k):
    # frequencies sqrt(1 +- k), closer together than float roots of the
    # characteristic polynomial can resolve without exact polishing
    k = Fraction(k)
    report = classify_spectrum(mode_generator_matrix(mode, k))
    assert len(report.lines) == 5
    for sign in (1, -1):
        for shift in (k, -k):
            # sqrt(1 + s) = 1 + s/2 - s^2/8 + s^3/16 - ..., exact to far below 1e-16 here
            want = sign * float(1 + shift / 2 - shift ** 2 / 8 + shift ** 3 / 16)
            line = report.closest(complex(0.0, want))
            assert line.eigenvalue.real == 0.0
            assert abs(line.eigenvalue.imag - want) <= 1e-15
            assert (line.algebraic, line.geometric, line.chain) == (1, 1, 1)
    assert not report.secular


def _conjugated(jordan: np.ndarray) -> GeneratorMatrix:
    """P J P^-1 for a fixed integer P of determinant 1: an integer matrix."""
    P = (np.eye(6) + np.diag([2, 1, 1, 1, 1], -1)) @ (np.eye(6) + np.triu(np.ones((6, 6)), 1))
    return GeneratorMatrix(np.rint(P @ jordan @ np.linalg.inv(P)))


def _blocks(*blocks) -> np.ndarray:
    J, at = np.zeros((6, 6)), 0
    for block in blocks:
        block = np.atleast_2d(block)
        J[at:at + len(block), at:at + len(block)] = block
        at += len(block)
    return J


_ROTATION = np.array([[0, 2], [-2, 0]])  # eigenvalues +-2i
_REAL_JORDAN = np.block([[_ROTATION, np.eye(2)], [np.zeros((2, 2)), _ROTATION]])


@pytest.mark.parametrize("jordan, expected", [
    # nilpotent chain of 3 at 0, a rotation, and a real eigenvalue
    (_blocks([[0, 1, 0], [0, 0, 1], [0, 0, 0]], _ROTATION, 3),
     [(-2j, 1, 1, 1), (0j, 3, 1, 3), (2j, 1, 1, 1), (3, 1, 1, 1)]),
    # +-2i each carrying one chain of 2, plus a two-dimensional kernel
    (_blocks(_REAL_JORDAN, np.zeros((2, 2))), [(-2j, 2, 1, 2), (0j, 2, 2, 1), (2j, 2, 1, 2)]),
    # a hyperbolic pair +-1 and a double rotation
    (_blocks([[0, 1], [1, 0]], _ROTATION, _ROTATION),
     [(-1, 1, 1, 1), (-2j, 2, 2, 1), (2j, 2, 2, 1), (1, 1, 1, 1)]),
])
def test_jordan_structure_survives_similarity(jordan, expected):
    report = classify_spectrum(_conjugated(jordan))
    assert len(report.lines) == len(expected)
    for want, *structure in expected:
        line = report.closest(want)
        assert abs(line.eigenvalue - want) < 1e-12
        assert [line.algebraic, line.geometric, line.chain] == structure


def test_defective_pair_just_off_the_axis_is_not_secular():
    # chains of 2 at 1e-9 +- 2i, which grow exponentially, and at 1
    a = Fraction(1, 10 ** 9)
    J = [[a, 2, 1, 0, 0, 0], [-2, a, 0, 1, 0, 0], [0, 0, a, 2, 0, 0], [0, 0, -2, a, 0, 0],
         [0, 0, 0, 0, 1, 1], [0, 0, 0, 0, 0, 1]]
    report = classify_spectrum(GeneratorMatrix(J))
    for want in (1e-9 + 2j, 1e-9 - 2j, 1):
        line = report.closest(want)
        assert abs(line.eigenvalue - want) < 1e-15
        assert (line.algebraic, line.geometric, line.chain) == (2, 1, 2)
    assert not report.secular


def test_a_real_part_too_small_for_a_float_is_refused():
    # chains of 2 at 1e-400 +- 2i: a float would read them as on the axis
    a = Fraction(1, 10 ** 400)
    J = [[a, 2, 1, 0, 0, 0], [-2, a, 0, 1, 0, 0], [0, 0, a, 2, 0, 0], [0, 0, -2, a, 0, 0],
         [0, 0, 0, 0, 1, 1], [0, 0, 0, 0, 0, 1]]
    with pytest.raises(OverflowError, match="imaginary axis"):
        classify_spectrum(GeneratorMatrix(J))


def test_imaginary_chain_beside_a_real_chain_lies_exactly_on_the_axis():
    # the factor (x^2 + 2)(x - 3) is not even; its even part x^2 + 2 holds the pair
    root2 = np.sqrt(2)
    rotation = np.array([[0, 1], [-2, 0]])  # eigenvalues +-i sqrt(2)
    jordan = _blocks(np.block([[rotation, np.eye(2)], [np.zeros((2, 2)), rotation]]),
                     [[3, 1], [0, 3]])
    report = classify_spectrum(_conjugated(jordan))
    assert len(report.lines) == 3
    for want in (1j * root2, -1j * root2):
        line = report.closest(want)
        assert line.eigenvalue.real == 0.0
        assert abs(line.eigenvalue.imag - want.imag) <= 4e-16
        assert (line.algebraic, line.geometric, line.chain) == (2, 1, 2)
    assert (report.closest(3).eigenvalue, report.closest(3).chain) == (3, 2)
    assert report.secular


def test_mixed_jordan_structure_within_a_factor_is_refused():
    # 1 and 2 are both double roots, but only 1 is defective
    G = _conjugated(_blocks([[1, 1], [0, 1]], np.diag([2, 2]), np.zeros((2, 2))))
    with pytest.raises(ValueError, match="Jordan structure"):
        classify_spectrum(G)


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
    report = classify_spectrum(mode_generator_matrix("hybrid", K_COUPLING))
    data = report.to_dict()
    assert sum(line["algebraic"] for line in data["eigenvalues"]) == 6
    assert data["secular_growth"] is True
    assert "tolerance" not in data


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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid:RuntimeWarning")
def test_propagation_beyond_float_range_raises_moment_overflow():
    G = mode_generator_matrix("classical-classical", Fraction(10**30))
    assert np.isfinite(propagate_moments(G, default_moment_state(), 0.0).mean).all()
    with pytest.raises(MomentOverflow, match="by t = 0.5"):
        propagate_moments(G, default_moment_state(), 0.5)
    with pytest.raises(MomentOverflow, match="by t = 0.5$"):
        propagate_moments(G, default_moment_state(), np.array([0.0, 0.0, 0.5, 0.75]))


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


@pytest.mark.parametrize("series", [lambda t: np.abs(t * np.sin(t)),
                                    lambda t: np.abs(t * t * np.sin(t))],
                         ids=["linear", "quadratic"])
def test_envelope_fit_does_not_depend_on_the_scale_of_the_samples(series):
    # at 2^510 the envelope's sum of squares is past the float range
    t = np.linspace(0.0, 100.0, 2001)
    base, scaled = fit_envelope(t, series(t)), fit_envelope(t, np.ldexp(series(t), 510))
    assert scaled.degree == base.degree and scaled.residual == base.residual
    assert scaled.coefficients == tuple(np.ldexp(base.coefficients, 510))


def test_envelope_insufficient_data():
    with pytest.raises(InsufficientData):
        fit_envelope(np.linspace(0, 100, 20), np.ones(20))
    short = np.linspace(0.0, 6.0, 200)
    with pytest.raises(InsufficientData):
        fit_envelope(short, np.abs(np.sin(short)))
