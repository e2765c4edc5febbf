"""Split-step spectral engine: states, plans, evolution, classical oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from hybridlab import (
    AxisSpec,
    BoxOverflow,
    GENERATOR_NAMES,
    GridSpec,
    GridState,
    NonSplittableTerm,
    OutOfBox,
    UnknownAxis,
    characteristics_reference,
    classical_liouvillian,
    compile_splitting,
    default_moment_state,
    default_observers,
    evolve,
    gaussian_state,
    grid_expectation,
    hybrid_koopmanian,
    load_snapshot,
    marginal_density,
    mode_generator_matrix,
    operator_matrix_1d,
    parse_polynomial,
    period_residual,
    propagate_moments,
    quadratic_expectation,
    quantum_energy,
    reduced_quantum_density,
    save_snapshot,
)

K_COUPLING = Fraction(1, 5)
WIDTH = 1.0 / math.sqrt(2.0)


def _spec3(n=32, L=8.0):
    return GridSpec((AxisSpec("x", L, n), AxisSpec("y", L, n), AxisSpec("q", L, n)))


def _spec2(n=64, L=8.0):
    return GridSpec((AxisSpec("x", L, n), AxisSpec("y", L, n)))


def _spec1(n=64, L=8.0):
    return GridSpec((AxisSpec("q", L, n),))


# -- axes and states ---------------------------------------------------------


def test_axis_validation():
    with pytest.raises(ValueError):
        AxisSpec("z", 8.0, 32)
    with pytest.raises(ValueError):
        AxisSpec("x", 8.0, 24)  # not a power of two
    with pytest.raises(ValueError):
        AxisSpec("x", 8.0, 4)  # too few points
    with pytest.raises(ValueError):
        AxisSpec("x", -1.0, 32)
    for bad in (math.inf, math.nan, 1e308):  # 1e308: finite, but its spacing is not
        with pytest.raises(ValueError):
            AxisSpec("x", bad, 32)
    with pytest.raises(ValueError):
        GridSpec((AxisSpec("x", 8.0, 32), AxisSpec("x", 8.0, 32)))


def test_gaussian_state_moments():
    spec = _spec3()
    state = gaussian_state(spec, {"x": 1.0, "y": -0.5, "q": 0.25}, WIDTH)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)
    for label, mean in (("x", 1.0), ("y", -0.5), ("q", 0.25)):
        got = grid_expectation(state, parse_polynomial(label)).value
        assert got == pytest.approx(mean, abs=1e-10)
        var = (
            grid_expectation(state, parse_polynomial(f"{label}^2")).value - mean * mean
        )
        assert var == pytest.approx(0.5, abs=1e-10)
    # width 1/sqrt(2) makes every conjugate spread 1/2 as well
    assert grid_expectation(state, parse_polynomial("p^2")).value == pytest.approx(
        0.5, abs=1e-10
    )
    assert grid_expectation(state, parse_polynomial("p_x")).value == pytest.approx(
        0.0, abs=1e-12
    )


def test_gaussian_state_out_of_box():
    with pytest.raises(OutOfBox):
        gaussian_state(_spec1(), {"q": 5.5}, WIDTH)
    with pytest.raises(OutOfBox):
        gaussian_state(_spec1(), {"q": 0.0}, 2.1)


def test_gaussian_state_rejects_non_finite():
    for means, widths in (({"q": math.nan}, WIDTH), ({"q": math.inf}, WIDTH),
                          ({"q": 0.0}, math.nan), ({"q": 0.0}, math.inf)):
        with pytest.raises(ValueError):
            gaussian_state(_spec1(), means, widths)


def test_gaussian_state_sequence_arguments():
    spec = _spec2(32)
    a = gaussian_state(spec, {"x": 0.5, "y": -0.25}, {"x": 0.6, "y": 0.9})
    b = gaussian_state(spec, [0.5, -0.25], [0.6, 0.9])
    assert np.array_equal(a.array, b.array)


def test_density_is_square_magnitude():
    state = gaussian_state(_spec1(32), {"q": 0.0}, WIDTH)
    assert np.allclose(state.density(), np.abs(state.array) ** 2)


# -- splitting plans ---------------------------------------------------------


def test_hybrid_splitting_structure():
    spec = _spec3()
    plan = compile_splitting(hybrid_koopmanian(K_COUPLING), spec, 0.01)
    assert len(plan.groups) == 4
    assert list(plan.sequence) == [0, 1, 2, 3, 2, 1, 0]


def test_splitting_rejects_nondiagonalizable_terms():
    with pytest.raises(NonSplittableTerm):
        compile_splitting(parse_polynomial("q*p"), _spec1(), 0.01)


def test_splitting_rejects_complex_coefficients():
    with pytest.raises(NonSplittableTerm):
        compile_splitting(parse_polynomial("i*q^2"), _spec1(), 0.01)


def test_splitting_requires_matching_axes():
    with pytest.raises(UnknownAxis):
        compile_splitting(parse_polynomial("q^2"), _spec2(32), 0.01)


def test_splitting_rejects_zero_dt():
    with pytest.raises(ValueError):
        compile_splitting(quantum_energy(), _spec1(), 0.0)


# -- evolution ---------------------------------------------------------------


def test_evolution_is_reversible():
    spec = _spec3()
    K = hybrid_koopmanian(K_COUPLING)
    state = gaussian_state(spec, {"x": 0.4, "y": 0.0, "q": 0.2}, WIDTH)
    forward = compile_splitting(K, spec, 0.01)
    backward = compile_splitting(K, spec, -0.01)
    mid = evolve(state, forward, 2.0).final_state
    back = evolve(mid, backward, 2.0).final_state
    overlap = abs(np.vdot(state.array, back.array)) * spec.cell_volume
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_evolution_norm_and_sampling():
    spec = _spec3()
    plan = compile_splitting(hybrid_koopmanian(K_COUPLING), spec, 0.01)
    state = gaussian_state(spec, {}, WIDTH)
    result = evolve(state, plan, 1.0, observers=[("q2", parse_polynomial("q^2"))],
                    stride=25)
    assert result.norm_drift < 1e-11
    assert np.allclose(result.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert result.labels == ("q2",)
    assert result.values.shape == (5, 1)
    assert np.max(result.imag_residuals) < 1e-12


def test_evolution_validates_inputs():
    spec = _spec1(32)
    plan = compile_splitting(quantum_energy(), spec, 0.01)
    state = gaussian_state(spec, {}, WIDTH)
    with pytest.raises(ValueError):
        evolve(state, plan, 0.015)  # not a whole number of steps
    with pytest.raises(ValueError):
        evolve(state, plan, 1.0, stride=0)
    with pytest.raises(ValueError):
        evolve(state, plan, -1.0)


def test_grid_matches_moment_engine():
    spec = _spec3()
    observers = default_observers("hybrid", K_COUPLING)
    plan = compile_splitting(hybrid_koopmanian(K_COUPLING), spec, 0.01)
    state = gaussian_state(spec, {}, WIDTH)
    result = evolve(state, plan, 5.0, observers=observers, stride=100)
    G = mode_generator_matrix("hybrid", K_COUPLING)
    s0 = default_moment_state()
    worst = 0.0
    for i, t in enumerate(result.times):
        s = propagate_moments(G, s0, float(t))
        for j, (label, poly) in enumerate(observers):
            worst = max(worst, abs(result.values[i, j] - quadratic_expectation(poly, s)))
    assert worst < 1e-3


def test_fsal_merge_matches_sampling_every_step():
    spec = _spec3()
    observers = default_observers("hybrid", K_COUPLING)
    plan = compile_splitting(hybrid_koopmanian(K_COUPLING), spec, 0.01)
    state = gaussian_state(spec, {"x": 0.4, "y": -0.2, "q": 0.2}, WIDTH)
    every = evolve(state, plan, 0.2, observers=observers, stride=1)
    merged = evolve(state, plan, 0.2, observers=observers, stride=7)
    shared = [0, 7, 14, 20]
    assert np.array_equal(every.times[shared], merged.times)
    assert np.max(np.abs(every.values[shared] - merged.values)) < 1e-12
    assert np.max(np.abs(every.norms[shared] - merged.norms)) < 1e-12
    diff = np.max(np.abs(every.final_state.array - merged.final_state.array))
    assert diff < 1e-12


def test_evolution_and_sampling_leave_the_input_state_alone():
    spec = _spec3()
    plan = compile_splitting(hybrid_koopmanian(K_COUPLING), spec, 0.01)
    state = gaussian_state(spec, {"x": 0.4, "y": 0.0, "q": 0.2}, WIDTH)
    before = state.array.copy()
    result = evolve(state, plan, 0.05, observers=default_observers("hybrid", K_COUPLING),
                    stride=2)
    assert np.array_equal(state.array, before)
    assert not np.shares_memory(result.final_state.array, state.array)
    final = result.final_state.array.copy()
    for label, poly in default_observers("hybrid", K_COUPLING):
        grid_expectation(result.final_state, poly)
    assert np.array_equal(result.final_state.array, final)


_POSITION_LABEL = {"q": "q", "x": "x", "y": "y", "p": "q", "p_x": "x", "p_y": "y"}


def _full_grid_expectation(state, poly):
    """Reference: every monomial as a weighted sum over the whole grid."""
    spec = state.spec
    value = resid = 0.0
    for mono, coeff in poly.monomials():
        arr = state.array
        weight = np.ones(spec.shape)
        for name, exp in zip(GENERATOR_NAMES, mono.exponents):
            if not exp:
                continue
            i = spec.index(_POSITION_LABEL[name])
            axis = spec.axes[i]
            if name == _POSITION_LABEL[name]:
                values = axis.positions()
            else:
                arr = np.fft.fft(arr, axis=i, norm="ortho")
                values = axis.momenta()
            shape = [1] * len(spec.axes)
            shape[i] = axis.points
            weight = weight * values.reshape(shape) ** exp
        base = float(np.sum(weight * np.abs(arr) ** 2)) * spec.cell_volume
        value += float(coeff.real) * base
        resid += float(coeff.imag) * base
    return value, resid


@pytest.mark.parametrize("mode, spec, extra", [
    ("hybrid", _spec3(16), ["q*x*y", "p*x*p_y", "q^2 + i*p_x"]),
    ("quantum-quantum", GridSpec((AxisSpec("x", 8.0, 32), AxisSpec("q", 8.0, 32))),
     ["q*p_x", "x*q^2", "i*x*p"]),
])
def test_marginal_expectations_match_full_grid_quadrature(mode, spec, extra):
    rng = np.random.default_rng(5)
    psi = rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape)
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2)) * spec.cell_volume)
    state = GridState(spec, psi)
    observers = [poly for _, poly in default_observers(mode, K_COUPLING)]
    observers += [parse_polynomial(text) for text in extra]
    for poly in observers:
        value, resid = _full_grid_expectation(state, poly)
        got = grid_expectation(state, poly)
        assert got.value == pytest.approx(value, rel=1e-12)
        assert got.imag_residual == pytest.approx(resid, rel=1e-12)


def test_hybrid_sample_costs_at_most_three_ffts(monkeypatch):
    import scipy.fft

    calls = []
    for name in ("fft", "ifft"):
        original = getattr(scipy.fft, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, counted)
    spec = _spec3(16)
    plan = compile_splitting(hybrid_koopmanian(K_COUPLING), spec, 0.01)
    state = gaussian_state(spec, {}, WIDTH)
    observers = default_observers("hybrid", K_COUPLING)
    evolve(state, plan, 0.03, observers=observers, stride=3)
    sparse = len(calls)
    calls.clear()
    evolve(state, plan, 0.03, observers=observers, stride=1)
    # same steps; stride 1 adds the samples at steps 1 and 2
    assert (len(calls) - sparse) / 2 <= 3


def test_boundary_overflow_detection():
    spec = _spec1(32, 4.0)
    plan = compile_splitting(quantum_energy(), spec, 0.01)
    state = gaussian_state(spec, {"q": 1.0}, WIDTH)  # inside, but tail at the wall
    with pytest.raises(BoxOverflow):
        evolve(state, plan, 1.0)
    quiet = evolve(state, plan, 1.0, boundary_check=False)
    assert quiet.norm_drift < 1e-11


# -- partial traces and factorization ----------------------------------------


def test_marginals_normalize():
    spec = _spec3()
    state = gaussian_state(spec, {"x": 0.5, "y": 0.0, "q": -0.25}, WIDTH)
    dq = spec.axis("q").spacing
    mq = marginal_density(state, ("q",))
    assert mq.shape == (32,)
    assert np.sum(mq) * dq == pytest.approx(1.0, abs=1e-12)
    mxy = marginal_density(state, ("x", "y"))
    dx, dy = spec.axis("x").spacing, spec.axis("y").spacing
    assert mxy.shape == (32, 32)
    assert np.sum(mxy) * dx * dy == pytest.approx(1.0, abs=1e-12)


def test_reduced_density_diagonal_is_marginal():
    spec = _spec3()
    state = gaussian_state(spec, {"x": 0.5, "y": 0.0, "q": -0.25}, WIDTH)
    rho = reduced_quantum_density(state)
    assert rho.trace() == pytest.approx(1.0, abs=1e-10)
    dq = spec.axis("q").spacing
    assert np.allclose(rho.diagonal(), marginal_density(state, ("q",)) * dq,
                       atol=1e-12)


def test_uncoupled_run_stays_product():
    spec = _spec3()
    plan = compile_splitting(hybrid_koopmanian(0), spec, 0.01)
    state = gaussian_state(spec, {"x": 0.4, "y": 0.0, "q": 0.2}, WIDTH)
    result = evolve(state, plan, 5.0, stride=500)
    rho = reduced_quantum_density(result.final_state)
    assert rho.purity() > 1.0 - 1e-9

    spec1 = _spec1(32, 8.0)
    plan1 = compile_splitting(quantum_energy(), spec1, 0.01)
    alone = evolve(gaussian_state(spec1, {"q": 0.2}, WIDTH), plan1, 5.0, stride=500)
    dq = spec1.axis("q").spacing
    assert np.max(np.abs(rho.diagonal() - alone.final_state.density() * dq)) < 1e-6


def test_coupled_run_entangles():
    spec = _spec3()
    plan = compile_splitting(hybrid_koopmanian(K_COUPLING), spec, 0.01)
    state = gaussian_state(spec, {}, WIDTH)
    result = evolve(state, plan, 5.0, stride=500)
    purity = reduced_quantum_density(result.final_state).purity()
    assert 0.6 < purity < 0.9  # measured 0.796: genuine decoherence, not noise


# -- classical oracles -------------------------------------------------------


def test_characteristics_match_spectral_evolution():
    spec = _spec2(128)
    state = gaussian_state(spec, {"x": 1.2, "y": 0.0}, {"x": 0.6, "y": 0.9})
    f0 = state.density()
    plan = compile_splitting(classical_liouvillian(), spec, 0.01)
    evolved = evolve(state, plan, 10.0, boundary_check=False).final_state.density()
    reference = characteristics_reference(
        f0, spec, parse_polynomial("(x^2+y^2)/2"), 10.0
    )
    l1 = float(np.sum(np.abs(evolved - reference))) * spec.cell_volume
    assert l1 < 2e-3


def test_quarter_turn_rotates_clockwise():
    spec = _spec2(64)
    state = gaussian_state(spec, {"x": 1.2, "y": 0.0}, {"x": 0.6, "y": 0.9})
    t = math.pi / 2
    plan = compile_splitting(classical_liouvillian(), spec, t / 158)
    final = evolve(state, plan, t, boundary_check=False).final_state
    assert grid_expectation(final, parse_polynomial("x")).value == pytest.approx(
        0.0, abs=1e-4
    )
    assert grid_expectation(final, parse_polynomial("y")).value == pytest.approx(
        -1.2, abs=1e-4
    )


def test_period_residual_small_at_modest_resolution():
    spec = _spec2(64)
    assert period_residual(spec, 2 * math.pi / 512) < 1e-4


def test_characteristics_requires_classical_plane():
    with pytest.raises(UnknownAxis):
        characteristics_reference(
            np.zeros(64), _spec1(), parse_polynomial("(x^2+y^2)/2"), 1.0
        )


# -- 1-D operator matrices ---------------------------------------------------


def test_operator_matrix_position_power():
    ax = AxisSpec("q", 8.0, 64)
    m = operator_matrix_1d(ax, 2, 0)
    u = ax.positions()
    assert np.allclose(np.diag(m), u * u)
    assert np.allclose(m, np.diag(np.diag(m)))


def test_operator_matrix_expectations_match_quadrature():
    ax = AxisSpec("q", 8.0, 64)
    spec = GridSpec((ax,))
    state = gaussian_state(spec, {"q": 0.5}, WIDTH)
    psi = state.array
    dx = ax.spacing
    for pos_exp, mom_exp, poly in (
        (2, 0, "q^2"),
        (0, 2, "p^2"),
        (1, 0, "q"),
    ):
        m = operator_matrix_1d(ax, pos_exp, mom_exp)
        via_matrix = float(np.real(np.vdot(psi, m @ psi) * dx))
        via_grid = grid_expectation(state, parse_polynomial(poly)).value
        assert via_matrix == pytest.approx(via_grid, abs=1e-10)


# -- snapshots ---------------------------------------------------------------


def test_snapshot_round_trip(tmp_path):
    spec = _spec2(32)
    state = gaussian_state(spec, {"x": 0.3, "y": -0.1}, {"x": 0.6, "y": 0.9})
    data = state.density()
    path = tmp_path / "density.bin"
    save_snapshot(path, ["x", "y"], [32, 32], [8.0, 8.0], data)
    labels, points, half_extents, loaded = load_snapshot(path)
    assert labels == ["x", "y"]
    assert points == [32, 32]
    assert half_extents == [8.0, 8.0]
    assert np.array_equal(loaded, data)


def test_snapshot_write_is_atomic(tmp_path, monkeypatch):
    def interrupted(src, dst):
        raise OSError("interrupted before the rename")

    monkeypatch.setattr("hybridlab.reporting.os.replace", interrupted)
    path = tmp_path / "density.bin"
    with pytest.raises(OSError, match="interrupted"):
        save_snapshot(path, ["x"], [8], [4.0], np.ones(8))
    assert list(tmp_path.iterdir()) == []  # no partial file, no temp file


def test_snapshot_rejects_other_files(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a snapshot")
    with pytest.raises(ValueError):
        load_snapshot(path)
