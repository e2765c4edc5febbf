"""Split-step spectral engine: states, plans, evolution, classical oracles."""

import collections
import math
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

from hybridlab import (
    AxisSpec,
    BoxOverflow,
    FiniteDensity,
    GENERATOR_NAMES,
    GridSpec,
    GridState,
    NonSplittableTerm,
    OutOfBox,
    UnknownAxis,
    classical_liouvillian,
    compile_exact,
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
    mode_koopmanian,
    operator_matrix_1d,
    parse_polynomial,
    propagate_moments,
    quadratic_expectation,
    quantum_energy,
    reduced_quantum_density,
    sample_steps,
    save_snapshot,
)
from hybridlab import grid
from hybridlab.grid import _march, _Sampler, _transform_axis
from oracles import characteristics_reference, period_residual


K_COUPLING = Fraction(1, 5)
WIDTH = 1.0 / math.sqrt(2.0)


def _spec3(n=32, L=8.0):
    return GridSpec((AxisSpec("x", L, n), AxisSpec("y", L, n), AxisSpec("q", L, n)))


def _spec2(n=64, L=8.0):
    return GridSpec((AxisSpec("x", L, n), AxisSpec("y", L, n)))


def _spec1(n=64, L=8.0):
    return GridSpec((AxisSpec("q", L, n),))


def _spec_xyq(nx, ny, nq, L=8.0):
    return GridSpec((AxisSpec("x", L, nx), AxisSpec("y", L, ny), AxisSpec("q", L, nq)))


def _qq_spec(n=64, L=8.0):
    return GridSpec((AxisSpec("x", L, n), AxisSpec("q", L, n)))


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


def test_exact_plan_structure():
    n = 16
    plan = compile_exact(hybrid_koopmanian(K_COUPLING), _spec3(n), 0.1)
    assert plan.dt == 0.1
    assert len(plan.groups) == 5
    assert list(plan.sequence) == [0, 1, 2, 3, 4, 3, 2, 1, 0]
    r1, r2 = ("pos", "mom", "pos"), ("mom", "pos", "mom")  # (x, y, q)
    assert [g.rep for g in plan.groups] == [r1] * 3 + [r2] * 2
    # one factor per coupled axis pair: no phase array spans the whole grid,
    # and the R2 chirp leaves (y, q) uncoupled, so it has no factor there
    pairs = [(n, n, 1), (n, 1, n), (1, n, n)]
    assert [g.phase.shape for g in plan.groups] == pairs + pairs[:2]
    assert all(np.any(g.phase != 1) for g in plan.groups)
    qq_spec = GridSpec((AxisSpec("x", 8.0, n), AxisSpec("q", 8.0, n)))
    qq = compile_exact(mode_koopmanian("quantum-quantum", K_COUPLING), qq_spec, 0.1)
    assert [g.rep for g in qq.groups] == [("pos", "pos"), ("mom", "mom")]
    assert list(qq.sequence) == [0, 1, 0]
    assert all(np.any(g.phase != 1) for g in qq.groups)


@pytest.mark.parametrize("text, spec, reason", [
    ("q*p + p^2", _spec1(), "both representations"),
    ("q^2/2", _spec1(), "singular"),  # no kinetic term
    ("q^2/2 + p^2/2 + q^3", _spec1(), "not a real quadratic"),
    ("q^2/2 + p^2/2 + q", _spec1(), "not a real quadratic"),
    ("i*p^2", _spec1(), "not a real quadratic"),
    ("x*p_y + x*y + p_x^2 + p_y^2", _spec2(), "no frame"),
])
def test_exact_plan_rejects(text, spec, reason):
    with pytest.raises(NonSplittableTerm, match=reason):
        compile_exact(parse_polynomial(text), spec, 0.1)


def test_exact_plan_keeps_chirps_within_the_sampling_bound():
    spec = GridSpec((AxisSpec("x", 8.0, 64), AxisSpec("q", 8.0, 64)))
    K = mode_koopmanian("quantum-quantum", K_COUPLING)
    with pytest.raises(NonSplittableTerm, match="> pi"):
        compile_exact(K, spec, 1.0)  # the p chirp steps ~4.1 rad between momenta
    assert compile_exact(K, spec, 0.5).dt == 0.5


@pytest.mark.parametrize("mode, spec, t_final", [
    ("hybrid", _spec3(32), 2.0),
    ("quantum-quantum", GridSpec((AxisSpec("x", 8.0, 64), AxisSpec("q", 8.0, 64))), 10.0),
])
def test_exact_plan_matches_moment_engine(mode, spec, t_final):
    observers = default_observers(mode, K_COUPLING)
    means = {"x": 0.3, "q": -0.2, "y": 0.1} if mode == "hybrid" else {"x": 0.3, "q": -0.2}
    state = gaussian_state(spec, means, WIDTH)
    plan = compile_exact(mode_koopmanian(mode, K_COUPLING), spec, 0.1)
    result = evolve(state, plan, t_final, observers=observers, stride=2)
    G = mode_generator_matrix(mode, K_COUPLING)
    s0 = default_moment_state(means)
    worst = 0.0
    for i, t in enumerate(result.times):
        s = propagate_moments(G, s0, float(t))
        for j, (label, poly) in enumerate(observers):
            worst = max(worst, abs(result.values[i, j] - quadratic_expectation(poly, s)))
    assert worst <= 1e-10
    assert result.norm_drift < 1e-12


def test_strang_converges_to_exact_plan_at_second_order():
    # criterion 7's grid, generator, state and dt, over a shorter run
    spec = _spec3(64)
    K = hybrid_koopmanian(K_COUPLING)
    observers = default_observers("hybrid", K_COUPLING)
    state = gaussian_state(spec, {}, WIDTH)
    exact = evolve(state, compile_exact(K, spec, 0.1), 0.5, observers=observers, stride=1)

    def deviation(dt):
        stride = int(round(0.1 / dt))
        strang = evolve(state, compile_splitting(K, spec, dt), 0.5, observers=observers,
                        stride=stride)
        return float(np.max(np.abs(strang.values - exact.values)))

    ratio = deviation(0.01) / deviation(0.005)
    assert 3.5 <= ratio <= 4.5


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


def _serial_samples(state, plan, t_final, observers, stride=1):
    """Reference: each sample measured inline by one _Sampler.measure call.

    Returns the sample times and one row per sample (squared norm, edge
    masses, observer values, imaginary residuals), as evolve's sampler
    lays them out.
    """
    marks, _ = sample_steps(t_final, plan.dt, stride)
    polys = [poly for _, poly in observers]
    samplers, rows = {}, []
    for work, reps in _march(state.array.copy(), plan, marks):
        if reps not in samplers:
            samplers[reps] = _Sampler(plan.spec, reps, polys, boundary=True)
        rows.append(samplers[reps].measure(work))
    return marks * plan.dt, np.array(rows)


@pytest.mark.parametrize("mode, spec, strang, t_final, stride, exact, slow", [
    # 1 MiB states, above the block budget: one per block, so bit for bit
    ("hybrid", _spec_xyq(64, 32, 32), False, 0.5, 1, True, False),
    # 64 KiB states, 8 per block, double-buffered: 21 samples, not a multiple of 8
    ("quantum-quantum", _qq_spec(), False, 2.0, 1, False, False),
    # a Strang plan, stride 3: step 0 alone (all positions), then 4 states
    # in the representation the stepping leaves
    ("hybrid", _spec3(16), True, 0.1, 3, False, False),
    # a slow sampling thread, so the stepping runs ahead: a buffer must not be
    # refilled before its block is measured (one buffer; two of 32 states)
    ("hybrid", _spec_xyq(64, 32, 32), False, 2.0, 1, True, True),
    ("quantum-quantum", _qq_spec(32), False, 10.0, 1, False, True),
])
def test_pipelined_samples_match_a_serial_reference(mode, spec, strang, t_final, stride, exact,
                                                    slow, monkeypatch):
    K = mode_koopmanian(mode, K_COUPLING)
    plan = compile_splitting(K, spec, 0.01) if strang else compile_exact(K, spec, 0.1)
    means = {"x": 0.3, "q": -0.2}
    state = gaussian_state(spec, {lbl: means.get(lbl, 0.0) for lbl in spec.labels}, WIDTH)
    observers = default_observers(mode, K_COUPLING)
    times, rows = _serial_samples(state, plan, t_final, observers, stride)
    if slow:
        measure_block = grid._Sampler.measure_block

        def delayed(self, block):
            time.sleep(0.005)
            return measure_block(self, block)

        monkeypatch.setattr(grid._Sampler, "measure_block", delayed)
    result = evolve(state, plan, t_final, observers=observers, stride=stride)
    first = 1 + len(spec.axes)
    resid = first + len(observers)
    assert np.array_equal(result.times, times)
    pairs = [
        (result.norms, np.sqrt(rows[:, 0])),
        (result.values, rows[:, first:resid]),
        (result.imag_residuals, np.max(np.abs(rows[:, resid:]), axis=0)),
    ]
    for got, expected in pairs:
        assert got.shape == expected.shape
        if exact:
            assert np.array_equal(got, expected)
        else:
            assert np.max(np.abs(got - expected)) <= 1e-15


@pytest.mark.parametrize("spec, mode, means, widths, overflow_t", [
    # one state per block: the overflow shows in the fourth block
    (_spec_xyq(64, 32, 32, L=4.0), "hybrid", {"q": 1.0}, {"x": 0.5, "y": 0.5, "q": 0.3}, 0.3),
    # 8 states per block: the overflow is the third row of the first block
    (_qq_spec(L=4.0), "quantum-quantum", {"q": 2.0}, {"x": 0.5, "q": 0.3}, 0.2),
])
def test_box_overflow_matches_the_serial_reference(spec, mode, means, widths, overflow_t):
    plan = compile_exact(mode_koopmanian(mode, K_COUPLING), spec, 0.1)
    state = gaussian_state(spec, means, widths)
    times, rows = _serial_samples(state, plan, 1.0, ())
    edges = rows[:, 1:1 + len(spec.axes)]
    first_over = np.flatnonzero(np.any(edges > grid._BOUNDARY_MASS_LIMIT, axis=1))[0]
    assert times[first_over] == pytest.approx(overflow_t)
    threads = threading.active_count()
    with pytest.raises(BoxOverflow, match=f"at t = {times[first_over]:g}$"):
        evolve(state, plan, 1.0)
    assert threading.active_count() == threads


def test_worker_failure_is_raised_and_the_thread_joined(monkeypatch):
    measure_block = grid._Sampler.measure_block
    seen = []

    def failing(self, block):
        seen.append(len(block))
        if len(seen) == 2:
            raise RuntimeError("measuring failed")
        return measure_block(self, block)

    monkeypatch.setattr(grid._Sampler, "measure_block", failing)
    spec = _spec_xyq(64, 32, 32)
    plan = compile_exact(hybrid_koopmanian(K_COUPLING), spec, 0.1)
    state = gaussian_state(spec, {}, WIDTH)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="measuring failed"):
        evolve(state, plan, 1.0, observers=default_observers("hybrid", K_COUPLING))
    assert threading.active_count() == threads
    assert len(seen) == 2  # the failure stopped the run at the next block


def test_concurrent_runs_under_rapid_thread_switching_match_the_reference():
    # four runs at once, each with its own sampling thread: eight threads on
    # however few cores, switching every microsecond
    spec = _qq_spec(32)  # 16 KiB states, 32 to a block: 101 samples make 4 blocks
    plan = compile_exact(mode_koopmanian("quantum-quantum", K_COUPLING), spec, 0.1)
    state = gaussian_state(spec, {"x": 0.3, "q": -0.2}, WIDTH)
    observers = default_observers("quantum-quantum", K_COUPLING)
    _, rows = _serial_samples(state, plan, 10.0, observers)
    first = 1 + len(spec.axes)
    expected = rows[:, first:first + len(observers)]
    worst = []

    def run() -> None:
        for _ in range(3):
            values = evolve(state, plan, 10.0, observers=observers).values
            worst.append(float(np.max(np.abs(values - expected))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runners = [threading.Thread(target=run) for _ in range(4)]
        for runner in runners:
            runner.start()
        for runner in runners:
            runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(runner.is_alive() for runner in runners)
    assert len(worst) == 12 and max(worst) <= 1e-15


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
    # samples are measured on evolve's worker thread, steps on the caller's:
    # FFT calls are tallied per thread
    calls = collections.Counter()
    for name in ("fft", "ifft"):
        original = getattr(np.fft, name)

        def counted(*args, _original=original, **kwargs):
            calls[threading.current_thread()] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    per_block = []  # (states, FFT calls) of each measured block
    measure_block = grid._Sampler.measure_block

    def spy(self, block):
        before = calls[threading.current_thread()]
        rows = measure_block(self, block)
        per_block.append((len(block), calls[threading.current_thread()] - before))
        return rows

    monkeypatch.setattr(grid._Sampler, "measure_block", spy)
    observers = default_observers("hybrid", K_COUPLING)
    main = threading.main_thread()
    # 16^3 (64 KiB) goes 8 states to a block, 64 x 32 x 32 (1 MiB) one state
    for spec, most in ((_spec3(16), 6), (_spec_xyq(64, 32, 32), 1)):
        plan = compile_splitting(hybrid_koopmanian(K_COUPLING), spec, 0.01)
        state = gaussian_state(spec, {}, WIDTH)
        calls.clear()
        evolve(state, plan, 0.06, stride=1, boundary_check=False)
        # a norm-only sample needs no transform: these are the steps' own
        steps = calls[main]
        assert steps > 0 and sum(calls.values()) == steps  # the steps' FFTs are seen
        calls.clear()
        per_block.clear()
        evolve(state, plan, 0.06, observers=observers, stride=1)
        assert calls[main] == steps
        assert sum(calls.values()) - steps == sum(n for _, n in per_block)
        # block 0 holds step 0 alone, in the all-position representation; each
        # later block, of one or several states, starts from the stepping one
        assert per_block[0][0] == 1
        assert max(size for size, _ in per_block[1:]) == most
        assert [n for _, n in per_block[1:]] == [3] * (len(per_block) - 1)


@pytest.mark.parametrize("shape", [(64, 64, 64), (128, 128)])
def test_in_place_transform_matches_out_of_place_bit_for_bit(shape):
    rng = np.random.default_rng(11)
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    psi.flags.writeable = False  # the out-of-place transform must not write to it
    for axis in range(len(shape)):
        for target, transform in (("mom", np.fft.fft), ("pos", np.fft.ifft)):
            expected = transform(psi, axis=axis, norm="ortho")
            work = psi.copy()
            got = _transform_axis(work, axis, target)
            assert got is work  # transformed in the caller's buffer
            assert np.array_equal(got, expected), (axis, target)


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


def test_reduced_density_is_the_one_density_type():
    spec = _spec3()
    state = gaussian_state(spec, {"x": 0.5, "y": 0.0, "q": -0.25}, WIDTH)
    assert type(reduced_quantum_density(state)) is FiniteDensity
    drifted = GridState(spec, state.array * math.sqrt(1.0 + 3e-12))
    assert reduced_quantum_density(drifted).trace() == pytest.approx(1.0, abs=1e-11)
    with pytest.raises(ValueError, match="trace deviation"):
        reduced_quantum_density(GridState(spec, state.array * math.sqrt(1.0 + 1e-9)))


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
