"""Split-step spectral engine: states, plans, evolution, classical oracles."""

import collections
import itertools
import math
import sys
import threading
import time
import tracemalloc
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
    MomentState,
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
from oracles import characteristics_reference, period_residual, sample_rows


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


def test_gaussian_state_is_the_product_of_normalized_axis_gaussians():
    spec = GridSpec((AxisSpec("x", 8.0, 32), AxisSpec("y", 6.0, 16), AxisSpec("q", 8.0, 64)))
    # each factor clears the edge rule: y's puts 2.8e-7 of its mass in its edge cells
    means, widths = {"x": 0.4, "y": -1.0, "q": 0.125}, {"x": WIDTH, "y": 0.8, "q": 1.3}
    state = gaussian_state(spec, means, widths)
    assert abs(state.norm() - 1.0) <= 1e-15
    factors = []
    for ax in spec.axes:
        u, mu, s = ax.positions(), means[ax.label], widths[ax.label]
        g = np.exp(-((u - mu) ** 2) / (4.0 * s**2))
        assert np.sum(g**2) * ax.spacing != pytest.approx(1.0)  # each factor needs normalizing
        factors.append(g / math.sqrt(np.sum(g**2) * ax.spacing))
    product = np.einsum("i,j,k->ijk", *factors)
    np.testing.assert_allclose(state.array, product, rtol=1e-15, atol=0)
    assert state.array.dtype == complex and not state.array.imag.any()


def test_gaussian_state_out_of_box():
    with pytest.raises(OutOfBox):
        gaussian_state(_spec1(), {"q": 5.5}, WIDTH)
    with pytest.raises(OutOfBox):
        gaussian_state(_spec1(), {"q": 0.0}, 2.1)


def _product_state(spec, means, width) -> GridState:
    """gaussian_state's product of normalized axis Gaussians, without its box rule."""
    psi = np.ones(())
    for ax in spec.axes:
        g = np.exp(-((ax.positions() - means.get(ax.label, 0.0)) ** 2) / (4.0 * width**2))
        psi = np.multiply.outer(psi, g / math.sqrt(g @ g * ax.spacing))
    return GridState(spec, psi)


@pytest.mark.parametrize("spec, means", [
    (_qq_spec(16, 4.0), {}),  # x and q over the limit; x is named first
    (_spec3(16, 5.0), {"x": 0.5, "q": 0.3}),  # x over, y and q under
    (_spec3(16, 8.0), {"x": 0.5, "q": 0.3}),  # all under
], ids=["qq-16-L4", "hybrid-16-L5", "hybrid-16-L8"])
def test_gaussian_state_refuses_by_the_samplers_edge_mass(spec, means):
    # the sampler's t = 0 row and gaussian_state's rule agree on every axis
    row = _Sampler(spec, ("pos",) * len(spec.axes), ()).measure(
        _product_state(spec, means, WIDTH).array)
    over = np.flatnonzero(row[1:] > grid._BOUNDARY_MASS_LIMIT)
    if not over.size:
        gaussian_state(spec, means, WIDTH)  # accepted
        return
    label, mass = spec.axes[over[0]].label, row[1 + over[0]]
    with pytest.raises(OutOfBox, match=f"axis '{label}' holds {mass:.3e} probability mass "
                                       f"within 2 cells of the half extent"):
        gaussian_state(spec, means, WIDTH)


def test_gaussian_state_rejects_non_finite():
    for means, widths in (({"q": math.nan}, WIDTH), ({"q": math.inf}, WIDTH),
                          ({"q": 0.0}, math.nan), ({"q": 0.0}, math.inf)):
        with pytest.raises(ValueError):
            gaussian_state(_spec1(), means, widths)


def test_gaussian_state_refuses_a_gaussian_that_vanishes_on_its_grid():
    # width 1e-3 around 0.1 on a spacing of 0.25: every sample underflows to 0
    with pytest.raises(ValueError, match="axis 'q'.*vanishes at every grid point"):
        gaussian_state(_qq_spec(), {"q": 0.1}, 1e-3)


def test_gaussian_state_weighs_positions_past_the_float_range_as_zero():
    # the squares of +-1e300 overflow; the packet sits on the one sample at 0
    state = gaussian_state(GridSpec((AxisSpec("q", 1e300, 8),)), {"q": 0.0}, 1.0)
    assert np.count_nonzero(state.array) == 1 and state.array[4] != 0
    assert state.norm() == pytest.approx(1.0, rel=1e-12)


def test_gaussian_state_sequence_arguments():
    # means map axis labels to numbers; widths do too, or give one number for every axis
    spec = _spec2(32)
    a = gaussian_state(spec, {"x": 0.5, "y": -0.25}, {"x": 0.6, "y": 0.6})
    assert np.array_equal(a.array, gaussian_state(spec, {"x": 0.5, "y": -0.25}, 0.6).array)
    for means, widths in (([0.5, -0.25], [0.6, 0.9]), ({"x": 0.5}, (0.6, 0.9))):
        with pytest.raises(TypeError):
            gaussian_state(spec, means, widths)


def test_density_is_square_magnitude():
    state = gaussian_state(_spec1(32), {"q": 0.0}, WIDTH)
    assert np.allclose(state.density(), np.abs(state.array) ** 2)


def test_grid_state_takes_an_array_or_factors_of_the_grids_shape():
    spec = _spec2(16)
    ones = [np.ones(16), np.ones(16)]
    for array, factors in ((None, None), (np.ones(spec.shape), ones),
                           (np.ones((16, 8)), None), (None, ones[:1]),
                           (None, [np.ones(16), np.ones(8)])):
        with pytest.raises(ValueError):
            GridState(spec, array, factors=factors)
    assert np.array_equal(GridState(spec, factors=ones).array, np.ones(spec.shape))


# -- splitting plans ---------------------------------------------------------


def test_hybrid_splitting_structure():
    spec = _spec3()
    plan = compile_splitting(hybrid_koopmanian(K_COUPLING), spec, 0.01)
    # edge: the position group at dt/2; middle: the other three mirrored
    # around the last, each group one object
    (edge,) = plan.edge
    assert set(edge.rep) <= {"pos", None}
    assert len(plan.middle) == 5
    assert all(plan.middle[i] is plan.middle[-1 - i] for i in range(5))
    assert len({id(g) for g in (*plan.edge, *plan.middle)}) == 4
    assert all(np.any(g.phase != 1) for g in (*plan.edge, *plan.middle))


def test_single_group_splitting_has_no_edge():
    plan = compile_splitting(parse_polynomial("p^2/2"), _spec1(), 0.01)
    assert plan.edge == ()
    (group,) = plan.middle
    assert group.rep == ("mom",)


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
    r1, r2 = ("pos", "mom", "pos"), ("mom", "pos", "mom")  # (x, y, q)
    # edge: the R1 chirp's factors; middle: the R2 chirp's, both at full tau
    assert [g.rep for g in plan.edge] == [r1] * 3
    assert [g.rep for g in plan.middle] == [r2] * 2
    # one factor per coupled axis pair: no phase array spans the whole grid,
    # and the R2 chirp leaves (y, q) uncoupled, so it has no factor there
    pairs = [(True, True, False), (True, False, True), (False, True, True)]
    assert [tuple(d > 1 for d in g.phase.shape[1:]) for g in plan.edge] == pairs
    assert [tuple(d > 1 for d in g.phase.shape[1:]) for g in plan.middle] == pairs[:2]
    assert all(np.any(g.phase != 1) for g in (*plan.edge, *plan.middle))
    qq_spec = GridSpec((AxisSpec("x", 8.0, n), AxisSpec("q", 8.0, n)))
    qq = compile_exact(mode_koopmanian("quantum-quantum", K_COUPLING), qq_spec, 0.1)
    assert [g.rep for g in qq.edge] == [("pos", "pos")]
    assert [g.rep for g in qq.middle] == [("mom", "mom")]
    assert all(np.any(g.phase != 1) for g in (*qq.edge, *qq.middle))


@pytest.mark.parametrize("kind, mode, spec, offsets", [
    ("strang", "hybrid", _spec3(16), 1),  # a middle factor over the whole grid
    ("strang", "quantum-quantum", _qq_spec(), 1),
    ("exact", "hybrid", _spec3(16), 1),
    ("stacked", "quantum-quantum", _qq_spec(), 6),
])
def test_each_factor_is_laid_out_as_evolve_multiplies_by_it(kind, mode, spec, offsets):
    # a row per offset, broadcast over the grid, and a factor along the last
    # axis carries one zero past it: the pad of each state in evolve's ring
    K = mode_koopmanian(mode, K_COUPLING)
    if kind == "strang":
        plan = compile_splitting(K, spec, 0.01)
    else:
        plan = compile_exact(K, spec, 0.1, (default_moment_state({"x": 0.3, "q": -0.2}), 100)
                             if kind == "stacked" else None)
    assert plan.offsets == offsets
    n = spec.shape[-1]
    ring = (offsets, *spec.shape[:-1], n + 1)
    factors = (*plan.edge, *plan.middle)
    for g in factors:
        assert len(g.phase) == offsets and g.phase.ndim == len(ring)
        assert np.broadcast_shapes(g.phase.shape, ring) == ring
        assert g.phase.shape[-1] in (1, n + 1)
        if g.phase.shape[-1] == n + 1:
            assert not np.any(g.phase[..., n:])
            assert np.allclose(np.abs(g.phase[..., :n]), 1.0, rtol=0, atol=1e-14)
    assert any(g.phase.shape[-1] == n + 1 for g in factors)


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


@pytest.mark.parametrize("mode, spec, offsets", [
    ("quantum-quantum", _qq_spec(), 6),
    ("hybrid", _spec3(32), 5),
    ("quantum-quantum", _qq_spec(32), 5),
])
def test_each_offset_of_a_stacked_plan_is_the_plan_at_that_step(mode, spec, offsets,
                                                                 monkeypatch):
    monkeypatch.setattr(grid, "_block_states", lambda spec: 32)  # a block of 32 states
    K = mode_koopmanian(mode, K_COUPLING)
    stacked = compile_exact(K, spec, 0.1, (default_moment_state({"x": 0.3, "q": -0.2}), 0))
    assert stacked.offsets == offsets and stacked.dt == 0.1
    for k in range(1, offsets + 1):
        plan = compile_exact(K, spec, k * 0.1)
        assert plan.offsets == 1
        for got, expected in zip((stacked.edge, stacked.middle), (plan.edge, plan.middle)):
            assert len(got) == len(expected)
            for g, e in zip(got, expected):
                assert g.rep == e.rep and g.phase.shape == (offsets, *e.phase.shape[1:])
                assert np.array_equal(g.phase[k - 1], e.phase[0])


def test_a_stacked_plan_stops_at_the_first_offset_that_fails(monkeypatch):
    # at 64^2 the p chirp passes its sampling bound up to 0.6 and steps 3.23 rad
    # at 0.7; a block of evolve's ring holds 8 states
    spec = _qq_spec()
    K = mode_koopmanian("quantum-quantum", K_COUPLING)
    packet = (default_moment_state({"x": 0.3, "q": -0.2}), 100)
    with pytest.raises(NonSplittableTerm, match=r"tau = 0.7: a chirp's phase steps 3.23 > pi"):
        compile_exact(K, spec, 0.7)
    compile_exact(K, spec, 0.6)
    assert compile_exact(K, spec, 0.1, packet).offsets == 6
    # a first offset that fails raises as an unstacked compile does; one that
    # passes alone makes a plan of one offset
    with pytest.raises(NonSplittableTerm, match="> pi"):
        compile_exact(K, spec, 1.0, packet)
    assert compile_exact(K, spec, 0.35, packet).offsets == 1
    # the stack is no longer than a block holds
    for block in (6, 4):
        monkeypatch.setattr(grid, "_block_states", lambda spec, block=block: block)
        assert compile_exact(K, spec, 0.1, packet).offsets == block


def test_a_stacked_plan_keeps_the_chirped_packet_in_the_box():
    # at 32^2 the run's states reach 6.30 in momentum at 8.49 standard
    # deviations, past the 6.28 box, so no step longer than tau keeps its
    # chirped states in; the first state alone (6.00) stays in up to 0.5.
    # Steps up to 1.1 wrapped the tails: 600 times the deviation
    spec = _qq_spec(32)
    K = mode_koopmanian("quantum-quantum", K_COUPLING)
    state = default_moment_state({"x": 0.3, "q": -0.2})
    assert compile_exact(K, spec, 0.1, (state, 0)).offsets == 5
    assert compile_exact(K, spec, 0.1, (state, 100)).offsets == 1
    # at 64^2 a packet at q = 2.5 comes within 8.49 standard deviations of the
    # edge in position, which a longer step's U chirp moves it along
    assert compile_exact(K, _qq_spec(), 0.1, (default_moment_state({"q": 1.0}), 100)).offsets == 6
    assert compile_exact(K, _qq_spec(), 0.1, (default_moment_state({"q": 2.5}), 100)).offsets == 1


@pytest.mark.parametrize("momentum, offsets", [(1.0, 6), (2.0, 1)])
def test_a_stacked_plan_reads_the_packets_momentum(momentum, offsets):
    # a mean momentum moves the packet along q, which a longer step's U chirp
    # moves it further along: at 64^2 over 1 000 steps <p> = 1 keeps the whole
    # stack of 6 in the box, and <p> = 2 no offset past the first
    state = MomentState.vacuum_like([0.0, momentum, 0.0, 0.0, 0.0, 0.0])
    K = mode_koopmanian("quantum-quantum", K_COUPLING)
    assert compile_exact(K, _qq_spec(), 0.1, (state, 1000)).offsets == offsets


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


def test_sample_steps_tolerance_grows_with_the_step_count():
    # 316886.364 / (12 * 0.003) rounds 1.9e-9 steps off the whole count 8 802 399,
    # past an absolute tolerance of 1e-9; half a step stays refused up to 5e13 steps
    tau = 0.003 * 12
    assert sample_steps(316886.364, tau, 1)[1] == 8_802_399
    for n in (10, 10**7, 10**12):
        with pytest.raises(ValueError, match="whole number"):
            sample_steps((n + 0.5) * tau, tau, 1)


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
    with pytest.raises(TypeError):  # an observer is a (label, polynomial) pair
        evolve(state, plan, 1.0, [parse_polynomial("q^2")])


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


@pytest.mark.parametrize("mode, spec, t_final, stride", [
    ("quantum-quantum", _qq_spec(), 2.1, 2),  # stacked over 6 offsets, a one-step tail
    ("hybrid", _spec3(32), 0.5, 1),
], ids=["qq-64-stacked", "hybrid-32"])
def test_a_run_from_gaussian_states_factors_equals_one_from_its_array(mode, spec, t_final,
                                                                       stride):
    # evolve multiplies the factors straight into its ring: the array's bits
    K = mode_koopmanian(mode, K_COUPLING)
    means = {"x": 0.3, "q": -0.2}
    stacked = mode == "quantum-quantum"
    plan = compile_exact(K, spec, 0.1,
                         (default_moment_state(means), round(t_final / 0.1)) if stacked else None)
    assert plan.offsets == (6 if stacked else 1)
    observers = default_observers(mode, K_COUPLING)
    state = gaussian_state(spec, means, WIDTH)
    factored = evolve(state, plan, t_final, observers=observers, stride=stride)
    copied = evolve(GridState(spec, state.array.copy()), plan, t_final, observers=observers,
                    stride=stride)
    assert np.array_equal(factored.values, copied.values)
    assert np.array_equal(factored.norms, copied.norms)
    assert np.array_equal(factored.final_state.array, copied.final_state.array)


def test_an_array_read_and_changed_in_place_is_evolved_as_changed():
    # once built, the array is the state: a momentum kick of 0.5 on q wins
    # over the factors it was built from
    spec = _qq_spec()
    plan = compile_exact(mode_koopmanian("quantum-quantum", K_COUPLING), spec, 0.1)
    observers = default_observers("quantum-quantum", K_COUPLING)
    state = gaussian_state(spec, {"q": -0.2}, WIDTH)
    kicked = state.array
    kicked *= np.exp(0.5j * spec._axis_values(spec.index("q"), "pos"))
    result = evolve(state, plan, 1.0, observers=observers)
    reference = evolve(GridState(spec, kicked.copy()), plan, 1.0, observers=observers)
    assert np.array_equal(result.values, reference.values)
    assert np.array_equal(result.final_state.array, reference.final_state.array)
    unkicked = evolve(gaussian_state(spec, {"q": -0.2}, WIDTH), plan, 1.0, observers=observers)
    p = result.labels.index("p")
    assert result.values[0, p] == pytest.approx(0.5, abs=1e-12)
    assert unkicked.values[0, p] == pytest.approx(0.0, abs=1e-12)


def _serial_samples(state, plan, t_final, observers, stride=1):
    """Reference: each sample measured inline by one _Sampler.measure call.

    The buffers are padded by one zero past the grid on the last axis, as
    evolve's ring is.  At each stack of marks _march hands over, takes chi
    from the buffer that spare() handed out before the current one (the stack
    before, or the state at mark 0), applies the edge each state still owes
    on a copy, and measures each state on its grid.  Returns the sample times
    and one row per sample (squared norm, edge masses, observer values,
    imaginary residuals), as evolve's sampler lays them out.
    """
    marks, _ = sample_steps(t_final, plan.dt, stride)
    polys = [poly for _, poly in observers]
    samplers, rows = {}, []
    n = state.array.shape[-1]

    def padded(count):
        return np.zeros((count, *state.array.shape[:-1], n + 1), dtype=complex)

    buffers = collections.deque([padded(1)], maxlen=2)
    buffers[0][0, ..., :n] = state.array

    def spare(count):
        buffers.append(padded(count))
        return buffers[-1]

    for reps, owed, count in _march(buffers[0], plan, marks, spare):
        chi = buffers[-2].copy()
        assert len(chi) == count
        for group in owed:
            chi *= group.phase
        if reps not in samplers:
            samplers[reps] = _Sampler(plan.spec, reps, polys)
        rows += [samplers[reps].measure(sample[..., :n]) for sample in chi]
    return marks * plan.dt, np.array(rows)


@pytest.mark.parametrize("mode, spec, strang, t_final, stride, exact, slow", [
    # 1 MiB states, above the block budget: one per block, so bit for bit
    ("hybrid", _spec_xyq(64, 32, 32), False, 0.5, 1, True, False),
    # 64 KiB states, 8 per block of the ring: 21 samples, not a multiple of 8
    ("quantum-quantum", _qq_spec(), False, 2.0, 1, False, False),
    # a Strang plan, stride 3: step 0 alone (all positions), then 4 states
    # in the representation the stepping leaves
    ("hybrid", _spec3(16), True, 0.1, 3, False, False),
    # a slow sampling thread, so the stepping runs ahead: a block must not be
    # stepped in again before its samples are measured (blocks of one large
    # state; two blocks of 32 small states)
    ("hybrid", _spec_xyq(64, 32, 32), False, 2.0, 1, True, True),
    ("quantum-quantum", _qq_spec(32), False, 10.0, 1, False, True),
    # a Strang plan on a 1 MiB state, its steps split: the edge (q alone)
    # leaves x and y in the representation the middle left them in
    ("hybrid", _spec_xyq(64, 32, 32), True, 0.05, 2, True, False),
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


def test_a_large_state_plan_without_an_edge_matches_the_serial_reference():
    # one group, no edge: nothing follows the last mark, so its sample is a copy
    spec = _qq_spec(256)
    plan = compile_splitting(parse_polynomial("p^2/2 + p_x^2/2"), spec, 0.01)
    assert plan.edge == ()
    state = gaussian_state(spec, {"x": 0.3, "q": -0.2}, WIDTH)
    observers = default_observers("quantum-quantum", K_COUPLING)
    times, rows = _serial_samples(state, plan, 0.05, observers, stride=2)
    result = evolve(state, plan, 0.05, observers=observers, stride=2)
    first = 1 + len(spec.axes)
    assert np.array_equal(result.times, times)
    assert np.array_equal(result.norms, np.sqrt(rows[:, 0]))
    assert np.array_equal(result.values, rows[:, first:first + len(observers)])
    free = np.exp(-0.5j * 0.05 * sum(spec._axis_values(i, "mom") ** 2 for i in range(2)))
    expected = np.fft.ifft2(free * np.fft.fft2(state.array, norm="ortho"), norm="ortho")
    assert np.max(np.abs(result.final_state.array - expected)) < 1e-12


def _moment_deviation(result, mode, means, observers):
    G = mode_generator_matrix(mode, K_COUPLING)
    s0 = default_moment_state(means)
    return max(abs(result.values[i, j] - quadratic_expectation(poly, propagate_moments(G, s0, t)))
               for i, t in enumerate(result.times.tolist())
               for j, (_, poly) in enumerate(observers))


@pytest.mark.parametrize("t_final, stride", [
    (10.0, 1),  # 100 samples: 16 stacks of 6 and one of 4
    (2.1, 2),  # two steps a sample: a stack of 6, one of 4, and a one-step tail
])
def test_a_stacked_run_matches_the_one_offset_run_and_the_moment_engine(t_final, stride):
    spec = _qq_spec()
    K = mode_koopmanian("quantum-quantum", K_COUPLING)
    means = {"x": 0.3, "q": -0.2}
    state = gaussian_state(spec, means, WIDTH)
    observers = default_observers("quantum-quantum", K_COUPLING)
    one = evolve(state, compile_exact(K, spec, 0.1), t_final, observers=observers, stride=stride)
    plan = compile_exact(K, spec, 0.1, (default_moment_state(means), round(t_final / 0.1)))
    assert plan.offsets == 6
    stacked = evolve(state, plan, t_final, observers=observers, stride=stride)
    assert np.array_equal(stacked.times, one.times)
    assert np.max(np.abs(stacked.values - one.values)) <= 1e-12
    assert np.max(np.abs(stacked.norms - one.norms)) <= 1e-12
    assert np.max(np.abs(stacked.final_state.array - one.final_state.array)) <= 1e-12
    assert stacked.norm_drift < 1e-12
    # each mark is K times fewer steps from t = 0: no further from the moment engine
    worst = _moment_deviation(stacked, "quantum-quantum", means, observers)
    assert worst <= 1e-3 and worst <= _moment_deviation(one, "quantum-quantum", means, observers)


def test_a_stacked_run_samples_marks_at_two_spacings_where_a_one_offset_run_does(monkeypatch):
    # 21 steps of tau = 0.05 at stride 2: marks 0, 2, ..., 20 and then 21, one step
    # after the one before.  A 64^2 block holds 8 states and all 8 offsets
    # compile: a stack of 8, a partial one of 2, then the one-step tail
    spec = _qq_spec()
    K = mode_koopmanian("quantum-quantum", K_COUPLING)
    means = {"q": 0.3}
    state = gaussian_state(spec, means, WIDTH)
    observers = default_observers("quantum-quantum", K_COUPLING)
    plan = compile_exact(K, spec, 0.05, (default_moment_state(means), 21))
    assert plan.offsets == 8
    stacked = evolve(state, plan, 1.05, observers=observers, stride=2)
    monkeypatch.setattr(grid, "_block_states", lambda spec: 1)
    plan = compile_exact(K, spec, 0.05, (default_moment_state(means), 21))
    assert plan.offsets == 1
    one = evolve(state, plan, 1.05, observers=observers, stride=2)
    assert np.array_equal(stacked.times, 0.05 * np.array([*range(0, 21, 2), 21]))
    assert np.array_equal(stacked.times, one.times)
    assert np.max(np.abs(stacked.values - one.values)) <= 1e-12
    assert np.max(np.abs(stacked.norms - one.norms)) <= 1e-12
    assert np.max(np.abs(stacked.final_state.array - one.final_state.array)) <= 1e-12


def test_a_stacked_run_transforms_each_stack_at_once(monkeypatch):
    # a norm-only sample makes no transform, so every call is a step's: 4 a
    # stack of up to 6 states, the last stack's closing transforms included
    calls = []
    for name in ("fft", "ifft"):
        original = getattr(np.fft, name)

        def counted(a, *args, _original=original, **kwargs):
            calls.append(a.shape)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    spec = _qq_spec()
    K = mode_koopmanian("quantum-quantum", K_COUPLING)
    state = gaussian_state(spec, {"x": 0.3, "q": -0.2}, WIDTH)
    evolve(state, compile_exact(K, spec, 0.1), 10.0)
    assert len(calls) == 4 * 100 and set(calls) == {(1, *spec.shape)}
    calls.clear()
    plan = compile_exact(K, spec, 0.1, (default_moment_state({"x": 0.3, "q": -0.2}), 100))
    evolve(state, plan, 10.0)
    assert len(calls) == 4 * 17
    assert collections.Counter(shape[0] for shape in calls) == {6: 4 * 16, 4: 4}


@pytest.mark.parametrize("spec, t_final, stride, slow, offsets", [
    (_qq_spec(), 10.0, 1, False, 6),
    (_qq_spec(), 2.1, 2, False, 6),
    # a slow sampling thread, so the stepping runs ahead into blocks whose
    # stacks must be measured first
    (_qq_spec(), 10.0, 1, True, 6),
    # 512 KiB states in blocks made to hold 4: a block is one stack of 4
    (_spec3(32), 1.0, 1, True, 4),
])
def test_stacked_samples_match_a_serial_reference(spec, t_final, stride, slow, offsets,
                                                  monkeypatch):
    mode = "hybrid" if len(spec.axes) == 3 else "quantum-quantum"
    means = {} if mode == "hybrid" else {"x": 0.3, "q": -0.2}  # a centred hybrid packet fits
    if mode == "hybrid":
        monkeypatch.setattr(grid, "_block_states", lambda spec: 4)
    packet = (default_moment_state(means), round(t_final / 0.1))
    plan = compile_exact(mode_koopmanian(mode, K_COUPLING), spec, 0.1, packet)
    assert plan.offsets == offsets
    state = gaussian_state(spec, means, WIDTH)
    observers = default_observers(mode, K_COUPLING)
    times, rows = _serial_samples(state, plan, t_final, observers, stride)
    blocks = {}
    measure_block = grid._Sampler.measure_block

    def spy(self, block):
        blocks[id(block.base)] = block.base
        if slow:
            time.sleep(0.005)
        return measure_block(self, block)

    monkeypatch.setattr(grid._Sampler, "measure_block", spy)
    result = evolve(state, plan, t_final, observers=observers, stride=stride)
    first = 1 + len(spec.axes)
    assert np.array_equal(result.times, times)
    assert np.max(np.abs(result.norms - np.sqrt(rows[:, 0]))) <= 1e-15
    assert np.max(np.abs(result.values - rows[:, first:first + len(observers)])) <= 1e-15
    # a ring of three blocks of whole stacks, every pad still zero
    n = spec.shape[-1]
    assert len(blocks) == 3
    assert all(len(block) == offsets and not np.any(block[..., n:]) for block in blocks.values())


def test_a_stacked_run_raises_a_worker_failure_and_joins_its_thread(monkeypatch):
    measure_block = grid._Sampler.measure_block
    seen = []

    def failing(self, block):
        seen.append(len(block))
        if len(seen) == 2:
            raise RuntimeError("measuring failed")
        return measure_block(self, block)

    monkeypatch.setattr(grid._Sampler, "measure_block", failing)
    spec = _qq_spec()
    plan = compile_exact(mode_koopmanian("quantum-quantum", K_COUPLING), spec, 0.1,
                         (default_moment_state(), 100))
    state = gaussian_state(spec, {}, WIDTH)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="measuring failed"):
        evolve(state, plan, 10.0, observers=default_observers("quantum-quantum", K_COUPLING))
    assert threading.active_count() == threads
    assert seen[:2] == [1, 6] and len(seen) <= 3  # the failure stopped the run within the ring


def test_a_stacked_run_overflows_where_the_serial_reference_does():
    # a plan stacked for the first state only: 2 offsets keep its chirps in this
    # box, and the overflow is the first row of the third stack
    spec = _qq_spec(L=6.0)
    # the moments of the state below: widths 0.3 in q and 0.5 in x, the pure state's momenta
    mean = np.array([2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    var = np.array([0.3**2, 0.25 / 0.3**2, 0.5**2, 0.5, 0.25 / 0.5**2, 0.5])
    packet = (MomentState(mean, np.diag(var) + np.outer(mean, mean)), 0)
    plan = compile_exact(mode_koopmanian("quantum-quantum", K_COUPLING), spec, 0.1, packet)
    assert plan.offsets == 2
    state = gaussian_state(spec, {"q": 2.0}, {"x": 0.5, "q": 0.3})
    times, rows = _serial_samples(state, plan, 1.0, ())
    first_over = np.flatnonzero(np.any(rows[:, 1:3] > grid._BOUNDARY_MASS_LIMIT, axis=1))[0]
    assert times[first_over] == pytest.approx(0.5)
    threads = threading.active_count()
    with pytest.raises(BoxOverflow, match=f"at t = {times[first_over]:g}$"):
        evolve(state, plan, 1.0)
    assert threading.active_count() == threads


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


def test_halves_give_the_same_bits_on_either_thread(monkeypatch):
    # a 1 MiB state: each transform and multiply of its steps runs in two
    # halves, the second on the helper thread when that is free
    spec = _spec_xyq(64, 32, 32)
    plan = compile_exact(hybrid_koopmanian(K_COUPLING), spec, 0.1)
    state = gaussian_state(spec, {"x": 0.3, "q": -0.2}, WIDTH)
    observers = default_observers("hybrid", K_COUPLING)
    runs = [evolve(state, plan, 1.0, observers=observers)]
    # a slow sampler keeps the helper busy, so the caller takes its halves back
    measure_block = grid._Sampler.measure_block

    def delayed(self, block):
        time.sleep(0.02)
        return measure_block(self, block)

    monkeypatch.setattr(grid._Sampler, "measure_block", delayed)
    runs.append(evolve(state, plan, 1.0, observers=observers))

    # and a helper that never takes one: the caller runs every half
    def inline(self, fn, axis, *arrays):
        for half in zip(*(grid._halves(a, axis) for a in arrays)):
            fn(*half)

    monkeypatch.setattr(grid._Helper, "split", inline)
    runs.append(evolve(state, plan, 1.0, observers=observers))
    for run in runs[1:]:
        assert np.array_equal(run.values, runs[0].values)
        assert np.array_equal(run.norms, runs[0].norms)
        assert np.array_equal(run.imag_residuals, runs[0].imag_residuals)
        assert np.array_equal(run.final_state.array, runs[0].final_state.array)


def test_a_failing_half_on_the_helper_is_raised_and_the_thread_joined(monkeypatch):
    # norm-only samples make no transform, so every transform on the helper
    # thread is the half of a step's
    for name in ("fft", "ifft"):
        original = getattr(np.fft, name)

        def failing(*args, _original=original, **kwargs):
            if threading.current_thread().name == "hybridlab-sampler":
                raise RuntimeError("half failed")
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, failing)
    spec = _spec_xyq(64, 32, 32)
    plan = compile_exact(hybrid_koopmanian(K_COUPLING), spec, 0.1)
    state = gaussian_state(spec, {}, WIDTH)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="half failed"):
        evolve(state, plan, 10.0)
    assert threading.active_count() == threads


@pytest.mark.parametrize("spec, tail", [(_spec3(32), False), (_spec3(64), False),
                                        (_spec3(64), True)], ids=["32^3", "64^3", "64^3-tail"])
def test_a_large_state_run_holds_two_states(spec, tail):
    # from gaussian_state on: the two one-state blocks of the ring, each sample
    # measured where it was stepped; the state's factors, squared edge
    # factors, sampler weights, marginals and ufunc buffers stay under 1 MiB.
    # No default hybrid observer keeps every axis, so no sample forms |psi|^2:
    # at 64^3 that half state does not fit, nor does a copy of the initial
    # state outside the ring.  With a tail, plan_run's 5 steps of 0.1 at
    # stride 2 step their last interval, off the stride, in the same ring.
    k_op, observers = hybrid_koopmanian(K_COUPLING), default_observers("hybrid", K_COUPLING)
    args, kwargs = (compile_exact(k_op, spec, 0.1), 0.5), {}
    if tail:
        (plan, stride, steps), (last, _, count) = grid.plan_run(
            k_op, spec, 0.1, 5, 2, default_moment_state(), observers)
        args, kwargs = (plan, steps * plan.dt), {"stride": stride, "tail": (last, count)}
    tracemalloc.start()
    try:
        state = gaussian_state(spec, {}, WIDTH)
        evolve(state, *args, observers=observers, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 16 * math.prod(spec.shape) + 2**20


@pytest.mark.parametrize("mode, spec, packet, count", [
    ("hybrid", _spec3(32), False, 1), ("quantum-quantum", _qq_spec(32), True, 3),
], ids=["hybrid-32^3", "quantum-quantum-32^2-stacked"])
def test_a_tail_steps_on_as_a_second_evolve_from_the_final_state(mode, spec, packet, count):
    # five intervals of 0.2 by a plan of one offset, or stacked for the packet;
    # then count steps of 0.05 by the tail plan, sampled once at the end.  The
    # tail's opening edge fuses with the last interval's closing one, so the
    # two runs agree to roundoff
    k_op, observers = mode_koopmanian(mode, K_COUPLING), default_observers(mode, K_COUPLING)
    plan = compile_exact(k_op, spec, 0.2, (default_moment_state(), 5) if packet else None)
    tail = (compile_exact(k_op, spec, 0.05), count)
    state = gaussian_state(spec, {}, WIDTH)
    one = evolve(state, plan, 1.0, observers, tail=tail)
    head = evolve(state, plan, 1.0, observers)
    rest = evolve(head.final_state, tail[0], count * 0.05, observers, stride=count)
    assert (plan.offsets > 1) == packet
    assert np.array_equal(one.times, np.append(head.times, head.times[-1] + count * 0.05))
    for got, first, last in ((one.values, head.values, rest.values),
                             (one.norms, head.norms, rest.norms)):
        assert np.max(np.abs(got - np.concatenate([first, last[1:]]))) <= 1e-13
    assert np.max(np.abs(one.final_state.array - rest.final_state.array)) <= 1e-13


def _random_block(spec, states, seed):
    # states that are no Gaussian: noise under a displaced, boosted envelope,
    # padded by one zero past the grid on the last axis as evolve's ring is
    rng = np.random.default_rng(seed)
    envelope = 1.0
    for i, axis in enumerate(spec.axes):
        shape = [1] * len(spec.axes)
        shape[i] = axis.points
        x = axis.positions()
        envelope = envelope * np.exp(-((x - 0.7) / 2.5) ** 2 + 1.3j * x).reshape(shape)
    noise = rng.normal(size=(2, states, *spec.shape))
    n = spec.shape[-1]
    block = np.zeros((states, *spec.shape[:-1], n + 1), dtype=complex)
    block[..., :n] = envelope * (noise[0] + 1j * noise[1] + 0.5)
    return block


# every marginal the sampler takes, beside one over every axis: x*y*q on the
# hybrid grid; on (x, q) K's q*x keeps both axes, and p*p_x both in momentum
_SAMPLED_BLOCKS = pytest.mark.parametrize("mode, spec, states, extra", [
    ("hybrid", _spec3(32), 2, "x*y*q"),
    ("hybrid", _spec3(64), 1, "x*y*q"),
    ("quantum-quantum", _qq_spec(), 6, "p*p_x"),
], ids=["hybrid-32^3", "hybrid-64^3", "quantum-quantum-64^2"])


def _block_sampler(mode, spec, states, extra):
    polys = [poly for _, poly in default_observers(mode, K_COUPLING)] + [parse_polynomial(extra)]
    sampler = _Sampler(spec, ("pos",) * len(spec.axes), polys, states=states)
    return polys, sampler


@_SAMPLED_BLOCKS
def test_a_sample_block_matches_the_plain_sums_of_its_density(mode, spec, states, extra):
    # marginals contracted from the state's (re, im) pairs, summed from wider
    # ones and from |psi|^2 agree with full-grid sums of np.abs(psi) ** 2,
    # relative to the sum of each entry's absolute terms
    polys, sampler = _block_sampler(mode, spec, states, extra)
    block = _random_block(spec, states, 3601)
    want, scale = sample_rows(spec, block, polys)
    rows = sampler.measure_block(block.copy())
    assert np.all(np.abs(rows - want) <= 1e-13 * scale)
    assert np.all(scale[:, 1 + len(spec.axes):1 + len(spec.axes) + len(polys)] > 0)


@_SAMPLED_BLOCKS
def test_a_sample_block_never_reads_its_pad(mode, spec, states, extra):
    _, sampler = _block_sampler(mode, spec, states, extra)
    zero = _random_block(spec, states, 3602)
    nan = zero.copy()
    nan[..., -1] = np.nan
    rows = sampler.measure_block(zero)
    assert np.all(np.isfinite(rows))
    np.testing.assert_array_equal(sampler.measure_block(nan), rows)


def test_a_sample_batch_allocates_no_density():
    # a sampler writes |psi|^2 into the one buffer it holds, so a
    # batch after the first allocates only ufunc buffers and marginals, well
    # under a quarter of the 2 MiB density of one 64^3 state; x*y*q keeps
    # every axis, so the sample takes |psi|^2
    spec = _spec3(64)
    n = spec.shape[-1]
    polys = [poly for _, poly in default_observers("hybrid", K_COUPLING)]
    polys.append(parse_polynomial("x*y*q"))
    sampler = _Sampler(spec, ("pos",) * 3, polys)
    blocks = [np.zeros((1, *spec.shape[:-1], n + 1), dtype=complex) for _ in range(2)]
    for block in blocks:
        block[0, ..., :n] = gaussian_state(spec, {"x": 0.3}, WIDTH).array
    first = sampler.measure_block(blocks[0])
    tracemalloc.start()
    try:
        second = sampler.measure_block(blocks[1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(second, first)
    assert peak < 512 * 1024


def test_a_sampler_builds_its_weights_without_full_grid_copies():
    # x*y*q's weight row spans the 64^3 grid (2 MiB), as does the |psi|^2
    # buffer it makes the sampler hold: each row is scaled in the array it
    # was computed in, and the buffer comes after the rows are freed, so the
    # peak is what the sampler holds plus small per-axis factors
    spec = _spec3(64)
    polys = [poly for _, poly in default_observers("hybrid", K_COUPLING)]
    polys.append(parse_polynomial("x*y*q"))
    tracemalloc.start()
    try:
        sampler = _Sampler(spec, ("pos",) * 3, polys)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sampler.density.shape == (1, *spec.shape)
    assert held > 2 * 8 * math.prod(spec.shape)
    assert peak - held <= 512 * 1024


def test_a_stacked_run_copies_no_factor_of_its_plan():
    # the compare run's grid on (x, q): 64^2, tau = 0.1 stacked over 6
    # offsets, 1 000 steps, each one sampled.  Its factors come compiled as
    # evolve multiplies by them, a row per offset and padded, so evolve holds
    # its ring, squared edges and openings, and no copy of the plan (3 461 KiB
    # with one)
    spec = _qq_spec()
    K = mode_koopmanian("quantum-quantum", K_COUPLING)
    means = {"x": 0.05, "q": -0.05}
    plan = compile_exact(K, spec, 0.1, (default_moment_state(means), 1000))
    assert plan.offsets == 6
    state = gaussian_state(spec, means, WIDTH)
    observers = default_observers("quantum-quantum", K_COUPLING)
    tracemalloc.start()
    try:
        result = evolve(state, plan, 100.0, observers=observers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.times) == 1001
    assert peak <= 3 * 2**20


@pytest.mark.parametrize("mode, spec, strang, t_final", [
    ("hybrid", _spec_xyq(64, 32, 32), False, 0.5),  # one state a block, steps split
    ("quantum-quantum", _qq_spec(), False, 2.0),  # 8 states a block, 21 samples
    ("hybrid", _spec3(16), True, 0.1),  # Strang: full factors on the last axis
])
def test_every_ring_slot_keeps_a_zero_pad(mode, spec, strang, t_final, monkeypatch):
    # the ring pads each state by one element on the last axis; multiplies run
    # over the pad, by factors padded with zeros, and transforms skip it
    K = mode_koopmanian(mode, K_COUPLING)
    plan = compile_splitting(K, spec, 0.01) if strang else compile_exact(K, spec, 0.1)
    state = gaussian_state(spec, {"x": 0.3, "q": -0.2}, WIDTH)
    blocks = {}
    measure_block = grid._Sampler.measure_block

    def spy(self, block):
        blocks[id(block.base)] = block.base
        return measure_block(self, block)

    monkeypatch.setattr(grid._Sampler, "measure_block", spy)
    result = evolve(state, plan, t_final, observers=default_observers(mode, K_COUPLING))
    n = spec.shape[-1]
    assert len(blocks) == 2
    for block in blocks.values():
        assert block.shape[1:] == spec.shape[:-1] + (n + 1,)
        assert not np.any(block[..., n:])
    final = result.final_state.array
    assert any(np.shares_memory(final, block) for block in blocks.values())
    assert final.shape == spec.shape and not np.any(np.isnan(final))


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


def test_concurrent_split_runs_under_rapid_thread_switching_match_the_reference():
    # four runs at once whose 1 MiB states split every transform and
    # multiply with their helpers: eight threads, switching every microsecond
    spec = _spec_xyq(64, 32, 32)
    plan = compile_exact(hybrid_koopmanian(K_COUPLING), spec, 0.1)
    state = gaussian_state(spec, {"x": 0.3, "q": -0.2}, WIDTH)
    observers = default_observers("hybrid", K_COUPLING)
    _, rows = _serial_samples(state, plan, 1.0, observers)
    first = 1 + len(spec.axes)
    expected = rows[:, first:first + len(observers)]
    same = []

    def run() -> None:
        values = evolve(state, plan, 1.0, observers=observers).values
        same.append(np.array_equal(values, expected))

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
    assert same == [True] * 4


_POSITION_LABEL = {"q": "q", "x": "x", "y": "y", "p": "q", "p_x": "x", "p_y": "y"}


def _full_grid_expectation(state, poly):
    """Reference: every monomial as a weighted sum over the whole grid."""
    spec = state.spec
    value = resid = 0.0
    for mono, coeff in poly.monomials():
        arr = state.array
        weight = np.ones(spec.shape)
        for name, exp in zip(GENERATOR_NAMES, mono):
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
    # samples are measured on evolve's helper thread, which also runs halves
    # of the steps' transforms: FFT calls are tallied per thread, inside and
    # outside measure_block
    # thread -> calls inside and outside measure_block; each key is written by
    # its own thread only
    inside, outside = collections.Counter(), collections.Counter()
    measuring = threading.local()
    for name in ("fft", "ifft"):
        original = getattr(np.fft, name)

        def counted(*args, _original=original, **kwargs):
            calls = inside if getattr(measuring, "on", False) else outside
            calls[threading.current_thread()] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    per_block = []  # (states, FFT calls) of each measured block
    measure_block = grid._Sampler.measure_block

    def spy(self, block):
        before = inside[threading.current_thread()]
        measuring.on = True
        try:
            rows = measure_block(self, block)
        finally:
            measuring.on = False
        per_block.append((len(block), inside[threading.current_thread()] - before))
        return rows

    monkeypatch.setattr(grid._Sampler, "measure_block", spy)
    observers = default_observers("hybrid", K_COUPLING)
    # 16^3 (64 KiB) goes 8 states to a block: step 0 alone, which owes no
    # edge, then the rest of its block and 3 in the next; 64 x 32 x 32 (1 MiB)
    # goes alone and its steps' transforms are split between the threads
    for spec, sizes in ((_spec3(16, L=6.0), [1, 7, 3]), (_spec_xyq(64, 32, 32), [1] * 11)):
        plan = compile_exact(hybrid_koopmanian(K_COUPLING), spec, 0.1)
        state = gaussian_state(spec, {}, WIDTH)
        inside.clear()
        outside.clear()
        per_block.clear()
        evolve(state, plan, 1.0, stride=1)
        # a norm and edge-mass sample makes one transform per batch, y back to
        # position; the calls outside measure_block are the steps' own
        steps = sum(outside.values())
        assert steps > 0 and per_block == [(size, 1) for size in sizes]
        assert sum(inside.values()) == len(sizes)
        inside.clear()
        outside.clear()
        per_block.clear()
        evolve(state, plan, 1.0, observers=observers, stride=1)
        assert sum(outside.values()) == steps
        assert sum(inside.values()) == sum(n for _, n in per_block)
        # every batch, of one or several states, starts from the edge's
        # representation R1
        assert [size for size, _ in per_block] == sizes
        assert [n for _, n in per_block] == [3] * len(per_block)


@pytest.mark.parametrize("shape", [(64, 64, 64), (128, 128)])
def test_in_place_transform_matches_out_of_place_bit_for_bit(shape):
    # on a plain buffer, and on the grid view of a buffer one element longer
    # on the last axis, as evolve's ring holds each state
    rng = np.random.default_rng(11)
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    psi.flags.writeable = False  # the out-of-place transform must not write to it
    n = shape[-1]
    for pad, axis in itertools.product((0, 1), range(len(shape))):
        for target, transform in (("mom", np.fft.fft), ("pos", np.fft.ifft)):
            expected = transform(psi, axis=axis, norm="ortho")
            buffer = np.zeros(shape[:-1] + (n + pad,), dtype=complex)
            work = buffer[..., :n]
            work[...] = psi
            got = _transform_axis(work, axis, target)
            assert got is work  # transformed in the caller's buffer
            assert np.array_equal(got, expected), (pad, axis, target)
            assert not np.any(buffer[..., n:])  # the pad is not written


def test_boundary_overflow_detection():
    spec = _spec1(32, 4.0)
    plan = compile_splitting(quantum_energy(), spec, 0.01)
    state = _product_state(spec, {"q": 1.0}, WIDTH)  # inside, but tail at the wall
    with pytest.raises(OutOfBox, match="axis 'q' holds 3.456e-04"):
        gaussian_state(spec, {"q": 1.0}, WIDTH)  # which is where gaussian_state refuses it
    with pytest.raises(BoxOverflow, match="at t = 0$"):
        evolve(state, plan, 1.0)


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
    evolved = evolve(state, plan, 10.0).final_state.density()
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
    final = evolve(state, plan, t).final_state
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
