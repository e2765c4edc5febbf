"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Each test prints "CRITERION n: PASS/FAIL (...)" and then asserts.  The
quantitative tolerances and runtime budgets are stated inline; oracle
values were derived independently (closed forms solved by hand, checked
against a high-order ODE integrator) before being frozen here.

Criterion 1's regression table once read dp/dt = -q - k*p_y.  That entry
was corrected to -q + k*p_y.  For any polynomial generator K,
-i[p, K] = -dK/dq and -i[y, K] = +dK/dp_y, so the p_y coefficient of
dp/dt and the q coefficient of dy/dt are minus and plus the same mixed
derivative d2K/dq dp_y: they are always opposite.  The table's own y row,
dy/dt = -x - k*q (the classical equation), fixes the coupling at
-k*q*p_y and with it dp/dt = -q + k*p_y.  The companion test directly
below criterion 1 still pins the legacy sign as inconsistent.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from hybridlab import (
    AxisSpec,
    DiagonalDistribution,
    GridSpec,
    OperatorPolynomial,
    classify_spectrum,
    compile_splitting,
    constant,
    coupled_hamiltonian,
    default_moment_state,
    default_observers,
    derive_generator,
    evolve,
    fit_envelope,
    gaussian_state,
    generator,
    gens,
    heisenberg_rhs,
    hybrid_koopmanian,
    hybridize,
    koopmanize,
    mode_generator_matrix,
    nogo_witness,
    parse_polynomial,
    partial_derivative,
    propagate_moments,
    propagate_trajectory,
    purify_diagonal,
    quadratic_expectation,
    quantum_energy,
    structure_residual,
    trace_expectation,
)
from oracles import period_residual

K_COUPLING = Fraction(1, 5)
Q, P, X, Y, PX, PY = gens()
WIDTH = 1.0 / math.sqrt(2.0)


def _conclude(n, ok, detail, elapsed, budget):
    line = f"CRITERION {n}: {'PASS' if ok else 'FAIL'} ({detail}; {elapsed:.2f}s of {budget}s budget)"
    print(line)
    assert ok, line
    assert elapsed < budget, f"criterion {n} exceeded its {budget}s budget: {elapsed:.2f}s"


def test_criterion_1_symbolic_regression():
    t0 = time.perf_counter()
    k = constant(K_COUPLING)
    K = hybridize(coupled_hamiltonian(K_COUPLING))
    stated = {
        "q": P,
        "p": -Q + k * PY,
        "x": Y,
        "y": -X - k * Q,
        "p_x": PY,
        "p_y": -PX,
    }
    mismatches = []
    for name, expected in stated.items():
        got = heisenberg_rhs(generator(name), K)
        if got != expected:
            mismatches.append(f"d{name}/dt: stated {expected}, derived {got}")
    half = constant(Fraction(1, 2))
    if koopmanize((X * X + Y * Y) * half) != Y * PX - X * PY:
        mismatches.append("koopmanize((x^2+y^2)/2) != y*p_x - x*p_y")
    elapsed = time.perf_counter() - t0
    detail = (
        "all six equations and the harmonic koopmanization reproduced exactly"
        if not mismatches
        else "; ".join(mismatches)
    )
    _conclude(1, not mismatches, detail, elapsed, 1.0)


def test_criterion_1_companion_stated_sign_is_inconsistent():
    """The legacy criterion 1 sign cannot coexist with the algebra.

    Criterion 1's table once stated dp/dt = -q - k*p_y; it now states the
    derived -q + k*p_y.  Flipping the p <- p_y coupling to the legacy sign
    while dy/dt keeps -k*q breaks the conjugate-pairing symmetry of the
    flow matrix and makes the evolution stop conserving the very generator
    that produced it, so the legacy entry was internally inconsistent
    rather than a convention choice.  This test keeps that pinned.
    """
    G = mode_generator_matrix("hybrid", K_COUPLING)
    assert structure_residual(G) == 0.0

    flipped = G.matrix.copy()
    row_p = G.labels.index("p")
    col_py = G.labels.index("p_y")
    assert flipped[row_p, col_py] == pytest.approx(0.2)  # derived: +k
    flipped[row_p, col_py] = -flipped[row_p, col_py]  # the legacy table: -k
    assert structure_residual(flipped) == pytest.approx(0.4)

    # under the flipped flow, <K> is no longer a constant of motion
    K = hybrid_koopmanian(K_COUPLING)
    s0 = default_moment_state()
    k0 = quadratic_expectation(K, s0)
    from scipy.linalg import expm

    worst = 0.0
    for t in np.linspace(0.0, 20.0, 21):
        M = expm(flipped * float(t))
        mean = M @ s0.mean
        second = M @ s0.second @ M.T
        drifted = type(s0)(mean, second)
        worst = max(worst, abs(quadratic_expectation(K, drifted) - k0))
    assert worst > 0.1  # conservation fails by a macroscopic margin


def test_criterion_2_hamilton_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260816)
    failures = 0
    for _ in range(50):
        h = OperatorPolynomial()
        for _ in range(rng.integers(1, 5)):
            ex = int(rng.integers(0, 4))
            ey = int(rng.integers(0, 4 - ex))
            num = int(rng.integers(-6, 7))
            den = int(rng.integers(1, 7))
            h = h + OperatorPolynomial({(0, 0, ex, ey, 0, 0): Fraction(num, den)})
        L = koopmanize(h)
        if heisenberg_rhs(X, L) != partial_derivative(h, "y"):
            failures += 1
        elif heisenberg_rhs(Y, L) != -partial_derivative(h, "x"):
            failures += 1
    elapsed = time.perf_counter() - t0
    _conclude(
        2,
        failures == 0,
        f"50 random degree<=3 classical Hamiltonians recovered exactly "
        f"({failures} failures)",
        elapsed,
        5.0,
    )


def test_criterion_3_nogo_certificate():
    t0 = time.perf_counter()
    ok = True
    for k in (Fraction(0), Fraction(1, 5), Fraction(1)):
        witness = nogo_witness(k)
        ok = ok and witness == constant(-1j) * constant(k)
        ok = ok and (witness.is_zero == (k == 0))
    elapsed = time.perf_counter() - t0
    _conclude(3, ok, "witness equals -i*k for k in {0, 0.2, 1}", elapsed, 1.0)


def test_criterion_4_normal_modes():
    t0 = time.perf_counter()
    G = mode_generator_matrix("classical-classical", K_COUPLING)
    report = classify_spectrum(G)
    wp, wm = math.sqrt(1.2), math.sqrt(0.8)
    eig_err = max(
        abs(report.closest(complex(0, s * w)).eigenvalue - complex(0, s * w))
        for w in (wp, wm)
        for s in (1, -1)
    )

    dt = 0.1
    times = np.arange(0.0, 200.0 + dt / 2, dt)
    s0 = default_moment_state({"q": 1.0})
    qpoly = parse_polynomial("q")
    q_of_t = np.array(
        [quadratic_expectation(qpoly, s) for s in propagate_trajectory(G, s0, times)]
    )
    power = np.abs(np.fft.rfft(q_of_t))
    freqs = 2.0 * math.pi * np.fft.rfftfreq(len(times), dt)
    bin_width = freqs[1] - freqs[0]
    peaks = [
        i
        for i in range(1, len(power) - 1)
        if power[i] > power[i - 1] and power[i] >= power[i + 1]
    ]
    peaks.sort(key=lambda i: power[i], reverse=True)
    top = sorted(freqs[i] for i in peaks[:2])
    dft_err = max(abs(top[0] - wm), abs(top[1] - wp))

    elapsed = time.perf_counter() - t0
    ok = eig_err < 1e-12 and dft_err <= bin_width
    _conclude(
        4,
        ok,
        f"eigenvalue error {eig_err:.2e} < 1e-12; DFT peaks within "
        f"{dft_err / bin_width:.2f} bins of sqrt(1.2), sqrt(0.8)",
        elapsed,
        10.0,
    )


def test_criterion_5_secular_growth():
    t0 = time.perf_counter()
    G = mode_generator_matrix("hybrid", K_COUPLING)
    s0 = default_moment_state()
    q2 = parse_polynomial("q^2")
    k = float(K_COUPLING)

    times = np.linspace(0.0, 100.0, 1001)
    states = propagate_trajectory(G, s0, times)
    values = np.array([quadratic_expectation(q2, s) for s in states])
    closed = 0.5 + (k * k / 8.0) * (
        times**2 + np.sin(times) ** 2 - times * np.sin(2 * times)
    )
    rel_err = float(np.max(np.abs(values - closed) / np.abs(closed)))

    fit = fit_envelope(times, np.sqrt(values))

    report = classify_spectrum(G)
    jordan_ok = len(report.lines) == 2 and all(
        line.algebraic == 3 and line.geometric == 1 and abs(line.eigenvalue.real) < 1e-9
        for line in report.lines
    )

    elapsed = time.perf_counter() - t0
    ok = rel_err < 1e-8 and fit.degree == 1 and jordan_ok
    _conclude(
        5,
        ok,
        f"<q^2> matches the resonant closed form to {rel_err:.2e}; "
        f"sqrt(<q^2>) envelope degree {fit.degree}; +-i with algebraic 3, "
        f"geometric 1",
        elapsed,
        10.0,
    )


def test_criterion_6_conservation_contrast():
    t0 = time.perf_counter()
    G = mode_generator_matrix("hybrid", K_COUPLING)
    K = hybrid_koopmanian(K_COUPLING)
    Hq = quantum_energy()
    s0 = default_moment_state()
    k0 = quadratic_expectation(K, s0)
    h0 = quadratic_expectation(Hq, s0)

    times = np.linspace(0.0, 100.0, 201)
    states = propagate_trajectory(G, s0, times)
    k_drift = max(
        abs(quadratic_expectation(K, s) - k0) for s in states
    ) / abs(k0)
    h_final = quadratic_expectation(Hq, states[-1])
    factor = h_final / h0

    elapsed = time.perf_counter() - t0
    ok = k_drift < 1e-10 and factor > 10.0
    _conclude(
        6,
        ok,
        f"<K> relative drift {k_drift:.2e} < 1e-10 while quantum energy "
        f"grows {factor:.1f}x by t = 100",
        elapsed,
        10.0,
    )


def test_criterion_7_grid_moment_cross_validation():
    t0 = time.perf_counter()
    n, L, dt, t_final = 64, 8.0, 0.01, 10.0
    spec = GridSpec(
        (AxisSpec("x", L, n), AxisSpec("y", L, n), AxisSpec("q", L, n))
    )
    observers = default_observers("hybrid", K_COUPLING)
    plan = compile_splitting(hybrid_koopmanian(K_COUPLING), spec, dt)
    state = gaussian_state(spec, {}, WIDTH)
    result = evolve(state, plan, t_final, observers=observers, stride=100)

    G = mode_generator_matrix("hybrid", K_COUPLING)
    s0 = default_moment_state()
    moment_cols = ("q", "p", "x", "y", "q2", "p2", "x2", "y2")
    worst = 0.0
    for i, t in enumerate(result.times):
        s = propagate_moments(G, s0, float(t))
        for label, poly in observers:
            if label not in moment_cols:
                continue
            j = result.labels.index(label)
            worst = max(
                worst, abs(result.values[i, j] - quadratic_expectation(poly, s))
            )

    k_col = result.labels.index("K")
    k_series = result.values[:, k_col]
    k_drift = float(np.max(np.abs(k_series - k_series[0]))) / abs(k_series[0])

    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and result.norm_drift < 1e-10 and k_drift < 1e-3
    _conclude(
        7,
        ok,
        f"max moment deviation {worst:.2e} < 1e-3; norm drift "
        f"{result.norm_drift:.2e} < 1e-10; <K> drift {k_drift:.2e} < 1e-3 "
        f"(N = 64, dt = 0.01, t = 10)",
        elapsed,
        300.0,
    )


def test_criterion_8_integer_spectrum_period():
    t0 = time.perf_counter()
    spec = GridSpec((AxisSpec("x", 8.0, 128), AxisSpec("y", 8.0, 128)))
    coarse = period_residual(spec, 2.0 * math.pi / 512)
    fine = period_residual(spec, 2.0 * math.pi / 1024)
    ratio = coarse / fine
    elapsed = time.perf_counter() - t0
    ok = 3.5 <= ratio <= 4.5 and fine < 1e-4
    _conclude(
        8,
        ok,
        f"one-turn residual ratio {ratio:.2f} in [3.5, 4.5]; finer residual "
        f"{fine:.2e} < 1e-4",
        elapsed,
        60.0,
    )


def test_criterion_9_decoupled_factorization():
    t0 = time.perf_counter()
    n, L, dt, t_final = 64, 8.0, 0.01, 10.0
    spec = GridSpec(
        (AxisSpec("x", L, n), AxisSpec("y", L, n), AxisSpec("q", L, n))
    )
    plan = compile_splitting(hybrid_koopmanian(0), spec, dt)
    state = gaussian_state(spec, {"x": 0.4, "y": 0.0, "q": 0.2}, WIDTH)
    result = evolve(state, plan, t_final, stride=500)
    from hybridlab import reduced_quantum_density

    rho = reduced_quantum_density(result.final_state)
    purity = rho.purity()

    spec1 = GridSpec((AxisSpec("q", L, n),))
    plan1 = compile_splitting(quantum_energy(), spec1, dt)
    alone = evolve(gaussian_state(spec1, {"q": 0.2}, WIDTH), plan1, t_final,
                   stride=500)
    dq = spec1.axes[0].spacing
    diag_err = float(
        np.max(np.abs(rho.diagonal() - alone.final_state.density() * dq))
    )

    elapsed = time.perf_counter() - t0
    ok = purity > 1.0 - 1e-6 and diag_err < 1e-6
    _conclude(
        9,
        ok,
        f"k = 0 purity within {abs(1.0 - purity):.1e} of 1 (needs 1e-6); "
        f"reduced diagonal matches the standalone oscillator to {diag_err:.1e} "
        f"< 1e-6",
        elapsed,
        300.0,
    )


def test_criterion_10_purification_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(314159)
    worst_diag, worst_second, worst_mean = 0.0, 0.0, 0.0
    for _ in range(25):
        d = int(rng.integers(1, 65))
        w = rng.uniform(0.0, 1.0, size=d)
        if rng.uniform() < 0.3 and d > 1:
            w[rng.integers(0, d)] = 0.0  # exercise empty levels
        w = w / np.sum(w)
        psi, rho = purify_diagonal(DiagonalDistribution(w))
        worst_diag = max(worst_diag, float(np.max(np.abs(rho.diagonal() - w))))
        eigs = np.linalg.eigvalsh(rho.matrix)
        if d > 1:
            worst_second = max(worst_second, abs(float(eigs[-2])))
        a = np.diag(rng.uniform(-2.0, 2.0, size=d))
        want = float(np.sum(w * np.diag(a)))
        got = trace_expectation(rho, a).value
        scale = max(1.0, abs(want))
        worst_mean = max(worst_mean, abs(got - want) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst_diag <= 1e-15 and worst_second < 1e-12 and worst_mean <= 1e-14
    _conclude(
        10,
        ok,
        f"diagonal error {worst_diag:.1e} <= 1e-15; second eigenvalue "
        f"{worst_second:.1e} < 1e-12; diagonal-observable means preserved to "
        f"{worst_mean:.1e}",
        elapsed,
        5.0,
    )
