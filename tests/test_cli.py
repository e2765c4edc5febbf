"""Command-line contract: output text, files, config merging, exit codes."""

import ast
import importlib
import itertools
import json
import math
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hybridlab import (
    AxisSpec,
    GridSpec,
    MomentOverflow,
    benchmark,
    cli,
    compile_exact,
    default_moment_state,
    evolve,
    fit_envelope,
    gaussian_state,
    grid,
    mode_generator_matrix,
    moments,
    parse_polynomial,
    propagate_moments,
    quadratic_expectation,
    read_csv,
)
from hybridlab.cli import main
from hybridlab.grid import sample_steps


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- derive ------------------------------------------------------------------


def test_derive_default_benchmark(capsys):
    code, out, _ = run(capsys, "derive", "--mode", "hybrid", "--k", "0.2")
    assert code == 0
    assert "dq/dt = p" in out
    assert "dp/dt = -q + 0.2*p_y" in out
    assert "dx/dt = y" in out
    assert "dy/dt = -0.2*q - x" in out
    assert "dp_x/dt = p_y" in out
    assert "dp_y/dt = -p_x" in out


def test_derive_explicit_koopmanian(capsys):
    code, out, _ = run(
        capsys, "derive", "--koopmanian",
        "(q^2+p^2)/2 + y*p_x - x*p_y - k*q*p_y", "--k", "0.2",
    )
    assert code == 0
    assert "dp/dt = -q + 0.2*p_y" in out


def test_derive_hamiltonian_is_hybridized(capsys):
    code, out, _ = run(
        capsys, "derive", "--hamiltonian",
        "(q^2+p^2)/2 + (x^2+y^2)/2 + k*q*x", "--k", "0.2",
    )
    assert code == 0
    assert "dy/dt = -0.2*q - x" in out


def test_derive_rejects_both_expressions(capsys):
    code, _, err = run(capsys, "derive", "--koopmanian", "q", "--hamiltonian", "q")
    assert code == 2
    assert "not both" in err


def test_derive_parse_error_is_config_error(capsys):
    code, _, err = run(capsys, "derive", "--koopmanian", "q +")
    assert code == 2
    assert "column 4" in err


@pytest.mark.parametrize("hamiltonian, column, message", [
    ("q^2.5", 3, "exponent must be an integer"),
    ("q^(2.5)", 4, "exponent must be an integer"),
    ("q^(2", 5, "expected ')' after exponent"),
])
def test_a_malformed_exponent_exits_2_at_its_column(capsys, hamiltonian, column, message):
    code, out, err = run(capsys, "derive", "--hamiltonian", hamiltonian)
    assert (code, out) == (2, "")
    assert err == f"configuration error: line 1, column {column}: {message}\n"


# -- nogo --------------------------------------------------------------------


def test_nogo_uncoupled(capsys):
    code, out, _ = run(capsys, "nogo", "--k", "0")
    assert code == 0
    assert "witness = 0: OK" in out


def test_nogo_coupled(capsys):
    code, out, _ = run(capsys, "nogo", "--k", "0.2")
    assert code == 0
    assert "witness = -0.2*i: FAIL" in out
    assert "no Koopmanian yields both target commutators" in out


@pytest.mark.parametrize("argv", [
    ["nogo", "--k", "1e4300"], ["nogo", "--k", "1e-5000"],
    ["derive", "--mode", "hybrid", "--k", "1e5000"],
    ["derive", "--hamiltonian", "a*a*q^2 + p^2", "--param", "a=1e2200"],  # a^2: 4 401 digits
])
def test_an_exact_result_past_the_digit_limit_is_a_config_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert "digits" in err


# -- spectrum ----------------------------------------------------------------


def test_spectrum_hybrid(capsys, tmp_path):
    json_path = tmp_path / "spec.json"
    code, out, _ = run(
        capsys, "spectrum", "--mode", "hybrid", "--k", "0.2", "--json", str(json_path)
    )
    assert code == 0
    assert "algebraic 3, geometric 1, Jordan chain 3" in out
    assert "secular growth: yes" in out
    data = json.loads(json_path.read_text())
    assert data["secular_growth"] is True


def test_spectrum_of_explicit_expression(capsys):
    code, out, _ = run(capsys, "spectrum", "--koopmanian", "y*p_x - x*p_y")
    assert code == 0
    assert "secular growth: no" in out


@pytest.mark.parametrize("k", ["1e-12", "1e20", "1e150", "1e200"])
def test_spectrum_hybrid_at_any_coupling_is_defective(capsys, k):
    code, out, _ = run(capsys, "spectrum", "--mode", "hybrid", "--k", k)
    assert code == 0
    assert out.splitlines() == [
        "eigenvalue +0-1i: algebraic 3, geometric 1, Jordan chain 3",
        "eigenvalue +0+1i: algebraic 3, geometric 1, Jordan chain 3",
        "secular growth: yes",
    ]


@pytest.mark.parametrize("mode", ["quantum-quantum", "classical-classical"])
def test_spectrum_at_huge_coupling_is_finite(capsys, mode):
    # normal-mode frequencies sqrt(1 +- k): coefficients near k^2 overflow floats
    code, out, _ = run(capsys, "spectrum", "--mode", mode, "--k", "1e200")
    assert code == 0
    values = [complex(v.replace("i", "j")) for v in re.findall(r"eigenvalue (\S+):", out)]
    assert len(values) == 5
    for want in (-1e100, 1e100, -1e100j, 1e100j, 0):
        assert min(abs(v - want) for v in values) <= 1e-12 * abs(want)
    assert "secular growth: no" in out


def test_spectrum_quantum_pair_keeps_simple_lines(capsys):
    code, out, _ = run(capsys, "spectrum", "--mode", "quantum-quantum", "--k", "0.2")
    assert code == 0
    assert "geometric 0" not in out
    assert out.count("algebraic 1, geometric 1, Jordan chain 1") == 4
    assert "eigenvalue +0+0i: algebraic 2, geometric 2, Jordan chain 1" in out
    assert "secular growth: no" in out


def test_spectrum_beyond_float_range_exits_2(capsys):
    # a real pair +-sqrt(2)*a past the float range
    code, _, err = run(capsys, "spectrum", "--koopmanian", "a*q*p + a*p^2/2 - a*q^2/2",
                       "--param", "a=1.5e308")
    assert code == 2
    assert "configuration error: eigenvalues too large, too far apart, or too close" in err


_TWO_SCALES = "a*(q^2 + p^2)/2 + (x^2 + p_x^2)/2"  # frequencies a and 1


@pytest.mark.parametrize("a", ["1e-300", "1e-200", "1e200", "1e250", "1e300"])
def test_spectrum_spans_two_far_apart_scales(capsys, a):
    code, out, _ = run(capsys, "spectrum", "--koopmanian", _TWO_SCALES, "--param", f"a={a}")
    assert code == 0
    assert f"eigenvalue +0+{a}i: algebraic 1, geometric 1" in out.replace("e+", "e")
    assert "eigenvalue +0+1i: algebraic 1, geometric 1" in out


def test_spectrum_and_moment_run_leave_stderr_empty(capfd, tmp_path):
    assert main(["spectrum", "--mode", "hybrid"]) == 0
    assert main(["simulate", "--engine", "moments", "--t-final", "1",
                 "--out", str(tmp_path / "m")]) == 0
    assert capfd.readouterr().err == ""


# -- simulate ----------------------------------------------------------------


def test_simulate_moments_report_is_recomputable(capsys, tmp_path):
    out_dir = tmp_path / "run"
    code, out, _ = run(
        capsys, "simulate", "--mode", "hybrid", "--k", "0.2", "--engine", "moments",
        "--t-final", "70", "--dt", "0.01", "--stride", "10", "--out", str(out_dir),
    )
    assert code == 0
    report = json.loads((out_dir / "report-moments.json").read_text())
    header, columns = read_csv(out_dir / "moments.csv")
    assert header[0] == "t"

    k0 = columns["K"][0]
    drift = float(np.max(np.abs(columns["K"] - k0))) / abs(k0)
    assert drift == report["koopmanian_drift"]  # bit-for-bit recomputation

    fit = fit_envelope(columns["t"], np.sqrt(np.maximum(columns["q2"], 0.0)))
    assert report["envelope"]["degree"] == fit.degree == 1
    assert report["envelope"]["relative_residual"] == fit.residual
    assert (out_dir / "spectrum.json").exists()
    assert report["spectrum_path"].endswith("spectrum.json")


def test_simulate_grid_engine(capsys, tmp_path):
    out_dir = tmp_path / "grid-run"
    code, out, _ = run(
        capsys, "simulate", "--mode", "hybrid", "--k", "0.2", "--engine", "grid",
        "--grid-n", "32", "--grid-l", "8", "--t-final", "0.5", "--dt", "0.01",
        "--stride", "10", "--out", str(out_dir), "--snapshot",
    )
    assert code == 0
    header, columns = read_csv(out_dir / "grid.csv")
    assert header[:2] == ["t", "norm"]
    report = json.loads((out_dir / "report-grid.json").read_text())
    drift = float(np.max(np.abs(columns["norm"] - columns["norm"][0])))
    assert drift == report["norm_drift"]
    snapshots = {}
    for keep in ("x", "y", "q", "xy"):
        labels, points, half_extents, data = grid.load_snapshot(out_dir / f"marginal-{keep}.bin")
        assert labels == list(keep)
        assert points == [32] * len(keep) and half_extents == [8.0] * len(keep)
        assert data.shape == (32,) * len(keep)
        snapshots[keep] = data
    dy = 2 * 8.0 / 32
    assert np.max(np.abs(snapshots["xy"].sum(axis=1) * dy - snapshots["x"])) <= 1e-12


def test_a_false_snapshot_writes_no_marginal(capsys, tmp_path):
    out_dir = tmp_path / "run"
    code, _, _ = run(capsys, "simulate", "--engine", "grid", "--t-final", "0.1",
                     "--snapshot", "false", "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "grid.csv").exists()
    assert not list(out_dir.glob("marginal-*.bin"))


def test_snapshots_of_the_strided_final_state_match_a_contiguous_copy(capsys, tmp_path,
                                                                     monkeypatch):
    # evolve's final state is a strided view into its padded ring, not a copy
    results = []

    def spy(*args, **kwargs):
        results.append(evolve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "evolve", spy)
    out_dir = tmp_path / "snap"
    code, _, _ = run(
        capsys, "simulate", "--mode", "hybrid", "--engine", "grid", "--grid-n", "16",
        "--grid-l", "6", "--t-final", "0.2", "--dt", "0.1", "--out", str(out_dir), "--snapshot",
    )
    assert code == 0
    final = results[0].final_state
    assert not final.array.flags.c_contiguous
    copy = grid.GridState(final.spec, final.array.copy())
    assert copy.array.flags.c_contiguous
    for keep in ("x", "y", "q", "xy"):
        expected = grid.marginal_density(copy, tuple(keep))
        assert np.array_equal(grid.marginal_density(final, tuple(keep)), expected)
        assert np.array_equal(grid.load_snapshot(out_dir / f"marginal-{keep}.bin")[3], expected)
    assert np.array_equal(grid.reduced_quantum_density(final).matrix,
                          grid.reduced_quantum_density(copy).matrix)


def test_simulate_custom_observer_column(capsys, tmp_path):
    out_dir = tmp_path / "obs-run"
    code, _, _ = run(
        capsys, "simulate", "--mode", "hybrid", "--engine", "moments",
        "--t-final", "1", "--out", str(out_dir), "--observer", "qx=q*x",
    )
    assert code == 0
    header, columns = read_csv(out_dir / "moments.csv")
    assert header == ["t", "qx"]


def test_simulate_is_deterministic(capsys, tmp_path):
    argv = [
        "simulate", "--mode", "hybrid", "--k", "0.2", "--engine", "both",
        "--grid-n", "32", "--t-final", "0.5", "--dt", "0.01", "--stride", "10",
        "--deterministic",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, *argv, "--out", str(a))[0] == 0
    assert run(capsys, *argv, "--out", str(b))[0] == 0
    for name in ("moments.csv", "grid.csv", "spectrum.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("dt, t_final, stride, marks", [
    (0.01, 0.1, 5, [0, 5, 10]),
    (0.1, 1.0, 3, [0, 3, 6, 9, 10]),  # stride does not divide the step count
    (0.5, 2.0, 1, [0, 1, 2, 3, 4]),
    (0.01, 0.07, 10, [0, 7]),  # stride beyond the last step
    (-0.1, 1.0, 3, [0, 3, 6, 9, 10]),  # backward time: steps of |dt|
])
def test_sample_times_pinned(dt, t_final, stride, marks):
    steps_at, steps = sample_steps(t_final, dt, stride)
    assert steps == marks[-1]
    assert np.array_equal(steps_at, marks)
    assert np.array_equal(steps_at * dt, np.array([j * dt for j in marks]))


@pytest.mark.parametrize("t_final, dt, stride, samples", [
    (20.0, 1e-6, 1, 20000001),
    (10.0, 1e-9, 1, 10000000001),
    (10.0, 1e-9, 1000, 10000001),
    (9999999001.0, 1.0, 1000, 10000001),  # the last step is a sample of its own
])
def test_sample_count_above_cap_is_refused(t_final, dt, stride, samples):
    with pytest.raises(ValueError, match=f"make {samples} samples, more than the cap of 10000000"):
        sample_steps(t_final, dt, stride)


def test_sample_steps_refuses_a_zero_step():
    with pytest.raises(ValueError, match="dt must be nonzero"):
        sample_steps(1.0, 0.0, 1)


def test_sample_count_above_cap_exits_2(capsys, tmp_path):
    code, _, err = run(
        capsys, "simulate", "--engine", "moments", "--dt", "1e-6", "--t-final", "20",
        "--stride", "1", "--out", str(tmp_path / "cap"),
    )
    assert code == 2
    assert "20000000 steps at stride 1 make 20000001 samples, more than the cap of 10000000" in err
    assert not (tmp_path / "cap").exists()


@pytest.mark.parametrize("argv, text", [
    (["compare", "--dt", "1e-300", "--t-final", "1"],
     "1e+300 steps at stride 10 make 1e+299 samples, more than the cap of 10000000"),
    # one sample interval of 100: no split up to 16 compiles on the 64^3 grid,
    # and the multiples of g split it down to tau = dt
    (["simulate", "--engine", "grid", "--dt", "1e-300", "--t-final", "100",
      "--stride", str(round(100 / 1e-300))],
     "needs 1e+302 exact steps of tau = 1e-300, more than the cap of 10000000"),
])
def test_counts_beyond_1e15_print_readably(capsys, tmp_path, argv, text):
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "cap"))
    assert code == 2
    assert err.count("\n") == 1 and len(err) < 200
    assert text in err
    assert not (tmp_path / "cap").exists()


def test_grid_step_count_above_cap_exits_2_before_allocating(capsys, tmp_path, monkeypatch):
    # the split search may compile plans, but no state is built and nothing runs
    def refuse(*args, **kwargs):
        raise AssertionError("the grid engine started")

    for name in ("gaussian_state", "evolve"):
        monkeypatch.setattr(cli, name, refuse)
    for flags, text in [
        # one sample interval of 100 that splits only down to tau = dt
        (["--dt", "1e-9", "--t-final", "100", "--stride", "100000000000"],
         "needs 100000000000 exact steps of tau = 1e-09"),
        # 5 000 000 whole intervals of 1, two steps of tau = 0.5 each, reach the
        # cap; the last interval of 0.5 passes it
        (["--mode", "quantum-quantum", "--dt", "0.125", "--t-final", "5000000.5",
          "--stride", "8"], "needs 10000001 exact steps of tau = 0.5"),
    ]:
        code, _, err = run(capsys, "simulate", "--engine", "grid", *flags,
                           "--out", str(tmp_path / "cap"))
        assert code == 2
        assert f"{text}, more than the cap of 10000000" in err
        assert not (tmp_path / "cap").exists()


@pytest.mark.parametrize("flags", [
    ["--grid-n", "8", "--grid-l", "1e300"],  # no split compiles an exact plan
    ["--dt", "1e-9", "--t-final", "100", "--stride", "100000000000"],  # past the step cap
    ["--mode", "quantum-quantum", "--dt", "0.125", "--t-final", "5000000.5", "--stride", "8"],
    ["--grid-n", "4096"],  # past physical memory
    ["--mean", "q=7.9"],  # the initial state reaches the box edge
    ["--mode", "quantum-quantum", "--grid-n", "8", "--grid-l", "400", "--dt", "0.0001",
     "--stride", "1", "--t-final", "0.0001", "--mean", "x=50"],  # it vanishes on the grid
    ["--observer", "qp=q*p"],  # an observer no sampler can measure
    # within |mean| + 4 sigma of the box, but over the sampler's edge mass at t = 0
    ["--mode", "quantum-quantum", "--grid-n", "16", "--grid-l", "4", "--dt", "0.01",
     "--stride", "1", "--t-final", "20000"],
    ["--mode", "hybrid", "--k", "0.2", "--dt", "0.01", "--t-final", "2", "--stride", "10",
     "--grid-n", "16", "--grid-l", "5", "--mean", "x=0.5", "--mean", "q=0.3"],
], ids=["no-exact-plan", "step-cap", "step-cap-last-interval", "memory", "mean-out-of-box",
        "vanishing-state", "unsplittable-observer", "edge-mass-qq", "edge-mass-hybrid"])
def test_a_refused_grid_run_does_no_engine_work(capsys, tmp_path, monkeypatch, flags):
    calls = []
    for name in ("propagate_moments", "classify_spectrum"):
        def refuse(*args, _name=name, **kwargs):
            calls.append(_name)
            raise AssertionError(f"{_name} ran")

        monkeypatch.setattr(cli, name, refuse)
    code, _, err = run(capsys, "compare", *flags, "--out", str(tmp_path / "refused"))
    assert (code, calls) == (2, [])
    assert err.startswith("configuration error: ")
    assert not (tmp_path / "refused").exists()


def test_grid_beyond_physical_memory_exits_2_before_allocating(capsys, tmp_path, monkeypatch):
    # 4096^3 complex amplitudes are 1 TiB for the state alone
    def refuse(*args, **kwargs):
        raise AssertionError("the grid engine started")

    monkeypatch.setattr(grid, "compile_exact", refuse)
    monkeypatch.setattr(cli, "gaussian_state", refuse)
    code, _, err = run(
        capsys, "simulate", "--engine", "grid", "--grid-n", "4096", "--out", str(tmp_path / "big"),
    )
    assert code == 2
    match = re.search(r"3-axis grid of 4096 points per axis needs about (\d+) bytes", err)
    assert match and int(match.group(1)) >= 16 * 4096**3
    assert "bytes of physical memory" in err
    assert not (tmp_path / "big").exists()


@pytest.mark.parametrize("flag", ["--snapshot", "--deterministic"])
def test_a_malformed_boolean_exits_2_before_any_grid_work(capsys, tmp_path, monkeypatch, flag):
    def refuse(*args, **kwargs):
        raise AssertionError("the grid engine started")

    monkeypatch.setattr(grid, "compile_exact", refuse)
    monkeypatch.setattr(cli, "gaussian_state", refuse)
    code, _, err = run(capsys, "simulate", "--engine", "grid", "--t-final", "0.1", flag, "maybe",
                       "--out", str(tmp_path / "none"))
    assert code == 2
    assert err == "configuration error: not a boolean: 'maybe'\n"
    assert not (tmp_path / "none").exists()


@pytest.mark.parametrize("mode, axes, points, stacked, extra, tail", [
    ("quantum-quantum", "xq", 64, False, (), False), ("hybrid", "xyq", 64, False, (), False),
    ("quantum-quantum", "xq", 256, False, (), False), ("hybrid", "xyq", 32, False, (), False),
    ("quantum-quantum", "xq", 64, True, (), False),
    ("hybrid", "xyq", 64, False, ("x*y*q",), False), ("hybrid", "xyq", 64, False, (), True),
], ids=["quantum-quantum-xq", "hybrid-xyq", "quantum-quantum-xq-256", "hybrid-xyq-32",
        "quantum-quantum-xq-stacked", "hybrid-xyq-full-marginal", "hybrid-xyq-tail"])
def test_grid_memory_estimate_covers_a_run_with_its_sample_blocks(mode, axes, points, stacked,
                                                                  extra, tail):
    # a 64^2 (x, q) state is 64 KiB, 8 to each of the ring's two blocks; the
    # 32^3 (512 KiB), 64^3 and 256^2 states go one to a block, and at 256^2 a
    # chirp factor and the sampler's full-grid weight row are as large as the
    # state.  The stacked plan holds 6 offsets at 64^2; its run of 10 samples
    # two steps apart and a one-step tail takes squared edges, whole and
    # partial stacks, and an opening after a partial stack.  K's q*x keeps
    # both axes of (x, q), so a qq sample takes |psi|^2; no default hybrid
    # observer keeps every axis, and x*y*q does, with a full-grid weight row.
    # A tail run steps two intervals of 0.2, then its one step of 0.1 by a plan
    # of its own, whose chirp factors the estimate counts as one more offset
    k = Fraction(1, 5)
    k_op = benchmark.mode_koopmanian(mode, k)
    spec = GridSpec(tuple(AxisSpec(label, 8.0, points) for label in axes))
    observers = benchmark.default_observers(mode, k)
    observers += [(text, parse_polynomial(text)) for text in extra]
    need = grid._run_bytes(spec, observers, tail)
    t_final, stride = (2.1, 2) if stacked else (0.5, 1)
    tracemalloc.start()
    try:
        packet = (default_moment_state(), round(t_final / 0.1))
        plan = compile_exact(k_op, spec, 0.1, packet if stacked else None)
        state = gaussian_state(spec, {}, 1.0 / math.sqrt(2.0))
        last = None
        if tail:
            last, plan, t_final = (plan, 1), compile_exact(k_op, spec, 0.2), 0.4
        evolve(state, plan, t_final, observers=observers, stride=stride, tail=last)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.offsets == (6 if stacked else 1)
    assert peak <= need


def test_a_run_with_a_tail_interval_peaks_within_its_memory_estimate(capsys, tmp_path,
                                                                     monkeypatch):
    # 5 steps of 0.1 at stride 2 on the default 64^3 hybrid grid: two intervals
    # and a one-step tail, all in one ring, under the estimate plan_run refuses by
    estimates = []
    original = grid._run_bytes

    def recording(*args):
        estimates.append(original(*args))
        return estimates[-1]

    monkeypatch.setattr(grid, "_run_bytes", recording)
    tracemalloc.start()
    try:
        code, _, _ = run(capsys, "simulate", "--mode", "hybrid", "--engine", "grid", "--dt", "0.1",
                         "--stride", "2", "--t-final", "0.5", "--out", str(tmp_path / "tail"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and len(estimates) == 1
    assert peak <= estimates[0]


def test_classical_mode_via_moments(capsys, tmp_path):
    out_dir = tmp_path / "cc"
    code, _, _ = run(
        capsys, "simulate", "--mode", "classical-classical", "--engine", "moments",
        "--t-final", "1", "--mean", "q=1.0", "--out", str(out_dir),
    )
    assert code == 0
    _, columns = read_csv(out_dir / "moments.csv")
    k0 = columns["K"][0]
    assert np.max(np.abs(columns["K"] - k0)) / abs(k0) < 1e-12


# -- config file -------------------------------------------------------------


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "lab.ini"
    cfg.write_text("[derive]\nmode = hybrid\nk = 1\n")
    code, out, _ = run(capsys, "--config", str(cfg), "derive")
    assert code == 0
    assert "dp/dt = -q + p_y" in out


def test_cli_flags_override_config(capsys, tmp_path):
    cfg = tmp_path / "lab.ini"
    cfg.write_text("[derive]\nmode = hybrid\nk = 1\n")
    code, out, _ = run(capsys, "--config", str(cfg), "derive", "--k", "0.2")
    assert code == 0
    assert "dp/dt = -q + 0.2*p_y" in out


def test_config_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "lab.ini"
    cfg.write_text("[derive]\nbogus = 1\n")
    code, _, err = run(capsys, "--config", str(cfg), "derive")
    assert code == 2
    assert "bogus" in err


def test_config_values_are_read_literally(capsys, tmp_path):
    # a % starts no interpolation: the value is the text as written
    cfg = tmp_path / "lab.ini"
    cfg.write_text("[simulate]\nt-final = %(x)s\n")
    code, _, err = run(capsys, "--config", str(cfg), "simulate", "--out", str(tmp_path / "r"))
    assert code == 2
    assert "configuration error: --t-final expects a number, got '%(x)s'" in err
    assert not (tmp_path / "r").exists()


def test_missing_config_file(capsys, tmp_path):
    code, _, err = run(capsys, "--config", str(tmp_path / "nope.ini"), "derive")
    assert code == 2
    assert "config" in err


# -- repeated in-process calls ----------------------------------------------


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built = []
    original = cli.build_parser

    def spy():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", spy)
    monkeypatch.setattr(cli, "_parser", None)
    for argv in (["nogo", "--k", "0.2"], ["frobnicate"], ["derive", "--mode", "hybrid"],
                 ["nogo"]):
        main(argv)
    capsys.readouterr()
    assert len(built) == 1


def test_options_do_not_carry_over_between_calls(capsys, tmp_path, monkeypatch):
    seen = []
    original = cli._simulation_settings

    def recording(args, *rest, **kwargs):
        seen.append(dict(vars(args)))
        return original(args, *rest, **kwargs)

    monkeypatch.setattr(cli, "_simulation_settings", recording)
    cfg = tmp_path / "lab.ini"
    cfg.write_text("[simulate]\nobserver = c2=q^2; xq=x*q\nmean = y=0.25\nparam = b=3\n")
    base = ["simulate", "--engine", "moments", "--t-final", "0.1"]
    calls = [
        ["--config", str(cfg), *base, "--out", str(tmp_path / "a")],
        [*base, "--observer", "aq=a*q", "--param", "a=2", "--mean", "q=0.5",
         "--out", str(tmp_path / "b")],
        [*base, "--out", str(tmp_path / "c")],
    ]
    for argv in calls:
        assert run(capsys, *argv)[0] == 0
    assert seen[0]["observer"] == ["c2=q^2", "xq=x*q"] and seen[0]["param"] == ["b=3"]
    assert seen[1]["observer"] == ["aq=a*q"] and seen[1]["mean"] == ["q=0.5"]
    # the last call sees what a freshly built parser gives, every list still empty
    assert seen[2] == vars(cli.build_parser().parse_args(calls[2]))
    assert seen[2]["config"] is None
    assert [seen[2][name] for name in ("observer", "param", "mean")] == [[], [], []]
    _, columns = read_csv(tmp_path / "c" / "moments.csv")
    defaults = cli.benchmark.default_observers("hybrid", Fraction(1, 5))
    assert list(columns) == ["t"] + [label for label, _ in defaults]
    assert columns["q"][0] == columns["y"][0] == 0.0


# -- exit codes --------------------------------------------------------------


def test_unknown_mode_exits_2(capsys):
    code, _, err = run(capsys, "simulate", "--mode", "nonsense")
    assert code == 2
    assert "unknown mode" in err


def test_classical_grid_request_exits_2(capsys, tmp_path):
    code, _, err = run(
        capsys, "simulate", "--mode", "classical-classical", "--engine", "grid",
        "--out", str(tmp_path / "x"),
    )
    assert code == 2
    assert "moments" in err


def test_box_overflow_exits_1(capsys, tmp_path):
    # the initial state clears the box rule; its spreading q marginal reaches the edge later
    code, _, err = run(
        capsys, "simulate", "--mode", "hybrid", "--engine", "grid",
        "--grid-n", "32", "--grid-l", "4", "--t-final", "1", "--out", str(tmp_path / "of"),
    )
    assert code == 1
    assert "runtime failure" in err
    match = re.search(r"boundary at t = (\S+)$", err.strip())
    assert match and float(match.group(1)) > 0


def test_bad_mean_name_exits_2(capsys):
    code, _, err = run(capsys, "simulate", "--mean", "p=1.0")
    assert code == 2
    assert "initial mean for 'p' is not supported; displace q, x, or y" in err


@pytest.mark.parametrize("flags, message", [
    (["--grid-l", "inf"], "finite"),
    (["--grid-l", "1e308"], "spacing"),
    (["--mean", "q=nan"], "finite"),
])
def test_non_finite_grid_inputs_exit_2(capsys, tmp_path, flags, message):
    out_dir = tmp_path / "nf"
    code, _, err = run(
        capsys, "simulate", "--mode", "hybrid", "--engine", "grid", "--grid-n", "8",
        "--t-final", "0.1", "--out", str(out_dir), *flags,
    )
    assert code == 2
    assert message in err
    assert not (out_dir / "grid.csv").exists()


def test_non_finite_moment_inputs_exit_2(capsys, tmp_path):
    code, _, err = run(
        capsys, "simulate", "--mode", "hybrid", "--engine", "moments",
        "--t-final", "1", "--mean", "x=inf", "--out", str(tmp_path / "nf"),
    )
    assert code == 2
    assert "finite" in err


def test_grid_n_not_power_of_two_exits_2(capsys, tmp_path):
    code, _, err = run(
        capsys, "simulate", "--mode", "hybrid", "--engine", "grid", "--grid-n", "48",
        "--t-final", "0.1", "--out", str(tmp_path / "g"),
    )
    assert code == 2
    assert "configuration error: point count must be a power of two" in err


def test_tol_is_neither_a_flag_nor_a_config_key(capsys, tmp_path):
    # secular growth is decided exactly, so there is no tolerance to set
    code, _, err = run(capsys, "spectrum", "--mode", "hybrid", "--tol", "1e-9")
    assert code == 2
    assert "unrecognized arguments: --tol" in err
    cfg = tmp_path / "lab.ini"
    cfg.write_text("[spectrum]\ntol = 1e-9\n")
    code, _, err = run(capsys, "--config", str(cfg), "spectrum")
    assert code == 2
    assert "unknown config key 'tol'" in err


def test_moment_overflow_mean_exits_2(capsys, tmp_path):
    code, _, err = run(
        capsys, "simulate", "--mode", "hybrid", "--engine", "moments",
        "--t-final", "1", "--mean", "q=1e200", "--out", str(tmp_path / "m"),
    )
    assert code == 2
    assert "finite" in err
    assert not (tmp_path / "m" / "moments.csv").exists()


@pytest.mark.parametrize("flags, code, line", [
    (["--mode", "classical-classical", "--k", "250", "--dt", "0.1", "--stride", "1",
      "--t-final", "30"], 1, "runtime failure: moment flow left the float range by t = "),
    (["--mean", "q=1e200"], 2, "configuration error: moment state needs finite means"),
])
def test_moment_overflow_stderr_is_the_error_line_alone(capfd, tmp_path, flags, code, line):
    assert main(["simulate", "--engine", "moments", *flags, "--out", str(tmp_path / "m")]) == code
    err = capfd.readouterr().err
    assert err.startswith(line)
    assert err.count("\n") == 1  # no numpy warning before it


@pytest.mark.parametrize("flags, code, line", [
    (["--engine", "grid", "--grid-n", "8", "--k", "1e150", "--t-final", "0.1"], 2,
     "configuration error: the flow of K leaves the float range"),
    (["--engine", "grid", "--grid-l", "1e300", "--grid-n", "8"], 2,
     "configuration error: tau = "),
    (["--engine", "grid", "--grid-n", "32", "--observer", "Z=a*q^2", "--param", "a=1e308",
      "--t-final", "0.1"], 1, "runtime failure: the grid engine's column Z is inf at t = 0\n"),
    (["--engine", "moments", "--dt", "1e-300", "--t-final", "1e-298", "--stride", "1"], 0,
     "[moments] wrote "),
    # K(0) = 1e-318: a relative drift past the float range, so the absolute one
    (["--engine", "moments", "--observer", "K=q^2 - p^2 + c", "--param", "c=1e-318",
      "--t-final", "1"], 0, "[moments] K drift 9.093e-03\n"),
    # K swings from 1.5e308 to -1.5e308: the absolute drift is past the float range too
    (["--engine", "moments", "--observer", "K=c*q", "--param", "c=1.5e308", "--mean", "q=1"],
     1, "runtime failure: K drifts from K(0) = 1.5e+308 past the float range\n"),
    # an envelope of 5e153, whose sum of squares is past the float range
    (["--k", "0", "--t-final", "100", "--mean", "q=5e153", "--observer", "q2=q^2"], 0,
     "sqrt(q2) envelope degree 0 (residual 3.72e-04)\n"),
])
def test_extreme_inputs_end_cleanly(capfd, tmp_path, flags, code, line):
    out_dir = tmp_path / "run"
    assert main(["simulate", "--mode", "hybrid", *flags, "--out", str(out_dir)]) == code
    out, err = capfd.readouterr()
    assert line in (err if code else out)
    for text in ("Traceback", "internal error", "Warning", "DLASCL"):
        assert text not in out + err
    assert code == 0 or not out_dir.exists()


# (--dt, --t-final, --stride): whole runs, then a stride past the end, a time
# that is no whole number of steps, a negative step and steps near the float limits
_TIME_GRIDS = st.one_of(
    st.sampled_from([("0.01", "0.1", "1"), ("0.1", "1", "3"), ("0.05", "0.35", "2")]),
    st.sampled_from([("0.01", "1", "1000"), ("0.1", "0.35", "1"), ("-0.1", "1", "1"),
                     ("1e-300", "1e-298", "1"), ("1e-300", "1", "10")]),
)


@st.composite
def _cli_argv(draw):
    """A CLI call: a subcommand, mode and --k, and for a run its time grid, engine,
    grid, means and observers, drawn from ranges that reach the float limits (and, for
    --k, the interpreter's digit limit for printing an integer)."""
    command = draw(st.sampled_from(["derive", "nogo", "spectrum", "simulate", "compare",
                                    "report"]))
    if command == "report":  # the runs directory holds run directories, not reports
        return [command, "--runs", "."]
    k = draw(st.one_of(st.sampled_from(["0", "1", "-1"]),
                       st.sampled_from(["1e-300", "1e150", "1e300", "1e5000", "1e-5000"])))
    argv = [command, f"--k={k}"]
    if command == "nogo":
        return argv
    argv += ["--mode", draw(st.sampled_from(["hybrid", "quantum-quantum", "classical-classical"]))]
    if command in ("derive", "spectrum"):
        return argv
    if command == "simulate":
        argv += ["--engine", draw(st.sampled_from(["moments", "grid", "both"]))]
    dt, t_final, stride = draw(_TIME_GRIDS)
    argv += [f"--dt={dt}", f"--t-final={t_final}", f"--stride={stride}",
             "--grid-n=" + draw(st.sampled_from(["16", "8"])),
             "--grid-l=" + draw(st.one_of(st.just("8"), st.sampled_from(["1e300", "1e-200"])))]
    means = [[], ["q=0.3"], ["x=-0.5", "y=0.25"], ["q=1e8"], ["q=1e200"]]
    for mean in draw(st.sampled_from(means)):
        argv += ["--mean", mean]
    observer = draw(st.sampled_from([None, "Z=a*q^2", "c=q*x", "w=a*p*p_y"]))
    if observer:
        argv += ["--observer", observer,
                 "--param=a=" + draw(st.sampled_from(["1", "1e308", "-1e-300"]))]
    return argv


_RUN = ["simulate", "--mode", "hybrid"]
_contract_runs = itertools.count()


@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_cli_argv())
@example(argv=[*_RUN, "--engine=grid", "--grid-n=8", "--k=1e150", "--t-final=0.1"])
@example(argv=[*_RUN, "--engine=moments", "--dt=1e-300", "--t-final=1e-298", "--stride=1"])
@example(argv=[*_RUN, "--engine=grid", "--grid-n=32", "--observer", "Z=a*q^2", "--param=a=1e308",
               "--t-final=0.1"])
@example(argv=[*_RUN, "--engine=grid", "--grid-n=8", "--grid-l=1e300"])
@example(argv=["simulate", "--k=1e300", "--mode", "quantum-quantum", "--engine=grid", "--dt=0.01",
               "--t-final=1", "--stride=1000"])  # a stride past the end: no plan at any split
@example(argv=["compare", "--dt=1e-300", "--t-final=1"])  # some 1e300 steps
@example(argv=["nogo", "--k=1e-5000"])  # a witness past the interpreter's digit limit
@example(argv=[*_RUN, "--observer", "q,x=q", "--t-final=0.1"])  # a label holding the separator
@example(argv=["compare", "--mode", "quantum-quantum", "--grid-n=16", "--t-final=0.1",
               "--observer", "a,b=q"])  # ... which compare.csv's rows would hold too
@example(argv=["spectrum", "--koopmanian", "q^2/2 + p^2/2", "--mode", "nonsense"])
@example(argv=[*_RUN, "--k=1e-4000", "--t-final=0.1"])  # a nonzero k whose float is 0
def test_every_cli_call_ends_cleanly(capfd, tmp_path, argv):
    # exit 0 with finite output, or a clean exit 1 or 2 that writes no run directory;
    # capfd reads fd 2, where LAPACK writes from C
    out_dir = tmp_path / f"run{next(_contract_runs)}"
    if argv[0] in ("simulate", "compare", "report"):
        argv = [*argv, "--out", str(out_dir)]
    capfd.readouterr()
    code = main([str(tmp_path) if arg == "." else arg for arg in argv])
    out, err = capfd.readouterr()
    assert code in (0, 1, 2), err
    for text in ("Traceback", "internal error", "Warning", "DLASCL", "illegal value"):
        assert text not in out + err, err
    if code:
        assert not out_dir.exists()
        return
    for path in out_dir.glob("*.csv"):  # one name per column, each column finite
        lines = path.read_text().splitlines()
        if path.name == "compare.csv":  # an observable's name and its deviation per row
            rows = [line.split(",") for line in lines[1:]]
            assert all(len(row) == 2 and math.isfinite(float(row[1])) for row in rows), lines
            continue
        header, columns = read_csv(path)
        assert all(header) and len(columns) == len(header), header
        assert all(len(line.split(",")) == len(header) for line in lines), path.name
        assert all(np.isfinite(column).all() for column in columns.values()), path.name
    for path in out_dir.glob("*.json"):
        numbers, stack = [], [json.loads(path.read_text())]
        while stack:
            item = stack.pop()
            if isinstance(item, dict):
                stack.extend(item.values())
            elif isinstance(item, list):
                stack.extend(item)
            elif isinstance(item, (int, float)) and not isinstance(item, bool):
                numbers.append(item)
        assert all(math.isfinite(x) for x in numbers), path.name


_REPORT_KEYS = ["config", "envelope", "norm_drift", "koopmanian_drift", "engine", "mode", "k",
                "t_final", "degree"]
_SPLICE = "\x00splice"  # a JSON string leaf, replaced in the text by a token JSON lacks
_SPLICED = ["NaN", "Infinity", "-Infinity", "1e999", "-1e999", "1" + "0" * 400, "1" + "0" * 5000,
            "[" * 150 + "]" * 150, "[" * 100_000 + "]" * 100_000]
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=3),
              st.sampled_from(["\ud800", _SPLICE])),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(_REPORT_KEYS) | st.text(max_size=2), inner, max_size=3),
    max_leaves=8,
)
_INI_KEYS = ["k", "mode", "koopmanian", "hamiltonian", "param", "tol", "frob", "K"]
_INI_VALUES = ["0.2", "1/5", "-1", "1e300", "1e-300", "%(x)s", "%", "100%", "%%", "hybrid",
               "quantum-quantum", "classical-classical", "", "q*p + k*q*x",
               "(p^2 + q^2)/2 + (y^2 + x^2)/2 + k*q*x", "q^3", "a*q*p", "a=2", "a=%(k)s"]


@st.composite
def _raw_input_call(draw):
    """(command, bytes): a report-*.json for report, or an INI file for the others."""
    command = draw(st.sampled_from(["report", "report", "nogo", "derive", "spectrum"]))
    if command == "report":
        value = draw(st.dictionaries(st.sampled_from(_REPORT_KEYS), _JSON, max_size=4) | _JSON)
        *parts, last = json.dumps(value).split(json.dumps(_SPLICE))
        tokens = draw(st.lists(st.sampled_from(_SPLICED), min_size=len(parts),
                               max_size=len(parts)))
        return command, ("".join(p + t for p, t in zip(parts, tokens)) + last).encode()
    items = st.lists(st.tuples(st.sampled_from(_INI_KEYS), st.sampled_from(_INI_VALUES)),
                     max_size=3, unique_by=lambda item: item[0])
    sections = draw(st.lists(st.tuples(st.sampled_from([command, "nogo", "frob", "DEFAULT"]),
                                       items), min_size=1, max_size=2, unique_by=lambda s: s[0]))
    text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in pairs)
                   for name, pairs in sections).encode()
    flaw = draw(st.sampled_from([None] * 6 + ["repeat", "not UTF-8"]))
    if flaw == "repeat":  # the last line again: a duplicate key or section
        text += text.splitlines(keepends=True)[-1]
    elif flaw:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + b"\xff" + text[at:]
    return command, text


def _refuse(token):
    raise ValueError(f"not JSON: {token}")


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(call=_raw_input_call())
@example(call=("nogo", b"[nogo]\nk = %(x)s\n"))
@example(call=("report", b'{"norm_drift": 1' + b"0" * 400 + b"}"))
@example(call=("report", b'{"norm_drift": NaN}'))
@example(call=("report", b'{"koopmanian_drift": Infinity}'))
@example(call=("report", b'{"config": {"t_final": 1e999}}'))
@example(call=("report", b"[" * 100_000 + b"]" * 100_000))
@example(call=("report", b'{"engine": "\\ud800"}'))
def test_every_raw_input_file_ends_cleanly(capsys, tmp_path, call):
    # report files and INI text the flag contract never draws: exit 2 and write
    # nothing, or exit 0 with every JSON file strict JSON; never exit 1
    command, data = call
    case = tmp_path / f"case{next(_contract_runs)}"
    case.mkdir()
    out_dir = case / "out"
    if command == "report":
        (case / "report-a.json").write_bytes(data)
        argv = ["report", "--runs", str(case), "--out", str(out_dir)]
    else:
        (case / "lab.ini").write_bytes(data)
        argv = ["--config", str(case / "lab.ini"), command]
        if command == "spectrum":
            argv += ["--json", str(out_dir / "s.json")]
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2), err
    if code:
        assert not out_dir.exists()
    for path in out_dir.glob("*.json"):
        json.loads(path.read_text(), parse_constant=_refuse)


def test_a_run_with_no_exact_plan_stops_after_few_compiles(capsys, tmp_path, monkeypatch):
    # stride 1000 past 100 steps: one last interval of g = 100 steps, yet the
    # splits tried stay at 2 * _MAX_SPLIT
    calls = []

    def counted(*args):
        calls.append(args[2])
        return compile_exact(*args)

    monkeypatch.setattr(grid, "compile_exact", counted)
    code, _, err = run(capsys, "simulate", "--engine", "grid", "--grid-n", "8", "--grid-l", "1e300",
                       "--dt", "0.01", "--t-final", "1", "--stride", "1000",
                       "--out", str(tmp_path / "none"))
    assert code == 2 and "a chirp's phase steps" in err
    assert len(calls) <= 2 * grid._MAX_SPLIT
    assert calls[0] == 1.0 and calls[-1] == 0.01 / grid._MAX_SPLIT
    assert not (tmp_path / "none").exists()


@pytest.mark.parametrize("flags, message", [
    (["--engine", "moments", "--observer", "c=q^3"], "degree 3"),
    (["--engine", "both", "--grid-n", "8", "--mean", "q=7.5"], "half extent"),
    (["--engine", "both", "--mode", "quantum-quantum", "--observer", "c=y"],
     "needs axis 'y'"),
])
def test_engine_config_error_writes_nothing(capsys, tmp_path, flags, message):
    out_dir = tmp_path / "none"
    code, _, err = run(
        capsys, "simulate", "--t-final", "0.1", "--out", str(out_dir), *flags
    )
    assert code == 2
    assert message in err
    assert not out_dir.exists()


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--stride", "abc"], "--stride expects an integer"),
    (["simulate", "--engine", "nonsense"], "unknown engine"),
    (["simulate", "--snapshot", "maybe"], "not a boolean"),
    (["report"], "report needs at least one run directory"),
    (["simulate", "--param", "q=1"], "parameter name 'q' collides with a reserved symbol"),
    (["simulate", "--param", "2a=1"], "parameter name '2a' is not a valid identifier"),
], ids=["stride-not-an-integer", "unknown-engine", "snapshot-not-a-boolean", "report-no-runs",
        "param-reserved", "param-not-an-identifier"])
def test_a_malformed_option_exits_2_and_writes_nothing(capsys, tmp_path, argv, message):
    out_dir = tmp_path / "none"
    code, _, err = run(capsys, *argv, "--out", str(out_dir))
    assert code == 2
    assert err.startswith("configuration error: ") and message in err
    assert not out_dir.exists()


def test_compare_records_that_it_ran_both_engines(capsys, tmp_path):
    out_dir = tmp_path / "run"
    code, _, _ = run(capsys, "compare", "--mode", "quantum-quantum", "--grid-n", "32",
                     "--t-final", "0.2", "--out", str(out_dir))
    assert code == 0
    for engine in ("moments", "grid"):
        report = json.loads((out_dir / f"report-{engine}.json").read_text())
        assert report["config"]["engine"] == "both"


@pytest.mark.parametrize("engine", ["grid", "moments", "both"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_compare_refuses_an_engine_other_than_both(capsys, tmp_path, engine, source):
    # compare always runs both engines and has no engine option at all, so both is refused too
    out_dir = tmp_path / "none"
    argv = ["compare", "--mode", "quantum-quantum", "--grid-n", "32", "--t-final", "0.2",
            "--out", str(out_dir)]
    if source == "flag":
        argv += ["--engine", engine]
    else:
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[compare]\nengine = {engine}\n")
        argv = ["--config", str(cfg), *argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.endswith(f"unrecognized arguments: --engine {engine}\n" if source == "flag" else
                        "configuration error: unknown config key 'engine' in section [compare]\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["simulate", "compare", "spectrum"])
def test_k_beyond_float_range_exits_2(capsys, tmp_path, command):
    out = [] if command == "spectrum" else ["--out", str(tmp_path / "k")]
    code, _, err = run(capsys, command, "--k", "1e400", *out)
    assert code == 2
    assert "configuration error: --k is too large for a float: 1e400" in err
    assert not (tmp_path / "k").exists()


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--engine", "moments", "--observer", "c=a*q^2", "--param", "a=1e400"],
     "--param a is too large for a float: 1e400"),
    (["simulate", "--engine", "grid", "--grid-n", "8", "--observer", "c=a*q^2",
      "--param", "a=1e400"], "--param a is too large for a float: 1e400"),
    (["spectrum", "--koopmanian", "a*q*p_y+p^2", "--param", "a=1e400"],
     "--param a is too large for a float: 1e400"),
    (["simulate", "--engine", "moments", "--observer", "c=a*b*q^2", "--param", "a=1e200",
      "--param", "b=1e200"], "--observer c=a*b*q^2: too large for a float"),
    (["spectrum", "--koopmanian", "10^400*q*p_y+p^2"], "generator too large for a float"),
    # simulate and compare compute in floats: a nonzero input whose float is 0 is refused too
    (["simulate", "--k", "1e-4000"], "--k is too small for a float: 1e-4000"),
    (["compare", "--mode", "quantum-quantum", "--grid-n", "16", "--k=-1e-400"],
     "--k is too small for a float: -1e-400"),
    (["simulate", "--observer", "K2=a*q^2", "--param", "a=1e-400"],
     "--param a is too small for a float"),
    (["simulate", "--param", "a=1e-400"], "--param a is too small for a float"),
    (["simulate", "--observer", "c=a*b*q^2", "--param", "a=1e-200", "--param", "b=1e-200"],
     "--observer c=a*b*q^2: too small for a float"),
    (["simulate", "--observer", "c=q^2 + a*b*i*q^2", "--param", "a=1e-200", "--param",
      "b=1e-200"], "--observer c=q^2 + a*b*i*q^2: too small for a float"),  # its imaginary part
])
def test_coefficient_beyond_float_range_exits_2(capsys, tmp_path, argv, message):
    extra = [] if argv[0] == "spectrum" else ["--t-final", "0.1", "--out", str(tmp_path / "c")]
    code, out, err = run(capsys, *argv, *extra)
    assert code == 2 and out == ""
    assert f"configuration error: {message}" in err
    assert not (tmp_path / "c").exists()


def test_exact_commands_accept_k_beyond_float_range(capsys):
    code, out, _ = run(capsys, "derive", "--mode", "hybrid", "--k", "1e400")
    assert code == 0
    assert f"dp/dt = -q + {10**400}*p_y" in out
    code, out, _ = run(capsys, "nogo", "--k", "1e400")
    assert code == 0
    assert f"witness = -{10**400}*i: FAIL" in out
    # and k whose float is 0: the spectrum decides secular growth exactly
    code, out, _ = run(capsys, "spectrum", "--k", "1e-4000")
    assert code == 0 and "secular growth: yes" in out
    code, out, _ = run(capsys, "derive", "--mode", "hybrid", "--k", "1e-400")
    assert code == 0 and f"dp/dt = -q + 1/{10**400}*p_y" in out


def test_moment_flow_overflow_is_runtime_failure(capsys, tmp_path):
    code, _, err = run(
        capsys, "simulate", "--engine", "moments", "--mode", "classical-classical",
        "--k", "1e30", "--out", str(tmp_path / "m"),
    )
    assert code == 1
    assert "runtime failure: moment flow left the float range by t = 0.1" in err
    assert not (tmp_path / "m").exists()


# k = 250: the symmetrized second moments overflow while the raw ones are finite.
@pytest.mark.parametrize("k", ["250", "300"])
def test_moment_flow_overflow_past_first_block_names_first_bad_time(capsys, tmp_path, k):
    G = mode_generator_matrix("classical-classical", Fraction(k))
    marks, _ = sample_steps(30.0, 0.1, 1)
    for first_bad in marks * 0.1:
        try:
            propagate_moments(G, default_moment_state(), float(first_bad))
        except MomentOverflow:
            break
    assert first_bad > 128 * 0.1
    code, _, err = run(
        capsys, "simulate", "--engine", "moments", "--mode", "classical-classical",
        "--k", k, "--dt", "0.1", "--stride", "1", "--t-final", "30",
        "--out", str(tmp_path / "m"),
    )
    assert code == 1
    assert f"runtime failure: moment flow left the float range by t = {float(first_bad)!r}" in err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("observers", [["a=q", "a=p"], ["norm=q"], ["t=q"]])
def test_clashing_observer_labels_exit_2(capsys, tmp_path, observers):
    flags = [arg for obs in observers for arg in ("--observer", obs)]
    code, _, err = run(
        capsys, "simulate", "--mode", "hybrid", "--engine", "moments",
        "--t-final", "1", "--out", str(tmp_path / "o"), *flags,
    )
    assert code == 2
    assert ("--observer gives the name 'a' twice" if observers[0] == "a=q" else
            "observer labels must not be t or norm") in err


@pytest.mark.parametrize("argv, config", [
    (["simulate", "--observer", "q,x=q"], None),
    (["simulate", "--observer", "a\nb=q"], None),
    (["simulate", "--observer", "a\rb=q"], None),
    (["simulate", "--observer", "=q"], None),
    (["simulate", "--observer", "q^2"], None),  # no label: LABEL=EXPR is the one form
    (["compare", "--mode", "quantum-quantum", "--grid-n", "16", "--observer", "a,b=q"], None),
    (["simulate"], "observer = q,x=q"),
    (["simulate"], "observer = x=q; q,p=p"),
    (["simulate", "--mean", "q=1", "--mean", "q=2"], None),
    (["simulate", "--observer", "c=a*q", "--param", "a=1", "--param", "a=2"], None),
])
def test_each_run_pair_needs_one_csv_safe_name(capsys, tmp_path, argv, config):
    # a name heads a CSV column: it is refused empty, repeated, or holding a comma or line break
    out_dir = tmp_path / "none"
    if config:
        (tmp_path / "run.ini").write_text(f"[{argv[0]}]\n{config}\n")
        argv = ["--config", str(tmp_path / "run.ini"), *argv]
    code, out, err = run(capsys, *argv, "--t-final", "0.1", "--out", str(out_dir))
    assert code == 2 and out == ""
    assert err.startswith("configuration error: --"), err
    assert not out_dir.exists()


@pytest.mark.parametrize("argv, config", [
    (["spectrum", "--koopmanian", "q^2/2 + p^2/2", "--mode", "nonsense"], None),
    (["derive", "--hamiltonian", "q^2", "--mode", "nonsense"], None),
    (["derive", "--koopmanian", "k*q*p_y + p^2", "--mode", "hybrid", "--k", "0.5"], None),
    (["spectrum", "--hamiltonian", "q^2 + p^2"], "mode = quantum-quantum"),
])
def test_mode_is_refused_beside_an_explicit_generator(capsys, tmp_path, argv, config):
    if config:
        (tmp_path / "run.ini").write_text(f"[{argv[0]}]\n{config}\n")
        argv = ["--config", str(tmp_path / "run.ini"), *argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("configuration error: give one of --mode, --koopmanian or "
                          "--hamiltonian, not both --mode and --"), err



@pytest.mark.parametrize("argv, config", [
    (["derive", "--koopmanian", "k*q*p_y + p^2", "--param", "k=3", "--k", "0.5"], None),
    (["derive", "--hamiltonian", "k*q^2", "--param", "k=3"], None),
    (["spectrum", "--koopmanian", "k*q*p_y + p^2", "--param", "k=3"], None),
    (["simulate", "--k", "0.2", "--param", "k=0.5", "--observer", "c=k*q^2"], None),
    (["compare", "--mode", "quantum-quantum", "--grid-n", "16", "--param", "k=0.5"], None),
    (["simulate", "--observer", "c=k*q^2"], "param = k=0.5"),
])
def test_param_k_is_refused_since_k_is_the_coupling(capsys, tmp_path, argv, config):
    # a --param k would bind k in expressions alone, apart from the generator and the report
    out_dir = tmp_path / "none"
    if config:
        (tmp_path / "run.ini").write_text(f"[{argv[0]}]\n{config}\n")
        argv = ["--config", str(tmp_path / "run.ini"), *argv]
    if "spectrum" in argv:
        argv = [*argv, "--json", str(out_dir)]
    elif "derive" not in argv:
        argv = [*argv, "--t-final", "0.1", "--out", str(out_dir)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("configuration error: --param k="), err
    assert "give it with --k" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("argv, advice", [
    (["compare"], "run simulate instead"),
    (["simulate", "--engine", "grid"], "use --engine moments"),
    (["simulate", "--engine", "both"], "use --engine moments"),
])
def test_a_classical_grid_run_is_refused_with_advice_its_command_takes(capsys, tmp_path, argv,
                                                                        advice):
    # compare has no --engine, so it cannot take the advice simulate's refusal gives
    out_dir = tmp_path / "none"
    code, out, err = run(capsys, *argv, "--mode", "classical-classical", "--t-final", "0.1",
                         "--out", str(out_dir))
    assert code == 2 and out == ""
    assert err == ("configuration error: the grid engine supports hybrid and quantum-quantum "
                   f"runs; classical-classical moments close exactly, {advice}\n")
    assert not out_dir.exists()


def test_unreadable_inputs_exit_2(capsys, tmp_path):
    cfg = tmp_path / "lab.ini"
    cfg.write_bytes(b"\xff\xfe[derive]\n")
    code, _, err = run(capsys, "--config", str(cfg), "derive")
    assert code == 2
    assert "bad config file" in err
    run_dir = tmp_path / "r"
    run_dir.mkdir()
    (run_dir / "report-moments.json").write_text("{")
    code, _, err = run(capsys, "report", "--runs", str(run_dir), "--out", str(tmp_path))
    assert code == 2
    assert "unreadable report file" in err


@pytest.mark.parametrize("text", [
    "[]", '{"config": 5}', '{"envelope": 3}', '{"norm_drift": []}',
    '{"koopmanian_drift": {"x": 1}}',
    pytest.param('{"norm_drift": 1' + "0" * 400 + "}", id="drift-past-the-float-range"),
    '{"norm_drift": NaN}', '{"koopmanian_drift": Infinity}', '{"config": {"t_final": 1e999}}',
    pytest.param("[" * 100_000 + "]" * 100_000, id="nested-100000-deep"),
])
def test_report_refuses_json_that_is_not_a_run_report(capsys, tmp_path, text):
    run_dir = tmp_path / "r"
    run_dir.mkdir()
    (run_dir / "report-a.json").write_text(text)
    code, _, err = run(capsys, "report", "--runs", str(run_dir), "--out", str(tmp_path / "sum"))
    assert code == 2
    assert "unreadable report file" in err and "is not a run report" in err
    assert not (tmp_path / "sum").exists()


def _too_deep_to_encode(paths):
    deep = []
    for _ in range(100_000):
        deep = [deep]
    return {"runs": deep}, "# Run summary"


@pytest.mark.parametrize("text, aggregate", [
    ('{"engine": "\\ud800"}', None),  # a lone surrogate, which UTF-8 cannot hold
    ("{}", _too_deep_to_encode),
])
def test_report_that_cannot_be_written_back_writes_nothing(capsys, tmp_path, monkeypatch,
                                                            text, aggregate):
    if aggregate:
        monkeypatch.setattr(cli, "aggregate_reports", aggregate)
    run_dir = tmp_path / "r"
    run_dir.mkdir()
    (run_dir / "report-a.json").write_text(text)
    code, _, err = run(capsys, "report", "--runs", str(run_dir), "--out", str(tmp_path / "sum"))
    assert code == 2
    assert "unreadable report file" in err
    assert not (tmp_path / "sum").exists()


def test_internal_error_exits_1(capsys, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("engine bug")

    monkeypatch.setattr(cli, "evolve", broken)
    code, _, err = run(
        capsys, "simulate", "--mode", "hybrid", "--engine", "grid", "--grid-n", "8",
        "--t-final", "0.1", "--out", str(tmp_path / "ie"),
    )
    assert code == 1
    assert "internal error: ValueError: engine bug" in err
    assert "configuration error" not in err
    assert "Traceback" not in err


def test_an_out_directory_under_a_regular_file_exits_1(capsys, tmp_path):
    (tmp_path / "file").write_text("")
    code, _, err = run(capsys, "simulate", "--t-final", "0.1", "--out",
                       str(tmp_path / "file" / "sub"))
    assert code == 1
    assert err.startswith("i/o failure: ")
    assert "internal error" not in err


def test_unknown_subcommand_exits_2(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2


def test_fractional_steps_exit_2(capsys):
    code, _, err = run(capsys, "simulate", "--t-final", "1.005", "--dt", "0.01")
    assert code == 2
    assert "whole number" in err


# -- compare and report ------------------------------------------------------


def test_compare_emits_deviation_table(capsys, tmp_path):
    out_dir = tmp_path / "cmp"
    code, out, _ = run(
        capsys, "compare", "--mode", "hybrid", "--k", "0.2",
        "--grid-n", "32", "--t-final", "0.5", "--dt", "0.01", "--stride", "10",
        "--out", str(out_dir),
    )
    assert code == 0
    assert "max |moments - grid|" in out
    table = (out_dir / "compare.csv").read_text().splitlines()
    assert table[0] == "observable,max_abs_deviation"
    assert len(table) > 5
    summary = json.loads((out_dir / "compare.json").read_text())
    assert summary["max_deviation"] < 1e-2


def test_compare_classifies_once_and_reads_no_csv(capsys, tmp_path, monkeypatch):
    calls = {"classify_spectrum": 0, "read_csv": 0}
    for name in calls:
        original = getattr(cli, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    out_dir = tmp_path / "cmp"
    code, _, _ = run(
        capsys, "compare", "--mode", "quantum-quantum", "--grid-n", "16",
        "--t-final", "0.2", "--dt", "0.01", "--out", str(out_dir),
    )
    assert code == 0
    assert calls == {"classify_spectrum": 1, "read_csv": 0}
    _, mcols = read_csv(out_dir / "moments.csv")
    _, gcols = read_csv(out_dir / "grid.csv")
    assert np.array_equal(mcols["t"], gcols["t"])
    summary = json.loads((out_dir / "compare.json").read_text())
    assert summary["observables"]
    for name, deviation in summary["observables"].items():
        assert deviation == float(np.max(np.abs(mcols[name] - gcols[name])))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: no rule refuses a grid too coarse for its state "
                   "(the momentum box), so such a compare exits 0 with a wrong grid")
@pytest.mark.parametrize("flags", [
    # its largest deviation is q2's, 5.07e-2
    ["--k", "0.2", "--dt", "0.01", "--t-final", "100", "--stride", "10", "--grid-n", "16",
     "--grid-l", "8", "--mean", "x=0.05", "--mean", "q=0.02"],
    # CI's own command: its largest deviation is q2's, 1.04e-3, already at t = 0
    ["--grid-n", "16", "--t-final", "0.1"],
], ids=["qq-16-t100", "qq-16-ci"])
def test_a_compare_that_exits_0_agrees_to_each_columns_scale(capsys, tmp_path, flags):
    out_dir = tmp_path / "run"
    code, _, _ = run(capsys, "compare", "--mode", "quantum-quantum", *flags,
                     "--out", str(out_dir))
    assert code in (0, 2)
    if code == 0:  # a refused run is no silent wrong answer
        _, mcols = read_csv(out_dir / "moments.csv")
        _, gcols = read_csv(out_dir / "grid.csv")
        for name in sorted(set(mcols) & set(gcols) - {"t"}):
            scale = max(1.0, float(np.max(np.abs(mcols[name]))))
            assert np.max(np.abs(mcols[name] - gcols[name])) <= 1e-6 * scale, name


@pytest.mark.parametrize("argv, claims", [
    (["compare", "--mode", "quantum-quantum", "--grid-n", "32"],
     {"norm_drift", "koopmanian_drift"}),
    (["simulate", "--mode", "hybrid", "--engine", "moments", "--t-final", "70"],
     {"koopmanian_drift", "envelope"}),
])
def test_report_numbers_recompute_from_written_csv(capsys, tmp_path, argv, claims):
    out_dir = tmp_path / "run"
    assert run(capsys, *argv, "--out", str(out_dir))[0] == 0
    made = set()
    for path in sorted(out_dir.glob("report-*.json")):
        report = json.loads(path.read_text())
        _, columns = read_csv(report["csv_path"])
        recomputed = cli._report_numbers(columns)
        assert {name: report[name] for name in recomputed} == recomputed
        made.update(name for name, value in recomputed.items() if value is not None)
    assert made == claims


@pytest.mark.parametrize("stride, calls", [("1", [128]), ("3", [128, 79])],
                         ids=["on-stride", "off-stride-tail"])
def test_moment_engine_propagates_one_block_per_run(capsys, tmp_path, monkeypatch,
                                                    stride, calls):
    # 1000 steps: stride 1 makes 1001 samples, all on the stride; stride 3 makes
    # 335, whose last block (rows 256..334) ends in the tail sample at step 1000
    argv = ["simulate", "--mode", "hybrid", "--engine", "moments", "--stride", stride,
            "--deterministic"]
    plain = tmp_path / "plain"
    assert run(capsys, *argv, "--out", str(plain))[0] == 0
    seen = []
    original = cli.propagate_moments

    def counted(G, s0, t):
        seen.append(len(t))
        return original(G, s0, t)

    monkeypatch.setattr(cli, "propagate_moments", counted)
    counted_dir = tmp_path / "counted"
    assert run(capsys, *argv, "--out", str(counted_dir))[0] == 0
    assert seen == calls
    assert (counted_dir / "moments.csv").read_bytes() == (plain / "moments.csv").read_bytes()


_AFFINE_K = "(q^2 + p^2)/2 + x*p_y - y*p_x + 0.2*q*x + 0.3*p - 0.1*p_y"


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    mode=st.sampled_from(["hybrid", "quantum-quantum", "classical-classical", "affine"]),
    steps=st.integers(1, 600),
    stride=st.integers(1, 4),
    q=st.floats(-1.0, 1.0),
)
@example(mode="hybrid", steps=600, stride=1, q=0.3)  # five blocks, the last one short
@example(mode="affine", steps=599, stride=2, q=-0.5)  # a carried block, then one off the stride
@example(mode="quantum-quantum", steps=389, stride=3, q=0.0)  # the second block ends off the stride
def test_moment_columns_match_per_time_propagation(mode, steps, stride, q):
    argv = ["simulate", "--mode", "hybrid" if mode == "affine" else mode, "--engine",
            "moments", "--dt", "0.1", "--t-final", repr(steps / 10), "--stride", str(stride),
            "--mean", f"q={q!r}", "--mean", "x=-0.25"]
    run_settings = cli._simulation_settings(cli.build_parser().parse_args(argv))
    if mode == "affine":  # a linear term in K gives the flow an affine drift
        K = parse_polynomial(_AFFINE_K)
        run_settings.generator = moments.derive_generator(K)
        assert np.any(run_settings.generator.affine)
        run_settings.observers = [(label, K if label == "K" else poly)
                                  for label, poly in run_settings.observers]
    columns, _, _ = cli._moment_columns(run_settings)
    states = [propagate_moments(run_settings.generator, run_settings.moment_state, float(t))
              for t in run_settings.times]
    for label, poly in run_settings.observers:
        reference = np.array([quadratic_expectation(poly, s) for s in states])
        assert columns[label].shape == reference.shape
        n = min(len(reference), 128)
        assert np.array_equal(columns[label][:n], reference[:n]), label
        bound = 1e-12 * np.max(np.abs(reference))
        assert np.max(np.abs(columns[label] - reference)) <= bound, label


@pytest.mark.parametrize("mode", ["hybrid", "quantum-quantum", "classical-classical"])
@pytest.mark.parametrize("mean", ["1e8", "1e100"])
def test_large_finite_mean_runs(capsys, tmp_path, mode, mean):
    # S ~ mean^2: the covariance check must allow S's roundoff, not 1e-10 absolute
    out_dir = tmp_path / "m"
    code, _, err = run(
        capsys, "simulate", "--engine", "moments", "--mode", mode, "--k", "0.2",
        "--mean", f"q={mean}", "--t-final", "100", "--dt", "0.1", "--stride", "1",
        "--out", str(out_dir),
    )
    assert (code, err) == (0, "")
    _, columns = read_csv(out_dir / "moments.csv")
    assert np.isfinite(columns["q2"]).all()
    assert columns["q"][0] == float(mean)


def _tracer_entry_points():
    """CLI_ENTRY_POINTS as written in the benchmark tracer, read without importing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "CLI_ENTRY_POINTS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no CLI_ENTRY_POINTS in {path}")


def test_benchmark_tracer_entry_points_resolve(capsys, tmp_path, monkeypatch):
    entries = [(owner, attr) for owner, attr, _ in _tracer_entry_points()]
    assert ("cli", "evolve") in entries
    missing = [
        f"{owner}.{attr}" for owner, attr in entries
        if owner != "scipy.fft"
        and not hasattr(importlib.import_module(f"hybridlab.{owner}"), attr)
    ]
    assert missing == []

    # The tracer reads the plan and t_final as evolve's positional args 1 and 2.
    seen = []
    original = cli.evolve

    def recording(*args, **kwargs):
        seen.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "evolve", recording)
    code, _, _ = run(
        capsys, "simulate", "--mode", "quantum-quantum", "--engine", "grid",
        "--grid-n", "16", "--t-final", "0.1", "--out", str(tmp_path / "tr"),
    )
    assert code == 0
    assert len(seen) == 1 and len(seen[0]) >= 3
    # one exact step of tau = dt * stride = 0.1 per sample interval
    assert seen[0][1].dt == 0.1 and seen[0][2] == 0.1


@pytest.mark.parametrize("grid_n, dt, t_final, every, tau, stride", [
    # tau = 10 dt = 1 breaks the p chirp's sampling bound at N = 64, so it splits in two
    (64, 0.1, 2.0, 10, 0.5, 2),
])
def test_exact_plan_keeps_the_sample_times(capsys, tmp_path, monkeypatch, grid_n, dt,
                                           t_final, every, tau, stride):
    seen = []
    original = cli.evolve

    def recording(*args, **kwargs):
        seen.append((args[1].dt, kwargs["stride"]))
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "evolve", recording)
    out_dir = tmp_path / "tau"
    code, _, _ = run(
        capsys, "compare", "--mode", "quantum-quantum", "--mean", "q=0.3", "--grid-l", "8",
        "--grid-n", str(grid_n), "--dt", str(dt), "--t-final", str(t_final),
        "--stride", str(every), "--out", str(out_dir),
    )
    assert code == 0
    assert seen == [(tau, stride)]
    _, mcols = read_csv(out_dir / "moments.csv")
    _, gcols = read_csv(out_dir / "grid.csv")
    marks, _ = sample_steps(t_final, dt, every)
    assert np.array_equal(gcols["t"], marks * dt) and np.array_equal(mcols["t"], gcols["t"])
    report = json.loads((out_dir / "report-grid.json").read_text())
    assert (report["plan_tau"], report["plan_steps"]) == (tau, round(t_final / tau))
    assert json.loads((out_dir / "compare.json").read_text())["max_deviation"] < 1e-10


def test_an_off_stride_run_steps_each_interval_length_by_its_own_plan(capsys, tmp_path,
                                                                      monkeypatch):
    # 25 steps with stride 10: one evolve of two intervals of tau = 10 dt from
    # the packet, whose tail is the last interval of 5 dt, one step in the same ring
    seen = []
    original = cli.evolve

    def recording(*args, **kwargs):
        tail_plan, tail_steps = kwargs["tail"]
        seen.append((args[1].dt, kwargs["stride"], args[2], tail_plan.dt, tail_steps))
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "evolve", recording)
    out_dir = tmp_path / "tau"
    code, _, _ = run(capsys, "compare", "--mode", "quantum-quantum", "--mean", "q=0.3",
                     "--grid-n", "32", "--dt", "0.01", "--t-final", "0.25", "--out", str(out_dir))
    assert code == 0
    assert seen == [(0.1, 1, 0.2, 0.05, 1)]
    _, mcols = read_csv(out_dir / "moments.csv")
    _, gcols = read_csv(out_dir / "grid.csv")
    marks, _ = sample_steps(0.25, 0.01, 10)
    assert np.array_equal(gcols["t"], marks * 0.01) and np.array_equal(mcols["t"], gcols["t"])
    report = json.loads((out_dir / "report-grid.json").read_text())
    assert (report["plan_tau"], report["plan_steps"]) == (0.1, 3)
    assert json.loads((out_dir / "compare.json").read_text())["max_deviation"] < 1e-10


def test_an_off_stride_snapshot_is_the_state_at_t_final(capsys, tmp_path):
    # stride 10 over 25 steps ends on the last interval's plan, stride 5 on its one plan
    argv = ["simulate", "--engine", "grid", "--mode", "quantum-quantum", "--mean", "q=0.3",
            "--grid-n", "64", "--dt", "0.01", "--t-final", "0.25", "--snapshot"]
    for stride in ("10", "5"):
        assert run(capsys, *argv, "--stride", stride, "--out", str(tmp_path / stride))[0] == 0
    for keep in ("x", "q"):
        off, on = (grid.load_snapshot(tmp_path / stride / f"marginal-{keep}.bin")[3]
                   for stride in ("10", "5"))
        assert np.max(np.abs(off - on)) <= 1e-12


def test_a_stride_coprime_to_the_steps_takes_few_exact_steps(capsys, tmp_path):
    # 10 000 steps of 1e-5 at stride 9973: one interval of 9973 dt and a last one
    # of 27 dt.  10 000 exact steps of tau = dt drift 4.2e-10 from the moment engine
    out_dir = tmp_path / "coprime"
    code, _, _ = run(capsys, "compare", "--mode", "quantum-quantum", "--grid-n", "32",
                     "--t-final", "0.1", "--dt", "1e-5", "--stride", "9973", "--out", str(out_dir))
    assert code == 0
    report = json.loads((out_dir / "report-grid.json").read_text())
    assert report["plan_steps"] <= 2 * grid._MAX_SPLIT
    assert json.loads((out_dir / "compare.json").read_text())["max_deviation"] <= 1e-12


def test_a_box_overflow_in_the_last_interval_names_the_run_time(capsys, tmp_path):
    # the 16^3 hybrid packet reaches the x edge between t = 0.1 and 0.15
    code, _, err = run(capsys, "simulate", "--engine", "grid", "--grid-n", "16",
                       "--t-final", "0.15", "--out", str(tmp_path / "over"))
    assert code == 1
    assert re.search(r"axis 'x' holds \S+ probability mass .* at t = 0\.15$", err.strip())
    assert not (tmp_path / "over").exists()


def test_a_stacked_grid_run_samples_where_a_one_offset_run_does(capsys, tmp_path, monkeypatch):
    # 105 steps of dt at stride 10: ten intervals of tau = 10 dt, stepped by a
    # plan of 6 offsets as a stack of 6 and one of 4, then a last interval of
    # 5 dt by a plan of its own
    argv = ["compare", "--mode", "quantum-quantum", "--mean", "q=0.3", "--t-final", "1.05",
            "--stride", "10"]
    assert run(capsys, *argv, "--out", str(tmp_path / "stacked"))[0] == 0
    monkeypatch.setattr(grid, "_block_states", lambda spec: 1)
    assert run(capsys, *argv, "--out", str(tmp_path / "one"))[0] == 0
    tables = {}
    for name, offsets in (("stacked", 6), ("one", 1)):
        report = json.loads((tmp_path / name / "report-grid.json").read_text())
        assert (report["plan_tau"], report["plan_steps"], report["plan_offsets"]) == (0.1, 11,
                                                                                     offsets)
        assert json.loads((tmp_path / name / "compare.json").read_text())["max_deviation"] < 1e-12
        tables[name] = read_csv(tmp_path / name / "grid.csv")[1]
    marks, _ = sample_steps(1.05, 0.01, 10)
    assert np.array_equal(tables["stacked"]["t"], marks * 0.01)
    assert np.array_equal(tables["stacked"]["t"], tables["one"]["t"])
    for label, column in tables["one"].items():
        assert np.max(np.abs(tables["stacked"][label] - column)) <= 1e-12, label


def test_a_grid_run_stacks_only_where_its_chirped_states_stay_in_the_box(capsys, tmp_path,
                                                                          monkeypatch):
    # a 32^2 block holds 32 states and 11 offsets pass the chirp sampling bound,
    # but the run's states reach past the momentum box at 8.49 standard
    # deviations: stacked steps up to 1.1 wrapped their tails (max_deviation
    # 5.5e-10 against 9.2e-13).  The plan keeps one offset, as the one-offset
    # run, compiled without the packet, does in the same ring
    argv = ["compare", "--mode", "quantum-quantum", "--grid-n", "32", "--t-final", "100"]
    assert run(capsys, *argv, "--out", str(tmp_path / "run"))[0] == 0
    monkeypatch.setattr(grid, "compile_exact",
                        lambda K, spec, tau, packet: compile_exact(K, spec, tau))
    assert run(capsys, *argv, "--out", str(tmp_path / "one"))[0] == 0
    deviation = {}
    for name in ("run", "one"):
        report = json.loads((tmp_path / name / "report-grid.json").read_text())
        assert (report["plan_tau"], report["plan_steps"], report["plan_offsets"]) == (0.1, 1000, 1)
        deviation[name] = json.loads((tmp_path / name / "compare.json").read_text())["max_deviation"]
    assert deviation["run"] <= deviation["one"] < 1e-10


def test_report_aggregates_runs(capsys, tmp_path):
    run_dir = tmp_path / "r1"
    assert run(
        capsys, "simulate", "--mode", "hybrid", "--engine", "moments",
        "--t-final", "1", "--out", str(run_dir),
    )[0] == 0
    out_dir = tmp_path / "sum"
    code, out, _ = run(capsys, "report", "--runs", str(run_dir), "--out", str(out_dir))
    assert code == 0
    assert "| engine |" in out
    md = (out_dir / "summary.md").read_text()
    assert "| moments | hybrid |" in md
    data = json.loads((out_dir / "summary.json").read_text())
    assert data["count"] == 1


def test_report_requires_existing_runs(capsys, tmp_path):
    code, _, err = run(capsys, "report", "--runs", str(tmp_path / "missing"))
    assert code == 2
