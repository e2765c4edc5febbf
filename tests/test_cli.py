"""Command-line contract: output text, files, config merging, exit codes."""

import ast
import importlib
import json
import math
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

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
    mode_generator_matrix,
    propagate_moments,
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


def test_spectrum_wide_tolerance_keeps_simple_lines(capsys):
    code, out, _ = run(capsys, "spectrum", "--mode", "quantum-quantum", "--k", "0.2",
                       "--tol", "0.5")
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
    assert "configuration error: eigenvalues too large, or too far apart, for floats" in err


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
    for name in ("marginal-x.bin", "marginal-y.bin", "marginal-q.bin",
                 "marginal-xy.bin"):
        assert (out_dir / name).exists()


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


def test_sample_count_above_cap_exits_2(capsys, tmp_path):
    code, _, err = run(
        capsys, "simulate", "--engine", "moments", "--dt", "1e-6", "--t-final", "20",
        "--stride", "1", "--out", str(tmp_path / "cap"),
    )
    assert code == 2
    assert "20000000 steps at stride 1 make 20000001 samples, more than the cap of 10000000" in err
    assert not (tmp_path / "cap").exists()


def test_grid_step_count_above_cap_exits_2_before_allocating(capsys, tmp_path, monkeypatch):
    # 12 samples pass the sample cap, but a stride coprime to the 10**10 steps
    # makes the exact plan step at tau = dt
    def refuse(*args, **kwargs):
        raise AssertionError("the grid engine started")

    for name in ("compile_exact", "gaussian_state", "evolve"):
        monkeypatch.setattr(cli, name, refuse)
    code, _, err = run(
        capsys, "simulate", "--engine", "grid", "--dt", "1e-9", "--t-final", "10",
        "--stride", "999999999", "--out", str(tmp_path / "cap"),
    )
    assert code == 2
    assert "needs 10000000000 exact steps of tau = 1e-09, more than the cap of 10000000" in err
    assert not (tmp_path / "cap").exists()


def test_grid_beyond_physical_memory_exits_2_before_allocating(capsys, tmp_path, monkeypatch):
    # 4096^3 complex amplitudes are 1 TiB for the state alone
    def refuse(*args, **kwargs):
        raise AssertionError("the grid engine started")

    for name in ("compile_exact", "gaussian_state"):
        monkeypatch.setattr(cli, name, refuse)
    code, _, err = run(
        capsys, "simulate", "--engine", "grid", "--grid-n", "4096", "--out", str(tmp_path / "big"),
    )
    assert code == 2
    match = re.search(r"3-axis grid of 4096 points per axis needs about (\d+) bytes", err)
    assert match and int(match.group(1)) >= 16 * 4096**3
    assert "bytes of physical memory" in err
    assert not (tmp_path / "big").exists()


@pytest.mark.parametrize("mode, axes", [("quantum-quantum", "xq"), ("hybrid", "xyq")])
def test_grid_memory_estimate_covers_a_run_with_its_sample_blocks(mode, axes, monkeypatch):
    # at 64 points the (x, q) state is 64 KiB, 8 to a double-buffered sample
    # block, and the 64^3 state 4 MiB, alone in its one block
    monkeypatch.setattr(cli.os, "sysconf", lambda name: 1)  # a one-byte machine
    with pytest.raises(cli.ConfigError) as refused:
        cli._check_grid_memory(len(axes), 64)
    monkeypatch.undo()
    need = int(re.search(r"needs about (\d+) bytes", str(refused.value)).group(1))
    k = Fraction(1, 5)
    tracemalloc.start()
    try:
        spec = GridSpec(tuple(AxisSpec(label, 8.0, 64) for label in axes))
        plan = compile_exact(benchmark.mode_koopmanian(mode, k), spec, 0.1)
        state = gaussian_state(spec, {}, 1.0 / math.sqrt(2.0))
        evolve(state, plan, 0.5, observers=benchmark.default_observers(mode, k))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # leaving the sample blocks out, the (x, q) run would peak at 1.4 times the estimate
    assert peak <= 1.25 * need


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
    code, _, err = run(
        capsys, "simulate", "--mode", "hybrid", "--engine", "grid",
        "--grid-n", "32", "--grid-l", "4", "--mean", "q=1.0",
        "--t-final", "1", "--out", str(tmp_path / "of"),
    )
    assert code == 1
    assert "runtime failure" in err


def test_bad_mean_name_exits_2(capsys):
    code, _, err = run(capsys, "simulate", "--mean", "p=1.0")
    assert code == 2
    assert "--mean supports" in err


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


def test_negative_tol_exits_2(capsys):
    code, _, err = run(capsys, "spectrum", "--mode", "hybrid", "--tol", "-1")
    assert code == 2
    assert "--tol must be positive" in err


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
])
def test_coefficient_beyond_float_range_exits_2(capsys, tmp_path, argv, message):
    extra = ["--t-final", "0.1", "--out", str(tmp_path / "c")] if argv[0] == "simulate" else []
    code, _, err = run(capsys, *argv, *extra)
    assert code == 2
    assert f"configuration error: {message}" in err
    assert not (tmp_path / "c").exists()


def test_exact_commands_accept_k_beyond_float_range(capsys):
    code, out, _ = run(capsys, "derive", "--mode", "hybrid", "--k", "1e400")
    assert code == 0
    assert f"dp/dt = -q + {10**400}*p_y" in out
    code, out, _ = run(capsys, "nogo", "--k", "1e400")
    assert code == 0
    assert f"witness = -{10**400}*i: FAIL" in out


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
    assert "observer labels" in err


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


def test_moment_engine_propagates_once_per_block(capsys, tmp_path, monkeypatch):
    argv = ["simulate", "--mode", "hybrid", "--engine", "moments", "--stride", "1",
            "--deterministic"]
    plain = tmp_path / "plain"
    assert run(capsys, *argv, "--out", str(plain))[0] == 0
    calls = []
    original = cli.propagate_moments

    def counted(G, s0, t):
        calls.append(len(t))
        return original(G, s0, t)

    monkeypatch.setattr(cli, "propagate_moments", counted)
    counted_dir = tmp_path / "counted"
    assert run(capsys, *argv, "--out", str(counted_dir))[0] == 0
    # 1001 samples in blocks of 128
    assert calls == [128] * 7 + [105]
    assert (counted_dir / "moments.csv").read_bytes() == (plain / "moments.csv").read_bytes()


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
    # 25 steps with stride 10: tau = 5 dt, sampled every 2 steps of tau
    (32, 0.01, 0.25, 10, 0.05, 2),
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
