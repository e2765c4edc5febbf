"""Command-line contract: output text, files, config merging, exit codes."""

import ast
import importlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from hybridlab import cli, fit_envelope, read_csv
from hybridlab.cli import main
from hybridlab.grid import sample_steps


def run(capsys, *argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
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


def test_compare_classifies_once_and_reads_each_csv_once(capsys, tmp_path, monkeypatch):
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
    assert calls == {"classify_spectrum": 1, "read_csv": 2}
    _, mcols = read_csv(out_dir / "moments.csv")
    _, gcols = read_csv(out_dir / "grid.csv")
    assert np.array_equal(mcols["t"], gcols["t"])


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
    assert seen[0][1].dt == 0.01 and seen[0][2] == 0.1


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
