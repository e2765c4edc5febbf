"""Workload definitions: seeded CLI argument lists and their output checks.

Each workload turns a seed into the argv lists one run passes to
`hybridlab.cli.main`, plus the set-up the run times before its first call.
The program sees only those argv lists; the seed never reaches it.

The checks read the files and text the CLI produced and return one list of
problems per call.  They use their own small readers rather than the
package's, so a fault in `hybridlab.reporting` cannot hide itself.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
from dataclasses import dataclass

# Axis labels the CLI gives each grid mode, and the width of its initial
# Gaussian (1/sqrt(2), the CLI default): needed to rebuild the CLI's grid
# state and plan for the set-up timing.
GRID_AXES = {"hybrid": ("x", "y", "q"), "quantum-quantum": ("x", "q")}
DEFAULT_WIDTH = 1.0 / math.sqrt(2.0)
MODES = ("classical-classical", "quantum-quantum", "hybrid")

# Criterion 7 bounds, and the moment engine's K conservation to roundoff.
NORM_DRIFT_MAX = 1e-10
GRID_K_DRIFT_MAX = 1e-3
ENGINE_DEV_MAX = 1e-3
MOMENT_K_DRIFT_MAX = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "grid" or "sweep"
    mode: str | None = None
    t_final: float = 0.0
    tiny_t_final: float = 0.0
    grid_n: int = 64
    probe_steps: tuple[int, int] = (0, 0)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hybrid-compare",
            "paper's headline cross-check on the 64^3 grid: 4 MiB FFTs twice the L2, "
            "and sampling about 1/5 of the run",
            "grid", "hybrid", t_final=2.0, tiny_t_final=0.1, probe_steps=(4, 24),
        ),
        Workload(
            "qq-compare",
            "same grid layer on a 64 KiB (x, q) array that stays in cache: "
            "per-step dispatch overhead dominates, plus 1001 moment samples",
            "grid", "quantum-quantum", t_final=100.0, tiny_t_final=1.0,
            probe_steps=(40, 440),
        ),
        Workload(
            "moments-sweep",
            "seeded scan of all three modes through derive, nogo, spectrum and "
            "moment simulate: algebra, parsing, moments and CSV; never the grid",
            "sweep", t_final=100.0, tiny_t_final=10.0,
        ),
    )
}

# Which end-to-end metric each per-layer metric should move, and where.
LAYER_TARGETS = {
    "grid.evolve_s": "wall_s on hybrid-compare and qq-compare",
    "grid.fft_s": "wall_s on hybrid-compare (FFT about 60% of traced wall)",
    "grid.fft_calls": "wall_s on both grid workloads (count)",
    "grid.nonfft_s": "wall_s on qq-compare (phase multiplies, |psi|^2, Python)",
    "grid.steps": "none: fixed by the workload (count)",
    "grid.samples": "none: fixed by the workload (count)",
    "grid.step_ms": "wall_s on both grid workloads",
    "grid.sample_ms": "wall_s on hybrid-compare",
    "grid.compile_s": "setup_s and peak_rss_mb on the grid workloads",
    "grid.init_s": "setup_s and peak_rss_mb on the grid workloads",
    "moments.propagate_s": "wall_s on moments-sweep and qq-compare",
    "moments.propagate_calls": "wall_s on moments-sweep and qq-compare (count)",
    "moments.expect_s": "wall_s on moments-sweep and qq-compare",
    "moments.expect_calls": "wall_s on moments-sweep and qq-compare (count)",
    "moments.classify_s": "wall_s on moments-sweep",
    "moments.fit_s": "wall_s on moments-sweep",
    "algebra.derive_s": "wall_s on moments-sweep",
    "algebra.derive_calls": "wall_s on moments-sweep (count)",
    "expressions.parse_s": "wall_s on moments-sweep",
    "expressions.parse_calls": "wall_s on moments-sweep (count)",
    "benchmark.self_s": "wall_s on moments-sweep",
    "reporting.write_s": "wall_s on moments-sweep and qq-compare",
    "reporting.read_s": "wall_s on moments-sweep and qq-compare",
    "reporting.bytes_written": "wall_s on moments-sweep and qq-compare (count)",
    "cli.self_s": "wall_s on every workload",
    "trace.overhead_s": "none: cost of tracing itself",
}


@dataclass
class Plan:
    """What one run of a workload does: its CLI calls and set-up recipe."""

    calls: list[list[str]]
    setup: dict
    expect: list[dict]  # what each call must produce, one entry per call


def _decimal(value: float, places: int) -> str:
    text = f"{value:.{places}f}".rstrip("0").rstrip(".")
    return "0" if text in ("-0", "") else text


def build(name: str, seed: int, out_dir: str, tiny: bool = False) -> Plan:
    """The seeded plan of one run of workload `name`, writing under out_dir."""
    w = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    t_final = w.tiny_t_final if tiny else w.t_final
    if w.kind == "grid":
        return _grid_plan(w, rng, out_dir, t_final)
    return _sweep_plan(rng, out_dir, t_final, configs_per_mode=1 if tiny else 3)


def _grid_plan(w: Workload, rng: random.Random, out_dir: str, t_final: float) -> Plan:
    # Small displacements: they change every output byte, yet keep the
    # engine deviation near its seed-independent floor and the state far
    # from the box edge.
    means = {lbl: _decimal(rng.uniform(-0.1, 0.1), 4) for lbl in GRID_AXES[w.mode]}
    argv = ["compare", "--mode", w.mode, "--k", "0.2", "--dt", "0.01",
            "--t-final", _decimal(t_final, 3), "--stride", "10",
            "--grid-n", str(w.grid_n), "--grid-l", "8"]
    for lbl, value in means.items():
        argv += ["--mean", f"{lbl}={value}"]
    argv += ["--deterministic", "--out", out_dir]
    setup = {"kind": "grid", "mode": w.mode, "k": "0.2", "dt": 0.01,
             "grid_n": w.grid_n, "grid_l": 8.0,
             "means": {k: float(v) for k, v in means.items()},
             "width": DEFAULT_WIDTH}
    return Plan([argv], setup, [{"cmd": "compare", "dir": out_dir}])


def _sweep_plan(rng: random.Random, out_dir: str, t_final: float,
                configs_per_mode: int) -> Plan:
    calls: list[list[str]] = []
    expect: list[dict] = []
    first = None
    for mode in MODES:
        texted = rng.randrange(configs_per_mode)
        for j in range(configs_per_mode):
            k = _decimal(0.05 * rng.randint(1, 10), 2)
            b = _decimal(0.05 * rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), 2)
            c = _decimal(0.05 * rng.randint(-4, 4), 2)
            ham = (f"(q^2 + p^2)/2 + (x^2 + y^2)/2 + {k}*q*x + ({b})*q*y"
                   f" + ({c})*x*y")
            use_text = j == texted
            if first is None:
                first = (mode, k)
            # classical-classical has no operator generator, so its derive
            # always takes the Hamiltonian text (a mode-only call exits 2).
            if use_text or mode == "classical-classical":
                calls.append(["derive", "--hamiltonian", ham])
                expect.append({"cmd": "derive", "dp": {"q": -1.0, "p_x": -float(b),
                                                       "p_y": float(k)}})
            else:
                calls.append(["derive", "--mode", mode, "--k", k])
                dp = {"q": -1.0, "p_y": float(k)} if mode == "hybrid" else \
                    {"q": -1.0, "x": -float(k)}
                expect.append({"cmd": "derive", "dp": dp})
            calls.append(["nogo", "--k", k])
            expect.append({"cmd": "nogo", "k": float(k)})
            if use_text:
                calls.append(["spectrum", "--hamiltonian", ham])
                expect.append({"cmd": "spectrum", "secular": True})
            else:
                calls.append(["spectrum", "--mode", mode, "--k", k])
                expect.append({"cmd": "spectrum", "secular": mode == "hybrid"})
            run_dir = os.path.join(out_dir, f"{mode}-{j}")
            argv = ["simulate", "--mode", mode, "--engine", "moments", "--k", k,
                    "--dt", "0.1", "--t-final", _decimal(t_final, 3), "--stride", "1"]
            for lbl in ("q", "x", "y"):
                argv += ["--mean", f"{lbl}={_decimal(rng.uniform(-1, 1), 3)}"]
            calls.append(argv + ["--deterministic", "--out", run_dir])
            expect.append({"cmd": "simulate", "dir": run_dir})
    setup = {"kind": "sweep", "mode": first[0], "k": first[1]}
    return Plan(calls, setup, expect)


# ---------------------------------------------------------------------------
# Output checks.
# ---------------------------------------------------------------------------


def read_csv_columns(path: str) -> dict[str, list[float]]:
    """Columns of a CSV; raises ValueError on a malformed or non-finite cell."""
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if len(lines) < 2:
        raise ValueError(f"{path}: no data rows")
    header = lines[0].split(",")
    columns: dict[str, list[float]] = {h: [] for h in header}
    for n, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path}:{n}: {len(cells)} cells, header has {len(header)}")
        for h, cell in zip(header, cells):
            value = float(cell)
            if not math.isfinite(value):
                raise ValueError(f"{path}:{n}: non-finite {h} = {cell}")
            columns[h].append(value)
    return columns


def _read_compare_table(path: str) -> dict[str, float]:
    """compare.csv rows: observable name -> finite maximum deviation."""
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if lines[:1] != ["observable,max_abs_deviation"] or len(lines) < 2:
        raise ValueError(f"{path}: unexpected header or no rows")
    table = {}
    for n, line in enumerate(lines[1:], start=2):
        name, _, cell = line.partition(",")
        value = float(cell)
        if not math.isfinite(value):
            raise ValueError(f"{path}:{n}: non-finite deviation for {name}")
        table[name] = value
    return table


def _drift(values: list[float], relative: bool) -> float:
    d = max(abs(v - values[0]) for v in values)
    return d / abs(values[0]) if relative and values[0] != 0 else d


def _check_moments_csv(path: str, problems: list[str]) -> dict | None:
    try:
        cols = read_csv_columns(path)
    except (OSError, ValueError) as exc:
        problems.append(str(exc))
        return None
    k_drift = _drift(cols["K"], relative=True)
    if not k_drift < MOMENT_K_DRIFT_MAX:
        problems.append(f"{path}: moment K drift {k_drift:.3e} >= {MOMENT_K_DRIFT_MAX}")
    return cols


def _check_compare(run_dir: str, problems: list[str]) -> float | None:
    moments = _check_moments_csv(os.path.join(run_dir, "moments.csv"), problems)
    try:
        grid = read_csv_columns(os.path.join(run_dir, "grid.csv"))
        table = _read_compare_table(os.path.join(run_dir, "compare.csv"))
        with open(os.path.join(run_dir, "compare.json")) as fh:
            claimed = float(json.load(fh)["max_deviation"])
    except (OSError, ValueError, KeyError) as exc:
        problems.append(str(exc))
        return None
    if max(table.values()) != claimed:
        problems.append(f"compare.csv maximum {max(table.values())!r} is not "
                        f"compare.json's {claimed!r}")
    norm_drift = _drift(grid["norm"], relative=False)
    if not norm_drift < NORM_DRIFT_MAX:
        problems.append(f"grid norm drift {norm_drift:.3e} >= {NORM_DRIFT_MAX}")
    k_drift = _drift(grid["K"], relative=True)
    if not k_drift < GRID_K_DRIFT_MAX:
        problems.append(f"grid K drift {k_drift:.3e} >= {GRID_K_DRIFT_MAX}")
    if not (math.isfinite(claimed) and claimed < ENGINE_DEV_MAX):
        problems.append(f"max_engine_dev {claimed!r} not below {ENGINE_DEV_MAX}")
    if moments is not None:
        shared = [n for n in moments if n != "t" and n in grid]
        if moments["t"] != grid["t"] or not shared:
            problems.append("moments.csv and grid.csv sample different times or columns")
        else:
            own = max(max(abs(a - b) for a, b in zip(moments[n], grid[n])) for n in shared)
            if abs(own - claimed) > 1e-12 * max(1.0, own):
                problems.append(f"compare.json claims {claimed!r}, CSVs give {own!r}")
    return claimed


_TERM = re.compile(r"([+-])\s*(?:(\d+(?:\.\d+)?)\*)?([A-Za-z_]+)")


def _linear_terms(rhs: str) -> dict[str, float]:
    """Coefficients of a linear right-hand side such as '-q + 0.2*p_y'."""
    text = rhs.strip()
    if not text.startswith(("+", "-")):
        text = "+" + text
    terms: dict[str, float] = {}
    pos = 0
    for m in _TERM.finditer(text):
        if text[pos:m.start()].strip():
            raise ValueError(f"cannot read {rhs!r}")
        sign = -1.0 if m.group(1) == "-" else 1.0
        terms[m.group(3)] = sign * float(m.group(2) or 1)
        pos = m.end()
    if text[pos:].strip():
        raise ValueError(f"cannot read {rhs!r}")
    return terms


def _check_derive(out: str, want: dict[str, float], problems: list[str]) -> None:
    rhs = [line.split("=", 1)[1] for line in out.splitlines()
           if line.startswith("dp/dt =")]
    if len(rhs) != 1:
        problems.append("derive printed no dp/dt line")
        return
    try:
        got = _linear_terms(rhs[0])
    except ValueError as exc:
        problems.append(f"derive: {exc}")
        return
    if set(got) != set(want) or any(abs(got[n] - want[n]) > 1e-12 for n in want):
        problems.append(f"derive: dp/dt = {rhs[0].strip()}, expected {want}")


def _check_nogo(out: str, k: float, problems: list[str]) -> None:
    m = re.match(r"witness = -(\d+(?:\.\d+)?)\*i: FAIL", out.strip())
    if not m or abs(float(m.group(1)) - k) > 1e-12:
        problems.append(f"nogo: expected 'witness = -{k}*i: FAIL', got {out.strip()!r}")


def _check_spectrum(out: str, secular: bool, problems: list[str]) -> None:
    lines = out.splitlines()
    eig = [line for line in lines if line.startswith("eigenvalue ")]
    if not eig:
        problems.append("spectrum printed no eigenvalues")
    for line in eig:
        number = line.split()[1].rstrip(":").rstrip("i")
        try:
            value = complex(number + "j")
        except ValueError:
            problems.append(f"spectrum: unreadable eigenvalue in {line!r}")
            continue
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            problems.append(f"spectrum: non-finite eigenvalue in {line!r}")
    want = "secular growth: " + ("yes" if secular else "no")
    if want not in lines:
        problems.append(f"spectrum: expected {want!r}")


def check_call(expect: dict, rc: int, out: str) -> tuple[list[str], float | None]:
    """Problems with one call's result, and its engine deviation if any."""
    problems: list[str] = []
    if rc != 0:
        problems.append(f"exit code {rc}")
        return problems, None
    dev = None
    cmd = expect["cmd"]
    if cmd == "compare":
        dev = _check_compare(expect["dir"], problems)
    elif cmd == "simulate":
        _check_moments_csv(os.path.join(expect["dir"], "moments.csv"), problems)
    elif cmd == "derive":
        _check_derive(out, expect["dp"], problems)
    elif cmd == "nogo":
        _check_nogo(out, expect["k"], problems)
    elif cmd == "spectrum":
        _check_spectrum(out, expect["secular"], problems)
    return problems, dev
