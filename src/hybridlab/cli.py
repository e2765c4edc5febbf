"""Command-line entry point.

Subcommands: derive, nogo, spectrum, simulate, compare, report.  Options
may come from a config file (INI-style, one section per subcommand, keys
named like the long flags); explicit flags win over the file.  Exit codes:
0 success, 1 runtime failure (for example a BoxOverflow mid-run) or
internal error, 2 configuration error.

main(argv) may be called any number of times in one process: the parser is
built on the first call and reused, and each call parses into a fresh
namespace, so no option carries over from one call to the next.

simulate and compare share one runner.  It validates the inputs and, before
either engine runs, builds the one MomentState both start from: grid.plan_run
plans, or refuses, a grid run from it, and gaussian_state builds and checks
the per-axis factors of the grid's initial state (over the box's edge-mass
rule, vanishing on the grid), whose product evolve writes into its own
ring.  Each engine is a table builder that returns its named sample
columns; the runner writes nothing until every engine has finished, then
writes spectrum.json once and per engine the CSV and a report derived from
the engine's in-memory columns, which equal that CSV bit for bit.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
import time
from fractions import Fraction

import numpy as np

from . import benchmark, moments
from .algebra import (
    GENERATOR_NAMES,
    OperatorPolynomial,
    ShiftOperatorPresent,
    UnsupportedMixing,
    generator,
    heisenberg_rhs,
    hybridize,
    nogo_witness,
)
from .expressions import (
    ExpressionError,
    ParameterBinding,
    parse_polynomial,
)
from .moments import (
    DegreeTooHigh,
    InsufficientData,
    MomentOverflow,
    NonlinearDynamics,
    _apply_flow,
    _flow_with_drift,
    classify_spectrum,
    fit_envelope,
    propagate_moments,
    quadratic_expectation,
    sample_steps,
)
from .reporting import (
    aggregate_reports,
    format_number,
    read_csv,  # not called here: perfbench's tracer wraps cli.read_csv
    write_atomic,
    write_csv,
    write_json,
)

__all__ = ["main"]


class ConfigError(Exception):
    pass


class NonFiniteOutput(Exception):
    """An engine computed a column value that is not a finite float."""


# The grid's names this module uses, bound by _load_grid on a grid run's first need, so a
# derive, nogo, spectrum, report or moment-only run never imports the grid.  perfbench's
# tracer reads and wraps them as cli attributes (module __getattr__ below), compile_splitting,
# marginal_density and set_workers included, which are not called here.
_GRID_NAMES = ("AxisSpec", "GridSpec", "compile_splitting", "evolve", "gaussian_state",
               "marginal_densities", "marginal_density", "plan_run", "save_snapshot",
               "set_workers")
_GRID_AXES = {"hybrid": ("x", "y", "q"), "quantum-quantum": ("x", "q")}
_DEFAULT_WIDTH = 1.0 / math.sqrt(2.0)
# sample times per moment block, block starts per stacked flow; bounds temporaries
_MOMENT_BLOCK = 128


# ---------------------------------------------------------------------------
# Option plumbing.
# ---------------------------------------------------------------------------


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"not a number: {text!r}") from exc


def _parse_bool(text) -> bool:
    if isinstance(text, bool):
        return text
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


def _split_config_list(text: str) -> list[str]:
    parts: list[str] = []
    for chunk in text.replace(";", "\n").splitlines():
        chunk = chunk.strip()
        if chunk:
            parts.append(chunk)
    return parts


def _merge(args: argparse.Namespace, section: configparser.SectionProxy | None):
    """Fill argparse Nones from the config section, in place."""
    if section is None:
        return
    known = vars(args)
    for key in section:
        dest = key.replace("-", "_")
        if dest not in known:
            raise ConfigError(f"unknown config key {key!r} in section [{args.command}]")
        if known[dest] is None:
            args.__setattr__(dest, section[key])
        elif isinstance(known[dest], list) and not known[dest]:
            args.__setattr__(dest, _split_config_list(section[key]))


def _required(args, name, fallback):
    """The option's value, from the command line or the config file, else fallback."""
    value = getattr(args, name.replace("-", "_"))
    return fallback if value is None else value


def _as_float(value, name) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"--{name} expects a number, got {value!r}") from exc
    if not math.isfinite(number):
        raise ConfigError(f"--{name} expects a finite number, got {value!r}")
    return number


def _as_int(value, name) -> int:
    try:
        return int(str(value), 10)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"--{name} expects an integer, got {value!r}") from exc


def _parse_pairs(items, what) -> dict[str, str]:
    """NAME=VALUE items in order; each name nonempty, given once, and free of a comma
    or line break, since an observer's name heads a CSV column."""
    out: dict[str, str] = {}
    for item in items:
        name, eq, value = item.partition("=")
        name = name.strip()
        if not eq:
            raise ConfigError(f"{what} must look like name=value, got {item!r}")
        if not name or {",", "\n", "\r"} & set(name):
            raise ConfigError(f"{what} needs a nonempty name without a comma or line break, "
                              f"got {item!r}")
        if name in out:
            raise ConfigError(f"{what} gives the name {name!r} twice")
        out[name] = value.strip()
    return out


# ---------------------------------------------------------------------------
# Shared assembly.
# ---------------------------------------------------------------------------


def _mode_of(args) -> str:
    mode = _required(args, "mode", "hybrid")
    if mode not in benchmark.MODES:
        raise ConfigError(f"unknown mode {mode!r}; choose from {benchmark.MODES}")
    return mode


def _coupling_of(args) -> Fraction:
    raw = getattr(args, "k", None)
    if raw is None:
        return Fraction(1, 5)
    return _parse_fraction(raw)


def _check_float_range(numbers, message: str) -> None:
    """For the commands that compute with exact numbers as floats."""
    for number in numbers:
        try:
            float(number.real), float(number.imag)
        except OverflowError as exc:
            raise ConfigError(message) from exc


def _check_float_nonzero(numbers, message: str) -> None:
    """For simulate and compare, which run in floats: no nonzero part may round to 0."""
    for number in numbers:
        if any(part and not float(part) for part in (number.real, number.imag)):
            raise ConfigError(message)


def _exact_str(value) -> str:
    """str(value) for output of exact numbers, refused past the interpreter's digit limit."""
    try:
        return str(value)
    except ValueError as exc:  # int -> str conversion refuses past sys.get_int_max_str_digits()
        raise ConfigError(f"an exact result holds an integer past the interpreter's limit of "
                          f"{sys.get_int_max_str_digits()} digits for printing one") from exc


def _float_coupling(args) -> Fraction:
    k = _coupling_of(args)
    _check_float_range([k], f"--k is too large for a float: {args.k}")
    return k


def _binding(args, k: Fraction, numeric: bool = True) -> ParameterBinding:
    params = {"k": k}
    for name, value in _parse_pairs(args.param, "--param").items():
        if name == "k":
            raise ConfigError(f"--param {name}={value}: k is the coupling, give it with --k")
        params[name] = _parse_fraction(value)
        if numeric:
            _check_float_range([params[name]], f"--param {name} is too large for a float: {value}")
    try:
        return ParameterBinding(params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _explicit_generator(args, binding: ParameterBinding) -> OperatorPolynomial | None:
    """The generator --koopmanian or --hamiltonian gives, or None; either one excludes --mode."""
    koop, ham = args.koopmanian, args.hamiltonian
    given = [f"--{name}" for name in ("mode", "koopmanian", "hamiltonian")
             if getattr(args, name) is not None]
    if len(given) > 1:
        raise ConfigError(f"give one of --mode, --koopmanian or --hamiltonian, "
                          f"not both {given[0]} and {given[1]}")
    if koop is not None:
        return parse_polynomial(koop, binding)
    if ham is not None:
        return hybridize(parse_polynomial(ham, binding))
    return None


def _spectrum_summary(report) -> str:
    parts = []
    for line in report.lines:
        ev = line.eigenvalue
        parts.append(
            f"{ev.real:+.6g}{ev.imag:+.6g}i (alg {line.algebraic}, "
            f"geo {line.geometric}, chain {line.chain})"
        )
    tail = "secular growth" if report.secular else "no secular growth"
    return "; ".join(parts) + "; " + tail


def _observer_list(args, mode: str, k: Fraction, binding: ParameterBinding, koopmanian):
    pairs = _parse_pairs(args.observer, "--observer")
    if not pairs:
        return benchmark.default_observers(mode, k, koopmanian)
    if {"t", "norm"} & set(pairs):
        raise ConfigError(f"observer labels must not be t or norm, got {list(pairs)}")
    observers = []
    for label, expr in pairs.items():
        poly = parse_polynomial(expr, binding)
        coefficients = [c for _, c in poly.monomials()]
        _check_float_range(coefficients, f"--observer {label}={expr}: too large for a float")
        _check_float_nonzero(coefficients, f"--observer {label}={expr}: too small for a float")
        observers.append((label, poly))
    return observers


def _grid_spec_for(command: str, mode: str, half_extent: float, points: int) -> GridSpec:
    if mode not in _GRID_AXES:
        advice = "run simulate instead" if command == "compare" else "use --engine moments"
        raise ConfigError(
            "the grid engine supports hybrid and quantum-quantum runs; "
            f"classical-classical moments close exactly, {advice}"
        )
    return GridSpec(tuple(AxisSpec(lbl, half_extent, points) for lbl in _GRID_AXES[mode]))


def _simulation_settings(args):
    """Validate the simulate/compare inputs and build the engines' inputs."""
    mode = _mode_of(args)
    k = _float_coupling(args)
    _check_float_nonzero([k], f"--k is too small for a float: {args.k}")
    engine = _required(args, "engine", "moments")
    if engine not in ("moments", "grid", "both"):
        raise ConfigError(f"unknown engine {engine!r}; choose moments, grid, or both")
    engines = tuple(_ENGINES) if engine == "both" else (engine,)
    dt = _as_float(_required(args, "dt", 0.01), "dt")
    if dt <= 0:
        raise ConfigError("--dt must be positive")
    t_final = _as_float(_required(args, "t-final", 10.0), "t-final")
    stride = _as_int(_required(args, "stride", 10), "stride")
    grid_n = _as_int(_required(args, "grid-n", 64), "grid-n")
    grid_l = _as_float(_required(args, "grid-l", 8.0), "grid-l")
    means = {name: _as_float(value, "mean")
             for name, value in _parse_pairs(args.mean, "--mean").items()}
    out_dir = _required(args, "out", "hybridlab-run")
    _parse_bool(_required(args, "deterministic", False))  # validated; runs are always reproducible
    binding = _binding(args, k)
    for name, value in binding.items():
        _check_float_nonzero([value], f"--param {name} is too small for a float")
    koopmanian = None if mode == "classical-classical" else benchmark.mode_koopmanian(mode, k)
    observers = _observer_list(args, mode, k, binding, koopmanian)
    # The engines' own constructors validate these inputs with ValueError.  Every grid
    # refusal happens here, before either engine runs, and the plan's before any array.
    try:
        marks, steps = sample_steps(t_final, dt, stride)
        moment_state = benchmark.default_moment_state(means)  # the one Gaussian of both engines
        grid_runs = grid_state = None
        if "grid" in engines:
            _load_grid()
            spec = _grid_spec_for(args.command, mode, grid_l, grid_n)
            grid_means = {lbl: means.get(lbl, 0.0) for lbl in spec.labels}
            grid_runs = plan_run(koopmanian, spec, dt, steps, stride, moment_state, observers)
            grid_state = gaussian_state(spec, grid_means, _DEFAULT_WIDTH)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return argparse.Namespace(
        engines=engines,
        generator=benchmark.mode_generator_matrix(mode, k, koopmanian),
        stride=stride,
        steps=steps,
        grid_state=grid_state,
        grid_runs=grid_runs,
        moment_state=moment_state,
        out_dir=out_dir,
        observers=observers,
        times=marks * dt,
        snapshot=_parse_bool(_required(args, "snapshot", False)),
        config_echo={
            "mode": mode,
            "k": _exact_str(k),
            "engine": engine,
            "dt": dt,
            "t_final": t_final,
            "stride": stride,
            "grid_n": grid_n,
            "grid_l": grid_l,
            "means": means,
            "observers": [label for label, _ in observers],
        },
    )


# ---------------------------------------------------------------------------
# Engines.
# ---------------------------------------------------------------------------


def _report_numbers(columns) -> dict:
    """Derive the report's numeric claims from the columns the CSV holds.

    Raises NonFiniteOutput for a K drift past the float range.
    """
    numbers = {"norm_drift": None, "koopmanian_drift": None, "envelope": None}
    if "norm" in columns:
        numbers["norm_drift"] = float(np.max(np.abs(columns["norm"] - columns["norm"][0])))
    if "K" in columns:
        k0 = float(columns["K"][0])
        with np.errstate(over="ignore"):  # refused below
            drift = float(np.max(np.abs(columns["K"] - k0)))
        if drift == math.inf:
            raise NonFiniteOutput(f"K drifts from K(0) = {k0:g} past the float range")
        relative = drift / abs(k0) if k0 else math.inf
        # absolute where K(0) is 0, or too close to 0 for the relative drift to be a float
        numbers["koopmanian_drift"] = relative if relative < math.inf else drift
    if "q2" in columns:
        try:
            fit = fit_envelope(columns["t"], np.sqrt(np.maximum(columns["q2"], 0.0)))
            numbers["envelope"] = {
                "series": "sqrt(q2)",
                "degree": int(fit.degree),
                "coefficients": [float(c) for c in fit.coefficients],
                "relative_residual": float(fit.residual),
            }
        except InsufficientData:
            pass
    return numbers


def _moment_states(settings):
    """States at settings.times, block by block, from the moment flow in two levels.

    Later blocks repeat the first block's offsets o from their starts t_b, and
    exp(G (t_b + o)) = exp(G t_b) exp(G o): the first block is propagated from
    t = 0, and one affine update per block carries it to t_b, in time order.
    The flows at up to _MOMENT_BLOCK block starts come from one stacked
    exponential.  A last block off the stride is propagated on its own.
    """
    G, s0, times, n = settings.generator, settings.moment_state, settings.times, _MOMENT_BLOCK
    last = (len(times) - 1) // n * n  # the last block's first row
    end = last if last and settings.steps % settings.stride else len(times)  # carried rows end
    base = propagate_moments(G, s0, times[:n])
    yield base
    for first in range(n, end, n * n):
        M, d = _flow_with_drift(G, times[first:end:n][:n])
        for Mb, db, start in zip(M, d, range(first, end, n)):
            k = min(n, end - start)
            yield _apply_flow(Mb, db, base.mean[:k], base.second[:k], times[start:start + k])
    if end < len(times):
        yield propagate_moments(G, s0, times[end:])


def _moment_columns(settings):
    """Observer columns: one quadratic_expectation per observer and block of states."""
    with np.errstate(over="ignore", invalid="ignore"):  # _run_engines reports these
        blocks = [[quadratic_expectation(poly, state) for _, poly in settings.observers]
                  for state in _moment_states(settings)]
    columns = {
        label: np.concatenate(parts)
        for (label, _), parts in zip(settings.observers, zip(*blocks))
    }
    return columns, {}, None


def _grid_columns(settings):
    (plan, stride, steps), *rest = settings.grid_runs
    tail = (rest[0][0], rest[0][2]) if rest else None
    result = evolve(settings.grid_state, plan, steps * plan.dt, settings.observers,
                    stride=stride, tail=tail)
    columns = {"norm": result.norms, **dict(zip(result.labels, result.values.T))}
    extra = {"max_imag_residual": float(np.max(result.imag_residuals, initial=0.0)),
             "plan_tau": plan.dt, "plan_steps": sum(n for *_, n in settings.grid_runs),
             "plan_offsets": plan.offsets}
    return columns, extra, result.final_state if settings.snapshot else None


# Engine name -> table builder: (named sample columns at settings.times,
# extra report fields, final grid state to snapshot or None).
_ENGINES = {"moments": _moment_columns, "grid": _grid_columns}


def _run_engines(settings) -> list[tuple[dict, dict]]:
    """Run every engine and derive its report numbers, refusing any that are
    not finite, then write <engine>.csv and report-<engine>.json.

    Returns each engine's report, as written, with its CSV's columns.  The
    CSV holds every float to 17 significant digits, which round-trips it, so
    these in-memory columns equal the file's bit for bit.
    """
    spectrum = classify_spectrum(settings.generator)
    tables = {}
    for engine in settings.engines:
        t0 = time.perf_counter()
        tables[engine] = (*_ENGINES[engine](settings), time.perf_counter() - t0)
    numbers = {}
    for engine, (columns, *_) in tables.items():
        for label, column in columns.items():
            bad = np.flatnonzero(~np.isfinite(column))
            if bad.size:
                raise NonFiniteOutput(f"the {engine} engine's column {label} is "
                                      f"{column[bad[0]]} at t = {settings.times[bad[0]]:g}")
        numbers[engine] = _report_numbers({"t": settings.times, **columns})
    out_dir = settings.out_dir
    os.makedirs(out_dir, exist_ok=True)
    spectrum_path = os.path.join(out_dir, "spectrum.json")
    write_json(spectrum_path, spectrum.to_dict())
    spectrum_summary = _spectrum_summary(spectrum)
    runs = []
    for engine, (columns, extra, snapshot_state, seconds) in tables.items():
        t0 = time.perf_counter()
        if snapshot_state is not None:
            _write_snapshots(snapshot_state, out_dir)
        csv_path = os.path.join(out_dir, f"{engine}.csv")
        written = {"t": settings.times, **columns}
        write_csv(csv_path, list(written), list(written.values()))
        report = {
            "config": settings.config_echo,
            "engine": engine,
            "csv_path": csv_path,
            "spectrum_path": spectrum_path,
            "spectrum_summary": spectrum_summary,
            "wall_seconds": seconds + time.perf_counter() - t0,
            **numbers[engine],
            **extra,
        }
        write_json(os.path.join(out_dir, f"report-{engine}.json"), report)
        runs.append((report, written))
    return runs


def _write_snapshots(final_state, out_dir: str) -> None:
    """marginal-<axis>.bin for each axis, and marginal-xy.bin when both exist."""
    labels = final_state.spec.labels
    keeps = [(label,) for label in labels] + [("x", "y")] * ({"x", "y"} <= set(labels))
    for keep, marginal in zip(keeps, marginal_densities(final_state, keeps)):
        axes = [final_state.spec.axis(label) for label in keep]
        save_snapshot(
            os.path.join(out_dir, f"marginal-{''.join(keep)}.bin"), list(keep),
            [a.points for a in axes], [a.half_extent for a in axes], marginal,
        )


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _cmd_derive(args) -> int:
    k = _coupling_of(args)
    binding = _binding(args, k, numeric=False)
    generator_poly = _explicit_generator(args, binding)
    if generator_poly is None:
        mode = _mode_of(args)
        if mode == "classical-classical":
            raise ConfigError(
                "derive prints Heisenberg equations of an operator generator; "
                "classical-classical has none here (pass --koopmanian explicitly)"
            )
        generator_poly = benchmark.mode_koopmanian(mode, k)
    rhs = [f"d{name}/dt = {_exact_str(heisenberg_rhs(generator(name), generator_poly))}"
           for name in GENERATOR_NAMES]
    print("\n".join([f"K = {_exact_str(generator_poly)}", *rhs]))  # once every line is made
    return 0


def _cmd_nogo(args) -> int:
    witness = nogo_witness(_coupling_of(args))
    fail = "FAIL (-i*k != 0: no Koopmanian yields both target commutators)"
    print(f"witness = {_exact_str(witness)}: {'OK' if witness.is_zero else fail}")
    return 0


def _cmd_spectrum(args) -> int:
    k = _float_coupling(args)
    explicit = _explicit_generator(args, _binding(args, k))
    try:
        G = (benchmark.mode_generator_matrix(_mode_of(args), k) if explicit is None
             else moments.derive_generator(explicit))
    except OverflowError as exc:
        raise ConfigError("generator too large for a float") from exc
    try:
        report = classify_spectrum(G)
    except OverflowError as exc:
        raise ConfigError("eigenvalues too large, too far apart, or too close to the "
                          "imaginary axis, for floats") from exc
    for line in report.lines:
        ev = line.eigenvalue
        print(
            f"eigenvalue {ev.real:+.12g}{ev.imag:+.12g}i: "
            f"algebraic {line.algebraic}, geometric {line.geometric}, "
            f"Jordan chain {line.chain}"
        )
    print("secular growth:", "yes" if report.secular else "no")
    json_path = getattr(args, "json", None)
    if json_path:
        write_json(json_path, report.to_dict())
        print(f"wrote {json_path}")
    return 0


def _cmd_simulate(args) -> int:
    for report, _ in _run_engines(_simulation_settings(args)):
        engine, envelope = report["engine"], report["envelope"]
        print(f"[{engine}] wrote {report['csv_path']}")
        if report["norm_drift"] is not None:
            print(f"[{engine}] norm drift {report['norm_drift']:.3e}")
        if report["koopmanian_drift"] is not None:
            print(f"[{engine}] K drift {report['koopmanian_drift']:.3e}")
        if envelope:
            print(
                f"[{engine}] sqrt(q2) envelope degree {envelope['degree']} "
                f"(residual {envelope['relative_residual']:.2e})"
            )
    return 0


def _cmd_compare(args) -> int:
    args.engine = "both"  # compare has no --engine: it always runs both
    settings = _simulation_settings(args)
    (moments_report, mcols), (grid_report, gcols) = _run_engines(settings)
    shared = [name for name in mcols if name != "t" and name in gcols]
    deviations = [float(np.max(np.abs(mcols[name] - gcols[name]))) for name in shared]
    table_path = os.path.join(settings.out_dir, "compare.csv")
    write_atomic(
        table_path,
        "observable,max_abs_deviation\n"
        + "".join(f"{n},{format_number(d)}\n" for n, d in zip(shared, deviations)),
    )
    print(f"{'observable':<12} max |moments - grid|")
    for name, dev in zip(shared, deviations):
        print(f"{name:<12} {dev:.6e}")
    print(f"wrote {table_path}")
    summary = {
        "observables": dict(zip(shared, deviations)),
        "max_deviation": max(deviations) if deviations else 0.0,
        "moments_csv": moments_report["csv_path"],
        "grid_csv": grid_report["csv_path"],
    }
    write_json(os.path.join(settings.out_dir, "compare.json"), summary)
    return 0


def _cmd_report(args) -> int:
    run_dirs = getattr(args, "runs", None) or []
    if not run_dirs:
        raise ConfigError("report needs at least one run directory")
    paths = []
    for d in run_dirs:
        if not os.path.isdir(d):
            raise ConfigError(f"not a directory: {d}")
        found = sorted(
            os.path.join(d, name)
            for name in os.listdir(d)
            if name.startswith("report-") and name.endswith(".json")
        )
        if not found:
            raise ConfigError(f"no report-*.json files in {d}")
        paths.extend(found)
    out_dir = _required(args, "out", ".")
    json_path = os.path.join(out_dir, "summary.json")
    md_path = os.path.join(out_dir, "summary.md")
    try:  # write_json encodes before it makes out_dir, so a refusal writes nothing
        combined, markdown = aggregate_reports(paths)
        summary = (markdown + "\n").encode()
        write_json(json_path, combined)
    except (ValueError, RecursionError) as exc:  # a lone surrogate, or nesting too deep
        raise ConfigError(f"unreadable report file: {exc}") from exc
    write_atomic(md_path, summary)
    print(markdown)
    print(f"wrote {json_path} and {md_path}")
    return 0


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


def _add_expression_flags(sub):
    sub.add_argument("--koopmanian", help="evolution generator expression")
    sub.add_argument("--hamiltonian", help="total Hamiltonian to hybridize first")
    sub.add_argument("--param", action="append", default=[],
                     help="bind NAME=VALUE in expressions (repeatable)")


def _add_mode_flags(sub):
    sub.add_argument("--mode", help="classical-classical | quantum-quantum | hybrid")
    sub.add_argument("--k", help="coupling constant (exact: 0.2 or 1/5)")


def _add_run_flags(sub):
    sub.add_argument("--dt", help="time step (default 0.01)")
    sub.add_argument("--t-final", help="total time (default 10)")
    sub.add_argument("--stride", help="sample every N steps (default 10)")
    sub.add_argument("--grid-n", help="points per axis, power of two (default 64)")
    sub.add_argument("--grid-l", help="half extent per axis (default 8)")
    sub.add_argument("--observer", action="append", default=[],
                     help="LABEL=EXPR column (repeatable; default benchmark set)")
    sub.add_argument("--mean", action="append", default=[],
                     help="initial mean, e.g. q=1.0 (repeatable; q, x, y)")
    sub.add_argument("--param", action="append", default=[],
                     help="bind NAME=VALUE in observer expressions (repeatable)")
    sub.add_argument("--out", help="output directory (default hybridlab-run)")
    sub.add_argument("--snapshot", nargs="?", const="true",
                     help="write binary marginal snapshots of the final state")
    sub.add_argument("--deterministic", nargs="?", const="true",
                     help="accepted for compatibility; results do not depend on the helper "
                     "thread, and identical configurations write byte-identical CSVs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridlab",
        description="Symbolic and numerical laboratory for coupled "
        "classical-quantum oscillator dynamics.",
    )
    parser.add_argument("--config", help="INI config file with per-subcommand sections")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("derive", help="print the Heisenberg equations")
    _add_expression_flags(sub)
    _add_mode_flags(sub)
    sub.set_defaults(func=_cmd_derive)

    sub = commands.add_parser("nogo", help="print the Jacobi obstruction witness")
    sub.add_argument("--k", help="coupling constant")
    sub.set_defaults(func=_cmd_nogo)

    sub = commands.add_parser("spectrum", help="classify the dynamics generator")
    _add_expression_flags(sub)
    _add_mode_flags(sub)
    sub.add_argument("--json", help="also write the report as JSON to this path")
    sub.set_defaults(func=_cmd_spectrum)

    sub = commands.add_parser("simulate", help="run the moment and/or grid engine")
    _add_mode_flags(sub)
    sub.add_argument("--engine", help="moments | grid | both")
    _add_run_flags(sub)
    sub.set_defaults(func=_cmd_simulate)

    sub = commands.add_parser("compare", help="run both engines and tabulate deviations")
    _add_mode_flags(sub)
    _add_run_flags(sub)
    sub.set_defaults(func=_cmd_compare)

    sub = commands.add_parser("report", help="aggregate run directories into a summary")
    sub.add_argument("--runs", action="append", default=[],
                     help="run directory (repeatable)")
    sub.add_argument("--out", help="where to write summary.json / summary.md")
    sub.set_defaults(func=_cmd_report)
    return parser


# main's exit-1 and exit-2 exception classes; _load_grid adds the grid's, which no run
# can raise before it has loaded the grid.
_RUNTIME_EXIT_1 = (MomentOverflow, NonFiniteOutput)
_CONFIG_EXIT_2 = (
    ConfigError,
    ExpressionError,
    UnsupportedMixing,
    ShiftOperatorPresent,
    NonlinearDynamics,
    DegreeTooHigh,
)


def _load_grid() -> None:
    """Import the grid and bind _GRID_NAMES here, keeping a name a caller has already set."""
    global _RUNTIME_EXIT_1, _CONFIG_EXIT_2
    from . import grid

    for name in _GRID_NAMES:
        globals().setdefault(name, getattr(grid, name))
    if grid.BoxOverflow not in _RUNTIME_EXIT_1:
        _RUNTIME_EXIT_1 += (grid.BoxOverflow,)
        _CONFIG_EXIT_2 += (grid.NonSplittableTerm, grid.RunTooLarge, grid.UnknownAxis,
                           grid.OutOfBox)


def __getattr__(name: str):
    """cli.evolve and the rest of _GRID_NAMES, read before any grid run has bound them."""
    if name not in _GRID_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_grid()
    return globals()[name]


_parser: argparse.ArgumentParser | None = None  # built by the first main() call


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.config is not None:
            reader = configparser.ConfigParser(interpolation=None)
            try:
                with open(args.config) as fh:
                    reader.read_file(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}") from exc
            except (configparser.Error, UnicodeDecodeError) as exc:
                raise ConfigError(f"bad config file: {exc}") from exc
            section = reader[args.command] if reader.has_section(args.command) else None
            _merge(args, section)
        return args.func(args)
    except _RUNTIME_EXIT_1 as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1
    except _CONFIG_EXIT_2 as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
