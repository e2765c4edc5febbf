"""One workload run in a fresh process: python3 perfbench/worker.py < job.json

The job (JSON on stdin) names the checkout root, the set-up recipe, the
argv lists to pass to `hybridlab.cli.main`, and whether to trace.  The
result is one JSON object on stdout.  The CLI's own output is captured in
memory and returned with each call's exit code.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import warnings
from fractions import Fraction
from time import perf_counter


def _import_package(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    t0 = perf_counter()
    import hybridlab.cli as cli
    import_s = perf_counter() - t0
    where = os.path.realpath(cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"hybridlab was imported from {where}, not from {src}")
    return cli, import_s


def _setup(setup: dict) -> float:
    """Time what a run pays before its first step, past the import."""
    from hybridlab import benchmark, grid

    from workloads import GRID_AXES

    k = Fraction(setup["k"])
    if setup["kind"] == "grid":
        spec = grid.GridSpec(tuple(
            grid.AxisSpec(lbl, setup["grid_l"], setup["grid_n"])
            for lbl in GRID_AXES[setup["mode"]]
        ))
        K = benchmark.mode_koopmanian(setup["mode"], k)
        widths = {lbl: setup["width"] for lbl in spec.labels}
        t0 = perf_counter()
        grid.compile_splitting(K, spec, setup["dt"])
        grid.gaussian_state(spec, setup["means"], widths)
        return perf_counter() - t0
    t0 = perf_counter()
    benchmark.mode_generator_matrix(setup["mode"], k)
    return perf_counter() - t0


def _run_calls(cli, calls) -> tuple[float, list[dict]]:
    results = []
    t0 = perf_counter()
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(list(argv))
        results.append({
            "rc": rc,
            "stdout": out.getvalue(),
            "stderr": err.getvalue(),
            "warnings": [w.category.__name__ for w in caught],
        })
    return perf_counter() - t0, results


def _trace(cli, job) -> tuple[float, list[dict], dict]:
    import scipy.fft

    from hybridlab import benchmark, grid, moments, reporting

    from tracing import CallCounter, Tracer, probe_steps

    tracer = Tracer({"cli": cli, "benchmark": benchmark, "moments": moments,
                     "reporting": reporting, "scipy.fft": scipy.fft})
    tracer.install()
    try:
        wall_s, results = _run_calls(cli, job["calls"])
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    extra = {"layers": layers, "kernel": {}}
    state = tracer.captured.get("gaussian_state")
    plan = tracer.captured.get("compile_splitting")
    if job.get("probe") and state is not None and plan is not None:
        short, long = job["probe"]
        fft_targets = [(scipy.fft, "fft"), (scipy.fft, "ifft")]
        with CallCounter(fft_targets) as short_count:
            grid.evolve(state, plan, short * abs(plan.dt), stride=short)
        with CallCounter(fft_targets) as long_count:
            grid.evolve(state, plan, long * abs(plan.dt), stride=long)
        step_ms = probe_steps(grid.evolve, state, plan, short, long)
        per_step = (long_count.count - short_count.count) / (long - short)
        layers["grid.step_ms"] = step_ms
        layers["grid.sample_ms"] = (
            (layers["grid.evolve_s"] * 1e3 - layers["grid.steps"] * step_ms)
            / layers["grid.samples"]
        )
        extra["kernel"] = {
            "array_bytes": int(state.array.nbytes),
            "fft_calls_per_step": per_step,
            "fft_calls_per_sample": (
                (layers["grid.fft_calls"] - per_step * layers["grid.steps"])
                / layers["grid.samples"]
            ),
        }
    else:
        layers["grid.step_ms"] = 0.0
        layers["grid.sample_ms"] = 0.0
    if job.get("spans_path"):
        tracer.write(job["spans_path"])
    return wall_s, results, extra


def main() -> int:
    job = json.load(sys.stdin)
    cli, import_s = _import_package(job["root"])
    setup_s = _setup(job["setup"])
    out = {"setup_s": import_s + setup_s, "import_s": import_s}
    if job["calls"]:
        if job["trace"]:
            wall_s, results, extra = _trace(cli, job)
            out.update(extra)
        else:
            wall_s, results = _run_calls(cli, job["calls"])
        out["wall_s"] = wall_s
        out["calls"] = results
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy
    import scipy
    from hybridlab import grid

    out["meta"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fft_workers": grid._workers,
    }
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
