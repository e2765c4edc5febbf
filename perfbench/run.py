"""hybridlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload run is one fresh Python
process (perfbench/worker.py) that imports `hybridlab.cli` from the
checkout's `src/` and calls `main(argv)` in-process for every generated
command, with one FFT worker and `--deterministic`.  Runs go back to back
(a closed loop with one client) until S seconds have passed, and at least
two, so that their CSV hashes can be compared.

With --trace 0 the last line reports the end-to-end metrics, medians over
the runs.  With --trace 1 untraced and traced runs alternate; the traced
ones wrap the CLI's entry points into each module and report per-layer self
times and counts, and the difference of the two medians is the tracing
overhead.  Every run's outputs are checked; the command exits 1 when any
check fails.  Workloads and checks are in perfbench/workloads.py.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import LAYER_TARGETS, WORKLOADS, build, check_call  # noqa: E402

WORK_DIR = ".perfbench-work"
SETUP_SAMPLES = 5  # set-up is timed in at least this many fresh processes
DEADLINE_S = 170.0  # every worker is stopped by then, so the command ends in time
# The program is single-threaded by design (one FFT worker).  BLAS is held
# to one thread too: its idle worker threads otherwise spin on the second
# core during the moment engine's tiny matrix products.
CHILD_THREADS = {"HYBRIDLAB_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
LAYER_UNITS = {"_s": "s", "_ms": "ms", "_calls": "count", "_written": "bytes"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def run_child(root: str, job: dict, timeout: float = DEADLINE_S) -> dict:
    job = dict(job, root=root)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=json.dumps(job), capture_output=True, text=True, cwd=root,
        env=dict(os.environ, **CHILD_THREADS), timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def hash_outputs(run_dir: str) -> dict[str, str]:
    """SHA-256 of every CSV a run wrote, by path relative to its directory."""
    hashes = {}
    for path in sorted(glob.glob(os.path.join(run_dir, "**", "*.csv"), recursive=True)):
        with open(path, "rb") as fh:
            hashes[os.path.relpath(path, run_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def check_run(plan, result: dict) -> tuple[int, list[str], list[float], dict]:
    """(failed calls, problems, engine deviations, warning counts) of one run."""
    failed, problems, devs, diagnostics = 0, [], [], {}
    for argv, expect, call in zip(plan.calls, plan.expect, result["calls"]):
        found, dev = check_call(expect, call["rc"], call["stdout"])
        if found:
            failed += 1
            detail = call["stderr"].strip().splitlines()[-1:] if call["stderr"] else []
            problems.extend(f"{' '.join(argv[:3])}: {p}" for p in found + detail)
        if dev is not None:
            devs.append(dev)
        for name in call["warnings"]:
            diagnostics[name] = diagnostics.get(name, 0) + 1
    return failed, problems, devs, diagnostics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 root: str = ".", tiny: bool = False) -> dict:
    """Run workload `name` for `seconds`; return samples, checks and metadata."""
    workload = WORKLOADS[name]
    work = os.path.join(root, WORK_DIR, f"{name}-seed{seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runs, setups = [], []
    attempted = failed = 0
    problems: list[str] = []
    devs: list[float] = []
    diagnostics: dict[str, int] = {}
    reference = None
    meta = {}
    t_start = time.perf_counter()

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - t_start)

    try:
        while len(runs) < 2 or time.perf_counter() - t_start < seconds:
            traced = trace and len(runs) % 2 == 1
            run_dir = os.path.join(work, f"run{len(runs)}")
            plan = build(name, seed, os.path.abspath(run_dir), tiny=tiny)
            job = {"calls": plan.calls, "setup": plan.setup, "trace": traced,
                   "probe": list(workload.probe_steps) if workload.kind == "grid" else None,
                   "spans_path": os.path.abspath(os.path.join(work, "spans.jsonl"))}
            result = run_child(root, job, remaining())
            meta = result["meta"]
            setups.append(result["setup_s"])
            n_failed, found, run_devs, diag = check_run(plan, result)
            attempted += len(plan.calls)
            failed += n_failed
            problems += found
            devs += run_devs
            for key, count in diag.items():
                diagnostics[key] = diagnostics.get(key, 0) + count
            hashes = hash_outputs(run_dir)
            if reference is None:
                reference = hashes
            else:
                attempted += 1
                if hashes != reference:
                    failed += 1
                    problems.append(f"run {len(runs)}: CSV hashes differ from run 0")
            result["traced"] = traced
            runs.append(result)
            shutil.rmtree(run_dir)
        while not trace and len(setups) < SETUP_SAMPLES:
            setups.append(run_child(root, {"calls": [], "setup": plan.setup,
                                           "trace": False}, remaining())["setup_s"])
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workers still running after {DEADLINE_S} s") from exc
    return {
        "runs": runs, "setups": setups, "attempted": attempted, "failed": failed,
        "problems": problems, "devs": devs, "diagnostics": diagnostics,
        "meta": meta,
    }


def tail_percentile(values: list[float]) -> str:
    """The highest percentile that has at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"no tail percentile (n={n}, needs 11)"
    k = n - 10
    return f"p{math.floor(100 * k / n)} {sorted(values)[k - 1]:.6g} (n={n})"


def _cache_sizes() -> dict[str, int]:
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction" and size.endswith("K"):
            sizes[f"L{level}"] = int(size[:-1]) * 1024
    return sizes


def _git_sha(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(root, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _src_lines(root: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def metadata(root: str, name: str, seed: int, child_meta: dict) -> dict:
    thread_env = {k: os.environ.get(k) for k in ("BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    thread_env.update(CHILD_THREADS)
    return {
        "workload": name,
        "why": WORKLOADS[name].why,
        "seed": seed,
        "git_sha": _git_sha(root),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": child_meta.get("python"),
        "numpy": child_meta.get("numpy"),
        "scipy": child_meta.get("scipy"),
        "fft_workers": child_meta.get("fft_workers"),
        "thread_env": thread_env,
        "src_lines": _src_lines(root),
        "loop": "closed, one client, runs back to back",
    }


def _say(text: str = "") -> None:
    print(text, flush=True)


def report_end_to_end(out: dict) -> dict:
    samples = {
        "wall_s": [r["wall_s"] for r in out["runs"]],
        "setup_s": out["setups"],
        "peak_rss_mb": [r["peak_rss_mb"] for r in out["runs"]],
    }
    metrics = {}
    for metric, unit in END_TO_END:
        value = statistics.median(samples[metric])
        metrics[metric] = {"value": value, "unit": unit}
        _say(f"{metric:<16} {value:12.6g} {unit:<6} median; "
             f"{tail_percentile(samples[metric])}")
    if out["devs"]:
        _say(f"{'max_engine_dev':<16} {statistics.median(out['devs']):12.6g} "
             f"{'abs':<6} median, deterministic per seed (n={len(out['devs'])})")
    return metrics


def report_layers(out: dict) -> dict:
    traced = [r for r in out["runs"] if r["traced"]]
    plain = [r["wall_s"] for r in out["runs"] if not r["traced"]]
    layers = {}
    for key in traced[0]["layers"]:
        layers[key] = statistics.median(r["layers"][key] for r in traced)
    layers["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced) - statistics.median(plain)
    )
    fft_counts = {r["layers"]["grid.fft_calls"] for r in traced}
    if len(fft_counts) > 1:
        _say(f"note: grid.fft_calls differs between traced runs: {sorted(fft_counts)}")
    metrics = {}
    _say(f"per-layer, median of {len(traced)} traced run(s) against {len(plain)} untraced:")
    for key, value in layers.items():
        unit = _layer_unit(key)
        metrics[key] = {"value": value, "unit": unit}
        _say(f"  {key:<24} {value:12.6g} {unit:<6} moves {LAYER_TARGETS[key]}")
    kernel = traced[0]["kernel"]
    if kernel:
        caches = _cache_sizes()
        array = kernel["array_bytes"]
        _say("kernel context (computed from the traced run and the cache sizes):")
        for level, size in sorted(caches.items()):
            _say(f"  array {array} B = {array / size:.3g} x {level} ({size} B)")
        _say(f"  fft calls per step {kernel['fft_calls_per_step']:.3g} (measured), "
             f"per sample {kernel['fft_calls_per_sample']:.3g} (measured)")
        _say(f"  fft bytes moved per step {2 * array * kernel['fft_calls_per_step']:.4g} "
             "(computed: each 1-D FFT reads and writes the whole array once)")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hybridlab", "cli.py")):
        print("error: run from a hybridlab checkout (src/hybridlab/cli.py not found)",
              file=sys.stderr)
        return 2
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _say(f"workload {args.workload}, seed {args.seed}: {len(out['runs'])} runs, "
         f"{out['attempted']} operations")
    metrics = report_layers(out) if args.trace else report_end_to_end(out)
    error_rate = out["failed"] / out["attempted"]
    _say(f"{'error_rate':<16} {error_rate:12.6g} {'ratio':<6} "
         f"({out['failed']} failed / {out['attempted']} attempted)")
    for key, count in sorted(out["diagnostics"].items()):
        _say(f"diagnostic: {key} x{count} (expected)")
    for problem in out["problems"]:
        _say(f"FAILED: {problem}")
    _say("meta " + json.dumps(metadata(root, args.workload, args.seed, out["meta"]),
                              sort_keys=True))
    print(json.dumps({"correct": out["failed"] == 0, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if out["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
