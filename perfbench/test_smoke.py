"""Smoke tests of the benchmark itself: python3 -m pytest perfbench

Each workload runs at a tiny size and must pass its output and determinism
checks; corrupted outputs must be caught; and the benchmark must refuse to
run without the package source next to it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

import run
from workloads import LAYER_TARGETS, WORKLOADS, build

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_its_checks(name):
    out = run.run_workload(name, seed=3, seconds=0, trace=False, root=REPO, tiny=True)
    assert out["problems"] == []
    assert out["failed"] == 0
    assert len(out["runs"]) == 2
    assert len(out["setups"]) >= run.SETUP_SAMPLES


def test_tiny_traced_run_reports_every_layer_metric():
    out = run.run_workload("hybrid-compare", seed=3, seconds=0, trace=True,
                           root=REPO, tiny=True)
    assert out["failed"] == 0
    traced = [r for r in out["runs"] if r["traced"]]
    layers = traced[0]["layers"]
    assert set(layers) | {"trace.overhead_s"} == set(LAYER_TARGETS)
    # 10 steps at 6 FFTs each, plus the sampling transforms.
    assert layers["grid.steps"] == 10 and layers["grid.samples"] == 2
    assert traced[0]["kernel"]["fft_calls_per_step"] == 6
    assert layers["grid.fft_calls"] > 60


def _corrupt_nan(run_dir):
    path = os.path.join(run_dir, "grid.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[-1].split(",")
    cells[2] = "nan"
    lines[-1] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _corrupt_value(run_dir):
    path = os.path.join(run_dir, "moments.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[-1].split(",")
    cells[1] = repr(float(cells[1]) + 0.5)
    lines[-1] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("corrupt, symptom", [
    (_corrupt_nan, "non-finite"),
    (_corrupt_value, "CSVs give"),
])
def test_corrupted_csv_is_caught(corrupt, symptom):
    run_dir = os.path.join(REPO, run.WORK_DIR, "smoke-corrupt")
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        plan = build("qq-compare", 3, run_dir, tiny=True)
        result = run.run_child(REPO, {"calls": plan.calls, "setup": plan.setup,
                                      "trace": False})
        assert run.check_run(plan, result)[0] == 0
        before = run.hash_outputs(run_dir)
        corrupt(run_dir)
        failed, problems, _, _ = run.check_run(plan, result)
        assert failed == 1
        assert any(symptom in p for p in problems), problems
        assert run.hash_outputs(run_dir) != before
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(os.path.join(REPO, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "moments-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
