"""In-memory span recorder that wraps the CLI's entry points into each module.

Only attributes are replaced: the functions `hybridlab.cli` imported from
each module, the `benchmark` functions it calls through the module, the
generator derivation it imports lazily, `reporting.write_atomic` (which
`write_csv` and report writes go through) and `scipy.fft.fft`/`ifft`, which
the grid looks up on its module at every call.  No file of the package is
changed, and `uninstall` puts every original back.

A span is (name, start, end, parent index).  A layer's self time is the sum
of its spans' durations minus the part their direct children cover.
"""

from __future__ import annotations

import functools
import json
import statistics
from time import perf_counter

# (module attribute path, attribute, span name).  The span name's prefix is
# the layer; names sharing a prefix and suffix form one metric.
CLI_ENTRY_POINTS = [
    ("cli", "main", "cli.main"),
    ("cli", "heisenberg_rhs", "algebra.derive"),
    ("cli", "hybridize", "algebra.derive"),
    ("cli", "nogo_witness", "algebra.derive"),
    ("benchmark", "mode_generator_matrix", "algebra.derive"),
    ("moments", "derive_generator", "algebra.derive"),
    ("cli", "parse_polynomial", "expressions.parse"),
    ("benchmark", "mode_koopmanian", "benchmark.model"),
    ("benchmark", "default_moment_state", "benchmark.model"),
    ("benchmark", "default_observers", "benchmark.model"),
    ("cli", "gaussian_state", "grid.init"),
    ("cli", "compile_splitting", "grid.compile"),
    ("cli", "evolve", "grid.evolve"),
    ("cli", "set_workers", "grid.other"),
    ("cli", "marginal_density", "grid.other"),
    ("cli", "save_snapshot", "grid.other"),
    ("scipy.fft", "fft", "grid.fft"),
    ("scipy.fft", "ifft", "grid.fft"),
    ("cli", "propagate_moments", "moments.propagate"),
    ("cli", "quadratic_expectation", "moments.expect"),
    ("cli", "classify_spectrum", "moments.classify"),
    ("cli", "fit_envelope", "moments.fit"),
    ("cli", "write_csv", "reporting.write"),
    ("cli", "write_atomic", "reporting.write"),
    ("reporting", "write_atomic", "reporting.write"),
    ("cli", "read_csv", "reporting.read"),
    ("cli", "aggregate_reports", "reporting.read"),
]


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules  # short name -> imported module
        self.spans: list[list] = []
        self.bytes_written = 0
        self.captured: dict[str, object] = {}  # last grid state/plan built
        self.steps = 0
        self.samples = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def install(self) -> None:
        for owner_name, attr, span in CLI_ENTRY_POINTS:
            owner = self.modules[owner_name]
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, span, attr))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, span: str, attr: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [span, perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = perf_counter()
            self._observe(attr, args, kwargs, result)
            return result

        return traced

    def _observe(self, attr: str, args, kwargs, result) -> None:
        if attr == "write_atomic":
            data = args[1] if len(args) > 1 else kwargs["data"]
            self.bytes_written += len(data if isinstance(data, bytes) else data.encode())
        elif attr in ("gaussian_state", "compile_splitting"):
            self.captured[attr] = result
        elif attr == "evolve":
            plan, t_final = args[1], args[2]
            self.steps += int(round(t_final / abs(plan.dt)))
            self.samples += len(result.times)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times and counts from the recorded spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + (end - start - inner)
            calls[name] = calls.get(name, 0) + 1

        def self_s(*names):
            return sum(own.get(n, 0.0) for n in names)

        return {
            "grid.evolve_s": total.get("grid.evolve", 0.0),
            "grid.fft_s": self_s("grid.fft"),
            "grid.fft_calls": calls.get("grid.fft", 0),
            "grid.nonfft_s": self_s("grid.evolve"),
            "grid.steps": self.steps,
            "grid.samples": self.samples,
            "grid.compile_s": self_s("grid.compile"),
            "grid.init_s": self_s("grid.init"),
            "moments.propagate_s": self_s("moments.propagate"),
            "moments.propagate_calls": calls.get("moments.propagate", 0),
            "moments.expect_s": self_s("moments.expect"),
            "moments.expect_calls": calls.get("moments.expect", 0),
            "moments.classify_s": self_s("moments.classify"),
            "moments.fit_s": self_s("moments.fit"),
            "algebra.derive_s": self_s("algebra.derive"),
            "algebra.derive_calls": calls.get("algebra.derive", 0),
            "expressions.parse_s": self_s("expressions.parse"),
            "expressions.parse_calls": calls.get("expressions.parse", 0),
            "benchmark.self_s": self_s("benchmark.model"),
            "reporting.write_s": self_s("reporting.write"),
            "reporting.read_s": self_s("reporting.read"),
            "reporting.bytes_written": self.bytes_written,
            "cli.self_s": self_s("cli.main"),
        }

    def write(self, path: str) -> None:
        """Write the spans as JSON lines of [name, start, end, parent]."""
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


class CallCounter:
    """Counts calls through attributes without timing them."""

    def __init__(self, targets):
        self.count = 0
        self._patches = [(owner, attr, getattr(owner, attr)) for owner, attr in targets]

    def __enter__(self):
        for owner, attr, original in self._patches:
            setattr(owner, attr, self._wrap(original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.count += 1
            return fn(*args, **kwargs)

        return counted


def probe_steps(evolve, state, plan, short: int, long: int, repeats: int = 3):
    """Milliseconds per step, from evolves of two lengths with no observers.

    Both runs sample only their first and last step, so their difference
    cancels the sampling and leaves (long - short) steps.
    """
    per_step = []
    for _ in range(repeats):
        times = []
        for n in (short, long):
            t0 = perf_counter()
            evolve(state, plan, n * abs(plan.dt), stride=n)
            times.append(perf_counter() - t0)
        per_step.append((times[1] - times[0]) / (long - short) * 1e3)
    return statistics.median(per_step)
