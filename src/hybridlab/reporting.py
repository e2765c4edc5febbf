"""Output plumbing: atomic file writes, lossless CSV, JSON, and run summaries.

CSV numbers are rendered with 17 significant digits, which round-trips
every 64-bit float exactly, so any number a report claims can be
recomputed bit-for-bit from the files it points to.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

__all__ = [
    "write_atomic",
    "format_number",
    "write_csv",
    "read_csv",
    "write_json",
    "aggregate_reports",
]


def write_atomic(path, data) -> None:
    """Write bytes or text to path via a temp file and rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    mode = "wb" if isinstance(data, bytes) else "w"
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, mode) as fh:
            fh.write(data)
        # mkstemp creates 0600 files; restore the umask-respecting default.
        mask = os.umask(0)
        os.umask(mask)
        os.chmod(tmp, 0o666 & ~mask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def format_number(value: float) -> str:
    return format(float(value), ".17g")


def write_csv(path, header, columns) -> None:
    """Write named columns (equal-length 1-D arrays) as lossless CSV."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    if len(cols) != len(header):
        raise ValueError("one header entry per column required")
    if cols and any(c.shape != cols[0].shape for c in cols):
        raise ValueError("columns must share one length")
    # one %-format per row; it spells each float as format_number does
    row = ",".join(["%.17g"] * len(cols))
    lines = [",".join(header), *(row % cells for cells in zip(*(c.tolist() for c in cols)))]
    write_atomic(path, "\n".join(lines) + "\n")


def read_csv(path):
    """Read a CSV written by write_csv: (header list, dict of columns)."""
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    data = np.array(rows) if rows else np.zeros((0, len(header)))
    return header, {name: data[:, i] for i, name in enumerate(header)}


def write_json(path, data) -> None:
    """Write data as indented JSON with sorted keys, atomically; a number
    that is not finite raises ValueError, since JSON has no token for it."""
    write_atomic(path, json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _finite(text: str) -> float:
    """A JSON float, or NaN / Infinity / -Infinity, refused unless finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} is not finite")
    return value


def _drift(value) -> bool:
    """True for a JSON null or a number in the float range."""
    try:
        return value is None or type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer past the float range
        return False


def aggregate_reports(report_paths) -> tuple[dict, str]:
    """Combine run reports into one JSON dict and a markdown summary.

    Raises ValueError for a file that is not JSON, that holds a
    number that is not finite (NaN, Infinity, 1e999), whose report, config
    or envelope is not a JSON object, or whose norm_drift or
    koopmanian_drift is neither null nor a number in the float range.
    """
    runs, rows = [], []
    for path in report_paths:
        with open(path) as fh:
            try:
                data = json.load(fh, parse_float=_finite, parse_constant=_finite)
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"{path} is not a run report: {exc}") from None
        if not (isinstance(data, dict) and isinstance(data.get("config", {}), dict)
                and isinstance(data.get("envelope") or {}, dict)
                and all(_drift(data.get(key)) for key in ("norm_drift", "koopmanian_drift"))):
            raise ValueError(f"{path} is not a run report: it, its config and its "
                             "envelope must be JSON objects, its drifts numbers or null")
        cfg = data.get("config", {})
        env = data.get("envelope") or {}
        row = "| {engine} | {mode} | {k} | {t} | {nd} | {kd} | {deg} |".format(
            engine=data.get("engine", "?"),
            mode=cfg.get("mode", "?"),
            k=cfg.get("k", "?"),
            t=cfg.get("t_final", "?"),
            nd=_fmt_opt(data.get("norm_drift")),
            kd=_fmt_opt(data.get("koopmanian_drift")),
            deg=env.get("degree", "-"),
        )
        data["_source"] = str(path)
        runs.append(data)
        rows.append(row)
    combined = {"runs": runs, "count": len(runs)}
    lines = ["# Run summary", "", f"{len(runs)} run(s) aggregated.", "",
             "| engine | mode | k | t_final | norm drift | K drift | envelope degree |",
             "|---|---|---|---|---|---|---|", *rows, ""]
    return combined, "\n".join(lines)


def _fmt_opt(value) -> str:
    return "-" if value is None else f"{value:.3e}"
