"""Run-history store: BENCH/FIDELITY trend records and drift warnings.

The bench and fidelity gates (PRs 4–5) compare a run against a single
committed baseline — a point, not a trend. This module keeps an
append-only JSONL history beside the results files: every
``bench --check`` appends one keyed record to ``BENCH_history.jsonl``
and every ``fidelity --check`` to ``FIDELITY_history.jsonl``. On top of
the history sit a **rolling-window drift warning** (latest value vs the
median of the preceding window — advisory, printed next to the absolute
gates, never failing a run by itself) and **sparkline trend views**
(unicode for the terminal, inline SVG for the PR 5 HTML report).

The files use the same single-write append discipline as the flight
recorder, so concurrent CI shards can share one history file and a
killed run never corrupts it; :func:`load_history` tolerates a truncated
final line.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

__all__ = [
    "append_history",
    "load_history",
    "bench_record",
    "fidelity_record",
    "record_metrics",
    "drift_warnings",
    "sparkline",
    "sparkline_svg",
]

#: Relative drift (latest vs rolling median) that triggers a warning.
DRIFT_TOLERANCE = 0.25

#: How many preceding records form the rolling window.
DRIFT_WINDOW = 5

_SPARK_BARS = "▁▂▃▄▅▆▇█"


def append_history(path: Union[str, os.PathLike], record: dict) -> dict:
    """Append one record (stamped with ``ts``) as a single JSONL write."""
    record = dict(record)
    record.setdefault("ts", round(time.time(), 3))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(record, separators=(",", ":"), default=str) + "\n"
    fd = os.open(str(path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, line.encode("utf-8"))
    finally:
        os.close(fd)
    return record


def load_history(path: Union[str, os.PathLike]) -> List[dict]:
    """All records in a history file; truncated/corrupt lines skipped."""
    path = Path(path)
    if not path.exists():
        return []
    records: List[dict] = []
    for raw in path.read_bytes().split(b"\n"):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw)
        except ValueError:
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


# ----------------------------------------------------------------------
# Record extraction
# ----------------------------------------------------------------------

def bench_record(report: dict, gate: str = "",
                 baselines: Optional[List[str]] = None) -> dict:
    """The trend-worthy core of a BENCH_all.json report.

    ``metrics`` maps benchmark name to best wall seconds; derived ratios
    (cache speedup, parallel speedup, per-device serial cost) are added
    under ``derived_*`` keys when their inputs ran.
    """
    rows = {row.get("name"): row for row in report.get("results", ())
            if row.get("name")}
    metrics: Dict[str, float] = {
        name: float(row["wall_s"]) for name, row in rows.items()
        if isinstance(row.get("wall_s"), (int, float))
    }
    serial = rows.get("study_serial")
    if serial and serial.get("devices") and serial.get("wall_s"):
        metrics["derived_serial_ms_per_device"] = round(
            1000.0 * serial["wall_s"] / serial["devices"], 4
        )
    sharded = rows.get("study_sharded")
    if (serial and sharded and serial.get("wall_s")
            and sharded.get("wall_s")):
        metrics["derived_parallel_speedup"] = round(
            serial["wall_s"] / sharded["wall_s"], 4
        )
    cold = rows.get("context_cold_sweep")
    warm = rows.get("context_warm_sweep")
    if cold and warm and cold.get("wall_s") and warm.get("wall_s"):
        metrics["derived_cache_speedup"] = round(
            cold["wall_s"] / warm["wall_s"], 4
        )
    return {
        "kind": "bench",
        "scale": report.get("scale"),
        "seed": report.get("seed"),
        "cpu_count": report.get("cpu_count"),
        "n_benchmarks": report.get("n_benchmarks"),
        "gate": gate,
        "baselines": list(baselines or ()),
        "metrics": metrics,
    }


def fidelity_record(report: dict, gate: str = "") -> dict:
    """The trend-worthy core of a FidelityReport (``to_dict`` form)."""
    verdicts = {
        rec.get("check_id"): rec.get("verdict")
        for rec in report.get("records", ())
        if rec.get("check_id")
    }
    counts: Dict[str, int] = {}
    for verdict in verdicts.values():
        counts[verdict] = counts.get(verdict, 0) + 1
    return {
        "kind": "fidelity",
        "scale": report.get("scale"),
        "seed": report.get("seed"),
        "data": report.get("data"),
        "gate": gate,
        "metrics": {
            "n_pass": counts.get("pass", 0),
            "n_warn": counts.get("warn", 0),
            "n_fail": counts.get("fail", 0),
            "n_skip": counts.get("skip", 0),
        },
        "verdicts": verdicts,
    }


def record_metrics(records: List[dict], metric: str) -> List[float]:
    """One metric's series across history records (missing → skipped)."""
    series: List[float] = []
    for record in records:
        value = record.get("metrics", {}).get(metric)
        if isinstance(value, (int, float)):
            series.append(float(value))
    return series


# ----------------------------------------------------------------------
# Rolling-window drift
# ----------------------------------------------------------------------

def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def drift_warnings(records: List[dict], window: int = DRIFT_WINDOW,
                   tolerance: float = DRIFT_TOLERANCE) -> List[str]:
    """Latest record vs the rolling median of the preceding window.

    Advisory by design: timing noise across CI hosts makes a hard gate
    on trends flaky, so these print next to the absolute ``--check``
    gates without affecting the exit code. Verdict metrics (fidelity
    counts) warn on any worsening; timing metrics warn beyond
    ``tolerance`` relative drift in the bad direction (slower, or a
    smaller speedup). The window holds only earlier records of the
    latest record's ``scale``, ``seed`` and ``data``: other runs are not
    its trend.
    """
    if len(records) < 2:
        return []
    latest = records[-1]
    keys = ("scale", "seed", "data")
    run = [latest.get(key) for key in keys]
    previous = [record for record in records[:-1]
                if [record.get(key) for key in keys] == run][-window:]
    warnings: List[str] = []
    for metric, value in sorted(latest.get("metrics", {}).items()):
        if not isinstance(value, (int, float)):
            continue
        series = record_metrics(previous, metric)
        if not series:
            continue
        base = _median(series)
        if metric in ("n_fail", "n_warn"):
            if value > max(record_metrics(previous, metric)):
                warnings.append(
                    f"drift: {metric} rose to {value:g} "
                    f"(window max {max(series):g} over {len(series)} runs)"
                )
            continue
        if metric in ("n_pass",):
            if value < min(series):
                warnings.append(
                    f"drift: {metric} fell to {value:g} "
                    f"(window min {min(series):g} over {len(series)} runs)"
                )
            continue
        if base <= 0:
            continue
        # Bigger-is-better metrics invert the bad direction.
        bigger_is_better = "speedup" in metric
        ratio = value / base
        if bigger_is_better:
            if ratio < 1.0 - tolerance:
                warnings.append(
                    f"drift: {metric} fell {100 * (1 - ratio):.0f}% below "
                    f"its {len(series)}-run median "
                    f"({base:g} -> {value:g})"
                )
        elif ratio > 1.0 + tolerance:
            warnings.append(
                f"drift: {metric} rose {100 * (ratio - 1):.0f}% above "
                f"its {len(series)}-run median ({base:g} -> {value:g})"
            )
    return warnings


# ----------------------------------------------------------------------
# Sparklines
# ----------------------------------------------------------------------

def sparkline(values: List[float], width: int = 24) -> str:
    """A unicode bar sparkline of the series (last ``width`` points)."""
    if not values:
        return ""
    tail = values[-width:]
    lo, hi = min(tail), max(tail)
    if hi <= lo:
        return _SPARK_BARS[0] * len(tail)
    span = hi - lo
    return "".join(
        _SPARK_BARS[min(len(_SPARK_BARS) - 1,
                        int((value - lo) / span * len(_SPARK_BARS)))]
        for value in tail
    )


def sparkline_svg(values: List[float], width: int = 120,
                  height: int = 24) -> str:
    """An inline SVG polyline sparkline (self-contained, no scripts)."""
    if len(values) < 2:
        return ""
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    pad = 2.0
    step = (width - 2 * pad) / (len(values) - 1)
    points = " ".join(
        f"{pad + i * step:.1f},"
        f"{height - pad - (value - lo) / span * (height - 2 * pad):.1f}"
        for i, value in enumerate(values)
    )
    return (
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" '
        f'xmlns="http://www.w3.org/2000/svg">'
        f'<polyline fill="none" stroke="#2a7ae2" stroke-width="1.5" '
        f'points="{points}"/></svg>'
    )
