"""The machine-readable run manifest, a fold of the events file.

A :class:`RunManifest` is the single artifact that accounts for one run the
way the paper accounts for a campaign: what was configured (config hash,
seed, scale, years), how it executed (executor, shard layout, per-stage
wall/CPU seconds), what the caches did (per-artifact hit rates), and what
the collection pipeline lost (fault-loss accounting).

The run writes none of it directly. ``run_start`` carries the identity,
the command's ``run_summary`` event (:func:`run_summary`) carries what
its accounting objects know, ``run_end`` the status, and the span events
everything else; :func:`build_manifest` folds them after the fact
(``repro events PATH --manifest OUT``), the same way for finished and
killed runs.

Manifests round-trip losslessly through JSON: ``read(write(m)) == m`` is
pinned by ``tests/test_obs.py``. All keys are strings and all values are
JSON scalars/containers, so equality after a round trip is plain dataclass
equality.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.span import Span, fold_spans, rollup

__all__ = ["RunManifest", "build_manifest", "config_hash_of",
           "environment", "run_summary", "MANIFEST_SCHEMA_VERSION"]

MANIFEST_SCHEMA_VERSION = 1


def config_hash_of(*configs: object) -> str:
    """Stable short hash of configuration objects (via canonical repr)."""
    digest = hashlib.sha256()
    for config in configs:
        digest.update(repr(config).encode())
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


def environment() -> Dict[str, object]:
    """The host a run executes on (recorded on ``run_start``)."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": sys.platform,
        "cpu_count": os.cpu_count(),
    }


@dataclass
class RunManifest:
    """Everything needed to account for (and reproduce) one run."""

    #: CLI command (or API entry point) that produced the run.
    command: str
    #: Short sha256 over the canonical reprs of every campaign config.
    config_hash: str
    #: Seed and scale of a simulated run; None when the run read saved
    #: campaigns (``data``), which do not record them.
    seed: Optional[int]
    scale: Optional[float]
    years: List[int] = field(default_factory=list)
    executor: str = "serial"
    n_jobs: int = 1
    #: Per-year shard layout: ``[{"year", "n_shards", "n_devices"}, ...]``.
    shards: List[Dict[str, int]] = field(default_factory=list)
    #: Per-stage timing rollup keyed by span name (a fold over the
    #: recorder's span events; empty when telemetry was off).
    stages: Dict[str, Dict[str, Union[int, float]]] = field(default_factory=dict)
    #: Namespaced counters (cache hit rates, fault-loss accounting, ...).
    counters: Dict[str, Union[int, float]] = field(default_factory=dict)
    #: The span tree folded from the recorder's events (empty when
    #: telemetry was off).
    spans: dict = field(default_factory=dict)
    #: Per-shard attempt/outcome history from the resilience layer
    #: (``[{"year", "shard", "attempts", "outcome", "failures"}, ...]``;
    #: empty when no resilience was configured and nothing failed).
    shard_attempts: List[dict] = field(default_factory=list)
    #: Per-year partial-results loss accounting (empty = complete run).
    losses: List[dict] = field(default_factory=list)
    #: ``"ok"`` on clean exit; ``"failed"`` or ``"interrupted"`` from the
    #: run's ``run_end``; ``"interrupted"`` when the log has no
    #: ``run_end`` (a killed run: partial timings).
    status: str = "ok"
    #: Single-line description of the exception that ended a failed run.
    error: str = ""
    #: Files the run wrote that later folds read, by role (``fidelity``
    #: names its report JSON and history for the HTML run report).
    artifacts: Dict[str, str] = field(default_factory=dict)
    environment: Dict[str, object] = field(default_factory=environment)
    #: The saved-campaign directory an ``analyze``/``fidelity --data`` run
    #: read (None for a simulated run).
    data: Optional[str] = None
    schema_version: int = MANIFEST_SCHEMA_VERSION

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        return cls.from_dict(json.loads(text))

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path

    @classmethod
    def read(cls, path: Union[str, Path]) -> "RunManifest":
        return cls.from_json(Path(path).read_text())

    def stage_wall_s(self, stage: str) -> float:
        """Total wall seconds recorded for one stage (0.0 if absent)."""
        return float(self.stages.get(stage, {}).get("wall_s", 0.0))


def run_summary(
    *,
    years: Optional[List[int]] = None,
    execution=None,
    shards: Optional[List[Dict[str, int]]] = None,
    cache_stats=None,
    collection_reports: Optional[Dict[int, object]] = None,
    resilience=None,
    losses: Optional[List[object]] = None,
    extra_counters: Optional[Dict[str, Union[int, float]]] = None,
    artifacts: Optional[Dict[str, str]] = None,
) -> dict:
    """The fields of a command's ``run_summary`` event.

    Folds the run's accounting objects into JSON-ready manifest fields.
    Every argument is optional so each command contributes what it
    actually has: ``simulate`` has collection reports but no cache stats,
    ``analyze`` the reverse. ``resilience`` takes a ``ResilienceReport``;
    ``losses`` a list of per-year ``ExecutionLosses``.
    """
    registry = MetricsRegistry()
    if cache_stats is not None:
        registry.ingest_cache_stats(cache_stats)
    for year, report in (collection_reports or {}).items():
        if report is not None:
            registry.ingest_collection_report(report, year=year)
    if execution is not None:
        registry.ingest_execution(execution)
    if resilience is not None:
        registry.ingest_resilience(resilience)
    losses = [loss for loss in losses or [] if loss is not None]
    for loss in losses:
        registry.ingest_losses(loss)
    for name, value in (extra_counters or {}).items():
        registry.set(name, value)
    return {
        "years": list(years or []),
        "executor": getattr(execution, "executor", "serial"),
        "n_jobs": getattr(execution, "n_jobs", 1),
        "shards": list(shards or []),
        "counters": registry.counters,
        "shard_attempts": list(resilience.shard_attempts)
        if resilience is not None else [],
        "losses": [loss.to_dict() for loss in losses],
        "artifacts": dict(artifacts or {}),
    }


def build_manifest(events: Sequence[dict]) -> RunManifest:
    """Fold an event list (``load_events(path)``) into the run's manifest.

    Only the last run in the list is folded: a file several runs appended
    to is cut at its last ``run_start``. The span events fold into
    ``spans``, ``stages`` and the ``span.*`` counters; the last
    ``run_summary`` supplies the accounting fields and ``run_end`` the
    status. A log without ``run_end`` is a killed run: its status is
    ``"interrupted"`` and its open spans are timed up to the last event.
    """
    events = list(events)
    starts = [i for i, e in enumerate(events) if e.get("kind") == "run_start"]
    if starts:
        events = events[starts[-1]:]
    run = events[0] if starts else {}
    summary: dict = {}
    end: Optional[dict] = None
    for event in events:
        if event.get("kind") == "run_summary":
            summary = event
        elif event.get("kind") == "run_end":
            end = event
    command = str(run.get("command", "?"))
    spans: dict = {}
    stages: Dict[str, dict] = {}
    counters: Dict[str, Union[int, float]] = {}
    roots, _ = fold_spans(events)
    if roots:
        if len(roots) == 1:
            tree = roots[0]
        else:  # several top-level spans: hang them under one root
            tree = Span(command)
            tree.children = roots
            tree.wall_s = sum(root.wall_s for root in roots)
            tree.cpu_s = sum(root.cpu_s for root in roots)
        spans = tree.as_dict()
        stages, counters = rollup(tree)
    counters.update(summary.get("counters") or {})
    return RunManifest(
        command=command,
        config_hash=str(run.get("config_hash") or ""),
        seed=run.get("seed"),
        scale=run.get("scale"),
        years=list(summary.get("years", [])),
        executor=summary.get("executor", "serial"),
        n_jobs=summary.get("n_jobs", 1),
        shards=list(summary.get("shards", [])),
        stages={
            name: {k: round(v, 6) if isinstance(v, float) else v
                   for k, v in stages[name].items()}
            for name in sorted(stages)
        },
        counters={name: counters[name] for name in sorted(counters)},
        spans=spans,
        shard_attempts=list(summary.get("shard_attempts", [])),
        losses=list(summary.get("losses", [])),
        status=str(end.get("status", "ok")) if end else "interrupted",
        error=str(end.get("error") or "") if end else "",
        artifacts=dict(summary.get("artifacts") or {}),
        environment=dict(run.get("environment") or {}),
        data=run.get("data"),
    )
