"""The machine-readable run manifest: the one fold of the events file.

A :class:`RunManifest` is the single artifact that accounts for one run the
way the paper accounts for a campaign: what was configured (config hash,
seed, scale, years), how it executed (executor, shard layout, per-stage
wall/CPU seconds), what the caches did (per-artifact hit rates), what
the collection pipeline lost (fault-loss accounting), and what the black
box holds (the stages still open, the shards in flight, retries, spills,
chaos faults and the last resource sample of a run that died).

The run writes none of it directly. ``run_start`` carries the identity,
the command's ``run_summary`` event (:func:`run_summary`) what its
accounting objects know, ``run_end`` the status, and the other events
the rest; :func:`build_manifest` folds them after the fact, the same way
for finished and killed runs. Every ``repro events`` output renders
from that one fold.

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
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.obs.recorder import EventKind
from repro.obs.span import Span, fold_spans, rollup

__all__ = ["RunManifest", "build_manifest", "config_hash_of",
           "environment", "run_summary", "MANIFEST_SCHEMA_VERSION"]

MANIFEST_SCHEMA_VERSION = 2


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
    # The black box: what the events say happened, for a killed run too.
    #: Process that wrote ``run_start``; ``run_end``'s exit code.
    pid: Optional[int] = None
    exit_code: Optional[int] = None
    #: Events of the run, seconds from its first to its last, per kind.
    n_events: int = 0
    duration_s: float = 0.0
    event_counts: Dict[str, int] = field(default_factory=dict)
    #: Spans of the run's own process still open at its last event,
    #: outermost first, and closed spans of every process rolled up by
    #: name in closing order (``[{"name", "wall_s", "count"}, ...]``).
    open_stages: List[str] = field(default_factory=list)
    closed_stages: List[dict] = field(default_factory=list)
    #: ``[year, shard]`` pairs: scheduled, accepted, scheduled but never
    #: accepted, and dropped after exhausting retries.
    queued_shards: List[List[int]] = field(default_factory=list)
    completed_shards: List[List[int]] = field(default_factory=list)
    outstanding_shards: List[List[int]] = field(default_factory=list)
    dropped_shards: List[List[int]] = field(default_factory=list)
    #: Failed shard attempts, in total and per failure kind.
    retries: int = 0
    failures_by_kind: Dict[str, int] = field(default_factory=dict)
    #: Spill partitions written, reused on resume, rejected as damaged.
    partitions_saved: int = 0
    partitions_reused: int = 0
    partitions_rejected: int = 0
    #: ``fault_loss`` events per device; ``chaos`` and ``verdict`` events;
    #: the last ``progress`` and ``resource_sample`` events.
    fault_loss_devices: Dict[str, int] = field(default_factory=dict)
    chaos_events: List[dict] = field(default_factory=list)
    verdicts: List[dict] = field(default_factory=list)
    last_progress: Optional[dict] = None
    last_sample: Optional[dict] = None
    schema_version: int = MANIFEST_SCHEMA_VERSION

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path

    @classmethod
    def read(cls, path: Union[str, Path]) -> "RunManifest":
        data = json.loads(Path(path).read_text())
        known = set(cls.__dataclass_fields__)
        return cls(**{k: v for k, v in data.items() if k in known})

    def stage_wall_s(self, stage: str) -> float:
        """Total wall seconds recorded for one stage (0.0 if absent)."""
        return float(self.stages.get(stage, {}).get("wall_s", 0.0))

    def _label(self) -> str:
        """``data=PATH`` over saved campaigns, else seed and scale."""
        return (f"data={self.data}" if self.data is not None
                else f"seed={self.seed} scale={self.scale}")

    def render_summary(self) -> str:
        """Counts per kind plus run identity — ``repro events``."""
        lines = [f"{self.n_events} events over {self.duration_s:.1f}s "
                 f"({self.status})"]
        if self.event_counts.get("run_start"):
            lines.append(f"  command: {self.command} {self._label()}")
        known = [kind.value for kind in EventKind]
        for kind in known:
            if kind in self.event_counts:
                lines.append(f"  {kind:18s} {self.event_counts[kind]}")
        for kind, count in sorted(self.event_counts.items()):
            if kind not in known:  # forward-compat: foreign kinds
                lines.append(f"  {kind:18s} {count} (undocumented)")
        return "\n".join(lines)

    def render_postmortem(self) -> str:
        """What happened to the run — ``repro events --postmortem``."""
        lines = [f"postmortem: {self.status} "
                 f"({self.n_events} events, {self.duration_s:.1f}s)"]
        if self.event_counts.get("run_start"):
            lines.append(f"  run: {self.command} {self._label()} "
                         f"pid={self.pid}")
        if self.exit_code is not None:
            lines.append(f"  exit code: {self.exit_code}")
        if self.open_stages:
            lines.append(f"  died in stage: {self.open_stages[-1]} "
                         f"(open: {' > '.join(self.open_stages)})")
        if self.closed_stages:
            lines.append("  closed stages:")
            width = max(len(entry["name"]) for entry in self.closed_stages)
            for entry in self.closed_stages:
                lines.append(f"    {entry['name'].ljust(width)}  "
                             f"x{entry['count']:<4d} {entry['wall_s']:9.3f}s")
        outstanding = self.outstanding_shards
        lines.append(
            f"  shards: {len(self.completed_shards)}/"
            f"{len(self.queued_shards)} completed"
            + (f", {len(outstanding)} in flight" if outstanding else "")
        )
        if outstanding:
            shown = ", ".join(f"{y}:{s}" for y, s in outstanding[:8])
            more = "..." if len(outstanding) > 8 else ""
            lines.append(f"  in flight: {shown}{more}")
        if self.retries:
            kinds = ", ".join(f"{kind}={count}" for kind, count
                              in sorted(self.failures_by_kind.items()))
            lines.append(f"  retries: {self.retries} ({kinds})")
        if self.dropped_shards:
            lines.append(f"  dropped shards: {self.dropped_shards}")
        if (self.partitions_saved or self.partitions_reused
                or self.partitions_rejected):
            line = (f"  checkpoints: {self.partitions_saved} saved, "
                    f"{self.partitions_reused} loaded")
            if self.partitions_rejected:
                line += f", {self.partitions_rejected} corrupt"
            lines.append(line)
        if self.fault_loss_devices:
            total = sum(self.fault_loss_devices.values())
            lines.append(f"  collection losses: {total} device(s) affected")
        for event in self.chaos_events:
            lines.append(f"  chaos: {event.get('fault', '?')} "
                         f"(shard={event.get('shard', '?')})")
        if self.last_progress is not None:
            progress = self.last_progress
            lines.append(
                f"  last progress: {progress.get('done')}/"
                f"{progress.get('total')} shards, "
                f"{progress.get('devices_done')}/"
                f"{progress.get('devices_total')} devices, "
                f"{progress.get('rate', 0.0):.1f} dev/s"
            )
        if self.last_sample is not None:
            sample = self.last_sample
            rss_mib = float(sample.get("rss_bytes", 0)) / 2**20
            child_mib = float(sample.get("children_rss_bytes", 0)) / 2**20
            shm_mib = float(sample.get("shm_bytes", 0)) / 2**20
            lines.append(
                f"  last sample: rss={rss_mib:.1f}MiB "
                f"children={child_mib:.1f}MiB shm={shm_mib:.1f}MiB "
                f"cpu={sample.get('cpu_s', 0.0):.1f}s"
            )
        for verdict in self.verdicts:
            lines.append(f"  verdict: {verdict.get('source', '?')} "
                         f"{verdict.get('gate', '?')}")
        return "\n".join(lines)


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

    Folds the run's accounting objects into JSON-ready manifest fields,
    with one namespaced counter schema: ``cache.<artifact>.*`` from
    ``CacheStats``, ``collection.<year>.*`` from each
    ``CollectionReport``, ``engine.*`` from ``ExecutionInfo``, the
    ``ResilienceReport`` and per-year ``ExecutionLosses``, and
    ``checkpoint.*`` from the resilience report. Every argument is
    optional so each command contributes what it actually has:
    ``simulate`` has collection reports but no cache stats, ``analyze``
    the reverse.
    """
    counters: Dict[str, Union[int, float]] = {}
    if cache_stats is not None:
        entries = cache_stats.per_artifact()
        for entry in entries:
            for name in ("hits", "misses", "cached_bytes"):
                counters[f"cache.{entry.artifact}.{name}"] = getattr(
                    entry, name)
        hits = sum(entry.hits for entry in entries)
        lookups = hits + sum(entry.misses for entry in entries)
        counters["cache.hit_rate"] = (round(hits / lookups, 6) if lookups
                                      else 0.0)
    for year, report in (collection_reports or {}).items():
        if report is None:
            continue
        totals = report.totals()
        ticks = totals.get("ticks", 0)
        for key, value in {
            **totals,
            "batches_received": report.batches_received,
            "duplicates_dropped": report.duplicates_dropped,
            "recruited": report.recruited,
            "valid": report.n_valid(),
            "completeness": (round(totals.get("delivered", 0) / ticks, 6)
                             if ticks else 1.0),
        }.items():
            counters[f"collection.{year}.{key}"] = value
    if execution is not None:
        counters["engine.n_jobs"] = execution.n_jobs
        counters["engine.shards"] = execution.n_shards
        counters["engine.executor_parallel"] = int(
            execution.executor != "serial")
        counters["engine.transport_bytes"] = execution.transport_bytes
    if resilience is not None:
        for name in ("retries", "fallbacks", "dropped_shards"):
            counters[f"engine.{name}"] = getattr(resilience, name)
        for kind, n in resilience.failures_by_kind.items():
            counters[f"engine.failures.{kind}"] = n
        for name in ("saved", "hits", "corrupt"):
            counters[f"checkpoint.{name}"] = getattr(
                resilience, f"checkpoint_{name}")
    losses = [loss for loss in losses or [] if loss is not None]
    for loss in losses:
        base = f"engine.{loss.year}"
        counters[f"{base}.shards_dropped"] = len(loss.dropped_shards)
        counters[f"{base}.devices_dropped"] = loss.dropped_devices
        counters[f"{base}.device_completeness"] = round(
            loss.device_completeness, 6)
    counters.update(extra_counters or {})
    return {
        "years": list(years or []),
        "executor": getattr(execution, "executor", "serial"),
        "n_jobs": getattr(execution, "n_jobs", 1),
        "shards": list(shards or []),
        "counters": dict(sorted(counters.items())),
        "shard_attempts": list(resilience.shard_attempts)
        if resilience is not None else [],
        "losses": [loss.to_dict() for loss in losses],
        "artifacts": dict(artifacts or {}),
    }


#: The ``run_summary`` fields a manifest takes as they are.
_SUMMARY_FIELDS = ("years", "executor", "n_jobs", "shards",
                   "shard_attempts", "losses", "artifacts")


def _pair(event: dict) -> List[int]:
    return [event.get("year"), event.get("shard")]


def _last(events: List[dict], default=None):
    return events[-1] if events else default


def build_manifest(events: Sequence[dict]) -> RunManifest:
    """Fold an event list (``load_events(path)``) into the run's manifest.

    Only the last run in the list is folded: a file several runs appended
    to is cut at its last ``run_start``. The span events fold into
    ``spans``, ``stages``, the ``span.*`` counters and the open and
    closed stages; the last ``run_summary`` supplies the accounting
    fields and ``run_end`` the status; the other events fill the
    black-box fields. A log without ``run_end`` is a killed run: its
    status is ``"interrupted"`` and its open spans are timed up to the
    last event.
    """
    events = list(events)
    starts = [i for i, e in enumerate(events) if e.get("kind") == "run_start"]
    if starts:
        events = events[starts[-1]:]
    run = events[0] if starts else {}
    by_kind: Dict[str, List[dict]] = {}
    for event in events:
        by_kind.setdefault(str(event.get("kind", "?")), []).append(event)

    def of(kind: str) -> List[dict]:
        return by_kind.get(kind, [])

    summary = _last(of("run_summary"), {})
    end = _last(of("run_end"))
    code = end.get("exit_code") if end else None
    stamps = [e["ts"] for e in events
              if isinstance(e.get("ts"), (int, float))]
    loaded = of("checkpoint_loaded")
    rejected = sum(1 for e in loaded if e.get("corrupt"))
    manifest = RunManifest(
        command=str(run.get("command", "?")),
        config_hash=str(run.get("config_hash") or ""),
        seed=run.get("seed"),
        scale=run.get("scale"),
        **{key: summary[key] for key in _SUMMARY_FIELDS if key in summary},
        status=str(end.get("status", "ok")) if end else "interrupted",
        error=str(end.get("error") or "") if end else "",
        environment=dict(run.get("environment") or {}),
        data=run.get("data"),
        pid=run.get("pid"),
        exit_code=int(code) if code is not None else None,
        n_events=len(events),
        duration_s=max(stamps) - min(stamps) if stamps else 0.0,
        event_counts={kind: len(group) for kind, group in by_kind.items()},
        queued_shards=[_pair(e) for e in of("shard_queued")],
        completed_shards=[_pair(e) for e in of("shard_completed")],
        dropped_shards=[_pair(e) for e in of("shard_dropped")],
        retries=len(of("shard_retry")),
        failures_by_kind=dict(Counter(
            str(e.get("failure", "?")) for e in of("shard_retry"))),
        partitions_saved=len(of("spill")),
        partitions_reused=len(loaded) - rejected,
        partitions_rejected=rejected,
        fault_loss_devices=dict(Counter(
            str(e.get("device", "?")) for e in of("fault_loss"))),
        chaos_events=of("chaos"),
        verdicts=of("verdict"),
        last_progress=_last(of("progress")),
        last_sample=_last(of("resource_sample")),
    )
    done = {tuple(pair) for pair in manifest.completed_shards}
    manifest.outstanding_shards = [
        pair for pair in manifest.queued_shards if tuple(pair) not in done]

    # Pool workers append to the same file: the run's own process is the
    # one that wrote run_start (or, in a log without it, the first event).
    roots, still_open, closed = fold_spans(events)
    main = events[0].get("pid") if events else None
    manifest.open_stages = [span.name for span in still_open
                            if span.pid == main]
    by_name: Dict[str, dict] = {}
    for span in closed:
        entry = by_name.setdefault(
            span.name, {"name": span.name, "wall_s": 0.0, "count": 0})
        entry["wall_s"] += span.wall_s
        entry["count"] += 1
    manifest.closed_stages = list(by_name.values())

    counters: Dict[str, Union[int, float]] = {}
    if roots:
        if len(roots) == 1:
            tree = roots[0]
        else:  # several top-level spans: hang them under one root
            tree = Span(manifest.command)
            tree.children = roots
            tree.wall_s = sum(root.wall_s for root in roots)
            tree.cpu_s = sum(root.cpu_s for root in roots)
        manifest.spans = tree.as_dict()
        stages, counters = rollup(tree)
        manifest.stages = {
            name: {k: round(v, 6) if isinstance(v, float) else v
                   for k, v in stages[name].items()}
            for name in sorted(stages)
        }
    counters.update(summary.get("counters") or {})
    manifest.counters = dict(sorted(counters.items()))
    return manifest
