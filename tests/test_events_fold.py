"""One fold of the event log, proved against the folds it replaced.

The postmortem, the ``repro events`` summaries and the run manifest used
to be separate folds of the events file (``reconstruct``,
``summarize_events`` and ``build_manifest``), and the manifest's counters
went through a ``MetricsRegistry``. This module keeps verbatim copies of
those folds as references and checks, over every single-run log the
suite can make — the synthetic logs of ``tests/test_recorder.py`` and
logs recorded through the CLI — that:

- ``repro events --postmortem``, the default summary and ``--json`` print
  byte-for-byte what the references print;
- every key of the reference manifest keeps its value (bar
  ``schema_version``);
- ``run_summary`` builds the counters the registry built from the same
  accounting objects.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import pytest

import repro.obs.manifest as manifest_mod
from repro.cli import main
from repro.obs.manifest import environment
from repro.obs.recorder import EventKind, FlightRecorder, load_events
from repro.obs.span import Span, rollup
from repro.obs.span import fold_spans as live_fold_spans
from tests.test_recorder import (
    CLEAN_LOG,
    CLI_LOG,
    CORRUPT_CHECKPOINT_LOG,
    INTERRUPTED_LOG,
)

REPO = Path(__file__).resolve().parent.parent

#: The manifest schema the references wrote.
MANIFEST_SCHEMA_VERSION = 1
Number = Union[int, float]


def fold_spans(events):
    """``fold_spans`` as the references called it: ``(roots, still_open)``."""
    return live_fold_spans(events)[:2]


# ----------------------------------------------------------------------
# Reference folds: verbatim copies of the code the manifest replaced
# ----------------------------------------------------------------------

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


class MetricsRegistry:
    """Accumulates namespaced counters for one run."""

    def __init__(self) -> None:
        self._counters: Dict[str, Number] = {}

    # -- primitives --------------------------------------------------------

    def count(self, name: str, n: Number = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + n

    def set(self, name: str, value: Number) -> None:
        self._counters[name] = value

    @property
    def counters(self) -> Dict[str, Number]:
        """Every counter, in sorted key order."""
        return {k: self._counters[k] for k in sorted(self._counters)}

    # -- ingestors ---------------------------------------------------------

    def ingest_cache_stats(self, stats, prefix: str = "cache") -> None:
        """Fold a ``CacheStats``-shaped object into ``counters``.

        Expects ``per_artifact()`` yielding objects with ``artifact``,
        ``hits``, ``misses`` and ``cached_bytes``.
        """
        for entry in stats.per_artifact():
            base = f"{prefix}.{entry.artifact}"
            self.count(f"{base}.hits", entry.hits)
            self.count(f"{base}.misses", entry.misses)
            self.count(f"{base}.cached_bytes", entry.cached_bytes)
        self.set(f"{prefix}.hit_rate", round(_hit_rate(stats), 6))

    def ingest_collection_report(
        self, report, year: Optional[int] = None, prefix: str = "collection"
    ) -> None:
        """Fold a ``CollectionReport``-shaped object into ``counters``.

        Records the fault-loss accounting: batches generated vs delivered,
        churn/drop/duplicate losses, and the recruited-vs-valid panel gap.
        """
        base = f"{prefix}.{year}" if year is not None else prefix
        for key, value in report.totals().items():
            self.count(f"{base}.{key}", value)
        self.count(f"{base}.batches_received", report.batches_received)
        self.count(f"{base}.duplicates_dropped", report.duplicates_dropped)
        self.count(f"{base}.recruited", report.recruited)
        self.count(f"{base}.valid", report.n_valid())
        totals = report.totals()
        ticks = totals.get("ticks", 0)
        self.set(
            f"{base}.completeness",
            round(totals.get("delivered", 0) / ticks, 6) if ticks else 1.0,
        )

    def ingest_execution(self, info, prefix: str = "engine") -> None:
        """Fold an ``ExecutionInfo``-shaped object into ``counters``."""
        self.set(f"{prefix}.n_jobs", info.n_jobs)
        self.count(f"{prefix}.shards", info.n_shards)
        self.set(f"{prefix}.executor_parallel",
                 int(getattr(info, "executor", "serial") != "serial"))
        self.count(f"{prefix}.transport_bytes",
                   getattr(info, "transport_bytes", 0))

    def ingest_resilience(self, report, prefix: str = "engine") -> None:
        """Fold a ``ResilienceReport``-shaped object into ``counters``.

        Records the self-healing accounting: in-pool retries, serial
        fallbacks, shards dropped under partial mode, classified failure
        counts, and checkpoint traffic.
        """
        self.count(f"{prefix}.retries", report.retries)
        self.count(f"{prefix}.fallbacks", report.fallbacks)
        self.count(f"{prefix}.dropped_shards", report.dropped_shards)
        for kind, n in sorted(report.failures_by_kind.items()):
            self.count(f"{prefix}.failures.{kind}", n)
        self.count("checkpoint.saved", report.checkpoint_saved)
        self.count("checkpoint.hits", report.checkpoint_hits)
        self.count("checkpoint.corrupt", report.checkpoint_corrupt)

    def ingest_losses(self, losses, prefix: str = "engine") -> None:
        """Fold an ``ExecutionLosses``-shaped object into ``counters``."""
        base = f"{prefix}.{losses.year}"
        self.count(f"{base}.shards_dropped", len(losses.dropped_shards))
        self.count(f"{base}.devices_dropped", losses.dropped_devices)
        self.set(f"{base}.device_completeness",
                 round(losses.device_completeness, 6))


def _hit_rate(stats) -> float:
    hits = sum(e.hits for e in stats.per_artifact())
    misses = sum(e.misses for e in stats.per_artifact())
    return hits / (hits + misses) if hits + misses else 0.0


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


@dataclass
class Postmortem:
    """What a (possibly truncated) event log says happened to a run."""

    run: Optional[dict] = None          # the run_start event, if recorded
    status: str = "interrupted"         # ok | failed | interrupted
    exit_code: Optional[int] = None
    n_events: int = 0
    duration_s: float = 0.0
    #: Spans of the run's own process still open, outermost first.
    open_stages: List[str] = field(default_factory=list)
    last_stage: Optional[str] = None    # innermost span still open
    #: Closed spans rolled up by name: ``{"wall_s", "count"}`` each.
    stages: Dict[str, dict] = field(default_factory=dict)
    queued: List[List[int]] = field(default_factory=list)    # [year, shard]
    completed: List[List[int]] = field(default_factory=list)
    outstanding: List[List[int]] = field(default_factory=list)
    retries: int = 0
    failures_by_kind: Dict[str, int] = field(default_factory=dict)
    dropped: List[List[int]] = field(default_factory=list)
    checkpoints_saved: int = 0
    checkpoints_loaded: int = 0
    checkpoints_corrupt: int = 0
    losses: Dict[str, int] = field(default_factory=dict)
    chaos: List[dict] = field(default_factory=list)
    last_progress: Optional[dict] = None
    last_sample: Optional[dict] = None
    verdicts: List[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        from dataclasses import asdict

        return asdict(self)

    def render(self) -> str:
        lines = [f"postmortem: {self.status} "
                 f"({self.n_events} events, {self.duration_s:.1f}s)"]
        if self.run is not None:
            command = self.run.get("command", "?")
            lines.append(f"  run: {command} {run_label(self.run)} "
                         f"pid={self.run.get('pid')}")
        if self.exit_code is not None:
            lines.append(f"  exit code: {self.exit_code}")
        if self.last_stage is not None:
            lines.append(f"  died in stage: {self.last_stage} "
                         f"(open: {' > '.join(self.open_stages)})")
        if self.stages:
            lines.append("  closed stages:")
            width = max(len(name) for name in self.stages)
            for name, entry in self.stages.items():
                lines.append(f"    {name.ljust(width)}  x{entry['count']:<4d}"
                             f" {entry['wall_s']:9.3f}s")
        lines.append(
            f"  shards: {len(self.completed)}/{len(self.queued)} completed"
            + (f", {len(self.outstanding)} in flight" if self.outstanding
               else "")
        )
        if self.outstanding:
            shown = ", ".join(
                f"{year}:{shard}" for year, shard in self.outstanding[:8]
            )
            more = ("..." if len(self.outstanding) > 8 else "")
            lines.append(f"  in flight: {shown}{more}")
        if self.retries:
            kinds = ", ".join(f"{kind}={count}" for kind, count
                              in sorted(self.failures_by_kind.items()))
            lines.append(f"  retries: {self.retries} ({kinds})")
        if self.dropped:
            lines.append(f"  dropped shards: {self.dropped}")
        if (self.checkpoints_saved or self.checkpoints_loaded
                or self.checkpoints_corrupt):
            line = (f"  checkpoints: {self.checkpoints_saved} saved, "
                    f"{self.checkpoints_loaded} loaded")
            if self.checkpoints_corrupt:
                line += f", {self.checkpoints_corrupt} corrupt"
            lines.append(line)
        if self.losses:
            total = sum(self.losses.values())
            lines.append(f"  collection losses: {total} device(s) affected")
        for event in self.chaos:
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


def run_label(run: dict) -> str:
    """``data=PATH`` for a run over saved campaigns, else its seed and
    scale (``run`` is a ``run_start`` event)."""
    if run.get("data") is not None:
        return f"data={run['data']}"
    return f"seed={run.get('seed')} scale={run.get('scale')}"


def reconstruct(events: List[dict]) -> Postmortem:
    """Rebuild run state from a (possibly truncated) event sequence."""
    post = Postmortem(n_events=len(events))
    stamps = [e["ts"] for e in events
              if isinstance(e.get("ts"), (int, float))]
    if stamps:
        post.duration_s = max(stamps) - min(stamps)
    queued: List[tuple] = []
    completed: List[tuple] = []
    # Open span names per process: pool workers append to the same file,
    # so their spans interleave with the parent's.
    open_by_pid: Dict[object, List[str]] = {}
    for event in events:
        kind = event.get("kind")
        if kind == "run_start":
            post.run = event
        elif kind == "run_end":
            post.status = str(event.get("status", "ok"))
            code = event.get("exit_code")
            post.exit_code = int(code) if code is not None else None
        elif kind == "span_start":
            open_by_pid.setdefault(event.get("pid"), []).append(
                str(event.get("name", "?")))
        elif kind == "span_end":
            name = str(event.get("name", "?"))
            stack = open_by_pid.get(event.get("pid"), [])
            if name in stack:
                del stack[len(stack) - 1 - stack[::-1].index(name):]
            entry = post.stages.setdefault(name, {"wall_s": 0.0, "count": 0})
            entry["wall_s"] += float(event.get("wall_s", 0.0))
            entry["count"] += 1
        elif kind == "shard_queued":
            queued.append((event.get("year"), event.get("shard")))
        elif kind == "shard_completed":
            completed.append((event.get("year"), event.get("shard")))
        elif kind == "shard_retry":
            post.retries += 1
            fail_kind = str(event.get("failure", "?"))
            post.failures_by_kind[fail_kind] = (
                post.failures_by_kind.get(fail_kind, 0) + 1
            )
        elif kind == "shard_dropped":
            post.dropped.append(
                [event.get("year"), event.get("shard")]
            )
        elif kind == "spill":
            post.checkpoints_saved += 1
        elif kind == "checkpoint_loaded":
            if event.get("corrupt"):
                post.checkpoints_corrupt += 1
            else:
                post.checkpoints_loaded += 1
        elif kind == "fault_loss":
            device = str(event.get("device", "?"))
            post.losses[device] = post.losses.get(device, 0) + 1
        elif kind == "chaos":
            post.chaos.append(event)
        elif kind == "progress":
            post.last_progress = event
        elif kind == "resource_sample":
            post.last_sample = event
        elif kind == "verdict":
            post.verdicts.append(event)
    # The run's own process is the one that wrote run_start (or, in a
    # log without it, the first event).
    main = (post.run or (events[0] if events else {})).get("pid")
    post.open_stages = open_by_pid.get(main, [])
    post.last_stage = post.open_stages[-1] if post.open_stages else None
    post.queued = [list(pair) for pair in queued]
    post.completed = [list(pair) for pair in completed]
    done = set(completed)
    post.outstanding = [list(pair) for pair in queued if pair not in done]
    return post


def summarize_events(events: List[dict]) -> str:
    """Counts per kind plus run identity — ``repro events --summary``."""
    counts: Dict[str, int] = {}
    for event in events:
        kind = str(event.get("kind", "?"))
        counts[kind] = counts.get(kind, 0) + 1
    post = reconstruct(events)
    lines = [f"{len(events)} events over {post.duration_s:.1f}s "
             f"({post.status})"]
    if post.run is not None:
        lines.append(f"  command: {post.run.get('command', '?')} "
                     f"{run_label(post.run)}")
    known = [kind.value for kind in EventKind]
    for kind in known:
        if kind in counts:
            lines.append(f"  {kind:18s} {counts[kind]}")
    for kind, count in sorted(counts.items()):
        if kind not in known:  # forward-compat: foreign kinds
            lines.append(f"  {kind:18s} {count} (undocumented)")
    return "\n".join(lines)


def json_summary(events: List[dict]) -> str:
    """``repro events --json`` as ``cmd_events`` printed it."""
    counts: dict = {}
    for event in events:
        kind = str(event.get("kind", "?"))
        counts[kind] = counts.get(kind, 0) + 1
    post = reconstruct(events)
    return json.dumps(
        {"n_events": len(events), "status": post.status,
         "duration_s": round(post.duration_s, 3), "counts": counts},
        indent=2, sort_keys=True,
    )


# ----------------------------------------------------------------------
# Every single-run log the suite can make
# ----------------------------------------------------------------------

LOGS = ["interrupted", "corrupt_checkpoint", "clean", "cli",
        "chaos_recovered", "chaos_interrupted", "hard_killed",
        "fidelity_check", "analyze"]


def _write_raw(path: Path, events: List[dict]) -> Path:
    path.write_text("".join(json.dumps(e) + "\n" for e in events))
    return path


@pytest.fixture(scope="module")
def logs(tmp_path_factory, hard_killed_run):
    """``{name: events file}`` for every entry of :data:`LOGS`."""
    tmp = tmp_path_factory.mktemp("fold_logs")
    paths = {
        "interrupted": _write_raw(tmp / "interrupted.jsonl",
                                  INTERRUPTED_LOG),
        "corrupt_checkpoint": _write_raw(tmp / "corrupt.jsonl",
                                         CORRUPT_CHECKPOINT_LOG),
        "clean": _write_raw(tmp / "clean.jsonl", CLEAN_LOG),
    }
    recorder = FlightRecorder(tmp / "cli.jsonl")
    for kind, fields in CLI_LOG:
        recorder.emit(kind, **fields)
    recorder.close()
    paths["cli"] = recorder.path
    simulate = ["simulate", "--scale", "0.02", "--seed", "7",
                "--jobs", "2", "--store", "disk"]
    runs = {
        # Seeded crashes and hangs, retried back to green.
        "chaos_recovered": (0, simulate + [
            "--out", str(tmp / "recovered"),
            "--max-attempts", "3", "--shard-timeout", "60",
            "--retry-backoff-s", "0.05", "--chaos-crash-rate", "0.3",
            "--chaos-hang-rate", "0.2", "--chaos-hang-s", "2",
            "--chaos-seed", "5", "--chaos-state-dir", str(tmp / "state")]),
        "chaos_interrupted": (3, simulate + [
            "--out", str(tmp / "killed"), "--chaos-kill-after", "2"]),
        "fidelity_check": (0, [
            "fidelity", "--scale", "0.02", "--seed", "7",
            "--check", str(REPO / "FIDELITY_baseline.json"),
            "--out", str(tmp / "fidelity" / "report.json")]),
        "analyze": (0, ["analyze", "table1", "fig05", "--scale", "0.02",
                        "--seed", "7"]),
    }
    for name, (code, argv) in runs.items():
        path = tmp / f"{name}.jsonl"
        assert main(argv + ["--events", str(path)]) == code, name
        paths[name] = path
    _, paths["hard_killed"], returncode, _ = hard_killed_run
    assert returncode == -9
    return paths


def _cli(capsys, *argv) -> str:
    capsys.readouterr()
    assert main(["events", *map(str, argv)]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", LOGS)
def test_postmortem_and_summaries_match_reference(logs, name, capsys):
    path = logs[name]
    events = load_events(path)
    assert sum(e["kind"] == "run_start" for e in events) == 1, name
    assert _cli(capsys, path, "--postmortem") == (
        reconstruct(events).render() + "\n")
    assert _cli(capsys, path) == summarize_events(events) + "\n"
    assert _cli(capsys, path, "--json") == json_summary(events) + "\n"


@pytest.mark.parametrize("name", LOGS)
def test_manifest_keeps_every_reference_key(logs, name):
    events = load_events(logs[name])
    reference = build_manifest(events).to_dict()
    folded = manifest_mod.build_manifest(events).to_dict()
    for key, value in reference.items():
        if key != "schema_version":
            assert folded[key] == value, key


def test_black_box_facts_are_exercised(logs):
    # The logs above cover every branch of the reference postmortem.
    posts = {name: reconstruct(load_events(path))
             for name, path in logs.items()}
    assert posts["chaos_recovered"].retries >= 1
    assert {e["fault"] for e in posts["chaos_recovered"].chaos} >= {
        "crash", "hang"}
    assert posts["chaos_interrupted"].exit_code == 3
    assert posts["chaos_interrupted"].outstanding
    assert posts["hard_killed"].open_stages
    assert posts["corrupt_checkpoint"].checkpoints_corrupt == 1
    assert posts["fidelity_check"].verdicts
    assert posts["analyze"].stages["experiment"]["count"] == 2


def test_run_summary_counters_match_registry(study):
    from repro.analysis.context import AnalysisContext
    from repro.engine.resilience import ExecutionLosses, ResilienceReport
    from repro.reporting.experiments import run_experiment

    from repro.collection.faults import (
        CollectionReport,
        DeviceCollectionStats,
    )

    cache = AnalysisContext(study)
    run_experiment("table1", cache)
    run_experiment("fig06", cache)
    # A lossy campaign: completeness 3/7 needs all six rounded digits.
    lossy = CollectionReport(
        n_slots=7, batches_received=3, duplicates_dropped=1,
        devices=[DeviceCollectionStats(
            device_id=1, ticks=7, churn_slot=None, churned=0, uploaded=5,
            delivered=3, duplicates=1, dropped=2, cached=1)],
    )
    accounting = dict(
        years=list(study.years), execution=study.execution,
        shards=[{"year": y, "n_shards": 1, "n_devices": 1}
                for y in study.years],
        cache_stats=cache.stats,
        collection_reports={
            **{y: study.campaigns[y].collection for y in study.years},
            2016: lossy},
        resilience=ResilienceReport(
            shard_attempts=[{"year": 2013, "shard": 0, "unit": 0,
                             "attempts": 2, "outcome": "retried",
                             "failures": []}],
            retries=2, fallbacks=1, dropped_shards=1,
            failures_by_kind={"crash": 1, "timeout": 1},
            checkpoint_saved=3, checkpoint_hits=1, checkpoint_corrupt=1,
        ),
        losses=[
            ExecutionLosses(year=2014, n_shards=4, dropped_shards=(1,),
                            n_devices=16, dropped_devices=4),
            None,
            ExecutionLosses(year=2015, n_shards=2, dropped_shards=(),
                            n_devices=8, dropped_devices=0),
        ],
        extra_counters={"experiments_run": 2},
        artifacts={"fidelity_report": "report.json"},
    )
    assert all(study.campaigns[y].collection is not None
               for y in study.years)
    assert cache.stats.per_artifact()
    reference = run_summary(**accounting)
    assert manifest_mod.run_summary(**accounting) == reference
    assert list(manifest_mod.run_summary(**accounting)["counters"]) == list(
        reference["counters"])
    # Each command passes only what it has.
    assert manifest_mod.run_summary() == run_summary()
    for key in ("cache_stats", "collection_reports", "execution",
                "resilience", "losses", "extra_counters"):
        only = {key: accounting[key]}
        assert manifest_mod.run_summary(**only) == run_summary(**only), key
