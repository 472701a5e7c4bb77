"""Flight recorder: the run's one telemetry stream.

Every observation a run makes is an event on one list: command start and
end, span open and close, shard scheduling, checkpoints, spills, losses,
chaos faults, progress, resource samples and gate verdicts. The span
tree, the run manifest, the Chrome trace, the HTML run report,
``--progress`` and the ``repro events --postmortem`` report are all folds
over that list, and every one of them except ``--progress`` is computed
after the fact from the events file.

A :class:`FlightRecorder` routes each event to two sinks:

- an ``O_APPEND`` file, one JSON object per line, written with a single
  ``os.write`` per event. POSIX appends of one small write are atomic, so
  pool workers and the parent share the file without interleaving, and a
  ``kill -9`` at any instant leaves every fully-written event parseable —
  at worst the final line is truncated, and :func:`parse_events`
  tolerates exactly that;
- a listener callback (``--progress``).

Recording is **zero-overhead by default**: the process-global recorder is
a shared :class:`NoopRecorder` whose ``emit()`` and ``count()`` return at
once and whose ``span()`` returns one shared no-op context manager. The
CLI installs a real recorder per command; spawned pool workers resolve
the parent's event file through ``$REPRO_EVENTS``. Nothing here touches
RNG state — recorded and unrecorded runs are bit-identical
(``tests/test_telemetry_identity.py``).

Stdlib-only so every layer (engine, collection, traces, CLI) can import it
without cycles.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

__all__ = [
    "EventKind",
    "EVENTS_ENV_VAR",
    "FlightRecorder",
    "NoopRecorder",
    "NOOP_RECORDER",
    "Postmortem",
    "format_event",
    "get_recorder",
    "set_recorder",
    "use_recorder",
    "parse_events",
    "load_events",
    "reconstruct",
    "summarize_events",
]

#: Setting this to a path enables flight recording process-wide; pool
#: workers inherit the environment and append to the same file (safe:
#: every event is one O_APPEND write).
EVENTS_ENV_VAR = "REPRO_EVENTS"


class EventKind(str, Enum):
    """Every kind of event the recorder writes.

    The values are the ``kind`` strings in ``events.jsonl``; each one is
    documented in the ARCHITECTURE.md event-schema table. Call sites name
    a member, so an undeclared kind fails where it is written.
    """

    #: command began: argv, config hash, seed, scale, environment, pid
    RUN_START = "run_start"
    #: the command's accounting, emitted just before run_end: years,
    #: executor, n_jobs, shard layout, counters, shard attempts, losses
    RUN_SUMMARY = "run_summary"
    #: command finished: status (ok/failed/interrupted), exit code, error
    RUN_END = "run_end"
    #: a span opened: name, attrs
    SPAN_START = "span_start"
    #: a span closed: name, wall_s, cpu_s, ok, counters
    SPAN_END = "span_end"
    #: a shard was scheduled for execution (year, shard, unit)
    SHARD_QUEUED = "shard_queued"
    #: a shard's output was accepted by the parent
    SHARD_COMPLETED = "shard_completed"
    #: a shard attempt failed and will be retried or settled
    SHARD_RETRY = "shard_retry"
    #: a shard exhausted retries and was dropped (partial)
    SHARD_DROPPED = "shard_dropped"
    #: a completed shard was spilled to the checkpoint dir
    CHECKPOINT_SAVED = "checkpoint_saved"
    #: a shard checkpoint was read on resume (corrupt=True when invalid)
    CHECKPOINT_LOADED = "checkpoint_loaded"
    #: a shard's columns were spilled to a store partition
    SPILL = "spill"
    #: a campaign store finalized its manifest on disk
    STORE_FINALIZED = "store_finalized"
    #: the collection pipeline lost data for a device
    FAULT_LOSS = "fault_loss"
    #: the chaos harness injected a fault (crash/hang/kill)
    CHAOS = "chaos"
    #: campaign progress: shards and devices done, rate, ETA
    PROGRESS = "progress"
    #: periodic RSS/CPU/shm/disk sample from the sampler
    RESOURCE_SAMPLE = "resource_sample"
    #: a gate verdict (bench --check / fidelity --check)
    VERDICT = "verdict"


class FlightRecorder:
    """One event stream with two optional sinks: a file and a listener.

    ``path`` appends each event to an ``O_APPEND`` file; ``listener`` sees
    every event dict after it is written — listener errors are swallowed
    so display code can never kill a run.
    """

    enabled = True

    def __init__(self, path: Optional[Union[str, os.PathLike]] = None,
                 listener: Optional[Callable[[dict], None]] = None) -> None:
        self.path: Optional[Path] = Path(path) if path is not None else None
        self.listener = listener
        self._open: List[_SpanHandle] = []
        self._fd: Optional[int] = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(
                str(self.path),
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                0o644,
            )

    def emit(self, kind: EventKind, **fields: object) -> None:
        """Record one event; a single O_APPEND write makes it durable."""
        event = {"ts": round(time.time(), 3), "pid": os.getpid(),
                 "kind": EventKind(kind).value}
        event.update(fields)
        if self._fd is not None:
            line = json.dumps(event, separators=(",", ":"),
                              default=str) + "\n"
            os.write(self._fd, line.encode("utf-8"))
        if self.listener is not None:
            try:
                self.listener(event)
            except Exception:
                pass

    def span(self, name: str, **attrs: object) -> "_SpanHandle":
        """``with`` context emitting ``span_start``/``span_end``."""
        return _SpanHandle(self, name, attrs)

    def count(self, name: str, n: Union[int, float] = 1) -> None:
        """Add ``n`` to a counter of the innermost open span."""
        if self._open:
            counters = self._open[-1].counters
            counters[name] = counters.get(name, 0) + n

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except OSError:
            pass


class _SpanHandle:
    """Times one span on a recorder's open-span stack."""

    __slots__ = ("_recorder", "name", "attrs", "counters", "t0", "c0")

    def __init__(self, recorder: FlightRecorder, name: str,
                 attrs: dict) -> None:
        self._recorder = recorder
        self.name = name
        self.attrs = attrs
        self.counters: Dict[str, Union[int, float]] = {}

    def __enter__(self) -> "_SpanHandle":
        fields: dict = {"name": self.name}
        if self.attrs:
            fields["attrs"] = self.attrs
        self._recorder.emit(EventKind.SPAN_START, **fields)
        self._recorder._open.append(self)
        self.c0 = time.process_time()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        wall_s = time.perf_counter() - self.t0
        cpu_s = time.process_time() - self.c0
        self._recorder._open.pop()
        fields: dict = {"name": self.name, "wall_s": wall_s,
                        "cpu_s": cpu_s, "ok": exc_type is None}
        if self.counters:
            fields["counters"] = self.counters
        self._recorder.emit(EventKind.SPAN_END, **fields)


class _NoopSpan:
    """Reusable do-nothing span context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class NoopRecorder:
    """The default recorder: every operation is a near-free no-op."""

    enabled = False
    path = None

    def emit(self, kind: EventKind, **fields: object) -> None:
        return None

    def span(self, name: str, **attrs: object) -> _NoopSpan:
        return _NOOP_SPAN

    def count(self, name: str, n: Union[int, float] = 1) -> None:
        return None

    def close(self) -> None:
        return None


#: The shared no-op recorder; also the reset target for :func:`set_recorder`.
NOOP_RECORDER = NoopRecorder()

#: ``None`` means "not yet resolved": the first :func:`get_recorder` call
#: checks ``$REPRO_EVENTS`` so spawned pool workers (fresh interpreters)
#: pick up the parent's event file without any plumbing.
_RECORDER: Optional[Union[FlightRecorder, NoopRecorder]] = None


def get_recorder() -> Union[FlightRecorder, NoopRecorder]:
    """The process-global recorder (a shared no-op unless one was set)."""
    global _RECORDER
    if _RECORDER is None:
        path = os.environ.get(EVENTS_ENV_VAR, "").strip()
        _RECORDER = FlightRecorder(path) if path else NOOP_RECORDER
    return _RECORDER


def set_recorder(
    recorder: Optional[Union[FlightRecorder, NoopRecorder]]
) -> Optional[Union[FlightRecorder, NoopRecorder]]:
    """Install ``recorder`` globally; ``None`` resets to unresolved.

    Resetting to unresolved (rather than straight to the no-op) means the
    next :func:`get_recorder` re-checks ``$REPRO_EVENTS`` — the behaviour
    a freshly spawned worker sees.
    """
    global _RECORDER
    previous = _RECORDER
    _RECORDER = recorder
    return previous


class use_recorder:
    """Temporarily install a recorder (tests and shards use this)."""

    def __init__(self,
                 recorder: Union[FlightRecorder, NoopRecorder]) -> None:
        self._recorder = recorder
        self._previous: Optional[Union[FlightRecorder, NoopRecorder]] = None

    def __enter__(self) -> Union[FlightRecorder, NoopRecorder]:
        self._previous = set_recorder(self._recorder)
        return self._recorder

    def __exit__(self, *exc_info) -> None:
        set_recorder(self._previous)


# ----------------------------------------------------------------------
# Parsing — tolerant of the truncation kill -9 can leave behind
# ----------------------------------------------------------------------

def parse_events(data: bytes) -> List[dict]:
    """Decode an event-log byte string; any byte prefix of a valid log
    yields the events whose lines were fully written.

    The final line is allowed to be truncated (no trailing newline, or
    cut mid-JSON) — that is exactly the state a ``kill -9`` leaves. A
    malformed *interior* line (torn write from a dying process) is
    skipped rather than fatal: a postmortem must never refuse to read
    the black box.
    """
    events: List[dict] = []
    lines = data.split(b"\n")
    complete, last = lines[:-1], lines[-1]
    for raw in complete:
        if not raw.strip():
            continue
        try:
            event = json.loads(raw)
        except ValueError:
            continue
        if isinstance(event, dict) and "kind" in event:
            events.append(event)
    if last.strip():
        # No trailing newline: the final line is complete only if it
        # happens to parse (the write made it out before the kill).
        try:
            event = json.loads(last)
        except ValueError:
            event = None
        if isinstance(event, dict) and "kind" in event:
            events.append(event)
    return events


def load_events(path: Union[str, os.PathLike]) -> List[dict]:
    """Read and parse an ``events.jsonl`` file (truncation-tolerant)."""
    return parse_events(Path(path).read_bytes())


def format_event(event: dict) -> str:
    """One human line per event, for ``repro events --tail``."""
    ts = event.get("ts")
    stamp = (time.strftime("%H:%M:%S", time.localtime(ts))
             if isinstance(ts, (int, float)) else "--:--:--")
    kind = event.get("kind", "?")
    rest = " ".join(
        f"{key}={value}" for key, value in event.items()
        if key not in ("ts", "pid", "kind")
    )
    return f"{stamp} [{event.get('pid', '?')}] {kind:16s} {rest}".rstrip()


# ----------------------------------------------------------------------
# Postmortem reconstruction
# ----------------------------------------------------------------------

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
    spills: int = 0
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
            lines.append(
                f"  run: {command} seed={self.run.get('seed')} "
                f"scale={self.run.get('scale')} pid={self.run.get('pid')}"
            )
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
        if self.spills:
            lines.append(f"  store spills: {self.spills}")
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
        elif kind == "checkpoint_saved":
            post.checkpoints_saved += 1
        elif kind == "checkpoint_loaded":
            if event.get("corrupt"):
                post.checkpoints_corrupt += 1
            else:
                post.checkpoints_loaded += 1
        elif kind == "spill":
            post.spills += 1
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
                     f"seed={post.run.get('seed')} "
                     f"scale={post.run.get('scale')}")
    known = [kind.value for kind in EventKind]
    for kind in known:
        if kind in counts:
            lines.append(f"  {kind:18s} {counts[kind]}")
    for kind, count in sorted(counts.items()):
        if kind not in known:  # forward-compat: foreign kinds
            lines.append(f"  {kind:18s} {count} (undocumented)")
    return "\n".join(lines)
