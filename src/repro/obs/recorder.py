"""Flight recorder: the run's one telemetry stream.

Every observation a run makes is an event on one list: command start and
end, span open and close, shard scheduling, checkpoints, spills, losses,
chaos faults, progress, resource samples and gate verdicts. The span
tree, the run manifest (and with it the ``repro events`` summaries and
``--postmortem`` report), the Chrome trace, the HTML run report and
``--progress`` are all folds over that list, and every one of them
except ``--progress`` is computed after the fact from the events file
(:func:`repro.obs.manifest.build_manifest`). This module emits, parses
and prints events; it folds none of them.

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
from contextlib import contextmanager
from enum import Enum
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Union

__all__ = [
    "EventKind",
    "EVENTS_ENV_VAR",
    "FlightRecorder",
    "NoopRecorder",
    "NOOP_RECORDER",
    "StageClock",
    "format_event",
    "get_recorder",
    "set_recorder",
    "use_recorder",
    "parse_events",
    "load_events",
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
    #: a spilled partition was reused on resume (corrupt=True when it
    #: was rejected, deleted and simulated again)
    CHECKPOINT_LOADED = "checkpoint_loaded"
    #: a shard's columns were spilled to a store partition (its save)
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


class StageClock:
    """Wall seconds per stage: ``lap(stage)`` charges the time since the
    last lap (or ``restart``) to ``stage``; ``report`` adds each total to
    the innermost open span as a ``stage.<name>_s`` counter."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.restart()

    def restart(self) -> None:
        self._t = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.seconds[stage] = self.seconds.get(stage, 0.0) + now - self._t
        self._t = now

    def report(self, recorder: Union[FlightRecorder, NoopRecorder]) -> None:
        for stage, seconds in self.seconds.items():
            recorder.count(f"stage.{stage}_s", seconds)


@contextmanager
def use_recorder(recorder: Union[FlightRecorder, NoopRecorder]
                 ) -> Iterator[Union[FlightRecorder, NoopRecorder]]:
    """Temporarily install a recorder."""
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)


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
