"""The span tree, folded from the flight recorder's event log.

Spans are not a channel of their own: ``FlightRecorder.span(name)``
emits a ``span_start`` event on enter and a ``span_end`` event (wall and
CPU seconds, ``ok``, the span's counters) on exit — see
:mod:`repro.obs.recorder`. Everything span-shaped is a fold over that one
list:

- :func:`fold_spans` rebuilds the tree of :class:`Span` nodes;
- :func:`rollup` aggregates a tree into the manifest's per-stage timings
  and ``span.<name>.<counter>`` counters;
- :func:`to_chrome_trace` / :func:`spans_from_chrome_trace` convert a tree
  to and from Chrome-trace JSON (``chrome://tracing`` / Perfetto).

Wall time is monotonic (:func:`time.perf_counter`), CPU time is process
CPU (:func:`time.process_time`); both cover a span's whole subtree.

This module is stdlib-only so every layer can import it without cycles.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

__all__ = [
    "Span",
    "fold_spans",
    "rollup",
    "to_chrome_trace",
    "spans_from_chrome_trace",
    "write_chrome_trace",
]

Number = Union[int, float]


class Span:
    """One timed stage: name, attributes, counters, children."""

    __slots__ = ("name", "attrs", "counters", "children", "wall_s", "cpu_s")

    def __init__(self, name: str, attrs: Optional[Dict[str, object]] = None):
        self.name = name
        self.attrs: Dict[str, object] = dict(attrs) if attrs else {}
        self.counters: Dict[str, Number] = {}
        self.children: List[Span] = []
        self.wall_s: float = 0.0
        self.cpu_s: float = 0.0

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def as_dict(self) -> dict:
        """JSON-ready form (inverse of :meth:`from_dict`)."""
        out: dict = {"name": self.name, "wall_s": self.wall_s,
                     "cpu_s": self.cpu_s}
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.children:
            out["children"] = [c.as_dict() for c in self.children]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        span = cls(str(data["name"]), data.get("attrs"))
        span.wall_s = float(data.get("wall_s", 0.0))
        span.cpu_s = float(data.get("cpu_s", 0.0))
        span.counters = dict(data.get("counters", {}))
        span.children = [cls.from_dict(c) for c in data.get("children", ())]
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, wall_s={self.wall_s:.6f}, "
                f"children={len(self.children)})")


def fold_spans(events: Iterable[dict]) -> Tuple[List[Span], List[Span]]:
    """Rebuild the span forest from ``span_start``/``span_end`` events.

    Returns ``(roots, still_open)``: the top-level spans in order, and the
    spans that never closed. Each process (``pid``) keeps its own stack,
    because pool workers append to the same file and their events
    interleave with the parent's. The parent is the process of the first
    event; a worker's top-level span hangs under the parent span that was
    open at its ``span_start``. A span still open at the end of the list
    gets wall time = ts of the last event - ts of its ``span_start`` (CPU
    time and counters are only known at ``span_end`` and stay empty).
    """
    roots: List[Span] = []
    stacks: Dict[object, List[Tuple[Span, float]]] = {}
    main: object = None
    last_ts = 0.0
    for event in events:
        ts = event.get("ts")
        if isinstance(ts, (int, float)):
            last_ts = max(last_ts, float(ts))
        pid = event.get("pid")
        if main is None:
            main = pid
        kind = event.get("kind")
        if kind == "span_start":
            stack = stacks.setdefault(pid, [])
            parent = stack or stacks.get(main)
            span = Span(str(event.get("name", "?")), event.get("attrs"))
            (parent[-1][0].children if parent else roots).append(span)
            stack.append((span, float(ts) if isinstance(ts, (int, float))
                          else last_ts))
        elif kind == "span_end" and stacks.get(pid):
            span, _ = stacks[pid].pop()
            span.wall_s = float(event.get("wall_s", 0.0))
            span.cpu_s = float(event.get("cpu_s", 0.0))
            span.counters = dict(event.get("counters") or {})
    still_open = []
    for stack in stacks.values():
        for span, started in stack:
            span.wall_s = max(0.0, last_ts - started)
            still_open.append(span)
    return roots, still_open


def rollup(root: Span) -> Tuple[Dict[str, dict], Dict[str, Number]]:
    """Per-stage timings and span counters over a tree.

    Spans sharing a name accumulate into one stage (``simulate_shard``
    over 8 shards becomes one stage with ``count == 8``); span counters
    are summed under ``span.<name>.<counter>``.
    """
    stages: Dict[str, dict] = {}
    counters: Dict[str, Number] = {}
    for span in root.walk():
        entry = stages.setdefault(
            span.name, {"wall_s": 0.0, "cpu_s": 0.0, "count": 0})
        entry["wall_s"] += span.wall_s
        entry["cpu_s"] += span.cpu_s
        entry["count"] += 1
        for key, value in span.counters.items():
            name = f"span.{span.name}.{key}"
            counters[name] = counters.get(name, 0) + value
    return stages, counters


# ----------------------------------------------------------------------
# Chrome-trace export (chrome://tracing / Perfetto)
# ----------------------------------------------------------------------

#: Trace events use integer microseconds; sub-microsecond spans round to 1
#: so they stay visible (and survive the round trip as a >0 duration).
_US = 1_000_000


def to_chrome_trace(exported: dict, process_name: str = "repro") -> dict:
    """A span tree (:meth:`Span.as_dict` form) as Chrome-trace JSON.

    Spans record *durations*, not start offsets, so starts are laid out
    synthetically: each child begins where its previous sibling's wall
    time ended. That is exact for the serial stages and a faithful
    at-least-this-dense packing for the spans of parallel workers. Events are complete ("X") events in preorder; ``args``
    carries the attrs, counters, CPU seconds and stack depth so
    :func:`spans_from_chrome_trace` can rebuild the exact tree.
    """
    events: List[dict] = [{
        "name": "process_name", "ph": "M", "pid": 1, "tid": 1,
        "args": {"name": process_name},
    }]

    def emit(node: dict, start_us: int, depth: int) -> None:
        dur_us = max(int(round(float(node.get("wall_s", 0.0)) * _US)), 1)
        args: dict = {"depth": depth,
                      "wall_s": float(node.get("wall_s", 0.0)),
                      "cpu_s": float(node.get("cpu_s", 0.0))}
        if node.get("attrs"):
            args["attrs"] = dict(node["attrs"])
        if node.get("counters"):
            args["counters"] = dict(node["counters"])
        events.append({
            "name": str(node["name"]), "ph": "X", "cat": "span",
            "pid": 1, "tid": 1, "ts": start_us, "dur": dur_us,
            "args": args,
        })
        child_start = start_us
        for child in node.get("children", ()):
            emit(child, child_start, depth + 1)
            child_start += max(
                int(round(float(child.get("wall_s", 0.0)) * _US)), 1
            )

    if exported:
        emit(exported, 0, 0)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def spans_from_chrome_trace(trace: dict) -> Optional[Span]:
    """Rebuild the span tree from :func:`to_chrome_trace` output.

    Durations come from ``args`` (exact floats), not from the rounded
    microsecond timeline, so ``span.as_dict()`` of the result equals the
    originally exported tree.
    """
    events = [e for e in trace.get("traceEvents", ()) if e.get("ph") == "X"]
    if not events:
        return None
    root: Optional[Span] = None
    stack: List[Span] = []  # stack[d] = most recent span at depth d
    for event in events:
        args = event.get("args", {})
        depth = int(args.get("depth", len(stack)))
        span = Span(str(event["name"]), args.get("attrs"))
        span.counters = dict(args.get("counters", {}))
        span.wall_s = float(event.get("dur", 0)) / _US
        if "wall_s" in args:  # exact value wins over the rounded dur
            span.wall_s = float(args["wall_s"])
        span.cpu_s = float(args.get("cpu_s", 0.0))
        del stack[depth:]
        if depth == 0:
            if root is not None:
                raise ValueError("trace has more than one root span")
            root = span
        else:
            if len(stack) != depth:
                raise ValueError(
                    f"event {span.name!r} at depth {depth} has no parent"
                )
            stack[-1].children.append(span)
        stack.append(span)
    return root


def write_chrome_trace(exported: dict, path: "os.PathLike | str") -> None:
    """Write a span tree as a ``chrome://tracing``-loadable JSON file."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(to_chrome_trace(exported), indent=2) + "\n")
