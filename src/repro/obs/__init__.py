"""Run-telemetry and fidelity-observability subsystem.

A run has one telemetry stream: the flight recorder's event list, and one
fold of it: the run manifest. Spans, stage timings, the Chrome trace, the
HTML run report, the ``repro events`` summaries and the kill -9
postmortem all render from that manifest; live progress is a listener on
the stream. Stdlib-light modules the rest of the system threads through:

- :mod:`repro.obs.recorder` — the :class:`~repro.obs.recorder.FlightRecorder`
  (``EventKind``-typed events to an ``O_APPEND`` ``events.jsonl`` and/or a
  listener; ``span()`` emits ``span_start``/``span_end``), the
  shared no-op default that keeps instrumented hot paths zero-overhead,
  and the truncation-tolerant parser.
- :mod:`repro.obs.span` — the :class:`~repro.obs.span.Span` tree folded
  from span events (one stack per process), its per-stage rollup and
  Chrome-trace export (loadable in ``chrome://tracing`` / Perfetto).
- :mod:`repro.obs.manifest` — ``RunManifest``, the machine-readable JSON
  account of one run (config hash, seed, shard layout, per-stage seconds,
  cache hit rates, fault losses, and the black box of a killed run: open
  stages, shards in flight, retries, spills, the last resource sample),
  folded from the events file by ``build_manifest``; ``run_summary``
  turns the run's accounting objects into one namespaced counter schema.
- :mod:`repro.obs.reference` — the paper-reference registry: one
  ``PaperRef`` per checkable claim, each with a tolerance/shape
  ``Predicate`` producing a normalized divergence and verdict.
- :mod:`repro.obs.resources` — the daemon-thread resource sampler
  (RSS/CPU//dev/shm/store-disk plus executor lifetime counters).
- :mod:`repro.obs.history` — append-only run-history JSONL for
  ``bench``/``fidelity`` gate results, with rolling-window drift
  warnings and sparkline rendering.

This package re-exports the recorder, span-tree and manifest names; the
other modules are imported by name. :mod:`repro.obs.bench` (the ``repro
bench`` harness), :mod:`repro.obs.fidelity` (the scorer),
:mod:`repro.obs.docgen` and :mod:`repro.obs.report` must be: they reach
up into the simulation/analysis/reporting layers, which import this
package, and eager import would cycle.
"""

from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    build_manifest,
    config_hash_of,
)
from repro.obs.recorder import (
    EVENTS_ENV_VAR,
    EventKind,
    FlightRecorder,
    NoopRecorder,
    get_recorder,
    load_events,
    parse_events,
    set_recorder,
    use_recorder,
)
from repro.obs.span import (
    Span,
    fold_spans,
    rollup,
    spans_from_chrome_trace,
    to_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "Span",
    "fold_spans",
    "rollup",
    "RunManifest",
    "build_manifest",
    "config_hash_of",
    "MANIFEST_SCHEMA_VERSION",
    "to_chrome_trace",
    "spans_from_chrome_trace",
    "write_chrome_trace",
    "EventKind",
    "EVENTS_ENV_VAR",
    "FlightRecorder",
    "NoopRecorder",
    "get_recorder",
    "set_recorder",
    "use_recorder",
    "parse_events",
    "load_events",
]
