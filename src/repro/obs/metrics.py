"""One counter schema over every run accounting object.

Run accounting lives in several places: the analysis memo keeps
:class:`~repro.analysis.context.CacheStats`, the collection pipeline keeps
:class:`~repro.collection.faults.CollectionReport` loss/outage counters,
and the engine keeps :class:`~repro.engine.executor.ExecutionInfo`,
resilience and loss reports. A :class:`MetricsRegistry` ingests them into
one flat, JSON-ready map of namespaced counters
(``cache.clean.hits``, ``collection.2015.delivered``, ``engine.shards``).
Per-stage timings are not kept here: they are a fold over the flight
recorder's span events (:func:`repro.obs.span.rollup`).

Ingestors are duck-typed (they read attributes, not types) so this module
imports nothing from the engine, collection, or analysis layers and can sit
below all of them.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

Number = Union[int, float]

__all__ = ["MetricsRegistry"]


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
