"""Uploader with failure caching (§2).

"The software collects statistics every 10 minutes and uploads this data to
a central server. If the upload fails the software caches the data and sends
it later." The uploader batches records, attempts delivery through a
transport, and keeps failed batches in an on-device cache for retry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Protocol, Sequence

import numpy as np

from repro.collection.agent import ColumnarRecords
from repro.errors import ConfigurationError, UploadError


@dataclass(frozen=True)
class UploadBatch:
    """One upload unit: a device's records for one tick (or retried ticks)."""

    device_id: int
    sequence: int
    records: ColumnarRecords


class Transport(Protocol):
    """Anything that can deliver a batch to the server."""

    def deliver(self, batch: UploadBatch) -> None:
        """Deliver or raise :class:`UploadError`."""


class FlakyTransport:
    """A transport with a configurable failure rate (cell coverage holes).

    ``failure_rate == 1.0`` is a valid permanent outage — batches stay in
    the device cache and :func:`drain_all` reports the stall instead of
    spinning forever.
    """

    def __init__(
        self,
        deliver_fn: Callable[[UploadBatch], None],
        failure_rate: float = 0.0,
        rng: "np.random.Generator | None" = None,
    ) -> None:
        if not 0.0 <= failure_rate <= 1.0:
            raise ConfigurationError(
                f"failure rate must be in [0, 1]: {failure_rate}"
            )
        self._deliver = deliver_fn
        self.failure_rate = failure_rate
        self.rng = rng or np.random.default_rng(0)
        self.attempts = 0
        self.failures = 0

    def deliver(self, batch: UploadBatch) -> None:
        self.attempts += 1
        if self.failure_rate and (
            self.failure_rate >= 1.0 or self.rng.random() < self.failure_rate
        ):
            self.failures += 1
            raise UploadError(
                f"transport failure for device {batch.device_id} seq {batch.sequence}"
            )
        self._deliver(batch)


@dataclass
class Uploader:
    """Batches records and retries failed uploads from a local cache."""

    device_id: int
    transport: Transport
    max_cache_batches: int = 4096
    _sequence: int = 0
    _cache: List[UploadBatch] = field(default_factory=list)
    delivered: int = 0
    #: Batches lost to cache-overflow eviction (bounded on-device storage).
    dropped_batches: int = 0

    def upload(self, records: ColumnarRecords) -> bool:
        """Try to upload ``records`` (after draining the cache).

        Returns True when everything (cache included) went out; False when
        something is still cached for later. A full cache evicts its oldest
        batches — data loss is recorded in :attr:`dropped_batches`, not
        fatal, matching real devices with bounded storage.
        """
        batch = UploadBatch(self.device_id, self._sequence, records)
        self._sequence += 1
        self._cache.append(batch)
        while len(self._cache) > self.max_cache_batches:
            self._cache.pop(0)
            self.dropped_batches += 1
        return self.flush()

    def flush(self) -> bool:
        """Attempt to deliver every cached batch, oldest first."""
        remaining: List[UploadBatch] = []
        for i, batch in enumerate(self._cache):
            if remaining:
                # Preserve ordering: once one batch fails, keep the rest.
                remaining.append(batch)
                continue
            try:
                self.transport.deliver(batch)
                self.delivered += 1
            except UploadError:
                remaining.append(batch)
        self._cache = remaining
        return not self._cache

    @property
    def cached_batches(self) -> int:
        return len(self._cache)


def drain_all(uploaders: Sequence[Uploader], max_rounds: int = 100) -> None:
    """Keep flushing until every uploader's cache is empty (end of campaign)."""
    for _ in range(max_rounds):
        if all(uploader.flush() for uploader in uploaders):
            return
    raise UploadError("caches did not drain; transport permanently down?")
