"""Campaign-scale collection pump: agent → uploader → transport → server.

``run_campaign`` hands each simulated device's columnar output to a
:class:`CollectionPump`, which replays it through the full collection
substrate tick by tick: the :class:`MeasurementAgent` packages per-slot
uploads, the :class:`Uploader` caches failures on-device, the
:class:`FaultedTransport` injects the configured loss, and the
:class:`CollectionServer` deduplicates and assembles the dataset. The pump
records per-device accounting and never lets an upload failure escape —
data loss is an outcome, not an exception.
"""

from __future__ import annotations

from typing import List, Mapping

import numpy as np

from repro.collection.agent import MeasurementAgent
from repro.collection.faults import (
    CollectionReport,
    DeviceCollectionStats,
    FaultedTransport,
    FaultPlan,
)
from repro.collection.server import CollectionServer
from repro.collection.uploader import Uploader
from repro.obs.recorder import EventKind, get_recorder
from repro.traces.records import DeviceInfo

#: Distinct stream key so fault randomness never aliases simulation draws.
_FAULT_STREAM = 104729


class CollectionPump:
    """Routes per-device records through the collection substrate."""

    def __init__(
        self,
        server: CollectionServer,
        plan: FaultPlan,
        n_slots: int,
        seed: int = 0,
        year: int = 0,
    ) -> None:
        self.server = server
        self.plan = plan
        self.n_slots = n_slots
        self._seed = (seed, year)
        self._stats: List[DeviceCollectionStats] = []

    def transmit(
        self,
        info: DeviceInfo,
        tables: Mapping[str, Mapping[str, np.ndarray]],
    ) -> DeviceCollectionStats:
        """Upload one device's campaign output through the faulty path."""
        plan = self.plan
        rng = np.random.default_rng(
            (*self._seed, info.device_id, plan.seed, _FAULT_STREAM)
        )
        agent = MeasurementAgent(info)
        transport = FaultedTransport(
            self.server.receive, plan, info.technology, rng
        )
        uploader = Uploader(
            device_id=info.device_id,
            transport=transport,
            max_cache_batches=plan.max_cache_batches,
        )
        churn_slot = plan.sample_dropout_slot(rng, self.n_slots)
        ticks = 0
        churned = 0
        for t, payload in agent.package_uploads(tables, self.n_slots):
            ticks += 1
            if churn_slot is not None and t >= churn_slot:
                # The participant stopped reporting; records die on-device.
                churned += 1
                continue
            transport.now = t
            uploader.upload(payload)
        # End of campaign: the device is back in coverage (unless an outage
        # window still covers the end) and sends what it cached — bounded
        # rounds, so a permanently dark transport stalls without raising.
        transport.now = self.n_slots
        for _ in range(plan.final_drain_rounds):
            if uploader.flush():
                break
        stats = DeviceCollectionStats(
            device_id=info.device_id,
            ticks=ticks,
            churn_slot=churn_slot,
            churned=churned,
            uploaded=ticks - churned,
            delivered=uploader.delivered,
            duplicates=transport.duplicates_sent,
            dropped=uploader.dropped_batches,
            cached=uploader.cached_batches,
        )
        self._stats.append(stats)
        recorder = get_recorder()
        # Batch counts live in CollectionReport; failed upload attempts
        # (retried until delivered or dropped) are recorded nowhere else.
        recorder.count("pump.upload_failures", transport.failures)
        if stats.dropped or stats.churned:
            # Flight-record only actual losses (never the happy path — a
            # per-device event on clean runs would swamp the log).
            recorder.emit(
                EventKind.FAULT_LOSS, device=info.device_id,
                dropped=stats.dropped, churned=stats.churned,
                churn_slot=stats.churn_slot,
            )
        return stats

    def transmit_bulk(
        self,
        info: DeviceInfo,
        tables: Mapping[str, Mapping[str, np.ndarray]],
    ) -> DeviceCollectionStats:
        """Upload one device's campaign output, skipping per-tick replay
        when the fault plan is lossless.

        With a zero plan the per-tick pipeline is pure bookkeeping — no
        fault can fire, every batch delivers — so the batch kernel's
        columnar output goes to the server in one bulk hand-off with
        closed-form accounting. Any non-zero plan falls back to
        :meth:`transmit`, whose tick-by-tick replay the fault machinery
        needs.
        """
        if not self.plan.is_zero:
            return self.transmit(info, tables)
        ticks = self.server.receive_bulk(info.device_id, tables, self.n_slots)
        stats = DeviceCollectionStats(
            device_id=info.device_id,
            ticks=ticks,
            churn_slot=None,
            churned=0,
            uploaded=ticks,
            delivered=ticks,
            duplicates=0,
            dropped=0,
            cached=0,
        )
        self._stats.append(stats)
        return stats

    def report(self) -> CollectionReport:
        """Roll device accounting up into a campaign report."""
        return CollectionReport(
            n_slots=self.n_slots,
            devices=list(self._stats),
            batches_received=self.server.batches_received,
            duplicates_dropped=self.server.duplicates_dropped,
        )
