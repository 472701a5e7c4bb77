"""Campaign-scale collection pump: upload replay → server.

``run_campaign`` hands each simulated device's columnar output to a
:class:`CollectionPump`. The pump finds the device's upload batches (one per
slot holding data), replays the :class:`FaultPlan` over them with
:func:`replay_uploads` and hands the delivered batches' rows to the
:class:`CollectionServer` in one call. Data loss is accounted, never
raised.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.collection.faults import DeviceCollectionStats, FaultPlan
from repro.collection.server import (
    CollectionServer, occupied_slots, upload_slots,
)
from repro.collection.uploader import replay_uploads
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

    def transmit_bulk(
        self,
        info: DeviceInfo,
        tables: Mapping[str, Mapping[str, np.ndarray]],
    ) -> DeviceCollectionStats:
        """Upload one device's campaign output under the fault plan."""
        device_id = info.device_id
        plan = self.plan
        slots = upload_slots(device_id, tables, self.n_slots)
        rng = np.random.default_rng(
            (*self._seed, device_id, plan.seed, _FAULT_STREAM)
        )
        delivered, stats, failures = replay_uploads(
            device_id, occupied_slots(slots, self.n_slots), plan,
            info.technology, rng, self.n_slots,
        )
        self.server.receive_bulk(
            device_id, tables, slots, delivered, stats.duplicates
        )
        if plan.is_zero:
            return stats
        recorder = get_recorder()
        # Batch counts live in CollectionReport; failed upload attempts
        # (retried until delivered or dropped) are recorded nowhere else.
        recorder.count("pump.upload_failures", failures)
        if stats.dropped or stats.churned:
            # Flight-record only actual losses (never the happy path — a
            # per-device event on clean runs would swamp the log).
            recorder.emit(
                EventKind.FAULT_LOSS, device=device_id,
                dropped=stats.dropped, churned=stats.churned,
                churn_slot=stats.churn_slot,
            )
        return stats
