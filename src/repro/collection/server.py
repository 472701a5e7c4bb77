"""Central collection server (§2).

Receives upload batches, deduplicates retried deliveries by (device,
sequence), and assembles everything into a
:class:`~repro.traces.dataset.DatasetBuilder`.

Payloads are :class:`~repro.collection.agent.ColumnarRecords` (range views
into a device's column arrays). They are buffered and contiguous ranges
merged, so per-tick ingest ends in the same bulk appends as
:meth:`CollectionServer.receive_bulk`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Set, Tuple

import numpy as np

from repro.collection.agent import ColumnarRecords, upload_slots
from repro.collection.uploader import UploadBatch
from repro.errors import CollectionError
from repro.timeutil import TimeAxis
from repro.traces.dataset import _EMPTY_DTYPES, DatasetBuilder
from repro.traces.records import ApDirectoryEntry, DeviceInfo


class CollectionServer:
    """Assembles uploaded batches into a campaign dataset."""

    def __init__(self, year: int, axis: TimeAxis) -> None:
        self.builder = DatasetBuilder(year, axis)
        self._registered: Set[int] = set()
        self._seen: Set[Tuple[int, int]] = set()
        # Buffered columnar ranges: table -> [ [columns, lo, hi], ... ].
        self._buffers: Dict[str, List[list]] = {
            name: [] for name in _EMPTY_DTYPES
        }
        self.batches_received = 0
        self.duplicates_dropped = 0
        self.received_by_device: Dict[int, int] = {}

    def register_device(self, info: DeviceInfo) -> None:
        """Enroll a device before it uploads."""
        self.builder.add_device(info)
        self._registered.add(info.device_id)

    def register_ap(self, entry: ApDirectoryEntry) -> None:
        """Record an AP's observable attributes in the directory."""
        if entry.ap_id not in self.builder.ap_directory:
            self.builder.add_ap(entry)

    def receive(self, batch: UploadBatch) -> None:
        """Ingest one batch (idempotent on retries)."""
        if batch.device_id not in self._registered:
            raise CollectionError(
                f"upload from unregistered device {batch.device_id}"
            )
        key = (batch.device_id, batch.sequence)
        if key in self._seen:
            self.duplicates_dropped += 1
            return
        self._seen.add(key)
        self.batches_received += 1
        self.received_by_device[batch.device_id] = (
            self.received_by_device.get(batch.device_id, 0) + 1
        )
        self._buffer_columns(batch.records)

    def receive_bulk(
        self,
        device_id: int,
        tables: Mapping[str, Mapping[str, np.ndarray]],
        n_slots: int,
    ) -> int:
        """Ingest one device's whole campaign output in a single call.

        Equivalent to replaying every per-slot upload through
        :meth:`receive` over a fault-free transport: same registration and
        window checks, same counters (one batch per slot holding data), and
        a bit-identical built dataset — both append the kernel's rows in
        their canonical (device, t) order, and ``build``'s stable fallback
        sort keeps rows within one (device, slot) in their original order
        for any other append order.  Returns the number of upload batches
        accounted.
        """
        if device_id not in self._registered:
            raise CollectionError(
                f"upload from unregistered device {device_id}"
            )
        # Check every table before buffering any, so a rejected upload
        # leaves nothing behind.
        slots = {
            name: upload_slots(name, cols, device_id, n_slots)
            for name, cols in tables.items() if len(cols["device"])
        }
        if not slots:
            return 0
        occupied = np.zeros(n_slots, dtype=bool)
        for name, key in slots.items():
            occupied[key] = True
            self._buffers[name].append([tables[name], 0, len(key)])
        ticks = int(np.count_nonzero(occupied))
        self.batches_received += ticks
        self.received_by_device[device_id] = (
            self.received_by_device.get(device_id, 0) + ticks
        )
        return ticks

    def _buffer_columns(self, records: ColumnarRecords) -> None:
        for table, (cols, lo, hi) in records.ranges.items():
            buf = self._buffers[table]
            if buf and buf[-1][0] is cols and buf[-1][2] == lo:
                # Contiguous with the previous range over the same arrays.
                buf[-1][2] = hi
            else:
                buf.append([cols, lo, hi])

    def flush_buffers(self) -> None:
        """Move buffered columnar payloads into the builder (idempotent)."""
        for table, buf in self._buffers.items():
            if not buf:
                continue
            extend = getattr(self.builder, f"extend_{table}")
            # Concatenate straight into the schema dtypes, so the
            # builder's casts are no-ops and it owns the result.
            dtypes = dict(_EMPTY_DTYPES[table])
            extend(**{
                name: np.concatenate(
                    [cols[name][lo:hi] for cols, lo, hi in buf],
                    dtype=dtypes[name], casting="unsafe",
                )
                for name in buf[0][0]
            })
            buf.clear()

    def build_dataset(self):
        """Freeze everything received so far into a dataset."""
        self.flush_buffers()
        return self.builder.build()
