"""Central collection server (§2).

Receives one device's delivered upload batches in a single call and
assembles everything into a :class:`~repro.traces.dataset.DatasetBuilder`.
A batch is everything a device recorded during one 10-minute slot; daily
per-app counters ride the last slot of their day. Retransmitted batches are
counted and dropped.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Set

import numpy as np

from repro.constants import SAMPLES_PER_DAY
from repro.errors import CollectionError
from repro.timeutil import TimeAxis
from repro.traces.dataset import _EMPTY_DTYPES, DatasetBuilder
from repro.traces.records import DeviceInfo


def upload_slots(
    device_id: int,
    tables: Mapping[str, Mapping[str, np.ndarray]],
    n_slots: int,
) -> Dict[str, np.ndarray]:
    """The upload slot of every row of each of one device's non-empty tables.

    Per-slot rows upload in their own slot; daily rows ride the last slot
    of their day. Raises :class:`CollectionError` when any row belongs to
    another device or uploads outside the campaign window.
    """
    slots = {}
    for name, cols in tables.items():
        if len(cols["device"]) == 0:
            continue
        if np.any(np.asarray(cols["device"]) != device_id):
            raise CollectionError(
                f"table {name!r} holds rows for a foreign device"
            )
        if "t" in cols:
            key = np.asarray(cols["t"], dtype=np.int64)
        else:
            key = (np.asarray(cols["day"], np.int64) + 1) * SAMPLES_PER_DAY - 1
        if key.min() < 0 or key.max() >= n_slots:
            raise CollectionError(
                f"table {name!r} has records outside the campaign window"
            )
        slots[name] = key
    return slots


def occupied_slots(
    slots: Mapping[str, np.ndarray], n_slots: int,
) -> np.ndarray:
    """The slots holding at least one row — one upload batch each — in
    increasing order."""
    occupied = np.zeros(n_slots, dtype=bool)
    for key in slots.values():
        occupied[key] = True
    return np.flatnonzero(occupied)


class CollectionServer:
    """Assembles delivered upload batches into a campaign dataset."""

    def __init__(self, year: int, axis: TimeAxis) -> None:
        self.builder = DatasetBuilder(year, axis)
        self._registered: Set[int] = set()
        # Buffered column chunks per table, appended on flush.
        self._buffers: Dict[str, List[Mapping[str, np.ndarray]]] = {
            name: [] for name in _EMPTY_DTYPES
        }
        self.batches_received = 0
        self.duplicates_dropped = 0

    def register_device(self, info: DeviceInfo) -> None:
        """Enroll a device before it uploads."""
        self.builder.add_device(info)
        self._registered.add(info.device_id)

    def receive_bulk(
        self,
        device_id: int,
        tables: Mapping[str, Mapping[str, np.ndarray]],
        slots: Mapping[str, np.ndarray],
        delivered: np.ndarray,
        duplicates: int = 0,
    ) -> int:
        """Ingest the rows of one device's delivered batches in one call.

        ``slots`` is :func:`upload_slots` of ``tables``, ``delivered`` the
        slots whose batch arrived and ``duplicates`` the retransmissions to
        drop. A table whose batches all arrived is buffered whole, without
        a copy; otherwise only its delivered rows are, in their original
        order. Returns the number of batches received.
        """
        if device_id not in self._registered:
            raise CollectionError(
                f"upload from unregistered device {device_id}"
            )
        arrived = np.zeros(self.builder.axis.n_slots, dtype=bool)
        arrived[delivered] = True
        for name, key in slots.items():
            cols = tables[name]
            keep = arrived[key]
            if not keep.all():
                if not keep.any():
                    continue
                cols = {c: np.asarray(a)[keep] for c, a in cols.items()}
            self._buffers[name].append(cols)
        self.batches_received += len(delivered)
        self.duplicates_dropped += duplicates
        return len(delivered)

    def flush_buffers(self) -> None:
        """Move buffered columns into the builder (idempotent)."""
        for table, buf in self._buffers.items():
            if not buf:
                continue
            extend = getattr(self.builder, f"extend_{table}")
            # Concatenate straight into the schema dtypes, so the
            # builder's casts are no-ops and it owns the result.
            dtypes = dict(_EMPTY_DTYPES[table])
            extend(**{
                name: np.concatenate(
                    [cols[name] for cols in buf],
                    dtype=dtypes[name], casting="unsafe",
                )
                for name in buf[0]
            })
            buf.clear()

    def build_dataset(self):
        """Freeze everything received so far into a dataset."""
        self.flush_buffers()
        return self.builder.build()
