"""Central collection server (§2).

Receives one device's delivered upload batches in a single call and hands
the shard's rows to the engine's merge as one chunk map
(:meth:`CollectionServer.flush_buffers`). A batch is everything a device
recorded during one 10-minute slot; daily per-app counters ride the last
slot of their day. Retransmitted batches are counted and dropped.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

import numpy as np

from repro.constants import SAMPLES_PER_DAY
from repro.errors import CollectionError, SchemaError
from repro.timeutil import TimeAxis
from repro.traces.dataset import _EMPTY_DTYPES, ChunkMap
from repro.traces.records import (
    MEAN_RX_PACKET_BYTES, MEAN_TX_PACKET_BYTES, DeviceInfo,
)


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
    """Assembles delivered upload batches into one shard's chunk map."""

    def __init__(self, year: int, axis: TimeAxis) -> None:
        self.year = year
        self.axis = axis
        #: Registered devices; ids are dense, 0..n-1.
        self.devices: List[DeviceInfo] = []
        # Buffered column chunks per table, concatenated on flush.
        self._buffers: Dict[str, List[Mapping[str, np.ndarray]]] = {
            name: [] for name in _EMPTY_DTYPES
        }
        self.batches_received = 0
        self.duplicates_dropped = 0

    def register_device(self, info: DeviceInfo) -> None:
        """Enroll a device before it uploads."""
        if info.device_id != len(self.devices):
            raise SchemaError(
                f"device ids must be dense: expected {len(self.devices)}, "
                f"got {info.device_id}"
            )
        self.devices.append(info)

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
        if not 0 <= device_id < len(self.devices):
            raise CollectionError(
                f"upload from unregistered device {device_id}"
            )
        arrived = np.zeros(self.axis.n_slots, dtype=bool)
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

    def flush_buffers(self) -> ChunkMap:
        """Hand over every row received since the last flush: each table
        as one chunk in the schema dtypes, owned by the returned map.
        Traffic rows uploaded without packet counters get them estimated
        from their bytes, the estimate the dataset builder makes."""
        chunks: ChunkMap = {}
        for table, buf in self._buffers.items():
            chunks[table] = []
            if not buf:
                continue
            dtypes = dict(_EMPTY_DTYPES[table])
            chunk = {
                name: np.concatenate(
                    [cols[name] for cols in buf],
                    dtype=dtypes[name], casting="unsafe",
                )
                for name in buf[0]
            }
            if table == "traffic" and "rx_pkts" not in chunk:
                chunk["rx_pkts"] = _packets(chunk["rx"], MEAN_RX_PACKET_BYTES)
                chunk["tx_pkts"] = _packets(chunk["tx"], MEAN_TX_PACKET_BYTES)
            chunks[table].append(chunk)
            buf.clear()
        return chunks


def _packets(n_bytes: np.ndarray, mean_packet_bytes: float) -> np.ndarray:
    return np.ceil(n_bytes / mean_packet_bytes).astype(np.int64)
