"""On-device measurement agent (§2).

The measurement software runs in the background and records, every 10
minutes, the device state: interface byte counters, the WiFi observation,
coarse geolocation, scan summaries, per-app counters, and any OS-update
event. Everything recorded during one slot goes out as one upload; the
agent does not interpret anything.

The simulator produces a device's whole campaign as column tables (the
OS differences of the real software — iOS reports only the associated AP,
no scans and no per-app counters — are already applied there), and the
agent cuts those tables into per-slot uploads.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Tuple

import numpy as np

from repro.constants import SAMPLES_PER_DAY
from repro.errors import CollectionError
from repro.traces.records import DeviceInfo


class ColumnarRecords:
    """One upload's records as row ranges into per-device column arrays.

    The simulator produces a whole device's records as column arrays; the
    agent partitions them into per-tick uploads without copying by handing
    the server ``(columns, lo, hi)`` ranges per table. Consecutive ranges
    over the same arrays merge on the server, so the zero-fault path stays
    as cheap as a direct bulk append.
    """

    __slots__ = ("ranges",)

    def __init__(
        self,
        ranges: Dict[str, Tuple[Mapping[str, np.ndarray], int, int]],
    ) -> None:
        self.ranges = ranges

    def __len__(self) -> int:
        return sum(hi - lo for _, lo, hi in self.ranges.values())


def upload_slots(
    name: str,
    cols: Mapping[str, np.ndarray],
    device_id: int,
    n_slots: int,
) -> np.ndarray:
    """The upload slot of every row of one device's non-empty table.

    Per-slot rows upload in their own slot; daily rows ride the last slot
    of their day. Raises :class:`CollectionError` when any row belongs to
    another device or uploads outside the campaign window.
    """
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
    return key


class MeasurementAgent:
    """Packages one device's records into per-slot uploads."""

    def __init__(self, info: DeviceInfo) -> None:
        self.info = info

    def package_uploads(
        self,
        tables: Mapping[str, Mapping[str, np.ndarray]],
        n_slots: int,
    ) -> Iterator[Tuple[int, ColumnarRecords]]:
        """Batch a device's columnar records into per-tick uploads.

        Mirrors the real software: everything recorded during one 10-minute
        slot goes out as one upload, and the daily per-app counters ride the
        last slot of their day. Yields ``(t, payload)`` in slot order.
        """
        device_id = self.info.device_id
        prepared = []
        for name, cols in tables.items():
            if len(cols["device"]) == 0:
                continue
            key = upload_slots(name, cols, device_id, n_slots)
            order = np.argsort(key, kind="stable")
            key = key[order]
            sorted_cols = {c: np.asarray(a)[order] for c, a in cols.items()}
            bounds = np.searchsorted(key, np.arange(n_slots + 1)).tolist()
            prepared.append((name, sorted_cols, bounds))
        for t in range(n_slots):
            ranges = {}
            for name, cols, bounds in prepared:
                lo = bounds[t]
                hi = bounds[t + 1]
                if hi > lo:
                    ranges[name] = (cols, lo, hi)
            if ranges:
                yield t, ColumnarRecords(ranges)
