"""Reusable query helpers over campaign tables.

Several analyses need the same joins: look up a device's 5 km cell at a
given slot, attach the associated AP to a traffic row, or group rows by
(device, day). These helpers centralize the sorted composite-key machinery
(`device * n_slots + t`) the columnar layout makes fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.constants import SAMPLES_PER_DAY, SAMPLES_PER_HOUR
from repro.errors import AnalysisError
from repro.traces.dataset import CampaignDataset
from repro.traces.records import WifiStateCode


def composite_keys(device: np.ndarray, t: np.ndarray, n_slots: int) -> np.ndarray:
    """Sortable (device, slot) composite keys."""
    return device.astype(np.int64) * n_slots + t.astype(np.int64)


def packed_keys(*columns: np.ndarray) -> np.ndarray:
    """One int64 key per row that sorts like the rows of ``columns``.

    Each integer column becomes one mixed-radix digit (offset to start at
    0), so ``np.unique`` over the keys groups and orders rows exactly as
    ``np.unique(np.stack(columns, axis=1), axis=0)`` would, without the
    structured row sort.
    """
    key = np.zeros(len(columns[0]), dtype=np.int64)
    if key.size == 0:
        return key
    capacity = 1
    for column in columns:
        column = np.asarray(column, dtype=np.int64)
        low = int(column.min())
        span = int(column.max()) - low + 1
        capacity *= span
        if capacity >= 1 << 63:
            raise AnalysisError("packed key does not fit in int64")
        key = key * span + (column - low)
    return key


def group_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal (sorted) keys.

    ``sorted_keys[group_starts(sorted_keys)]`` is ``np.unique`` of a
    sorted array, without the sort.
    """
    return np.flatnonzero(
        np.r_[sorted_keys.size > 0, sorted_keys[1:] != sorted_keys[:-1]])


def distinct_ids(ids: np.ndarray) -> np.ndarray:
    """``np.unique`` of small non-negative integer ids, by counting."""
    return np.flatnonzero(np.bincount(ids)).astype(ids.dtype, copy=False)


@dataclass(frozen=True)
class SlotIndex:
    """A (device, t) index over a table in canonical (device, t) order.

    Keys strictly increase, so a key's position is its source row: no sort,
    and ``gather`` is plain indexing. Lookups binary-search (O(log n)), but
    a dense index (consecutive keys, as for ``geo``) computes positions.
    """

    keys: np.ndarray  # strictly increasing composite keys
    n_slots: int

    @classmethod
    def build(
        cls, device: np.ndarray, t: np.ndarray, n_slots: int
    ) -> "SlotIndex":
        keys = composite_keys(device, t, n_slots)
        if not np.all(keys[1:] > keys[:-1]):
            raise AnalysisError("slot index keys are not strictly increasing")
        return cls(keys=keys, n_slots=n_slots)

    def lookup(
        self, device: np.ndarray, t: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Positions (into the source rows) and a found mask."""
        want = composite_keys(device, t, self.n_slots)
        keys = self.keys
        if len(keys) == 0:
            return np.zeros(len(want), dtype=np.int64), np.zeros(len(want), bool)
        dense = keys[-1] - keys[0] == len(keys) - 1
        pos = want - keys[0] if dense else np.searchsorted(keys, want)
        pos = np.clip(pos, 0, len(keys) - 1)
        return pos, keys[pos] == want

    def gather(self, column: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Values of a source-table ``column`` at positions ``pos``."""
        return column[pos]


def geo_cell_index(dataset: CampaignDataset) -> SlotIndex:
    """Index for joining (device, t) to the geolocation table."""
    geo = dataset.geo
    if len(geo) == 0:
        raise AnalysisError("dataset has no geolocation records")
    return SlotIndex.build(geo.device, geo.t, dataset.n_slots)


def association_index(dataset: CampaignDataset) -> Tuple[SlotIndex, np.ndarray]:
    """Index over associated wifi rows plus their ap ids, in index order."""
    wifi = dataset.wifi
    assoc = wifi.state == int(WifiStateCode.ASSOCIATED)
    index = SlotIndex.build(wifi.device[assoc], wifi.t[assoc], dataset.n_slots)
    return index, wifi.ap_id[assoc].astype(np.int64)


def device_day_of(t: np.ndarray) -> np.ndarray:
    """Campaign-day index for slot column ``t``."""
    return t // SAMPLES_PER_DAY


def hour_of(t: np.ndarray) -> np.ndarray:
    """Absolute campaign-hour index (0..n_days*24-1) for slot column ``t``."""
    return t // SAMPLES_PER_HOUR


def hour_of_day(t: np.ndarray) -> np.ndarray:
    """Hour of day (0..23) for slot column ``t``."""
    return (t % SAMPLES_PER_DAY) // SAMPLES_PER_HOUR


def distinct_devices_per_hour(
    device: np.ndarray, hour: np.ndarray, mask: np.ndarray, n_hours: int
) -> np.ndarray:
    """Distinct devices per campaign hour among rows selected by ``mask``."""
    seen = np.zeros((int(device.max(initial=-1)) + 1, n_hours), dtype=bool)
    seen[device[mask], hour[mask]] = True
    return seen.sum(axis=0).astype(np.float64)


def distinct_cells_per_device_day(dataset: CampaignDataset) -> np.ndarray:
    """(n_devices, n_days) count of distinct 5 km cells visited."""
    geo = dataset.geo
    if len(geo) == 0:
        raise AnalysisError("dataset has no geolocation records")
    day = device_day_of(geo.t.astype(np.int64))
    # Pack (device, day, col, row) and count unique cells per (device, day).
    _, first = np.unique(
        packed_keys(geo.device, day, geo.col, geo.row), return_index=True
    )
    flat = geo.device[first].astype(np.int64) * dataset.n_days + day[first]
    return np.bincount(
        flat, minlength=dataset.n_devices * dataset.n_days
    ).reshape(dataset.n_devices, dataset.n_days)
