"""Dataset cleaning rules from §2.

Two atypical events are excluded from the main analysis:

1. Tethering traffic. The simulated agent never records any (the kernel
   emits no tethering traffic), so no pass is needed for it.
2. The 2015 iOS 8.2 update: for each updated device, all traffic on the
   update day and the following day is dropped (the update itself is
   analyzed separately in §3.7 / Figure 18).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.constants import SAMPLES_PER_DAY
from repro.traces.dataset import CampaignDataset


@dataclass(frozen=True)
class CleaningReport:
    """What a cleaning pass removed."""

    devices_affected: int
    traffic_rows_dropped: int
    app_rows_dropped: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"cleaning: {self.devices_affected} devices, "
            f"{self.traffic_rows_dropped} traffic rows, "
            f"{self.app_rows_dropped} app rows removed"
        )


def drop_update_window(dataset: CampaignDataset) -> "tuple[CampaignDataset, CleaningReport]":
    """Remove traffic on each device's update day and the next day (§2).

    Returns the cleaned dataset and a report. Datasets without update events
    are returned unchanged.
    """
    updates = dataset.updates
    if len(updates) == 0:
        return dataset, CleaningReport(0, 0, 0)

    # Rows are in canonical (device, t) order, so a device's first update
    # is its earliest (a device updates once; this is defensive).
    devices, first = np.unique(updates.device, return_index=True)
    days = updates.t[first] // SAMPLES_PER_DAY
    traffic, traffic_dropped = _drop_windows(
        dataset.traffic, "t", devices, days * SAMPLES_PER_DAY,
        2 * SAMPLES_PER_DAY)
    apps, apps_dropped = _drop_windows(dataset.apps, "day", devices, days, 2)
    report = CleaningReport(len(devices), traffic_dropped, apps_dropped)
    return replace(dataset, traffic=traffic, apps=apps), report


def _drop_windows(table, key: str, devices: np.ndarray, start: np.ndarray,
                  length: int):
    """Copy of ``table`` without the rows of each ``devices[i]`` whose
    ``key`` lies in ``[start[i], start[i] + length)``, and the number of
    rows dropped; ``table`` itself when no window holds a row.

    The table is in canonical (device, key) order, so a device's rows are
    one run sorted by ``key`` and each window is one row range. Every
    needle has its column's dtype: a needle of another dtype makes numpy
    cast the whole column on each call.
    """
    device, keys = table.device, table.columns[key]
    firsts = np.searchsorted(device, devices.astype(device.dtype))
    ends = np.searchsorted(device, (devices + 1).astype(device.dtype))
    window = np.empty(2, dtype=keys.dtype)
    bounds = [0]
    for a, b, low in zip(firsts.tolist(), ends.tolist(), start.tolist()):
        window[:] = low, low + length
        bounds += (a + np.searchsorted(keys[a:b], window)).tolist()
    bounds.append(len(table))
    if bounds[1:-1:2] == bounds[2::2]:
        return table, 0
    kept = list(zip(bounds[::2], bounds[1::2]))
    columns = {name: np.concatenate([col[a:b] for a, b in kept])
               for name, col in table.columns.items()}
    dropped = len(table) - sum(b - a for a, b in kept)
    return replace(table, columns=columns), dropped


def clean_for_main_analysis(dataset: CampaignDataset) -> CampaignDataset:
    """Apply every §2 cleaning rule and return the main-analysis dataset."""
    cleaned, _ = drop_update_window(dataset)
    return cleaned
