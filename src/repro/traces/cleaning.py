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

    update_day = {}
    for device, t in zip(updates.device, updates.t):
        day = int(t) // SAMPLES_PER_DAY
        # A device updates once; keep the earliest event defensively.
        update_day[int(device)] = min(day, update_day.get(int(device), day))

    devices = np.array(sorted(update_day), dtype=np.int64)
    days = np.array([update_day[d] for d in devices], dtype=np.int64)

    def window_mask(dev_col: np.ndarray, day_col: np.ndarray) -> np.ndarray:
        """True where the row falls in some device's blackout window."""
        pos = np.searchsorted(devices, dev_col)
        pos = np.clip(pos, 0, len(devices) - 1)
        hit = devices[pos] == dev_col
        start = days[pos]
        in_window = (day_col >= start) & (day_col <= start + 1)
        return hit & in_window

    traffic_day = dataset.traffic.t // SAMPLES_PER_DAY
    traffic_drop = window_mask(dataset.traffic.device, traffic_day)
    apps_drop = window_mask(dataset.apps.device, dataset.apps.day.astype(np.int64))

    cleaned = replace(
        dataset,
        traffic=dataset.traffic.select(~traffic_drop),
        apps=dataset.apps.select(~apps_drop),
    )
    report = CleaningReport(
        devices_affected=len(devices),
        traffic_rows_dropped=int(traffic_drop.sum()),
        app_rows_dropped=int(apps_drop.sum()),
    )
    return cleaned, report


def clean_for_main_analysis(dataset: CampaignDataset) -> CampaignDataset:
    """Apply every §2 cleaning rule and return the main-analysis dataset."""
    cleaned, _ = drop_update_window(dataset)
    return cleaned
