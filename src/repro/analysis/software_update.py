"""iOS software-update timing (Figure 18, §3.7).

The 2015 campaign captured the iOS 8.2 rollout: WiFi-only, 565 MB, flash
crowd on release day with a weekend bump and long tail. Update delay is
compared between users with and without an inferred home AP; users without
home WiFi update late (median +3.5 days) or not at all (14%), and some go
out of their way to update on public or office WiFi.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.analysis.ap_classification import WIFI_CLASSES, APClassification
from repro.analysis.context import AnalysisContext, DatasetOrContext
from repro.errors import AnalysisError
from repro.traces.query import device_day_of, group_starts
from repro.traces.records import DeviceOS


@dataclass(frozen=True)
class UpdateTiming:
    """Figure 18 data plus the §3.7 headline statistics."""

    year: int
    release_day: int
    #: Days-since-release for every updated device.
    update_days: np.ndarray
    #: Same, restricted to devices with no inferred home AP.
    update_days_no_home: np.ndarray
    updated_fraction: float
    updated_fraction_no_home: float
    first_day_fraction: float
    median_delay_days: float
    median_delay_days_no_home: float
    #: Updated-without-home devices by the AP class used for the download.
    no_home_update_network: Dict[str, int]
    #: Size of the iOS panel the CDF denominators are taken over.
    n_ios: int

    def cdf_curve(self) -> "tuple[np.ndarray, np.ndarray]":
        """(days since release, cumulative fraction of the iOS panel)."""
        if self.update_days.size == 0:
            raise AnalysisError("no updates observed")
        days = np.sort(self.update_days)
        frac = np.arange(1, len(days) + 1) / max(self.n_ios, 1)
        return days, frac


def update_timing(
    data: DatasetOrContext,
    classification: Optional[APClassification] = None,
) -> UpdateTiming:
    """Analyze the campaign's OS update events."""
    ctx = AnalysisContext.of(data)
    dataset = ctx.dataset()
    updates = dataset.updates
    if len(updates) == 0:
        raise AnalysisError("campaign has no update events")
    if classification is None:
        classification = ctx.classification()

    ios_devices = {
        d.device_id for d in dataset.devices if d.os is DeviceOS.IOS
    }
    n_ios = len(ios_devices)
    if n_ios == 0:
        raise AnalysisError("no iOS devices in dataset")
    no_home_ios = {
        d for d in ios_devices if d not in classification.home_ap_of_device
    }

    # Per device (ascending), its first update: the earliest day, then the
    # earliest row of that day.
    device = updates.device.astype(np.int64)
    day = device_day_of(updates.t.astype(np.int64))
    order = np.lexsort((day, device))
    first = order[group_starts(device[order])]
    devices, days, slots = device[first], day[first], updates.t[first]

    release_day = int(days.min())
    is_ios = np.isin(devices, list(ios_devices))
    is_no_home = np.isin(devices, list(no_home_ios))
    all_days = days[is_ios] - release_day
    no_home_days = days[is_no_home] - release_day

    network_used: Dict[str, int] = {}
    index, ap_ids = ctx.association_index()
    if is_no_home.any():
        pos, found = index.lookup(devices[is_no_home], slots[is_no_home])
        codes = classification.class_codes(ap_ids[pos])
        for hit, code in zip(found.tolist(), codes.tolist()):
            cls = WIFI_CLASSES[code] if hit else "unknown"
            network_used[cls] = network_used.get(cls, 0) + 1

    return UpdateTiming(
        year=dataset.year,
        release_day=release_day,
        update_days=all_days,
        update_days_no_home=no_home_days,
        updated_fraction=len(all_days) / n_ios,
        updated_fraction_no_home=(
            len(no_home_days) / len(no_home_ios) if no_home_ios else float("nan")
        ),
        first_day_fraction=float((all_days == 0).sum()) / n_ios,
        median_delay_days=float(np.median(all_days)) if all_days.size else float("nan"),
        median_delay_days_no_home=(
            float(np.median(no_home_days)) if no_home_days.size else float("nan")
        ),
        no_home_update_network=network_used,
        n_ios=n_ios,
    )
