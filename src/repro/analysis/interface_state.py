"""Android WiFi interface states and the iOS comparison (Figure 9, §3.3.4).

For Android devices, each slot is one of WiFi-user (associated), WiFi-off
(interface off), or WiFi-available (on but unassociated); the three per-hour
ratios of Figure 9(a)/(b) partition the Android panel. iOS only reports the
associated AP, so Figure 9(c) shows just the WiFi-user ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.analysis.context import AnalysisContext, DatasetOrContext
from repro.errors import AnalysisError
from repro.stats.timeseries import HourlySeries
from repro.traces.query import distinct_devices_per_hour, hour_of
from repro.traces.records import WifiStateCode


@dataclass(frozen=True)
class InterfaceStateRatios:
    """Per-hour state ratios for one campaign."""

    year: int
    android: Dict[str, HourlySeries]
    ios_user: HourlySeries
    android_means: Dict[str, float]
    ios_user_mean: float

    def folded(self, key: str) -> np.ndarray:
        """Sat->Sat weekly profile for an Android state or 'ios'."""
        if key == "ios":
            return self.ios_user.fold_week()
        try:
            return self.android[key].fold_week()
        except KeyError:
            raise AnalysisError(f"unknown state key {key!r}") from None


def interface_state_ratios(data: DatasetOrContext) -> InterfaceStateRatios:
    """Compute the Figure 9 ratio series."""
    dataset = AnalysisContext.of(data).dataset()
    n_hours = dataset.n_days * 24
    start_weekday = dataset.axis.start.weekday()
    os_codes = dataset.device_os()
    android_ids = np.flatnonzero(os_codes == 0)
    ios_ids = np.flatnonzero(os_codes == 1)
    n_android = len(android_ids)
    n_ios = len(ios_ids)
    if n_android == 0 and n_ios == 0:
        raise AnalysisError("dataset has no devices")

    wifi = dataset.wifi
    hour = hour_of(wifi.t)
    is_android = os_codes[wifi.device] == 0

    android_series: Dict[str, HourlySeries] = {}
    android_means: Dict[str, float] = {}
    state_keys = {
        "wifi_user": int(WifiStateCode.ASSOCIATED),
        "wifi_off": int(WifiStateCode.OFF),
        "wifi_available": int(WifiStateCode.AVAILABLE),
    }
    for key, code in state_keys.items():
        counts = distinct_devices_per_hour(
            wifi.device, hour, is_android & (wifi.state == code), n_hours
        )
        ratio = counts / n_android if n_android else np.full(n_hours, np.nan)
        android_series[key] = HourlySeries(ratio, start_weekday)
        android_means[key] = float(np.nanmean(ratio))

    ios_assoc = (~is_android) & (wifi.state == int(WifiStateCode.ASSOCIATED))
    ios_counts = distinct_devices_per_hour(wifi.device, hour, ios_assoc, n_hours)
    ios_ratio = ios_counts / n_ios if n_ios else np.full(n_hours, np.nan)
    ios_series = HourlySeries(ios_ratio, start_weekday)

    return InterfaceStateRatios(
        year=dataset.year,
        android=android_series,
        ios_user=ios_series,
        android_means=android_means,
        ios_user_mean=float(np.nanmean(ios_ratio)),
    )


def ios_android_gap(ratios: InterfaceStateRatios) -> float:
    """How much more iOS connects than Android (relative difference).

    §3.3.4 concludes "iOS devices connect to WiFi 30% more than do Android
    devices"; this returns that relative gap from the campaign means.
    """
    android_user = ratios.android_means["wifi_user"]
    if android_user <= 0:
        raise AnalysisError("android wifi-user ratio is zero")
    return (ratios.ios_user_mean - android_user) / android_user

