"""WiFi-traffic ratio and WiFi-user ratio (Figures 6-8, §3.3.2-§3.3.3).

- WiFi-traffic ratio: WiFi download volume / total download volume per
  one-hour bin.
- WiFi-user ratio: fraction of users associated with WiFi per bin.

Both are computed for the whole panel and for the light/heavy device-day
subsets (classification is per day, so a device contributes to a subset only
on days it belongs to it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.analysis.context import AnalysisContext, DatasetOrContext
from repro.stats.timeseries import HourlySeries
from repro.traces.query import device_day_of, distinct_devices_per_hour, hour_of
from repro.traces.records import IfaceKind, WifiStateCode


@dataclass(frozen=True)
class RatioSeries:
    """Per-hour ratio series plus its campaign mean."""

    hourly: HourlySeries
    mean: float

    def folded_week(self) -> np.ndarray:
        return self.hourly.fold_week()


@dataclass(frozen=True)
class WifiRatios:
    """All the Figure 6-8 series for one campaign."""

    year: int
    traffic_ratio: Dict[str, RatioSeries]
    user_ratio: Dict[str, RatioSeries]

    def traffic(self, subset: str = "all") -> RatioSeries:
        return self.traffic_ratio[subset]

    def users(self, subset: str = "all") -> RatioSeries:
        return self.user_ratio[subset]


def wifi_ratios(data: DatasetOrContext) -> WifiRatios:
    """Compute WiFi-traffic and WiFi-user ratios for all/light/heavy.

    Uncached: a context memoizes this per campaign as ``ctx.wifi_ratios()``.
    """
    ctx = AnalysisContext.of(data)
    dataset = ctx.dataset()
    classes = ctx.user_classes()
    start_weekday = dataset.axis.start.weekday()
    n_hours = dataset.n_days * 24
    subsets = {"all": classes.valid, "light": classes.light,
               "heavy": classes.heavy}
    # Bit k of a (device, day) marks subset k; each row gathers it once.
    day_bits = sum(mask.astype(np.uint8) << bit
                   for bit, mask in enumerate(subsets.values()))

    traffic = dataset.traffic
    t_hour = hour_of(traffic.t)
    t_bits = day_bits[traffic.device, device_day_of(traffic.t)]
    is_wifi = traffic.iface == int(IfaceKind.WIFI)
    rx = traffic.rx

    wifi_tab = dataset.wifi
    assoc = wifi_tab.state == int(WifiStateCode.ASSOCIATED)
    a_dev = wifi_tab.device[assoc]
    a_hour = hour_of(wifi_tab.t[assoc])
    a_bits = day_bits[a_dev, device_day_of(wifi_tab.t[assoc])]

    traffic_ratio = {}
    user_ratio = {}
    for bit, (name, mask) in enumerate(subsets.items()):
        in_subset = (t_bits & (1 << bit)) != 0
        total_sum = np.bincount(
            t_hour[in_subset], weights=rx[in_subset], minlength=n_hours
        )
        sel_w = in_subset & is_wifi
        wifi_sum = np.bincount(
            t_hour[sel_w], weights=rx[sel_w], minlength=n_hours
        )
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = wifi_sum / total_sum
        ratio[total_sum == 0] = np.nan
        traffic_ratio[name] = _ratio_series(ratio, start_weekday)

        # User ratio: distinct associated devices per hour / subset size.
        assoc_count = distinct_devices_per_hour(
            a_dev, a_hour, (a_bits & (1 << bit)) != 0, n_hours
        )
        denominator = mask.sum(axis=0).astype(float)  # devices per day
        denom_hourly = np.repeat(denominator, 24)
        with np.errstate(invalid="ignore", divide="ignore"):
            uratio = assoc_count / denom_hourly
        uratio[denom_hourly == 0] = np.nan
        user_ratio[name] = _ratio_series(uratio, start_weekday)

    return WifiRatios(
        year=dataset.year, traffic_ratio=traffic_ratio, user_ratio=user_ratio
    )


def _ratio_series(values: np.ndarray, start_weekday: int) -> RatioSeries:
    finite = values[np.isfinite(values)]
    mean = float(finite.mean()) if finite.size else float("nan")
    return RatioSeries(hourly=HourlySeries(values, start_weekday), mean=mean)
