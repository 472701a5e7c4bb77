"""Aggregated traffic behaviour (Figure 2, §3.1).

Weekly variation of cellular and WiFi volume in Mbps, TX and RX, plus the
headline shares: WiFi fraction of total volume (59% -> 67%) and LTE fraction
of cellular volume (32% -> 80%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.analysis.context import AnalysisContext, DatasetOrContext
from repro.constants import SAMPLES_PER_DAY
from repro.errors import AnalysisError
from repro.stats.timeseries import HourlySeries, bytes_to_mbps


@dataclass(frozen=True)
class AggregateTraffic:
    """Per-hour Mbps series for one campaign, by interface and direction."""

    year: int
    series: Dict[str, HourlySeries]
    wifi_share: float
    lte_share_of_cellular: float

    def folded_week(self, key: str) -> np.ndarray:
        """Mean Mbps per hour of a Sat->Sat week for ``key``."""
        try:
            return self.series[key].fold_week()
        except KeyError:
            raise AnalysisError(
                f"unknown series {key!r}; have {sorted(self.series)}"
            ) from None


def aggregate_traffic(data: DatasetOrContext) -> AggregateTraffic:
    """Compute the Figure 2 series and headline shares."""
    ctx = AnalysisContext.of(data)
    dataset = ctx.dataset()
    start_weekday = dataset.axis.start.weekday()
    series = {}
    for kind, direction, key in (
        ("cell", "rx", "cellular_rx"),
        ("cell", "tx", "cellular_tx"),
        ("wifi", "rx", "wifi_rx"),
        ("wifi", "tx", "wifi_tx"),
    ):
        hourly = ctx.hourly_series(kind, direction)
        series[key] = HourlySeries(bytes_to_mbps(hourly), start_weekday)
    wifi_share, lte_share = traffic_shares(ctx)
    return AggregateTraffic(
        year=dataset.year,
        series=series,
        wifi_share=wifi_share,
        lte_share_of_cellular=lte_share,
    )


def traffic_shares(ctx: AnalysisContext) -> Tuple[float, float]:
    """(WiFi share of all bytes, LTE share of cellular), from the day folds."""
    wifi_total, cell_total, lte_total = (
        ctx.daily_matrix(kind, "rx").sum() + ctx.daily_matrix(kind, "tx").sum()
        for kind in ("wifi", "cell", "lte")
    )
    total = wifi_total + cell_total
    if total <= 0:
        raise AnalysisError("campaign carries no traffic")
    return (float(wifi_total / total),
            float(lte_total / cell_total) if cell_total else 0.0)


def weekend_weekday_ratio(data: DatasetOrContext, kind: str) -> float:
    """Mean daily volume on weekends divided by weekdays, for one interface.

    §3.1: "Cellular traffic on weekends is smaller than that on weekdays,
    while WiFi traffic is the opposite" — so this ratio should sit below 1
    for ``kind="cell"`` and above 1 for ``kind="wifi"``.
    """
    ctx = AnalysisContext.of(data)
    dataset = ctx.dataset()
    daily = ctx.daily_matrix(kind, "rx").sum(axis=0)
    weekdays = np.array([
        int(dataset.axis.weekday_of(day * SAMPLES_PER_DAY))
        for day in range(dataset.n_days)
    ])
    weekend = weekdays >= 5
    if not weekend.any() or weekend.all():
        raise AnalysisError("campaign lacks both weekend and weekday days")
    weekend_mean = daily[weekend].mean()
    weekday_mean = daily[~weekend].mean()
    if weekday_mean <= 0:
        raise AnalysisError("no weekday traffic")
    return float(weekend_mean / weekday_mean)


def diurnal_peaks(data: DatasetOrContext, kind: str, top_n: int = 3) -> np.ndarray:
    """Hours of day (0-23) with the highest mean download volume.

    §3.1 reports cellular RX peaks at 8:00, noon, and 19:00-21:00 driven by
    commutes, and WiFi peaking 23:00-01:00 at home.
    """
    ctx = AnalysisContext.of(data)
    hourly = ctx.hourly_series(kind, "rx")
    by_hour = hourly.reshape(ctx.dataset().n_days, 24).mean(axis=0)
    return np.argsort(by_hour)[::-1][:top_n]


def peak_hours(profile: np.ndarray, top_n: int = 3) -> np.ndarray:
    """Hour-of-week indexes of the ``top_n`` peaks of a folded profile."""
    if profile.ndim != 1:
        raise AnalysisError("profile must be 1-D")
    finite = np.where(np.isnan(profile), -np.inf, profile)
    return np.argsort(finite)[::-1][:top_n]
