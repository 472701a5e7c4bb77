"""WiFi traffic volume by AP location class (Figure 11, §3.4.1).

Home networks carry ~95% of WiFi volume; public and office carry ~4%
combined but double between 2013 and 2015, with diurnal patterns opposite
to home.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.analysis.ap_classification import WIFI_CLASSES, APClassification
from repro.analysis.context import AnalysisContext, DatasetOrContext
from repro.errors import AnalysisError
from repro.stats.timeseries import HourlySeries, bytes_to_mbps
from repro.traces.query import hour_of
from repro.traces.records import IfaceKind


@dataclass(frozen=True)
class LocationTraffic:
    """Per-hour Mbps by (location class, direction), plus volume shares."""

    year: int
    series: Dict[str, HourlySeries]
    volume_share: Dict[str, float]

    def folded_week(self, key: str) -> np.ndarray:
        try:
            return self.series[key].fold_week()
        except KeyError:
            raise AnalysisError(
                f"unknown series {key!r}; have {sorted(self.series)}"
            ) from None


def location_traffic(
    data: DatasetOrContext,
    classification: Optional[APClassification] = None,
) -> LocationTraffic:
    """Split WiFi traffic into home/public/office/other hourly series."""
    ctx = AnalysisContext.of(data)
    dataset = ctx.dataset()
    if classification is None:
        classification = ctx.classification()

    # Join traffic slots to the AP associated in the same slot.
    index, obs_ap = ctx.association_index()
    if len(index.keys) == 0:
        raise AnalysisError("no WiFi associations to attribute traffic to")

    traffic = dataset.traffic
    wifi_rows = traffic.iface == int(IfaceKind.WIFI)
    pos, found = index.lookup(traffic.device[wifi_rows], traffic.t[wifi_rows])
    codes = classification.class_codes(obs_ap[pos])
    rx = traffic.rx[wifi_rows]
    tx = traffic.tx[wifi_rows]
    hour = hour_of(traffic.t[wifi_rows])

    n_hours = dataset.n_days * 24
    start_weekday = dataset.axis.start.weekday()
    series: Dict[str, HourlySeries] = {}
    totals: Dict[str, float] = {}
    for code, cls in enumerate(WIFI_CLASSES):
        mask = found & (codes == code)
        for direction, values in (("rx", rx), ("tx", tx)):
            hourly = np.bincount(
                hour[mask], weights=values[mask], minlength=n_hours
            )
            series[f"{cls}_{direction}"] = HourlySeries(
                bytes_to_mbps(hourly), start_weekday
            )
        totals[cls] = float(rx[mask].sum() + tx[mask].sum())
    grand_total = sum(totals.values())
    if grand_total <= 0:
        raise AnalysisError("no attributable WiFi traffic")
    volume_share = {cls: v / grand_total for cls, v in totals.items()}
    return LocationTraffic(year=dataset.year, series=series, volume_share=volume_share)
