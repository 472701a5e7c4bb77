"""WiFi signal quality (Figure 15, §3.4.4).

Per associated 2.4 GHz AP, the maximum observed RSSI over the campaign; home
networks form a bell around -54 dBm (3% below -70), public networks shift to
about -60 dBm with 12% below the -70 dBm usability threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.analysis.ap_classification import WIFI_CLASSES, APClassification
from repro.analysis.context import AnalysisContext, DatasetOrContext
from repro.constants import STRONG_RSSI_DBM
from repro.errors import AnalysisError
from repro.radio.bands import Band
from repro.stats.distributions import pdf_histogram
from repro.traces.records import WifiStateCode


@dataclass(frozen=True)
class RssiDistributions:
    """Per-class max-RSSI samples, PDFs, and weak-signal fractions."""

    year: int
    samples: Dict[str, np.ndarray]
    mean: Dict[str, float]
    weak_fraction: Dict[str, float]

    def pdf(self, ap_class: str, bins: int = 36) -> Tuple[np.ndarray, np.ndarray]:
        try:
            values = self.samples[ap_class]
        except KeyError:
            raise AnalysisError(f"no RSSI data for class {ap_class!r}") from None
        return pdf_histogram(values, bins=bins, range_=(-95.0, -20.0))


def rssi_distributions(
    data: DatasetOrContext,
    classification: Optional[APClassification] = None,
    classes: tuple = ("home", "public", "office"),
    weak_threshold: float = STRONG_RSSI_DBM,
) -> RssiDistributions:
    """Figure 15: per-AP max RSSI distributions by class (2.4 GHz only)."""
    ctx = AnalysisContext.of(data)
    dataset = ctx.dataset()
    if classification is None:
        classification = ctx.classification()
    wifi = dataset.wifi
    assoc = wifi.state == int(WifiStateCode.ASSOCIATED)
    if not assoc.any():
        raise AnalysisError("no associations in dataset")
    ap_id = wifi.ap_id[assoc].astype(np.int64)
    rssi = wifi.rssi[assoc].astype(np.float64)

    # Max RSSI per AP via sort + reduceat.
    order = np.argsort(ap_id)
    ap_sorted = ap_id[order]
    rssi_sorted = rssi[order]
    boundaries = np.flatnonzero(np.diff(ap_sorted)) + 1
    starts = np.concatenate(([0], boundaries))
    unique_aps = ap_sorted[starts]
    max_rssi = np.maximum.reduceat(rssi_sorted, starts)

    on_24 = np.array([
        dataset.ap_directory[a].band is Band.GHZ_2_4
        for a in unique_aps.tolist()
    ], dtype=bool)
    codes = classification.class_codes(unique_aps)

    arrays = {}
    mean = {}
    weak = {}
    for cls in classes:
        arr = max_rssi[on_24 & (codes == WIFI_CLASSES.index(cls))]
        if not arr.size:
            continue
        arrays[cls] = arr
        mean[cls] = float(arr.mean())
        weak[cls] = float((arr < weak_threshold).mean())
    if not arrays:
        raise AnalysisError("no 2.4GHz associated APs with RSSI")
    return RssiDistributions(
        year=dataset.year, samples=arrays, mean=mean, weak_fraction=weak
    )
