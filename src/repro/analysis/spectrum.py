"""Spectrum usage: 5 GHz adoption (Figure 14) and 2.4 GHz channels (Figure 16).

Both are computed over *associated unique* APs, per classified location
class. 5 GHz rollout is rapid in public networks but slow at home/office;
public 2.4 GHz channels concentrate on the planned 1/6/11 trio while home
channels start Ch1-heavy in 2013 and disperse by 2015.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.ap_classification import WIFI_CLASSES, APClassification
from repro.analysis.context import AnalysisContext, DatasetOrContext
from repro.constants import NUM_24GHZ_CHANNELS
from repro.errors import AnalysisError
from repro.radio.bands import Band
from repro.traces.dataset import CampaignDataset
from repro.traces.query import distinct_ids
from repro.traces.records import ApDirectoryEntry, WifiStateCode


def _associated_aps(
    dataset: CampaignDataset, classification: APClassification
) -> Tuple[List[ApDirectoryEntry], np.ndarray]:
    """Directory entries and WIFI_CLASSES codes of associated unique APs."""
    wifi = dataset.wifi
    aps = distinct_ids(
        wifi.ap_id[wifi.state == int(WifiStateCode.ASSOCIATED)])
    entries = [dataset.ap_directory[a] for a in aps.tolist()]
    return entries, classification.class_codes(aps)


@dataclass(frozen=True)
class BandFractions:
    """Figure 14: fraction of associated unique APs that are 5 GHz."""

    year: int
    fraction_5ghz: Dict[str, float]
    counts: Dict[str, int]

    def fraction(self, ap_class: str) -> float:
        try:
            return self.fraction_5ghz[ap_class]
        except KeyError:
            raise AnalysisError(f"no band data for class {ap_class!r}") from None


def band_fractions(
    data: DatasetOrContext,
    classification: Optional[APClassification] = None,
) -> BandFractions:
    """Per-class 5 GHz fractions over associated unique APs."""
    ctx = AnalysisContext.of(data)
    dataset = ctx.dataset()
    if classification is None:
        classification = ctx.classification()
    entries, codes = _associated_aps(dataset, classification)
    if not entries:
        raise AnalysisError("no associated APs")
    is_5 = np.array([e.band is Band.GHZ_5 for e in entries], dtype=bool)
    n_all = np.bincount(codes, minlength=len(WIFI_CLASSES)).tolist()
    n_5 = np.bincount(codes[is_5], minlength=len(WIFI_CLASSES)).tolist()
    totals: Dict[str, int] = {}
    fractions: Dict[str, float] = {}
    for cls in ("home", "office", "public", "other"):
        code = WIFI_CLASSES.index(cls)
        totals[cls] = n_all[code]
        fractions[cls] = n_5[code] / n_all[code] if n_all[code] else float("nan")
    return BandFractions(year=dataset.year, fraction_5ghz=fractions, counts=totals)


@dataclass(frozen=True)
class ChannelDistributions:
    """Figure 16: PDF over 2.4 GHz channels for home and public APs."""

    year: int
    pdf: Dict[str, np.ndarray]  # class -> length-13 probability vector

    def channel_share(self, ap_class: str, channel: int) -> float:
        if not 1 <= channel <= NUM_24GHZ_CHANNELS:
            raise AnalysisError(f"bad 2.4GHz channel {channel}")
        return float(self._pdf_of(ap_class)[channel - 1])

    def trio_share(self, ap_class: str) -> float:
        """Probability mass on the non-overlapping 1/6/11 trio."""
        p = self._pdf_of(ap_class)
        return float(p[0] + p[5] + p[10])

    def _pdf_of(self, ap_class: str) -> np.ndarray:
        try:
            return self.pdf[ap_class]
        except KeyError:
            raise AnalysisError(
                f"no observed 2.4GHz APs of class {ap_class!r}"
            ) from None


def channel_distributions(
    data: DatasetOrContext,
    classification: Optional[APClassification] = None,
    classes: tuple = ("home", "public"),
) -> ChannelDistributions:
    """Channel PDFs over associated unique 2.4 GHz APs per class."""
    ctx = AnalysisContext.of(data)
    dataset = ctx.dataset()
    if classification is None:
        classification = ctx.classification()
    entries, codes = _associated_aps(dataset, classification)
    # Channel index per AP; -1 marks APs off the 2.4 GHz band.
    channel = np.array([
        e.channel - 1 if e.band is Band.GHZ_2_4 else -1 for e in entries
    ], dtype=np.int64)
    counts = {
        cls: np.bincount(
            channel[(codes == WIFI_CLASSES.index(cls)) & (channel >= 0)],
            minlength=NUM_24GHZ_CHANNELS,
        ).astype(np.float64)
        for cls in classes
    }
    pdf = {}
    for cls, vec in counts.items():
        total = vec.sum()
        if total == 0:
            # Tiny panels may observe no 2.4 GHz APs of a class; omit it.
            continue
        pdf[cls] = vec / total
    if not pdf:
        raise AnalysisError(f"no 2.4GHz APs of any class in {classes}")
    return ChannelDistributions(year=dataset.year, pdf=pdf)
