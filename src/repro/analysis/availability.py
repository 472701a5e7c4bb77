"""Availability of public WiFi to WiFi-available users (Figure 17, §3.5).

Figure 17: CCDF of the number of detected public networks per
WiFi-available device per 10 minutes, split by band and by strong signal.

The §3.5 offload estimate: slots where a WiFi-available device detects at
least one strong public network are *offloadable*; the cellular download
volume in those slots, as a fraction of those devices' total cellular
download, is the traffic that could move to public WiFi (the paper finds
15-20%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.analysis.context import AnalysisContext, DatasetOrContext
from repro.errors import AnalysisError
from repro.stats.distributions import Ecdf, ccdf
from repro.traces.dataset import CampaignDataset
from repro.traces.query import SlotIndex
from repro.traces.records import IfaceKind, WifiStateCode


@dataclass(frozen=True)
class PublicAvailability:
    """Figure 17 CCDFs over available-state scan samples."""

    year: int
    ccdfs: Dict[str, Ecdf]
    n_samples: int

    def ccdf(self, key: str) -> Ecdf:
        try:
            return self.ccdfs[key]
        except KeyError:
            raise AnalysisError(
                f"unknown availability key {key!r}; have {sorted(self.ccdfs)}"
            ) from None

    def fraction_seeing(self, key: str, at_least: int) -> float:
        """Fraction of samples detecting >= ``at_least`` networks."""
        dist = self.ccdf(key)
        if at_least <= 0:
            return 1.0
        return float((dist.values >= at_least).sum() / dist.n)


def available_scan_mask(dataset: CampaignDataset) -> np.ndarray:
    """Mask over scan rows taken while the device was WiFi-available."""
    wifi = dataset.wifi
    available = wifi.state == int(WifiStateCode.AVAILABLE)
    index = SlotIndex.build(
        wifi.device[available], wifi.t[available], dataset.n_slots
    )
    return index.lookup(dataset.scans.device, dataset.scans.t)[1]


def public_availability(data: DatasetOrContext) -> PublicAvailability:
    """Figure 17: detected public networks per available device-slot."""
    ctx = AnalysisContext.of(data)
    dataset = ctx.dataset()
    scans = dataset.scans
    if len(scans) == 0:
        raise AnalysisError("dataset has no scan summaries")
    mask = ctx.available_scan_mask()
    if not mask.any():
        raise AnalysisError("no scans in WiFi-available state")
    ccdfs = {
        "24_all": ccdf(scans.n24_all[mask]),
        "24_strong": ccdf(scans.n24_strong[mask]),
        "5_all": ccdf(scans.n5_all[mask]),
        "5_strong": ccdf(scans.n5_strong[mask]),
    }
    return PublicAvailability(
        year=dataset.year, ccdfs=ccdfs, n_samples=int(mask.sum())
    )


@dataclass(frozen=True)
class OffloadEstimate:
    """§3.5: how much cellular traffic could move to public WiFi."""

    year: int
    #: Fraction of WiFi-available devices that encounter >= 1 strong public
    #: network during the campaign ("have opportunities": ~60%).
    devices_with_opportunity: float
    #: Offloadable share of those devices' cellular download (15-20%).
    offloadable_fraction: float
    n_available_devices: int


def offload_estimate(data: DatasetOrContext) -> OffloadEstimate:
    """Estimate offloadable cellular volume for WiFi-available users."""
    ctx = AnalysisContext.of(data)
    dataset = ctx.dataset()
    scans = dataset.scans
    if len(scans) == 0:
        raise AnalysisError("dataset has no scan summaries")
    mask = ctx.available_scan_mask()
    if not mask.any():
        raise AnalysisError("no scans in WiFi-available state")
    strong = mask & ((scans.n24_strong + scans.n5_strong) >= 1)
    available_devices = np.unique(scans.device[mask])
    opportunity_devices = np.unique(scans.device[strong])
    offload_slots = SlotIndex.build(
        scans.device[strong], scans.t[strong], dataset.n_slots
    )

    traffic = dataset.traffic
    cell_rows = (traffic.iface != int(IfaceKind.WIFI)) & np.isin(
        traffic.device, available_devices
    )
    rx = traffic.rx[cell_rows]
    total_cell = float(rx.sum())
    _, offloadable_rows = offload_slots.lookup(
        traffic.device[cell_rows], traffic.t[cell_rows]
    )
    offloadable = float(rx[offloadable_rows].sum())

    return OffloadEstimate(
        year=dataset.year,
        devices_with_opportunity=(
            len(opportunity_devices) / len(available_devices)
            if len(available_devices)
            else 0.0
        ),
        offloadable_fraction=offloadable / total_cell if total_cell else 0.0,
        n_available_devices=int(len(available_devices)),
    )
