"""Cross-campaign evolution summaries (Table 1 and the longitudinal view).

These helpers aggregate per-year analyses over a
:class:`~repro.simulation.study.Study`-like mapping of year -> dataset so
the three-year comparisons (the heart of the paper) come from one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping

from repro.analysis.aggregate import traffic_shares
from repro.analysis.context import AnalysisContext, DatasetOrContext
from repro.errors import AnalysisError
from repro.traces.dataset import CampaignDataset
from repro.traces.records import DeviceOS


@dataclass(frozen=True)
class CampaignOverview:
    """One Table 1 row."""

    year: int
    start: str
    end: str
    n_android: int
    n_ios: int
    n_total: int
    lte_share: float


def campaign_overview(data: DatasetOrContext) -> CampaignOverview:
    """Table 1 row for one campaign (panel sizes and LTE share)."""
    ctx = AnalysisContext.of(data)
    dataset = ctx.dataset()
    n_android = sum(1 for d in dataset.devices if d.os is DeviceOS.ANDROID)
    n_ios = len(dataset.devices) - n_android
    if not dataset.devices:
        raise AnalysisError("dataset has no devices")
    start = dataset.axis.slot_datetime(0).date()
    end = dataset.axis.slot_datetime(dataset.n_slots - 1).date()
    return CampaignOverview(
        year=dataset.year,
        start=start.isoformat(),
        end=end.isoformat(),
        n_android=n_android,
        n_ios=n_ios,
        n_total=n_android + n_ios,
        lte_share=traffic_shares(ctx)[1],
    )


def yearly(
    datasets: Mapping[int, CampaignDataset],
    analysis: Callable[[CampaignDataset], object],
) -> Dict[int, object]:
    """Run ``analysis`` on every campaign; returns {year: result}."""
    return {year: analysis(datasets[year]) for year in sorted(datasets)}
