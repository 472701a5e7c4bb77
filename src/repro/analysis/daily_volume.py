"""Daily per-user traffic volume (Figures 3-4, Table 3, §3.2).

Distributions of daily volume per (device, day): total RX/TX CDFs across the
three campaigns (Figure 3), per-interface CDFs (Figure 4), and the
median/mean growth table with annual growth rates (Table 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.analysis.context import AnalysisContext, DatasetOrContext
from repro.constants import MIN_DAILY_VOLUME_MB
from repro.errors import AnalysisError
from repro.stats.distributions import Ecdf, ecdf
from repro.stats.growth import annual_growth_rate


@dataclass(frozen=True)
class DailyVolumeDistributions:
    """Per-(device, day) volume CDFs for one campaign (values in MB).

    ``zero_fractions`` maps ``"{kind}_{direction}_zero_fraction"`` keys to
    the fraction of valid device-days with no traffic on that interface
    class; use :meth:`zero_fraction` for checked access.
    """

    year: int
    total_rx: Ecdf
    total_tx: Ecdf
    cdf_by_type: Dict[str, Ecdf]
    zero_fractions: Dict[str, float]

    def zero_fraction(self, kind: str, direction: str = "rx") -> float:
        """Fraction of device-days with no traffic on an interface class.

        Matches §3.2: "8% of cellular interfaces and 20% of WiFi interfaces
        do not send and receive any data."
        """
        key = f"{kind}_{direction}_zero_fraction"
        try:
            return self.zero_fractions[key]
        except KeyError:
            raise AnalysisError(f"no zero-fraction recorded for {key}") from None


def daily_volume_distributions(data: DatasetOrContext) -> DailyVolumeDistributions:
    """Figure 3/4 distributions for one campaign."""
    ctx = AnalysisContext.of(data)
    rx_all = ctx.daily_matrix("all", "rx").ravel() / 1e6
    tx_all = ctx.daily_matrix("all", "tx").ravel() / 1e6
    valid = rx_all >= MIN_DAILY_VOLUME_MB
    if not valid.any():
        raise AnalysisError("no device-days above the volume floor")

    cdf_by_type = {}
    zero_fractions = {}
    for kind in ("cell", "wifi"):
        for direction in ("rx", "tx"):
            values = ctx.daily_matrix(kind, direction).ravel() / 1e6
            values = values[valid]
            zero_fractions[f"{kind}_{direction}_zero_fraction"] = float(
                (values <= 0.0).mean()
            )
            positive = values[values > 0]
            if positive.size:
                cdf_by_type[f"{kind}_{direction}"] = ecdf(positive)

    return DailyVolumeDistributions(
        year=ctx.dataset().year,
        total_rx=ecdf(rx_all[valid]),
        total_tx=ecdf(tx_all[valid]),
        cdf_by_type=cdf_by_type,
        zero_fractions=zero_fractions,
    )


@dataclass(frozen=True)
class VolumeGrowthTable:
    """Table 3: median/mean daily download (MB/day) by year, plus AGR.

    An AGR is ``None`` where a year's statistic is zero: the log-space
    growth fit is undefined there (small panels can have a 0.0 MB median
    WiFi download).
    """

    years: Sequence[int]
    median: Dict[str, Dict[int, float]]
    mean: Dict[str, Dict[int, float]]
    agr_median: Dict[str, Optional[float]]
    agr_mean: Dict[str, Optional[float]]

    def row(self, statistic: str, kind: str) -> Dict[int, float]:
        table = self.median if statistic == "median" else self.mean
        return table[kind]


def volume_growth_table(datasets: Sequence[DatasetOrContext]) -> VolumeGrowthTable:
    """Build Table 3 from the three campaign datasets."""
    if len(datasets) < 2:
        raise AnalysisError("needs at least two campaign years")
    contexts = [AnalysisContext.of(ds) for ds in datasets]
    years = [ctx.dataset().year for ctx in contexts]
    median: Dict[str, Dict[int, float]] = {k: {} for k in ("all", "cell", "wifi")}
    mean: Dict[str, Dict[int, float]] = {k: {} for k in ("all", "cell", "wifi")}
    for ctx, year in zip(contexts, years):
        rx_all = ctx.daily_matrix("all", "rx").ravel()
        valid = rx_all >= MIN_DAILY_VOLUME_MB * 1e6
        for kind in ("all", "cell", "wifi"):
            values = ctx.daily_matrix(kind, "rx").ravel()[valid] / 1e6
            median[kind][year] = float(np.median(values))
            mean[kind][year] = float(values.mean())

    def agr(values: Sequence[float]) -> Optional[float]:
        if min(values) <= 0:
            return None
        return annual_growth_rate(years, values)

    agr_median = {
        kind: agr([median[kind][y] for y in years]) for kind in median
    }
    agr_mean = {kind: agr([mean[kind][y] for y in years]) for kind in mean}
    return VolumeGrowthTable(
        years=years, median=median, mean=mean,
        agr_median=agr_median, agr_mean=agr_mean,
    )
