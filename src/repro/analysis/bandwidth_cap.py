"""Soft bandwidth cap effects (Figure 19, §3.8).

A device-day is *potentially capped* when the previous three days' cellular
download exceeds the 1 GB threshold. Figure 19 plots, for capped and other
device-days, the CDF of (today's cellular download) / (mean of the previous
three days); throttling pushes the capped curve left. The gap between the
two medians shrinks from 2014 to 2015 after the policy relaxation. A small
panel may have no capped (or no other) device-days at all; the quantities
of that side are then undefined (``None``), and Figure 19 draws that curve
empty, which renders as ``(no data)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.analysis.context import AnalysisContext, DatasetOrContext
from repro.constants import CAP_THRESHOLD_BYTES, CAP_WINDOW_DAYS
from repro.errors import AnalysisError
from repro.stats.distributions import Ecdf, ecdf


@dataclass(frozen=True)
class CapEffect:
    """Figure 19 curves and §3.8 statistics for one campaign."""

    year: int
    #: Ratio CDFs; None when there are no such device-days.
    capped_ratio_cdf: Optional[Ecdf]
    others_ratio_cdf: Optional[Ecdf]
    potentially_capped_fraction: float
    #: Fraction of capped / other device-days below half of the 3-day mean.
    capped_below_half: Optional[float]
    others_below_half: Optional[float]

    def median_gap(self) -> Optional[float]:
        """Difference of medians (others - capped) of the ratio CDFs, or
        None when either side has no device-days."""
        if self.capped_ratio_cdf is None or self.others_ratio_cdf is None:
            return None
        return self.others_ratio_cdf.median() - self.capped_ratio_cdf.median()


def cap_effect(
    data: DatasetOrContext,
    threshold_bytes: float = float(CAP_THRESHOLD_BYTES),
    window_days: int = CAP_WINDOW_DAYS,
    min_window_mb: float = 1.0,
) -> CapEffect:
    """Detect potentially capped device-days and measure the throttle."""
    if window_days < 1:
        raise AnalysisError("window must be >= 1 day")
    ctx = AnalysisContext.of(data)
    cell = ctx.daily_matrix("cell", "rx")
    n_devices, n_days = cell.shape
    if n_days <= window_days:
        raise AnalysisError("campaign too short for the cap window")

    capped_ratios = []
    other_ratios = []
    n_capped_days = 0
    n_eval_days = 0
    for day in range(window_days, n_days):
        window = cell[:, day - window_days:day]
        window_sum = window.sum(axis=1)
        window_mean = window_sum / window_days
        today = cell[:, day]
        evaluable = window_mean > min_window_mb * 1e6
        n_eval_days += int(evaluable.sum())
        capped = evaluable & (window_sum > threshold_bytes)
        n_capped_days += int(capped.sum())
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = today / window_mean
        capped_ratios.append(ratio[capped])
        other_ratios.append(ratio[evaluable & ~capped])

    capped_cdf, capped_below_half = _ratio_summary(capped_ratios)
    others_cdf, others_below_half = _ratio_summary(other_ratios)
    return CapEffect(
        year=ctx.dataset().year,
        capped_ratio_cdf=capped_cdf,
        others_ratio_cdf=others_cdf,
        potentially_capped_fraction=n_capped_days / max(n_eval_days, 1),
        capped_below_half=capped_below_half,
        others_below_half=others_below_half,
    )


def _ratio_summary(
    ratios: List[np.ndarray],
) -> Tuple[Optional[Ecdf], Optional[float]]:
    """The ratio CDF and the fraction below one half; (None, None) when
    there are no device-days."""
    ratios = np.concatenate(ratios)
    if ratios.size == 0:
        return None, None
    return ecdf(ratios), float((ratios < 0.5).mean())
