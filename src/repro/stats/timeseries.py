"""Time-series helpers: hourly binning, Mbps conversion, weekly profiles.

The paper's traffic figures (Figures 2, 11) plot aggregate volume in Mbps per
time-of-week; the ratio figures (Figures 6-8) plot per-hour-of-week means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError

SECONDS_PER_HOUR = 3600.0
HOURS_PER_WEEK = 7 * 24


@dataclass(frozen=True)
class HourlySeries:
    """A per-hour series over a campaign, with its weekday alignment.

    ``values[h]`` covers campaign hour ``h``; ``start_weekday`` is the
    weekday (Mon=0) of hour 0, so the series can be folded onto a
    Saturday-to-Saturday week like the paper's plots.
    """

    values: np.ndarray
    start_weekday: int

    def __post_init__(self) -> None:
        if not 0 <= self.start_weekday <= 6:
            raise AnalysisError(f"bad weekday: {self.start_weekday}")

    @property
    def n_hours(self) -> int:
        return len(self.values)

    def fold_week(self, week_start_weekday: int = 5) -> np.ndarray:
        """Mean value per hour-of-week, week starting at ``week_start_weekday``.

        Default 5 (Saturday) to match the paper's Sat->Sat x-axes. Hours with
        no coverage are NaN.
        """
        h = np.arange(self.n_hours)
        weekday = (self.start_weekday + h // 24) % 7
        hour_of_week = ((weekday - week_start_weekday) % 7) * 24 + h % 24
        # ``bincount`` adds each bin's values in hour order, as a loop would.
        sums = np.bincount(hour_of_week, weights=self.values,
                           minlength=HOURS_PER_WEEK)
        counts = np.bincount(hour_of_week, minlength=HOURS_PER_WEEK)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = sums / counts
        out[counts == 0] = np.nan
        return out


def bytes_to_mbps(byte_totals: np.ndarray, interval_s: float = SECONDS_PER_HOUR) -> np.ndarray:
    """Convert per-interval byte totals to megabits per second."""
    if interval_s <= 0:
        raise AnalysisError(f"interval must be positive: {interval_s}")
    return np.asarray(byte_totals, dtype=float) * 8.0 / interval_s / 1e6
