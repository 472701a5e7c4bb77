"""Mobility vs traffic volume (§3.4.2).

The paper finds "user traffic volume does not correlate to the mobility
patterns": heavy hitters and light users associate with similar numbers of
APs per day (Figure 12), and moving around more does not make a user heavier.
This analysis quantifies that with the correlation between a device-day's
mobility (distinct 5 km cells visited, distinct APs associated) and its
download volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.association import _device_day_aps
from repro.analysis.context import AnalysisContext, DatasetOrContext
from repro.analysis.users import UserDayClasses
from repro.errors import AnalysisError
from repro.traces.query import distinct_cells_per_device_day


@dataclass(frozen=True)
class MobilityStats:
    """Correlations between mobility and traffic over valid device-days."""

    year: int
    corr_cells_vs_volume: float
    corr_aps_vs_volume: float
    mean_cells_heavy: float
    mean_cells_light: float
    n_device_days: int

    def uncorrelated(self, threshold: float = 0.3) -> bool:
        """Whether mobility and volume are (at most) weakly related."""
        return abs(self.corr_cells_vs_volume) < threshold


def mobility_stats(
    data: DatasetOrContext,
    classes: Optional[UserDayClasses] = None,
) -> MobilityStats:
    """Compute the §3.4.2 mobility/traffic (non-)correlation."""
    ctx = AnalysisContext.of(data)
    dataset = ctx.dataset()
    if classes is None:
        classes = ctx.user_classes()
    cells = distinct_cells_per_device_day(dataset)
    volumes = classes.volumes
    valid = classes.valid
    if not valid.any():
        raise AnalysisError("no valid device-days")

    cell, _ = _device_day_aps(dataset)
    aps = np.bincount(cell, minlength=cells.size).reshape(cells.shape)

    log_volume = np.log10(np.maximum(volumes[valid], 1.0))
    corr_cells = _safe_corr(cells[valid].astype(float), log_volume)
    corr_aps = _safe_corr(aps[valid].astype(float), log_volume)

    heavy = classes.heavy & valid
    light = classes.light & valid
    return MobilityStats(
        year=dataset.year,
        corr_cells_vs_volume=corr_cells,
        corr_aps_vs_volume=corr_aps,
        mean_cells_heavy=float(cells[heavy].mean()) if heavy.any() else float("nan"),
        mean_cells_light=float(cells[light].mean()) if light.any() else float("nan"),
        n_device_days=int(valid.sum()),
    )


def _safe_corr(a: np.ndarray, b: np.ndarray) -> float:
    if a.size < 3 or a.std() == 0 or b.std() == 0:
        return float("nan")
    return float(np.corrcoef(a, b)[0, 1])
