"""WiFi association access patterns (Figure 12, Table 5, Figure 13, §3.4.2).

- Number of distinct APs each device associates with per day, for all users
  and the light/heavy subsets (Figure 12).
- The HPO breakdown: how many Home/Public/Other networks a device-day
  combines (Table 5).
- Consecutive association duration CCDFs per network class (Figure 13).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.analysis.ap_classification import (
    HOME,
    PUBLIC,
    WIFI_CLASSES,
    APClassification,
)
from repro.analysis.context import AnalysisContext, DatasetOrContext
from repro.analysis.users import UserDayClasses
from repro.constants import SAMPLES_PER_HOUR
from repro.errors import AnalysisError
from repro.stats.distributions import Ecdf, ccdf
from repro.traces.dataset import CampaignDataset
from repro.traces.query import device_day_of, packed_keys
from repro.traces.records import WifiStateCode


@dataclass(frozen=True)
class ApsPerDay:
    """Figure 12: distribution of distinct associated APs per device-day."""

    year: int
    #: subset -> {1: pct, 2: pct, 3: pct, 4: pct of device-days with >= 4}.
    breakdown: Dict[str, Dict[int, float]]

    def pct(self, subset: str, n_aps: int) -> float:
        return self.breakdown[subset].get(n_aps, 0.0)


@dataclass(frozen=True)
class HpoBreakdown:
    """Table 5: percentage of device-days per (home, public, other) combo."""

    year: int
    #: (n_home, n_public, n_other) -> percentage of WiFi device-days.
    combos: Dict[Tuple[int, int, int], float]
    four_plus_pct: float

    def pct(self, home: int, public: int, other: int) -> float:
        return self.combos.get((home, public, other), 0.0)


def _device_day_aps(dataset: CampaignDataset) -> Tuple[np.ndarray, np.ndarray]:
    """Unique associated (device, day, ap) triples, sorted.

    Returns each triple's flat device-day cell (``device * n_days + day``)
    and its AP id; every count per device-day is a ``bincount`` over the
    cells.
    """
    wifi = dataset.wifi
    assoc = wifi.state == int(WifiStateCode.ASSOCIATED)
    cell = (
        wifi.device[assoc].astype(np.int64) * dataset.n_days
        + device_day_of(wifi.t[assoc].astype(np.int64))
    )
    ap = wifi.ap_id[assoc]
    _, first = np.unique(packed_keys(cell, ap), return_index=True)
    return cell[first], ap[first].astype(np.int64)


def _percentages(counts: Dict, total: int) -> Dict:
    return {k: 100.0 * v / total for k, v in counts.items()}


def aps_per_day(
    data: DatasetOrContext,
    classes: Optional[UserDayClasses] = None,
) -> ApsPerDay:
    """Figure 12 breakdown for all/heavy/light device-days."""
    ctx = AnalysisContext.of(data)
    dataset = ctx.dataset()
    if classes is None:
        classes = ctx.user_classes()
    cell, _ = _device_day_aps(dataset)
    if cell.size == 0:
        raise AnalysisError("no associations in dataset")
    n_aps = np.bincount(
        cell, minlength=dataset.n_devices * dataset.n_days
    ).reshape(dataset.n_devices, dataset.n_days)
    subsets = {"all": classes.valid, "heavy": classes.heavy, "light": classes.light}
    breakdown: Dict[str, Dict[int, float]] = {}
    for name, mask in subsets.items():
        capped = np.minimum(n_aps[mask & (n_aps > 0)], 4)
        counts = np.bincount(capped, minlength=5).tolist()
        breakdown[name] = _percentages(
            {n: counts[n] for n in range(1, 5) if counts[n]}, capped.size
        )
    return ApsPerDay(year=dataset.year, breakdown=breakdown)


def hpo_breakdown(
    data: DatasetOrContext,
    classification: Optional[APClassification] = None,
) -> HpoBreakdown:
    """Table 5: home/public/other combination percentages per device-day."""
    ctx = AnalysisContext.of(data)
    dataset = ctx.dataset()
    if classification is None:
        classification = ctx.classification()
    cell, ap = _device_day_aps(dataset)
    if cell.size == 0:
        raise AnalysisError("no associations in dataset")
    code = classification.class_codes(ap)
    size = dataset.n_devices * dataset.n_days
    n_all = np.bincount(cell, minlength=size)
    n_home = np.bincount(cell[code == HOME], minlength=size)
    n_public = np.bincount(cell[code == PUBLIC], minlength=size)
    days = np.flatnonzero(n_all)
    few = days[n_all[days] < 4]
    combo = np.stack(
        [n_home[few], n_public[few], n_all[few] - n_home[few] - n_public[few]],
        axis=1,
    )
    # Combos keep the order of the first device-day showing them.
    _, first, counts = np.unique(
        packed_keys(*combo.T), return_index=True, return_counts=True
    )
    combos = {
        tuple(combo[i].tolist()): int(n)
        for i, n in sorted(zip(first.tolist(), counts))
    }
    total = days.size
    return HpoBreakdown(
        year=dataset.year,
        combos=_percentages(combos, total),
        four_plus_pct=100.0 * (total - few.size) / total,
    )


@dataclass(frozen=True)
class AssociationDurations:
    """Figure 13: consecutive same-AP association durations (hours)."""

    year: int
    ccdf_by_class: Dict[str, Ecdf]
    p90_hours: Dict[str, float]


def association_durations(
    data: DatasetOrContext,
    classification: Optional[APClassification] = None,
) -> AssociationDurations:
    """Compute per-class CCDFs of consecutive association time."""
    ctx = AnalysisContext.of(data)
    dataset = ctx.dataset()
    if classification is None:
        classification = ctx.classification()
    wifi = dataset.wifi
    assoc = wifi.state == int(WifiStateCode.ASSOCIATED)
    if not assoc.any():
        raise AnalysisError("no associations in dataset")
    # The wifi table is in canonical (device, t) order (as ``SlotIndex``
    # relies on), so the associated rows need no sort. A run breaks where
    # the device changes, a slot is skipped or the AP changes.
    device, t, ap = wifi.device[assoc], wifi.t[assoc], wifi.ap_id[assoc]
    starts = np.flatnonzero(np.r_[
        True,
        (device[1:] != device[:-1]) | (t[1:] != t[:-1] + 1) | (ap[1:] != ap[:-1]),
    ])
    hours = np.diff(np.r_[starts, len(t)]) / SAMPLES_PER_HOUR
    code = classification.class_codes(ap[starts])
    # Classes keep the order of their first run.
    _, first = np.unique(code, return_index=True)
    durations = {WIFI_CLASSES[code[i]]: hours[code == code[i]]
                 for i in np.sort(first)}

    ccdfs = {}
    p90 = {}
    for cls, arr in durations.items():
        ccdfs[cls] = ccdf(arr)
        p90[cls] = float(np.percentile(arr, 90))
    return AssociationDurations(year=dataset.year, ccdf_by_class=ccdfs, p90_hours=p90)
