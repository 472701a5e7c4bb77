"""Application-category traffic breakdown (Tables 6-7, §3.6).

Traffic per category is split into four contexts: cellular at home,
cellular elsewhere, WiFi at home, and WiFi on public networks. "Home" for
cellular is inferred the same way as home APs: the modal 5 km cell a device
occupies during the 22:00-06:00 window (§3.6 uses "the same classification
technique described in §3.4.1"). WiFi context comes from the associated AP's
class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.ap_classification import HOME, APClassification
from repro.analysis.context import AnalysisContext, DatasetOrContext
from repro.analysis.users import UserDayClasses
from repro.apps.categories import CATEGORIES, category_name
from repro.constants import HOME_NIGHT_END_HOUR, HOME_NIGHT_START_HOUR
from repro.errors import AnalysisError
from repro.traces.dataset import CampaignDataset
from repro.traces.query import group_starts, hour_of_day, packed_keys

CONTEXTS = ("cell_home", "cell_other", "wifi_home", "wifi_public")

_CONTEXT_LABELS = {
    "cell_home": "Cell home",
    "cell_other": "Cell other",
    "wifi_home": "WiFi home",
    "wifi_public": "WiFi public",
}


@dataclass(frozen=True)
class AppBreakdown:
    """Per-context category volume shares for one campaign."""

    year: int
    #: context -> category code -> share of that context's volume (0..1).
    shares_rx: Dict[str, Dict[int, float]]
    shares_tx: Dict[str, Dict[int, float]]

    def top(
        self, context: str, n: int = 5, direction: str = "rx"
    ) -> List[Tuple[str, float]]:
        """Top ``n`` categories as (name, percentage), Tables 6-7 style."""
        table = self.shares_rx if direction == "rx" else self.shares_tx
        try:
            shares = table[context]
        except KeyError:
            raise AnalysisError(
                f"unknown context {context!r}; have {CONTEXTS}"
            ) from None
        ranked = sorted(shares.items(), key=lambda kv: kv[1], reverse=True)[:n]
        return [(category_name(code), 100.0 * share) for code, share in ranked]

    @staticmethod
    def context_label(context: str) -> str:
        return _CONTEXT_LABELS[context]


def infer_home_cells(dataset: CampaignDataset) -> Dict[int, Tuple[int, int]]:
    """Modal night-time 5 km cell per device (the 'cellular home' anchor).

    Tie-break: among cells with equal night counts, the one seen first (in
    ``(device, t)`` row order) wins.
    """
    devices, cols, rows = _home_cell_arrays(dataset)
    return {
        d: (c, r)
        for d, c, r in zip(devices.tolist(), cols.tolist(), rows.tolist())
    }


def _home_cell_arrays(
    dataset: CampaignDataset,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`infer_home_cells` as (device, col, row) arrays by device."""
    geo = dataset.geo
    hour = hour_of_day(geo.t)
    night = (hour >= HOME_NIGHT_START_HOUR) | (hour < HOME_NIGHT_END_HOUR)
    device, col, row = geo.device[night], geo.col[night], geo.row[night]
    if device.size == 0:
        return device, col, row
    _, first, counts = np.unique(
        packed_keys(device, col, row), return_index=True, return_counts=True
    )
    # Per device: the most counted cell, then the earliest first sighting.
    order = np.lexsort((first, -counts, device[first]))
    modal = first[order][group_starts(device[first][order])]
    return device[modal], col[modal], row[modal]


def app_breakdown(
    data: DatasetOrContext,
    classification: Optional[APClassification] = None,
    classes: Optional[UserDayClasses] = None,
    subset: str = "all",
) -> AppBreakdown:
    """Tables 6-7: per-context category shares.

    ``subset`` may be ``"all"`` (default), ``"light"`` or ``"heavy"``, in
    which case ``classes`` must cover the dataset (§3.6 also reports the
    light-user view). Study-wide calls should use the memoized
    :meth:`AnalysisContext.app_breakdown`.
    """
    ctx = AnalysisContext.of(data)
    dataset = ctx.dataset()
    if classification is None:
        classification = ctx.classification()
    apps = dataset.apps
    if len(apps) == 0:
        raise AnalysisError("dataset has no app-traffic records (Android only)")

    if subset != "all":
        if classes is None:
            raise AnalysisError("subset breakdown requires UserDayClasses")
        mask_matrix = classes.light if subset == "light" else classes.heavy
        rows = np.flatnonzero(mask_matrix[apps.device, apps.day])
    else:
        rows = np.arange(len(apps))

    # Cellular rows are home when they sit in the device's modal night cell.
    home = _home_cell_arrays(dataset)
    keys = packed_keys(*(
        np.r_[getattr(apps, name)[rows], column]
        for name, column in zip(("device", "col", "row"), home)
    ))
    at_home = np.isin(keys[:len(rows)], keys[len(rows):])
    # Context codes index CONTEXTS. Offices/open venues are grouped with
    # public for Tables 6-7 ("WiFi public" = WiFi away from home in the
    # paper's cuts).
    wifi_away = classification.class_codes(apps.ap_id[rows]) != HOME
    context = np.where(apps.cellular[rows] != 0, ~at_home, 2 + wifi_away)
    # bincount adds in row order: each total keeps the rows' order.
    n_cat = len(CATEGORIES)
    cell = context * n_cat + apps.category[rows]

    def normalize(values: np.ndarray) -> Dict[str, Dict[int, float]]:
        totals = np.bincount(
            cell, weights=values[rows], minlength=len(CONTEXTS) * n_cat
        ).reshape(len(CONTEXTS), n_cat)
        shares: Dict[str, Dict[int, float]] = {}
        for name, vec in zip(CONTEXTS, totals):
            total = vec.sum()
            shares[name] = {
                code: float(vec[code] / total)
                for code in np.flatnonzero(vec > 0).tolist()
            } if total > 0 else {}
        return shares

    return AppBreakdown(
        year=dataset.year,
        shares_rx=normalize(apps.rx),
        shares_tx=normalize(apps.tx),
    )
