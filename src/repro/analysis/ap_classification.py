"""AP classification: home / public / office / mobile / other (§3.4.1).

The analysis identifies each AP a device associates with by its
(BSSID, ESSID) pair and classifies:

- **Home**: the most common pair a device connects to during at least 70% of
  its associated time between 22:00 and 06:00 of a day. FON community APs a
  user stays on around the clock are reclassified from public to home.
- **Public**: well-known provider ESSIDs (0000docomo, 0001softbank,
  eduroam, 7SPOT, ...).
- **Mobile**: an AP that travels with its user (observed from many distinct
  5 km cells).
- **Office**: mainly connected 11:00-17:00 on weekdays, and not classified
  home/public/mobile.
- **Other**: the rest (shops, hotels, friends' homes).

All classification reads only observable data (the wifi table, geolocation,
the AP directory); ground truth never enters.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Set, Tuple

import numpy as np

from repro.analysis.context import AnalysisContext, DatasetOrContext
from repro.constants import (
    HOME_NIGHT_END_HOUR,
    HOME_NIGHT_FRACTION,
    HOME_NIGHT_START_HOUR,
    OFFICE_END_HOUR,
    OFFICE_START_HOUR,
    SAMPLES_PER_DAY,
    SAMPLES_PER_HOUR,
)
from repro.errors import AnalysisError
from repro.net.identifiers import is_fon_public_essid, is_public_essid
from repro.traces.query import (
    device_day_of,
    group_starts,
    hour_of_day,
    packed_keys,
)
from repro.traces.records import WifiStateCode

#: Minimum associated night slots for a home-AP call (1 hour of evidence).
MIN_NIGHT_SLOTS = 6

#: An AP seen from this many distinct cells (by one device) is mobile.
MOBILE_CELL_THRESHOLD = 3

#: Office call: at least this fraction of an AP's association time must sit
#: inside the weekday 11:00-17:00 window.
OFFICE_WINDOW_FRACTION = 0.5

#: The paper's WiFi buckets; :meth:`APClassification.class_codes` returns
#: indexes into this tuple (mobile APs fall into "other").
WIFI_CLASSES = ("home", "public", "office", "other")
HOME, PUBLIC, OFFICE, OTHER = range(len(WIFI_CLASSES))


@dataclass
class APClassification:
    """Result of classifying every associated AP in a campaign."""

    ap_class: Dict[int, str] = field(default_factory=dict)
    home_ap_of_device: Dict[int, int] = field(default_factory=dict)
    #: Devices that had at least one WiFi association.
    wifi_devices: Set[int] = field(default_factory=set)

    def counts(self) -> Dict[str, int]:
        """Table 4 rows: home/public/other (office broken out) and total.

        The paper's "other" bucket contains offices and mobile APs; we report
        office separately like the parenthesized Table 4 row.
        """
        by_class = Counter(self.ap_class.values())
        other = by_class["other"] + by_class["office"] + by_class["mobile"]
        return {
            "home": by_class["home"],
            "public": by_class["public"],
            "other": other,
            "office": by_class["office"],
            "total": len(self.ap_class),
        }

    def fraction_devices_with_home_ap(self, n_devices: int) -> float:
        if n_devices <= 0:
            raise AnalysisError("n_devices must be positive")
        return len(self.home_ap_of_device) / n_devices

    def wifi_class_of(self, ap_id: int) -> str:
        """Class for an AP, collapsing mobile into 'other' (paper buckets)."""
        cls = self.ap_class.get(ap_id, "other")
        return "other" if cls == "mobile" else cls

    def class_codes(self, ap_ids: np.ndarray) -> np.ndarray:
        """:meth:`wifi_class_of` for many APs: indexes into WIFI_CLASSES."""
        known = np.array(sorted(self.ap_class), dtype=np.int64)
        codes = np.array(
            [WIFI_CLASSES.index(self.wifi_class_of(a)) for a in known.tolist()]
            + [OTHER], dtype=np.int8,
        )
        pos = np.searchsorted(known, ap_ids)
        return codes[np.where(np.r_[known, -1][pos] == ap_ids, pos, len(known))]


def classify_aps(data: DatasetOrContext) -> APClassification:
    """Run the full §3.4.1 classification for one campaign."""
    ctx = AnalysisContext.of(data)
    dataset = ctx.dataset()
    result = APClassification()
    wifi = dataset.wifi
    assoc_mask = wifi.state == int(WifiStateCode.ASSOCIATED)
    if not assoc_mask.any():
        return result
    # Associated rows stay in canonical (device, t) order, so each device
    # is one run and the columns keep their narrow schema dtypes.
    device = wifi.device[assoc_mask]
    t = wifi.t[assoc_mask]
    ap_id = wifi.ap_id[assoc_mask]
    result.wifi_devices = set(device[group_starts(device)].tolist())

    hour = hour_of_day(t)
    day = device_day_of(t)
    workday = dataset.axis.weekday_of(
        np.arange(dataset.n_days) * SAMPLES_PER_DAY) < 5

    # AP ids are small non-negative directory keys: count per id.
    totals = np.bincount(ap_id)
    unique_aps = np.flatnonzero(totals)
    essid = {a: dataset.ap_directory[a].essid for a in unique_aps.tolist()}
    fon_aps = {a for a, name in essid.items() if is_fon_public_essid(name)}

    home_of_device = _infer_home_aps(device, day, hour, ap_id)
    home_aps = set(home_of_device.values())
    fon_home_aps = _fon_reclassification(device, ap_id, fon_aps)
    home_aps |= fon_home_aps
    mobile_aps = _infer_mobile_aps(ctx, device, t, ap_id)

    in_window = (
        (hour >= OFFICE_START_HOUR) & (hour < OFFICE_END_HOUR) & workday[day]
    )
    window_counts = np.bincount(ap_id[in_window], minlength=len(totals))
    totals, window_counts = totals[unique_aps], window_counts[unique_aps]
    office = (window_counts / totals >= OFFICE_WINDOW_FRACTION) & (
        totals >= MIN_NIGHT_SLOTS
    )

    for a, is_office in zip(unique_aps.tolist(), office.tolist()):
        if a in home_aps:
            result.ap_class[a] = "home"
        elif a in mobile_aps:
            result.ap_class[a] = "mobile"
        elif is_public_essid(essid[a]) or (
            a in fon_aps and a not in fon_home_aps
        ):
            result.ap_class[a] = "public"
        elif is_office:
            result.ap_class[a] = "office"
        else:
            result.ap_class[a] = "other"

    result.home_ap_of_device = home_of_device
    # A FON home AP goes to the device with the most associated slots on it
    # (at any hour, as ``_fon_reclassification`` counts them; the smallest
    # id among equal counts) if that device has no home AP yet.
    for a in fon_home_aps:
        top_user = int(np.bincount(device[ap_id == a]).argmax())
        result.home_ap_of_device.setdefault(top_user, a)
    return result


def _infer_home_aps(
    device: np.ndarray, day: np.ndarray, hour: np.ndarray, ap_id: np.ndarray
) -> Dict[int, int]:
    """Per-device home AP from nightly top-pair voting.

    Each (device, night) with enough slots votes for its dominant AP when
    that AP holds at least 70% of the slots. Tie-breaks: among APs with
    equal slots in one night the smallest AP id wins; among APs with equal
    votes the one voted for first (earliest night) wins.
    """
    night = (hour >= HOME_NIGHT_START_HOUR) | (hour < HOME_NIGHT_END_HOUR)
    if not night.any():
        return {}
    d, dy, a, slots = _runs(device[night], day[night], ap_id[night])
    # Slots per (device, day, ap) group, in sorted (device, day, ap) order.
    key = packed_keys(d, dy, a)
    order = np.argsort(key, kind="stable")
    starts = group_starts(key[order])
    first = order[starts]
    counts = np.add.reduceat(slots[order], starts)
    g_dev, g_ap = d[first], a[first]
    night_key = packed_keys(g_dev, dy[first])
    # Per (device, day): total night slots and the dominant AP. The stable
    # sort on descending count keeps ascending AP order among equal counts.
    totals = np.add.reduceat(counts, group_starts(night_key))
    order = np.lexsort((-counts, night_key))
    top = order[group_starts(night_key[order])]
    votes = top[
        (totals >= MIN_NIGHT_SLOTS)
        & (counts[top] / totals >= HOME_NIGHT_FRACTION)
    ]
    if votes.size == 0:
        return {}
    # Votes per (device, ap); the first-cast vote breaks ties.
    _, first_vote, n_votes = np.unique(
        packed_keys(g_dev[votes], g_ap[votes]),
        return_index=True, return_counts=True,
    )
    vote_dev = g_dev[votes][first_vote]
    order = np.lexsort((first_vote, -n_votes, vote_dev))
    winner = order[group_starts(vote_dev[order])]
    return {
        int(dv): int(ap) for dv, ap in
        zip(vote_dev[winner], g_ap[votes][first_vote][winner])
    }


def _fon_reclassification(
    device: np.ndarray, ap_id: np.ndarray, fon_aps: Set[int]
) -> Set[int]:
    """FON public ESSIDs used for >24 cumulative hours by one device are
    actually home routers (§3.4.1). ``fon_aps`` are the associated APs
    with a FON ESSID."""
    if not fon_aps:
        return set()
    threshold_slots = 24 * SAMPLES_PER_HOUR
    fon_mask = np.isin(ap_id, list(fon_aps))
    fon_ap = ap_id[fon_mask]
    _, first, slots = np.unique(
        packed_keys(device[fon_mask], fon_ap),
        return_index=True, return_counts=True,
    )
    return {int(ap) for ap in fon_ap[first[slots >= threshold_slots]]}


def _infer_mobile_aps(
    ctx: AnalysisContext, device: np.ndarray, t: np.ndarray, ap_id: np.ndarray
) -> Set[int]:
    """APs observed (by one device) from many distinct 5 km cells."""
    dataset = ctx.dataset()
    geo = dataset.geo
    if len(geo) == 0:
        return set()
    # Fast (device, t) -> cell lookup via the shared sorted geo index.
    index = ctx.geo_index()
    pos, found = index.lookup(device, t)

    idx = np.flatnonzero(found)
    if idx.size == 0:
        return set()
    pos = pos[idx]
    dev, ap, col, row, _ = _runs(device[idx], ap_id[idx],
                                 index.gather(geo.col, pos),
                                 index.gather(geo.row, pos))
    _, distinct = np.unique(packed_keys(dev, ap, col, row), return_index=True)
    # Count distinct cells per (device, ap) pair.
    _, first, n_cells = np.unique(
        packed_keys(dev[distinct], ap[distinct]),
        return_index=True, return_counts=True,
    )
    return {
        int(a) for a in ap[distinct][first[n_cells >= MOBILE_CELL_THRESHOLD]]
    }


def _runs(*columns: np.ndarray) -> Tuple[np.ndarray, ...]:
    """One row per run of equal consecutive rows of ``columns``, then the
    run lengths.

    Associated rows come in (device, t) order and a device stays on one AP
    in one cell for hours, so a grouping over runs sorts a few thousand
    keys where one over rows would sort every slot.
    """
    head = np.zeros(len(columns[0]), dtype=bool)
    head[:1] = True
    for column in columns:
        head[1:] |= column[1:] != column[:-1]
    start = np.flatnonzero(head)
    return tuple(column[start] for column in columns) + (
        np.diff(np.r_[start, len(head)]),)
