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
from typing import Dict, Set

import numpy as np

from repro.analysis.context import AnalysisContext, DatasetOrContext
from repro.constants import (
    HOME_NIGHT_END_HOUR,
    HOME_NIGHT_FRACTION,
    HOME_NIGHT_START_HOUR,
    OFFICE_END_HOUR,
    OFFICE_START_HOUR,
    SAMPLES_PER_HOUR,
)
from repro.errors import AnalysisError
from repro.net.identifiers import is_fon_public_essid, is_public_essid
from repro.traces.dataset import CampaignDataset
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
    device = wifi.device[assoc_mask].astype(np.int64)
    t = wifi.t[assoc_mask].astype(np.int64)
    ap_id = wifi.ap_id[assoc_mask].astype(np.int64)
    result.wifi_devices = {int(d) for d in np.unique(device)}

    hour = hour_of_day(t)
    day = device_day_of(t)
    weekday = dataset.axis.weekday_of(t)

    home_of_device = _infer_home_aps(device, day, hour, ap_id)
    home_aps = set(home_of_device.values())
    fon_home_aps = _fon_reclassification(dataset, device, ap_id)
    home_aps |= fon_home_aps
    mobile_aps = _infer_mobile_aps(ctx, device, t, ap_id)

    in_window = (
        (hour >= OFFICE_START_HOUR) & (hour < OFFICE_END_HOUR) & (weekday < 5)
    )
    unique_aps, inverse = np.unique(ap_id, return_inverse=True)
    totals = np.bincount(inverse, minlength=len(unique_aps))
    window_counts = np.bincount(inverse[in_window], minlength=len(unique_aps))
    office = (window_counts / totals >= OFFICE_WINDOW_FRACTION) & (
        totals >= MIN_NIGHT_SLOTS
    )

    for a, is_office in zip(unique_aps.tolist(), office.tolist()):
        essid = dataset.ap_directory[a].essid
        if a in home_aps:
            result.ap_class[a] = "home"
        elif a in mobile_aps:
            result.ap_class[a] = "mobile"
        elif is_public_essid(essid) or (
            is_fon_public_essid(essid) and a not in fon_home_aps
        ):
            result.ap_class[a] = "public"
        elif is_office:
            result.ap_class[a] = "office"
        else:
            result.ap_class[a] = "other"

    result.home_ap_of_device = home_of_device
    # FON home APs belong to whoever used them at night; attribute them to
    # their heaviest nighttime user if that device has no home AP yet.
    for a in fon_home_aps:
        users = device[ap_id == a]
        if len(users) == 0:
            continue
        top_user = int(Counter(users.tolist()).most_common(1)[0][0])
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
    d = device[night]
    dy = day[night]
    a = ap_id[night]
    # Slots per (device, day, ap) group, in sorted (device, day, ap) order.
    _, first, counts = np.unique(
        packed_keys(d, dy, a), return_index=True, return_counts=True
    )
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
    dataset: CampaignDataset, device: np.ndarray, ap_id: np.ndarray
) -> Set[int]:
    """FON public ESSIDs used for >24 cumulative hours by one device are
    actually home routers (§3.4.1)."""
    fon_aps = {
        a for a, entry in dataset.ap_directory.items()
        if is_fon_public_essid(entry.essid)
    }
    if not fon_aps:
        return set()
    threshold_slots = 24 * SAMPLES_PER_HOUR
    fon_mask = np.isin(ap_id, list(fon_aps))
    if not fon_mask.any():
        return set()
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
    dev, ap = device[idx], ap_id[idx]
    _, distinct = np.unique(
        packed_keys(dev, ap, index.gather(geo.col, pos[idx]),
                    index.gather(geo.row, pos[idx])),
        return_index=True,
    )
    # Count distinct cells per (device, ap) pair.
    _, first, n_cells = np.unique(
        packed_keys(dev[distinct], ap[distinct]),
        return_index=True, return_counts=True,
    )
    return {
        int(a) for a in ap[distinct][first[n_cells >= MOBILE_CELL_THRESHOLD]]
    }
