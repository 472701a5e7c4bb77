"""Build the year's full WiFi deployment and its spatial index.

The deployment is the AP universe devices can encounter:

- one home router per participant household that has broadband (§3.4.1),
- office APs for the minority of workplaces allowing BYOD (§4.2),
- a public universe of provider APs clustered downtown and around city
  anchors (Figure 10's spatial structure), plus open shop/hotel networks,
- mobile (pocket) WiFi routers that travel with their owner.

A :class:`Deployment` also exposes per-5km-cell indexes used for scans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.geo.coords import Coordinate, cell_index
from repro.geo.places import PLACES
from repro.net.accesspoint import AccessPoint, APType
from repro.net.identifiers import random_bssid, sibling_bssid
from repro.network_env.home_wifi import HomeWifiConfig, build_home_ap
from repro.network_env.public_wifi import (
    PublicWifiConfig,
    open_venue_essid,
    provider_essid_for,
)
from repro.obs.recorder import StageClock, get_recorder
from repro.population.demographics import Occupation
from repro.population.profiles import UserProfile, WifiPolicy
from repro.radio.bands import Band
from repro.radio.channels import CHANNELS_5GHZ, ChannelPlanner
from repro.radio.pathloss import PathLossModel, RssiModel

CellIndex = Tuple[int, int]

#: Spatial mixture for public APs: heavy downtown clusters plus city anchors.
_PUBLIC_ANCHORS = (
    ("shinjuku", 0.22, 1.6), ("shibuya", 0.18, 1.6), ("tokyo", 0.20, 2.2),
    ("yokohama", 0.09, 2.5), ("kawasaki", 0.05, 2.0), ("chiba", 0.05, 2.5),
    ("saitama", 0.05, 2.5), ("funabashi", 0.04, 2.5), ("hachioji", 0.04, 2.5),
    ("narita", 0.02, 2.5), ("odawara", 0.02, 2.5), ("yokosuka", 0.02, 2.5),
    ("tokyo", 0.02, 12.0),  # thin wide-area scatter
)

PUBLIC_RSSI = RssiModel(
    tx_power_dbm=17.0,
    path_loss=PathLossModel(exponent=3.0),
    shadowing_sigma_db=5.0,
)

OFFICE_RSSI = RssiModel(
    tx_power_dbm=16.0,
    path_loss=PathLossModel(exponent=3.0),
    shadowing_sigma_db=3.5,
)


@dataclass(frozen=True)
class DeploymentConfig:
    """All deployment knobs for one campaign year."""

    year: int
    home: HomeWifiConfig
    public: PublicWifiConfig
    office_fraction_5ghz: float = 0.10
    open_ap_count: int = 400
    carrier_open_roaming: float = 0.35

    def __post_init__(self) -> None:
        if not 0.0 <= self.office_fraction_5ghz <= 1.0:
            raise ConfigurationError("office_fraction_5ghz must be in [0, 1]")
        if self.open_ap_count < 0:
            raise ConfigurationError("open_ap_count must be >= 0")


@dataclass
class Deployment:
    """The built AP universe and its spatial index."""

    config: DeploymentConfig
    aps: Dict[int, AccessPoint] = field(default_factory=dict)
    #: Public + open venue APs per 5 km cell (ids).
    venue_aps_by_cell: Dict[CellIndex, List[int]] = field(default_factory=dict)
    #: (n 2.4GHz, n 5GHz) public-AP counts per cell.
    public_counts_by_cell: Dict[CellIndex, Tuple[int, int]] = field(default_factory=dict)
    #: Familiar open APs per user (learned venues, e.g. a favourite cafe).
    familiar_open_aps: Dict[int, List[int]] = field(default_factory=dict)

    def ap(self, ap_id: int) -> AccessPoint:
        return self.aps[ap_id]

    def public_density(self, coord: Coordinate) -> Tuple[int, int]:
        """(2.4 GHz, 5 GHz) public AP counts in the cell of ``coord``."""
        return self.public_counts_by_cell.get(cell_index(coord), (0, 0))


def build_deployment(
    profiles: List[UserProfile],
    config: DeploymentConfig,
    rng: np.random.Generator,
) -> Deployment:
    """Create the AP universe and wire profiles to their home/office APs."""
    deployment = Deployment(config=config)
    next_id = 0
    clock = StageClock()

    for profile in profiles:
        if profile.has_home_ap:
            ap = build_home_ap(next_id, profile.user_id, profile.home, config.home, rng)
            deployment.aps[next_id] = ap
            profile.home_ap_id = next_id
            next_id += 1
        if profile.office_has_ap and profile.office is not None:
            ap = _build_office_ap(next_id, profile, config, rng)
            deployment.aps[next_id] = ap
            profile.office_ap_id = next_id
            next_id += 1
        if profile.has_mobile_ap:
            ap = _build_mobile_ap(next_id, profile, rng)
            deployment.aps[next_id] = ap
            profile.mobile_ap_id = next_id
            next_id += 1
    clock.lap("private_aps")
    next_id = _build_public_universe(deployment, next_id, config, rng)
    clock.lap("public_aps")
    next_id = _build_open_universe(deployment, next_id, config, rng)
    clock.lap("open_aps")
    _assign_familiar_open_aps(deployment, profiles, rng)
    clock.lap("familiar_aps")
    clock.report(get_recorder())
    return deployment


def _build_office_ap(
    ap_id: int, profile: UserProfile, config: DeploymentConfig, rng: np.random.Generator
) -> AccessPoint:
    """An office (or campus) AP. Student campuses run eduroam (§3.4.1)."""
    if profile.occupation is Occupation.STUDENT:
        essid = "eduroam"
    else:
        essid = f"corp-{int(rng.integers(0, 100000)):05d}"
    band = Band.GHZ_5 if rng.random() < config.office_fraction_5ghz else Band.GHZ_2_4
    if band is Band.GHZ_2_4:
        channel = ChannelPlanner(mode="planned").assign(rng)
    else:
        channel = CHANNELS_5GHZ[int(rng.integers(0, len(CHANNELS_5GHZ)))]
    assert profile.office is not None
    return AccessPoint(
        ap_id=ap_id,
        bssid=random_bssid(rng),
        essid=essid,
        band=band,
        channel=channel,
        location=profile.office,
        ap_type=APType.OFFICE,
        rssi_model=OFFICE_RSSI,
        coverage_m=80.0,
    )


def _build_mobile_ap(
    ap_id: int, profile: UserProfile, rng: np.random.Generator
) -> AccessPoint:
    return AccessPoint(
        ap_id=ap_id,
        bssid=random_bssid(rng),
        essid=f"WM-{int(rng.integers(0, 100000)):05d}",
        band=Band.GHZ_2_4,
        channel=ChannelPlanner(mode="auto").assign(rng),
        location=profile.home,
        ap_type=APType.MOBILE,
        rssi_model=HOME_LIKE_RSSI,
        coverage_m=20.0,
    )


HOME_LIKE_RSSI = RssiModel(
    tx_power_dbm=12.0,
    path_loss=PathLossModel(exponent=2.5),
    shadowing_sigma_db=2.5,
)


def _scatter_around(
    anchor: Coordinate, sigma_km: float, rng: np.random.Generator
) -> Coordinate:
    lat = min(max(anchor.lat + rng.normal(0.0, sigma_km / 111.0), -89.0), 89.0)
    lon = min(max(anchor.lon + rng.normal(0.0, sigma_km / 91.0), -179.0), 179.0)
    return Coordinate(lat, lon)


#: ``rng.choice(n, p=_ANCHOR_P)``'s CDF, built once: searchsorted of one
#: ``rng.random()`` is the same pick from the same stream.
_ANCHOR_WEIGHTS = np.array([w for _, w, _ in _PUBLIC_ANCHORS])
_ANCHOR_P = _ANCHOR_WEIGHTS / _ANCHOR_WEIGHTS.sum()
_ANCHOR_CDF = _ANCHOR_P.cumsum() / _ANCHOR_P.cumsum()[-1]


def _pick_public_location(rng: np.random.Generator) -> Coordinate:
    idx = int(_ANCHOR_CDF.searchsorted(rng.random(), side="right"))
    name, _, sigma = _PUBLIC_ANCHORS[idx]
    return _scatter_around(PLACES[name], sigma, rng)


def _build_public_universe(
    deployment: Deployment, next_id: int, config: DeploymentConfig, rng: np.random.Generator
) -> int:
    planner = ChannelPlanner(mode="planned")
    built = 0
    while built < config.public.n_aps:
        location = _pick_public_location(rng)
        essid, carrier = provider_essid_for(rng)
        band = Band.GHZ_5 if rng.random() < config.public.fraction_5ghz else Band.GHZ_2_4
        channel = (
            planner.assign(rng) if band is Band.GHZ_2_4
            else CHANNELS_5GHZ[int(rng.integers(0, len(CHANNELS_5GHZ)))]
        )
        base_bssid = random_bssid(rng)
        essids = [essid]
        if rng.random() < config.public.shared_infra_fraction:
            # Multi-provider hardware: one box announces several provider
            # ESSIDs from sibling BSSIDs (§4.3).
            n_extra = int(rng.integers(1, 3))
            while len(essids) < 1 + n_extra:
                other, _ = provider_essid_for(rng)
                if other not in essids:
                    essids.append(other)
        for offset, name in enumerate(essids):
            ap = AccessPoint(
                ap_id=next_id,
                bssid=sibling_bssid(base_bssid, offset),
                essid=name,
                band=band,
                channel=channel,
                location=location,
                ap_type=APType.PUBLIC,
                rssi_model=PUBLIC_RSSI,
                coverage_m=120.0,
            )
            deployment.aps[next_id] = ap
            _index_venue_ap(deployment, ap)
            next_id += 1
            built += 1
            if built >= config.public.n_aps:
                break
    return next_id


def _build_open_universe(
    deployment: Deployment, next_id: int, config: DeploymentConfig, rng: np.random.Generator
) -> int:
    for _ in range(config.open_ap_count):
        location = _pick_public_location(rng)
        ap = AccessPoint(
            ap_id=next_id,
            bssid=random_bssid(rng),
            essid=open_venue_essid(rng),
            band=Band.GHZ_2_4,
            channel=ChannelPlanner(mode="auto").assign(rng),
            location=location,
            ap_type=APType.OPEN,
            rssi_model=PUBLIC_RSSI,
            coverage_m=60.0,
        )
        deployment.aps[next_id] = ap
        _index_venue_ap(deployment, ap, public=False)
        next_id += 1
    return next_id


def _index_venue_ap(deployment: Deployment, ap: AccessPoint, public: bool = True) -> None:
    cell = cell_index(ap.location)
    deployment.venue_aps_by_cell.setdefault(cell, []).append(ap.ap_id)
    if public:
        n24, n5 = deployment.public_counts_by_cell.get(cell, (0, 0))
        if ap.band is Band.GHZ_2_4:
            n24 += 1
        else:
            n5 += 1
        deployment.public_counts_by_cell[cell] = (n24, n5)


def _assign_familiar_open_aps(
    deployment: Deployment, profiles: List[UserProfile], rng: np.random.Generator
) -> None:
    """Give engaged users credentials for a couple of open venue networks."""
    open_ids = [
        ap_id for ap_id, ap in deployment.aps.items() if ap.ap_type is APType.OPEN
    ]
    if not open_ids:
        return
    for profile in profiles:
        if profile.wifi_policy is not WifiPolicy.ALWAYS_ON:
            continue
        if rng.random() < 0.6:
            n = int(rng.integers(1, 3))
            picks = rng.choice(open_ids, size=min(n, len(open_ids)), replace=False)
            deployment.familiar_open_aps[profile.user_id] = [int(p) for p in picks]
