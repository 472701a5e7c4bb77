"""Recruitment: build the per-campaign participant panel (§2, Tables 1-2).

Each campaign recruited an independent panel in proportion to carrier market
share, with the Table 2 occupation mix, plus a small number of non-recruited
users who installed the app from the stores. Year-over-year behavioural
shifts (home-AP ownership, WiFi policy, public-WiFi enrollment) are expressed
as :class:`RecruitmentConfig` parameters.

WiFi policy is conditioned on home-AP ownership: nearly everyone who owns a
home router uses it (Table 8: ~70-78% connect at home), so the off/no-config
population concentrates among non-owners.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.apps.demand import DemandModel
from repro.errors import ConfigurationError
from repro.geo.coords import Coordinate
from repro.geo.places import PLACES
from repro.net.cellular import assign_technology, pick_carrier
from repro.population.demographics import Occupation, sample_occupation
from repro.population.profiles import UserProfile, WifiPolicy
from repro.traces.records import DeviceOS

#: Residential anchors and weights: homes scatter around the whole region.
_HOME_ANCHORS = (
    ("saitama", 0.14), ("chiba", 0.12), ("yokohama", 0.16), ("kawasaki", 0.10),
    ("funabashi", 0.10), ("hachioji", 0.09), ("tokyo", 0.15),
    ("odawara", 0.05), ("yokosuka", 0.05), ("narita", 0.04),
)

#: Office anchors: strongly downtown (Shinjuku/Shibuya/Tokyo).
_OFFICE_ANCHORS = (
    ("shinjuku", 0.30), ("shibuya", 0.22), ("tokyo", 0.28),
    ("yokohama", 0.12), ("kawasaki", 0.08),
)

PolicyMix = Dict[WifiPolicy, float]


@dataclass
class RecruitmentConfig:
    """Panel composition for one campaign year."""

    year: int
    n_android: int
    n_ios: int
    lte_share: float
    home_ap_share: float
    office_ap_share: float = 0.12
    public_enrolled_share: float = 0.40
    #: Share of home-AP owners who disabled cellular data (WiFi-intensive).
    data_off_share: float = 0.14
    mobile_ap_share: float = 0.03
    non_recruited_share: float = 0.03
    #: WiFi policy mixes keyed (os, "owner"/"nonowner"). Defaults are the
    #: Figure 9 calibration.
    policy_mix: Dict[str, Dict[str, PolicyMix]] = field(default_factory=dict)
    home_scatter_km: float = 6.0
    office_scatter_km: float = 3.0

    def __post_init__(self) -> None:
        if self.n_android < 0 or self.n_ios < 0:
            raise ConfigurationError("panel sizes must be >= 0")
        for name, value in (
            ("lte_share", self.lte_share),
            ("home_ap_share", self.home_ap_share),
            ("office_ap_share", self.office_ap_share),
            ("public_enrolled_share", self.public_enrolled_share),
            ("data_off_share", self.data_off_share),
            ("mobile_ap_share", self.mobile_ap_share),
            ("non_recruited_share", self.non_recruited_share),
        ):
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1]: {value}")
        if not self.policy_mix:
            self.policy_mix = default_policy_mix(self.year)
        for os_name, groups in self.policy_mix.items():
            for group, mix in groups.items():
                total = sum(mix.values())
                if not 0.99 < total < 1.01:
                    raise ConfigurationError(
                        f"policy mix {os_name}/{group} must sum to 1, got {total}"
                    )

    @property
    def n_total(self) -> int:
        return self.n_android + self.n_ios


def default_policy_mix(year: int) -> Dict[str, Dict[str, PolicyMix]]:
    """Year-appropriate WiFi policy mixes (calibrated to Figure 9).

    Owners overwhelmingly use their home router; the daytime-off habit eases
    from ~50% (2013) to ~40% (2015) of Android users; a stable quarter of
    the Android panel shows as WiFi-available (on, never associated). iOS
    panels connect ~30% more.
    """
    android = {
        2013: {
            "owner": {WifiPolicy.ALWAYS_ON: 0.38, WifiPolicy.DAYTIME_OFF: 0.52,
                      WifiPolicy.ALWAYS_OFF: 0.04, WifiPolicy.NO_CONFIG: 0.06},
            "nonowner": {WifiPolicy.ALWAYS_ON: 0.25, WifiPolicy.DAYTIME_OFF: 0.05,
                         WifiPolicy.ALWAYS_OFF: 0.15, WifiPolicy.NO_CONFIG: 0.55},
        },
        2014: {
            "owner": {WifiPolicy.ALWAYS_ON: 0.44, WifiPolicy.DAYTIME_OFF: 0.47,
                      WifiPolicy.ALWAYS_OFF: 0.03, WifiPolicy.NO_CONFIG: 0.06},
            "nonowner": {WifiPolicy.ALWAYS_ON: 0.22, WifiPolicy.DAYTIME_OFF: 0.05,
                         WifiPolicy.ALWAYS_OFF: 0.17, WifiPolicy.NO_CONFIG: 0.56},
        },
        2015: {
            "owner": {WifiPolicy.ALWAYS_ON: 0.50, WifiPolicy.DAYTIME_OFF: 0.42,
                      WifiPolicy.ALWAYS_OFF: 0.02, WifiPolicy.NO_CONFIG: 0.06},
            "nonowner": {WifiPolicy.ALWAYS_ON: 0.24, WifiPolicy.DAYTIME_OFF: 0.05,
                         WifiPolicy.ALWAYS_OFF: 0.13, WifiPolicy.NO_CONFIG: 0.58},
        },
    }
    ios = {
        2013: {
            "owner": {WifiPolicy.ALWAYS_ON: 0.62, WifiPolicy.DAYTIME_OFF: 0.32,
                      WifiPolicy.ALWAYS_OFF: 0.02, WifiPolicy.NO_CONFIG: 0.04},
            "nonowner": {WifiPolicy.ALWAYS_ON: 0.25, WifiPolicy.DAYTIME_OFF: 0.05,
                         WifiPolicy.ALWAYS_OFF: 0.25, WifiPolicy.NO_CONFIG: 0.45},
        },
        2014: {
            "owner": {WifiPolicy.ALWAYS_ON: 0.67, WifiPolicy.DAYTIME_OFF: 0.28,
                      WifiPolicy.ALWAYS_OFF: 0.02, WifiPolicy.NO_CONFIG: 0.03},
            "nonowner": {WifiPolicy.ALWAYS_ON: 0.28, WifiPolicy.DAYTIME_OFF: 0.05,
                         WifiPolicy.ALWAYS_OFF: 0.23, WifiPolicy.NO_CONFIG: 0.44},
        },
        2015: {
            "owner": {WifiPolicy.ALWAYS_ON: 0.72, WifiPolicy.DAYTIME_OFF: 0.24,
                      WifiPolicy.ALWAYS_OFF: 0.01, WifiPolicy.NO_CONFIG: 0.03},
            "nonowner": {WifiPolicy.ALWAYS_ON: 0.32, WifiPolicy.DAYTIME_OFF: 0.05,
                         WifiPolicy.ALWAYS_OFF: 0.21, WifiPolicy.NO_CONFIG: 0.42},
        },
    }
    if year not in android:
        raise ConfigurationError(f"no default policy mix for year {year}")
    return {"android": android[year], "ios": ios[year]}


def _scatter(anchor: Coordinate, scatter_km: float, rng: np.random.Generator) -> Coordinate:
    """Gaussian scatter around an anchor, in degrees (approx for Tokyo lat)."""
    dlat = rng.normal(0.0, scatter_km / 111.0)
    dlon = rng.normal(0.0, scatter_km / 91.0)
    lat = float(min(max(anchor.lat + dlat, -89.0), 89.0))
    lon = float(min(max(anchor.lon + dlon, -179.0), 179.0))
    return Coordinate(lat, lon)


def _pick_anchor(anchors, rng: np.random.Generator) -> Coordinate:
    names = [a[0] for a in anchors]
    weights = np.array([a[1] for a in anchors])
    idx = int(rng.choice(len(names), p=weights / weights.sum()))
    return PLACES[names[idx]]


def _sample_policy(mix: PolicyMix, rng: np.random.Generator) -> WifiPolicy:
    policies = list(mix)
    probs = np.array([mix[p] for p in policies])
    return policies[int(rng.choice(len(policies), p=probs / probs.sum()))]


def recruit(
    config: RecruitmentConfig,
    demand: DemandModel,
    rng: np.random.Generator,
) -> List[UserProfile]:
    """Build the full participant panel for one campaign."""
    profiles: List[UserProfile] = []
    os_plan = [DeviceOS.ANDROID] * config.n_android + [DeviceOS.IOS] * config.n_ios
    for user_id, os_kind in enumerate(os_plan):
        occupation = sample_occupation(config.year, rng)
        carrier = pick_carrier(rng)
        technology = assign_technology(config.lte_share, carrier, rng)
        home = _scatter(_pick_anchor(_HOME_ANCHORS, rng), config.home_scatter_km, rng)
        needs_office = occupation in (
            Occupation.GOVERNMENT, Occupation.OFFICE, Occupation.ENGINEER,
            Occupation.WORKER_OTHER, Occupation.PROFESSIONAL, Occupation.STUDENT,
        )
        office: Optional[Coordinate] = None
        if needs_office:
            office = _scatter(
                _pick_anchor(_OFFICE_ANCHORS, rng), config.office_scatter_km, rng
            )
        has_home_ap = rng.random() < config.home_ap_share
        os_key = "android" if os_kind is DeviceOS.ANDROID else "ios"
        group = "owner" if has_home_ap else "nonowner"
        policy = _sample_policy(config.policy_mix[os_key][group], rng)
        office_has_ap = bool(office is not None and rng.random() < config.office_ap_share)
        data_off = (
            has_home_ap
            and policy in (WifiPolicy.ALWAYS_ON, WifiPolicy.DAYTIME_OFF)
            and rng.random() < config.data_off_share
        )
        profiles.append(
            UserProfile(
                user_id=user_id,
                os=os_kind,
                carrier=carrier,
                technology=technology,
                occupation=occupation,
                home=home,
                office=office,
                has_home_ap=has_home_ap,
                office_has_ap=office_has_ap,
                wifi_policy=policy,
                public_enrolled=rng.random() < config.public_enrolled_share,
                cellular_data_off=data_off,
                appetite_bytes=demand.sample_appetite_bytes(rng),
                mix=demand.sample_mix(rng),
                has_mobile_ap=rng.random() < config.mobile_ap_share,
                commute_public_exposure=float(rng.beta(2.0, 2.0)),
                home_cell_leak=float(rng.beta(1.0, 1.25)),
                binge_propensity=float(np.exp(rng.normal(0.0, 1.0))),
                recruited=rng.random() >= config.non_recruited_share,
            )
        )
    return profiles
