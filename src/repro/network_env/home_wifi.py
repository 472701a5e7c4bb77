"""Home WiFi routers (§3.4).

Home APs dominate WiFi traffic (95% of volume). Their channel behaviour
evolves across campaigns: in 2013 many home routers sit on the factory
default channel 1; by 2015 auto-selection disperses them (Figure 16). A
small share of home routers broadcast a FON community ESSID, which the
classifier must reclassify from public to home (§3.4.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.geo.coords import Coordinate
from repro.net.accesspoint import AccessPoint, APType
from repro.net.identifiers import random_bssid
from repro.radio.bands import Band
from repro.radio.channels import CHANNELS_5GHZ, ChannelPlanner
from repro.radio.pathloss import PathLossModel, RssiModel


@dataclass(frozen=True)
class HomeWifiConfig:
    """Year knobs for home routers."""

    year: int
    fraction_5ghz: float
    #: Probability a home router still sits on the default channel 1.
    default_channel_share: float
    fon_share: float = 0.02

    def __post_init__(self) -> None:
        for name, v in (
            ("fraction_5ghz", self.fraction_5ghz),
            ("default_channel_share", self.default_channel_share),
            ("fon_share", self.fon_share),
        ):
            if not 0.0 <= v <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1]: {v}")


#: Home association distances: devices sit near their router.
HOME_RSSI = RssiModel(
    tx_power_dbm=16.0,
    path_loss=PathLossModel(exponent=3.0),
    shadowing_sigma_db=3.0,
)


def build_home_ap(
    ap_id: int,
    owner_id: int,
    location: Coordinate,
    config: HomeWifiConfig,
    rng: np.random.Generator,
) -> AccessPoint:
    """Create one user's home router."""
    band = Band.GHZ_5 if rng.random() < config.fraction_5ghz else Band.GHZ_2_4
    if band is Band.GHZ_2_4:
        planner = ChannelPlanner(mode="auto", default_share=config.default_channel_share)
        channel = planner.assign(rng)
    else:
        channel = CHANNELS_5GHZ[int(rng.integers(0, len(CHANNELS_5GHZ)))]
    if rng.random() < config.fon_share:
        essid = "FON_FREE_INTERNET"
    else:
        essid = f"home-{owner_id:05d}-{int(rng.integers(0, 100)):02d}"
    return AccessPoint(
        ap_id=ap_id,
        bssid=random_bssid(rng),
        essid=essid,
        band=band,
        channel=channel,
        location=location,
        ap_type=APType.HOME,
        rssi_model=HOME_RSSI,
        coverage_m=60.0,
    )
