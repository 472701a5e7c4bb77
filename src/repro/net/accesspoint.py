"""Access-point model.

An :class:`AccessPoint` carries everything the radio environment needs to
present a network to a device: identifiers, band, channel and location.
The kernel draws RSSI from its own per-type models. ``ap_type`` is the
*ground-truth* deployment category, which the analysis never reads —
analyses must infer home/public/office from behaviour (§3.4.1); ground
truth exists so tests can score the inference.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.geo.coords import Coordinate
from repro.net.identifiers import Bssid, validate_bssid
from repro.radio.bands import Band
from repro.radio.channels import CHANNELS_24GHZ, CHANNELS_5GHZ


class APType(enum.Enum):
    """Ground-truth deployment category of an AP."""

    HOME = "home"
    PUBLIC = "public"
    OFFICE = "office"
    MOBILE = "mobile"
    OPEN = "open"  # shops / hotels, classified as "other" by the paper

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class AccessPoint:
    """One WiFi access point in the simulated environment."""

    ap_id: int
    bssid: Bssid
    essid: str
    band: Band
    channel: int
    location: Coordinate
    ap_type: APType

    def __post_init__(self) -> None:
        object.__setattr__(self, "bssid", validate_bssid(self.bssid))
        valid = CHANNELS_24GHZ if self.band is Band.GHZ_2_4 else CHANNELS_5GHZ
        if self.channel not in valid:
            raise ConfigurationError(
                f"channel {self.channel} invalid for band {self.band}"
            )
