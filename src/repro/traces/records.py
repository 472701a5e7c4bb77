"""Record types of the measurement schema (§2).

The measurement software records, every 10 minutes: byte counts per network
interface, application traffic (Android), WiFi association and scan results
(scans on Android only), coarse geolocation, and device information. The
columnar :class:`~repro.traces.dataset.CampaignDataset` stores those records
as arrays; this module holds the enums that code their fields, the
enrollment record :class:`DeviceInfo` and the AP directory entry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import SchemaError
from repro.net.cellular import CellularTechnology
from repro.radio.bands import Band


class IfaceKind(enum.IntEnum):
    """Network interface a byte counter belongs to."""

    CELL_3G = 0
    CELL_LTE = 1
    WIFI = 2

    @property
    def is_cellular(self) -> bool:
        return self in (IfaceKind.CELL_3G, IfaceKind.CELL_LTE)

    @classmethod
    def from_technology(cls, tech: CellularTechnology) -> "IfaceKind":
        if tech is CellularTechnology.LTE:
            return cls.CELL_LTE
        return cls.CELL_3G


class WifiStateCode(enum.IntEnum):
    """WiFi interface state in an observation (§3.3.4).

    ``UNKNOWN`` covers iOS when not associated: iOS only reports the
    associated AP, so off/available cannot be distinguished (§2).
    """

    OFF = 0
    AVAILABLE = 1
    ASSOCIATED = 2
    UNKNOWN = 3


class NetLocation(enum.IntEnum):
    """Network-and-place context used by the application breakdown (§3.6)."""

    CELL_HOME = 0
    CELL_OTHER = 1
    WIFI_HOME = 2
    WIFI_PUBLIC = 3
    WIFI_OFFICE = 4
    WIFI_OTHER = 5

    @property
    def label(self) -> str:
        return {
            NetLocation.CELL_HOME: "Cell home",
            NetLocation.CELL_OTHER: "Cell other",
            NetLocation.WIFI_HOME: "WiFi home",
            NetLocation.WIFI_PUBLIC: "WiFi public",
            NetLocation.WIFI_OFFICE: "WiFi office",
            NetLocation.WIFI_OTHER: "WiFi other",
        }[self]


class DeviceOS(enum.Enum):
    """Smartphone operating system."""

    ANDROID = "android"
    IOS = "ios"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class DeviceInfo:
    """Static per-device information recorded at enrollment.

    ``device_id`` is the unique random identifier the software generates; it
    is the only user identity in the dataset (§2).
    """

    device_id: int
    os: DeviceOS
    carrier: str
    technology: CellularTechnology
    recruited: bool = True
    occupation: str = "other"

    def __post_init__(self) -> None:
        if self.device_id < 0:
            raise SchemaError(f"device_id must be >= 0: {self.device_id}")


#: Mean packet sizes used to estimate packet counters from byte counts
#: (download MTU-sized, upload dominated by ACKs and small requests).
MEAN_RX_PACKET_BYTES = 1200.0
MEAN_TX_PACKET_BYTES = 400.0


@dataclass(frozen=True)
class ApDirectoryEntry:
    """Attributes of an AP observable by devices (identity + radio)."""

    ap_id: int
    bssid: str
    essid: str
    band: Band
    channel: int
