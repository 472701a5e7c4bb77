"""Network substrate: identifiers, access points, cellular, WiFi primitives."""

from repro.net.identifiers import (
    Bssid,
    random_bssid,
    is_valid_bssid,
    PUBLIC_ESSIDS,
    FON_PUBLIC_ESSIDS,
    is_public_essid,
    is_fon_public_essid,
)
from repro.net.accesspoint import APType, AccessPoint
from repro.net.cellular import CellularTechnology, Carrier, CARRIERS, CellularNetwork
from repro.net.wifi import WifiState

__all__ = [
    "Bssid",
    "random_bssid",
    "is_valid_bssid",
    "PUBLIC_ESSIDS",
    "FON_PUBLIC_ESSIDS",
    "is_public_essid",
    "is_fon_public_essid",
    "APType",
    "AccessPoint",
    "CellularTechnology",
    "Carrier",
    "CARRIERS",
    "CellularNetwork",
    "WifiState",
]
