"""WiFi network identifiers: BSSIDs, ESSIDs, and public-provider names.

The analysis identifies each AP by its (BSSID, ESSID) pair — the MAC address
of the AP and its network name (§3.4.1) — and classifies public networks by
well-known provider ESSIDs (0000docomo, 0001softbank, eduroam, 7Spot,
Metro Free Wi-Fi, ...).
"""

from __future__ import annotations

import re
from typing import FrozenSet

import numpy as np

from repro.errors import SchemaError

Bssid = str

_BSSID_RE = re.compile(r"^([0-9a-f]{2}:){5}[0-9a-f]{2}$")

#: Well-known public/provider ESSIDs used for classification (§3.4.1). The
#: first three are named in the paper; the rest are the free/commercial
#: providers it cites as examples.
PUBLIC_ESSIDS: FrozenSet[str] = frozenset(
    {
        "0000docomo",
        "0001softbank",
        "eduroam",
        "7spot",
        "metro_free_wi-fi",
        "au_wi-fi",
        "wi2premium",
        "famima_wi-fi",
        "lawson_free_wi-fi",
        "japan_free_wifi",
    }
)

#: FON community ESSIDs: public names that, when used around the clock at a
#: residence, actually indicate a home router (§3.4.1 reclassifies these).
FON_PUBLIC_ESSIDS: FrozenSet[str] = frozenset({"fon_free_internet", "fon"})


def is_valid_bssid(bssid: str) -> bool:
    """Whether ``bssid`` is a well-formed lower-case colon-separated MAC."""
    return bool(_BSSID_RE.match(bssid))


def random_bssid(rng: np.random.Generator) -> Bssid:
    """Generate a random locally-administered unicast BSSID."""
    octets = rng.integers(0, 256, size=6, dtype=np.int64).tolist()
    # Locally administered (bit 1 set), unicast (bit 0 clear).
    octets[0] = (octets[0] | 0x02) & 0xFE
    return bytes(octets).hex(":")


def normalize_essid(essid: str) -> str:
    """Canonical form used for classification (case/space-insensitive)."""
    return essid.strip().lower().replace(" ", "_")


def is_public_essid(essid: str) -> bool:
    """Whether ``essid`` is a well-known public-provider network name."""
    return normalize_essid(essid) in PUBLIC_ESSIDS


def is_fon_public_essid(essid: str) -> bool:
    """Whether ``essid`` is a FON community (public-at-home) network name."""
    return normalize_essid(essid) in FON_PUBLIC_ESSIDS


def bssid_prefix(bssid: str, octets: int = 5) -> str:
    """Leading ``octets`` of a BSSID (shared-hardware radios differ only in
    the trailing octet; §4.3 identifies multi-provider APs this way)."""
    parts = validate_bssid(bssid).split(":")
    if not 1 <= octets <= 6:
        raise SchemaError(f"octets must be 1..6: {octets}")
    return ":".join(parts[:octets])


def sibling_bssid(bssid: str, offset: int) -> Bssid:
    """A BSSID on the same hardware: last octet shifted by ``offset``."""
    parts = validate_bssid(bssid).split(":")
    last = (int(parts[-1], 16) + offset) % 256
    return ":".join(parts[:-1] + [f"{last:02x}"])


def validate_bssid(bssid: str) -> Bssid:
    """Return ``bssid`` lower-cased, raising ``SchemaError`` if malformed."""
    low = bssid.lower()
    if not is_valid_bssid(low):
        raise SchemaError(f"malformed BSSID: {bssid!r}")
    return low
