"""WiFi device-side interface state.

Android reports non-associated (scanned) APs as well as the associated one
when the interface is on; iOS reports only the associated AP (§2). The
three Android interface states of §3.3.4 — WiFi-user, WiFi-off,
WiFi-available — map onto :class:`WifiState`.
"""

from __future__ import annotations

import enum


class WifiState(enum.Enum):
    """Device WiFi interface state (§3.3.4)."""

    OFF = "off"  # interface explicitly turned off
    AVAILABLE = "available"  # interface on, not associated
    ASSOCIATED = "associated"  # connected to an AP

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value
