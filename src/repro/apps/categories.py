"""The 26 Google Play application categories (§3.6).

The paper groups popular applications into 26 Google Play categories and
reports the top five by traffic volume per network/location context
(Tables 6, 7). Each :class:`AppCategory` here carries the behavioural
parameters the demand model needs:

- ``weight``: baseline share of a user's traffic volume.
- ``rx_tx_ratio``: download bytes per upload byte (video is download-heavy,
  productivity/online-storage is upload-heavy).
- ``wifi_affinity``: demand multiplier when the device is on WiFi; >1 means
  users do more of this on free/rich networks (video), 0 means strictly
  WiFi-conditional transfers exist elsewhere (handled by ``wifi_only``).
- ``wifi_only``: the app moves bulk data only when WiFi is available
  (online file storage; §3.6 "uploads/downloads large files only if a WiFi
  interface is available").
- ``year_growth``: per-campaign-year demand multiplier (video and
  downloading grow sharply across 2013-2015).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class AppCategory:
    """One Google Play application category and its traffic behaviour."""

    code: int
    name: str
    label: str
    weight: float
    rx_tx_ratio: float = 5.0
    wifi_affinity: float = 1.0
    wifi_only: bool = False
    year_growth: Tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ConfigurationError(f"negative weight for {self.name}")
        if self.rx_tx_ratio <= 0:
            raise ConfigurationError(f"rx_tx_ratio must be > 0 for {self.name}")

    def growth(self, year_index: int) -> float:
        """Demand multiplier for campaign ``year_index`` (0=2013)."""
        if not 0 <= year_index < len(self.year_growth):
            raise ConfigurationError(f"bad year index {year_index}")
        return self.year_growth[year_index]


#: All 26 categories. Weights are baseline volume shares (they need not sum
#: to 1; the demand model normalizes). Short ``label`` strings match the
#: abbreviations used in Tables 6 and 7.
CATEGORIES: Tuple[AppCategory, ...] = (
    AppCategory(0, "browser", "brows.", 0.30, rx_tx_ratio=6.0),
    AppCategory(1, "social", "social", 0.075, rx_tx_ratio=2.0),
    AppCategory(2, "video", "video", 0.085, rx_tx_ratio=14.0,
                wifi_affinity=3.0, year_growth=(1.0, 2.6, 3.6)),
    AppCategory(3, "communication", "comm.", 0.075, rx_tx_ratio=2.2),
    AppCategory(4, "news", "news", 0.045, rx_tx_ratio=8.0),
    AppCategory(5, "game", "game", 0.035, rx_tx_ratio=4.0,
                year_growth=(1.0, 1.4, 1.8)),
    AppCategory(6, "music", "music", 0.02, rx_tx_ratio=10.0),
    AppCategory(7, "travel", "travel", 0.012, rx_tx_ratio=6.0),
    AppCategory(8, "shopping", "shop.", 0.018, rx_tx_ratio=6.0),
    AppCategory(9, "downloading", "dload", 0.02, rx_tx_ratio=20.0,
                wifi_affinity=3.5, year_growth=(1.0, 4.0, 5.0)),
    AppCategory(10, "entertainment", "entm.", 0.015, rx_tx_ratio=5.0),
    AppCategory(11, "tools", "tools", 0.012, rx_tx_ratio=3.0),
    AppCategory(12, "productivity", "prod.", 0.02, rx_tx_ratio=0.8,
                wifi_only=True, year_growth=(1.0, 2.2, 2.4)),
    AppCategory(13, "lifestyle", "life", 0.025, rx_tx_ratio=5.0,
                year_growth=(1.0, 1.5, 1.6)),
    AppCategory(14, "health", "health", 0.01, rx_tx_ratio=4.0,
                year_growth=(1.0, 1.8, 1.6)),
    AppCategory(15, "business", "busi", 0.008, rx_tx_ratio=1.5,
                year_growth=(1.0, 1.3, 1.8)),
    AppCategory(16, "books", "books", 0.008, rx_tx_ratio=12.0),
    AppCategory(17, "education", "edu", 0.006, rx_tx_ratio=6.0),
    AppCategory(18, "finance", "fin", 0.006, rx_tx_ratio=4.0),
    AppCategory(19, "food", "food", 0.006, rx_tx_ratio=6.0),
    AppCategory(20, "maps", "maps", 0.012, rx_tx_ratio=5.0),
    AppCategory(21, "medical", "med", 0.003, rx_tx_ratio=4.0),
    AppCategory(22, "personalization", "pers", 0.005, rx_tx_ratio=8.0),
    AppCategory(23, "photography", "photo", 0.01, rx_tx_ratio=1.2),
    AppCategory(24, "sports", "sports", 0.006, rx_tx_ratio=7.0),
    AppCategory(25, "weather", "weather", 0.005, rx_tx_ratio=9.0),
)

CATEGORY_BY_NAME: Dict[str, AppCategory] = {c.name: c for c in CATEGORIES}

_CODE_TO_CATEGORY: Dict[int, AppCategory] = {c.code: c for c in CATEGORIES}

if len(CATEGORIES) != 26:  # pragma: no cover - structural guard
    raise ConfigurationError("the paper defines 26 categories")


def category_name(code: int) -> str:
    """Category name for ``code``; raises on unknown codes."""
    try:
        return _CODE_TO_CATEGORY[code].name
    except KeyError:
        raise ConfigurationError(f"unknown app category code: {code}") from None


def category(code: int) -> AppCategory:
    """Category object for ``code``."""
    try:
        return _CODE_TO_CATEGORY[code]
    except KeyError:
        raise ConfigurationError(f"unknown app category code: {code}") from None
