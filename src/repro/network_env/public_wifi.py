"""Public WiFi provider networks (§1, §3.4.1, §3.5).

Cellular providers deploy free APs for their customers (0000docomo,
0001softbank, au_Wi-Fi) with SIM-based authentication since 2013 (§4.2);
free/commercial providers (7Spot, Metro Free Wi-Fi, Wi2) and eduroam round
out the well-known public ESSIDs the classifier keys on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: (essid, deployment weight, carrier restriction or None).
PROVIDER_ESSIDS: Tuple[Tuple[str, float, Optional[str]], ...] = (
    ("0000docomo", 0.28, "docomo"),
    ("0001softbank", 0.22, "softbank"),
    ("au_Wi-Fi", 0.16, "au"),
    ("7SPOT", 0.10, None),
    ("Metro_Free_Wi-Fi", 0.08, None),
    ("Wi2premium", 0.08, None),
    ("Famima_Wi-Fi", 0.04, None),
    ("LAWSON_Free_Wi-Fi", 0.03, None),
    ("Japan_Free_WiFi", 0.01, None),
)


@dataclass(frozen=True)
class PublicWifiConfig:
    """Year knobs for the public deployment.

    ``n_aps`` sizes the deployed universe (the dataset only ever sees the
    subset users detect/associate with); ``fraction_5ghz`` tracks the
    aggressive 5 GHz rollout in public spaces (Figure 14);
    ``open_venue_share`` is the share of venue APs that are shop/hotel open
    networks rather than well-known providers (classified "other" by §3.4.1).
    """

    year: int
    n_aps: int
    fraction_5ghz: float
    open_venue_share: float = 0.06
    sim_auth: bool = True
    #: Share of public APs deployed as multi-provider hardware announcing
    #: several ESSIDs from sibling BSSIDs (§4.3).
    shared_infra_fraction: float = 0.10

    def __post_init__(self) -> None:
        if self.n_aps < 0:
            raise ConfigurationError(f"n_aps must be >= 0: {self.n_aps}")
        if not 0.0 <= self.fraction_5ghz <= 1.0:
            raise ConfigurationError("fraction_5ghz must be in [0, 1]")
        if not 0.0 <= self.open_venue_share <= 1.0:
            raise ConfigurationError("open_venue_share must be in [0, 1]")
        if not 0.0 <= self.shared_infra_fraction <= 1.0:
            raise ConfigurationError("shared_infra_fraction must be in [0, 1]")


#: ``rng.choice(n, p=_PROVIDER_P)``'s CDF, built once: searchsorted of one
#: ``rng.random()`` is the same pick from the same stream.
_PROVIDER_WEIGHTS = np.array([w for _, w, _ in PROVIDER_ESSIDS])
_PROVIDER_P = _PROVIDER_WEIGHTS / _PROVIDER_WEIGHTS.sum()
_PROVIDER_CDF = _PROVIDER_P.cumsum() / _PROVIDER_P.cumsum()[-1]
_VENUE_KINDS = ("cafe", "hotel", "shop", "restaurant")


def provider_essid_for(rng: np.random.Generator) -> Tuple[str, Optional[str]]:
    """Sample a provider ESSID; returns (essid, carrier restriction)."""
    idx = int(_PROVIDER_CDF.searchsorted(rng.random(), side="right"))
    essid, _, carrier = PROVIDER_ESSIDS[idx]
    return essid, carrier


def open_venue_essid(rng: np.random.Generator) -> str:
    """An open shop/hotel network name (not in the public-provider list)."""
    kind = _VENUE_KINDS[int(rng.integers(0, len(_VENUE_KINDS)))]
    return f"{kind}-guest-{int(rng.integers(0, 10000)):04d}"
