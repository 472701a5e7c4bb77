"""Per-user application demand: appetite, category mix, WiFi uplift.

The demand model answers three questions for the simulator:

1. How much does this user want to transfer per day (appetite)? Daily user
   volume is highly skewed (§3.2: the top heavy hitter downloaded 11 GB in a
   day while the median was tens of MB) — appetite is log-normal.
2. How is a day's volume split across the 26 categories, given the network
   context? On WiFi, high-affinity categories (video, downloading) take a
   larger share and WiFi-only categories (productivity/online storage)
   appear at all (§3.6).
3. How much extra demand does WiFi unlock (uplift)? Users on free networks
   run bandwidth-consuming applications they suppress on cellular.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.categories import CATEGORIES, AppCategory
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CategoryMix:
    """One user's category taste: a weight per category (sums to 1)."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.weights.shape != (len(CATEGORIES),):
            raise ConfigurationError(
                f"mix must have {len(CATEGORIES)} weights, got {self.weights.shape}"
            )
        if (self.weights < 0).any():
            raise ConfigurationError("mix weights must be non-negative")
        total = float(self.weights.sum())
        if not 0.99 < total < 1.01:
            raise ConfigurationError(f"mix weights must sum to 1, got {total}")

    def context_shares(self, on_wifi: bool) -> np.ndarray:
        """Volume share per category for a network context.

        On cellular, WiFi-only categories get zero share; on WiFi every
        category's weight is scaled by its affinity.
        """
        shares = self.weights.copy()
        for cat in CATEGORIES:
            if on_wifi:
                shares[cat.code] *= cat.wifi_affinity
            elif cat.wifi_only:
                shares[cat.code] = 0.0
        total = shares.sum()
        if total <= 0:
            raise ConfigurationError("degenerate category mix")
        return shares / total


_RX_TX = np.array([c.rx_tx_ratio for c in CATEGORIES])
_BASE_WEIGHTS = np.array([c.weight for c in CATEGORIES])


class DemandModel:
    """Year-parameterized application-demand generator.

    Parameters
    ----------
    year_index:
        0 for the 2013 campaign, 1 for 2014, 2 for 2015. Scales appetite and
        per-category growth.
    appetite_median_mb:
        Median daily demand (MB) a user *would* transfer with unconstrained
        connectivity. Grows by year (Table 3).
    appetite_sigma:
        Log-normal sigma of the across-user appetite distribution.
    wifi_uplift:
        Extra demand multiplier when a slot is on WiFi.
    """

    def __init__(
        self,
        year_index: int,
        appetite_median_mb: float,
        appetite_sigma: float = 1.1,
        wifi_uplift: float = 1.8,
    ) -> None:
        if year_index not in (0, 1, 2):
            raise ConfigurationError(f"year_index must be 0..2: {year_index}")
        if appetite_median_mb <= 0:
            raise ConfigurationError("appetite median must be positive")
        if appetite_sigma <= 0:
            raise ConfigurationError("appetite sigma must be positive")
        if wifi_uplift < 1.0:
            raise ConfigurationError("wifi uplift must be >= 1")
        self.year_index = year_index
        self.appetite_median_mb = appetite_median_mb
        self.appetite_sigma = appetite_sigma
        self.wifi_uplift = wifi_uplift
        growth = np.array([c.growth(year_index) for c in CATEGORIES])
        self._year_weights = _BASE_WEIGHTS * growth
        self._year_weights /= self._year_weights.sum()

    def sample_appetite_bytes(self, rng: np.random.Generator) -> float:
        """Daily demand (bytes) for one user: log-normal across users."""
        mb = self.appetite_median_mb * float(
            np.exp(rng.normal(0.0, self.appetite_sigma))
        )
        return mb * 1e6

    def sample_mix(self, rng: np.random.Generator) -> CategoryMix:
        """One user's category taste: Dirichlet around the year weights."""
        concentration = self._year_weights * 30.0 + 1e-3
        weights = rng.dirichlet(concentration)
        return CategoryMix(weights)

    def tx_fraction(self, mix: CategoryMix, on_wifi: bool) -> float:
        """Expected TX bytes per RX byte in a context, from the mix."""
        shares = mix.context_shares(on_wifi)
        return float((shares / _RX_TX).sum())


def default_category(code: int) -> AppCategory:
    """Convenience re-export used by tests."""
    return CATEGORIES[code]
