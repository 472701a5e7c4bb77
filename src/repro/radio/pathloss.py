"""Log-distance path-loss and RSSI models.

The paper reports received signal strength (RSSI) distributions for
associated home and public APs (Figure 15): home networks form a bell shape
around -54 dBm, public networks shift to about -60 dBm with a 12% tail below
-70 dBm. We model RSSI as transmit power minus log-distance path loss plus
log-normal shadowing, which produces exactly this family of bell-shaped dBm
distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.radio.bands import Band

#: Free-space path loss at 1 m for 2.4 GHz (dB), from FSPL formula.
_FSPL_1M_24 = 40.05
_FSPL_1M_5 = 46.4


@dataclass(frozen=True)
class PathLossModel:
    """Log-distance path loss: ``PL(d) = PL(d0) + 10 n log10(d/d0)``.

    Parameters
    ----------
    exponent:
        Path-loss exponent ``n``; ~2 free space, 3-4 indoors through walls.
    reference_db:
        Loss at the 1 m reference distance. Defaults per band.
    """

    exponent: float = 3.0
    reference_db: float = _FSPL_1M_24

    def __post_init__(self) -> None:
        if self.exponent <= 0:
            raise ConfigurationError(f"path-loss exponent must be > 0: {self.exponent}")

    @classmethod
    def for_band(cls, band: Band, exponent: float = 3.0) -> "PathLossModel":
        """Model with the band-appropriate 1 m reference loss."""
        ref = _FSPL_1M_24 if band is Band.GHZ_2_4 else _FSPL_1M_5
        return cls(exponent=exponent, reference_db=ref)

    def loss_db(self, distance_m: float) -> float:
        """Path loss in dB at ``distance_m`` (clamped to the 1 m reference)."""
        d = max(distance_m, 1.0)
        return self.reference_db + 10.0 * self.exponent * math.log10(d)


@dataclass(frozen=True)
class RssiModel:
    """RSSI = tx power - path loss + log-normal shadowing.

    ``sample`` draws one RSSI observation; ``mean_rssi`` is the deterministic
    component. RSSI is clamped to a plausible receiver range.
    """

    tx_power_dbm: float = 15.0
    path_loss: PathLossModel = PathLossModel()
    shadowing_sigma_db: float = 4.0
    floor_dbm: float = -95.0
    ceiling_dbm: float = -20.0

    def __post_init__(self) -> None:
        if self.shadowing_sigma_db < 0:
            raise ConfigurationError(
                f"shadowing sigma must be >= 0: {self.shadowing_sigma_db}"
            )
        if self.floor_dbm >= self.ceiling_dbm:
            raise ConfigurationError("RSSI floor must be below ceiling")

    def mean_rssi(self, distance_m: float) -> float:
        """Deterministic RSSI (no shadowing) at ``distance_m``."""
        rssi = self.tx_power_dbm - self.path_loss.loss_db(distance_m)
        return float(min(max(rssi, self.floor_dbm), self.ceiling_dbm))

    def sample(self, distance_m: float, rng: np.random.Generator) -> float:
        """One shadowed RSSI observation at ``distance_m``."""
        rssi = (
            self.tx_power_dbm
            - self.path_loss.loss_db(distance_m)
            + rng.normal(0.0, self.shadowing_sigma_db)
        )
        return float(min(max(rssi, self.floor_dbm), self.ceiling_dbm))

    def sample_many(
        self, distances_m: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Vectorized :meth:`sample` over an array of distances."""
        d = np.maximum(np.asarray(distances_m, dtype=float), 1.0)
        loss = self.path_loss.reference_db + 10.0 * self.path_loss.exponent * np.log10(d)
        rssi = self.tx_power_dbm - loss + rng.normal(0.0, self.shadowing_sigma_db, d.shape)
        return np.clip(rssi, self.floor_dbm, self.ceiling_dbm)
