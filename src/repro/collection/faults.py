"""Fault model for the collection pipeline.

Real crowd-sourced campaigns lose data: uploads fail in cellular coverage
holes, the backend has outages, participants stop reporting mid-campaign
(the recruited-vs-valid gap of Table 1), retransmissions deliver the same
batch twice, and on-device caches are bounded. A :class:`FaultPlan`
describes all of that declaratively;
:func:`~repro.collection.uploader.replay_uploads` applies it to each
device's upload batches; and the per-device accounting rolls up into a
:class:`CollectionReport`.

A plan with every knob at zero (:meth:`FaultPlan.zero`) is guaranteed to be
lossless: routing a campaign through the collection pipeline with it yields
a dataset bit-identical to the kernel's output frozen without the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.net.cellular import CellularTechnology


@dataclass(frozen=True)
class OutageWindow:
    """A sustained server/backhaul outage over ``[start_slot, end_slot)``."""

    start_slot: int
    end_slot: int

    def __post_init__(self) -> None:
        if self.start_slot < 0 or self.end_slot <= self.start_slot:
            raise ConfigurationError(
                f"outage window must satisfy 0 <= start < end: "
                f"[{self.start_slot}, {self.end_slot})"
            )

    def covers(self, t: int) -> bool:
        return self.start_slot <= t < self.end_slot


@dataclass(frozen=True)
class FaultPlan:
    """Configurable faults injected into the collection pipeline.

    All probabilities are per-event (per upload attempt, per device, per
    delivered batch). Invalid values raise :class:`ConfigurationError` — a
    configuration mistake is not an upload failure.
    """

    #: Per-attempt upload failure probability (cellular coverage holes).
    upload_failure_p: float = 0.0

    #: Extra failure probability for 3G devices — older radios see worse
    #: coverage, making loss technology-dependent.
    upload_failure_p_3g_extra: float = 0.0

    #: Sustained outage windows during which every upload attempt fails.
    outages: Tuple[OutageWindow, ...] = ()

    #: Per-device probability of dropping out mid-campaign (churn): the user
    #: uninstalls or the device dies, and reporting stops for good.
    dropout_p: float = 0.0

    #: Dropouts happen no earlier than this fraction of the campaign.
    dropout_min_frac: float = 0.1

    #: Probability a successfully delivered batch is delivered a second time
    #: (retransmission race) — exercises server-side deduplication.
    duplicate_p: float = 0.0

    #: On-device cache bound, in batches; overflow evicts oldest-first.
    max_cache_batches: int = 4096

    #: Flush rounds attempted at campaign end to empty device caches.
    final_drain_rounds: int = 8

    #: Decorrelates fault randomness from the behavioural simulation.
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("upload_failure_p", "upload_failure_p_3g_extra",
                     "dropout_p", "dropout_min_frac", "duplicate_p"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1]: {value}")
        if self.max_cache_batches < 1:
            raise ConfigurationError(
                f"max_cache_batches must be >= 1: {self.max_cache_batches}"
            )
        if self.final_drain_rounds < 0:
            raise ConfigurationError(
                f"final_drain_rounds must be >= 0: {self.final_drain_rounds}"
            )
        object.__setattr__(self, "outages", tuple(self.outages))
        for window in self.outages:
            if not isinstance(window, OutageWindow):
                raise ConfigurationError(
                    f"outages must contain OutageWindow objects: {window!r}"
                )

    @classmethod
    def zero(cls) -> "FaultPlan":
        """The lossless plan: the pipeline runs but nothing can be lost."""
        return cls()

    @property
    def is_zero(self) -> bool:
        """True when no fault of any kind can occur under this plan."""
        return (
            self.upload_failure_p == 0.0
            and self.upload_failure_p_3g_extra == 0.0
            and not self.outages
            and self.dropout_p == 0.0
            and self.duplicate_p == 0.0
        )

    def failure_p(self, technology: CellularTechnology) -> float:
        """Effective per-attempt failure probability for a device."""
        p = self.upload_failure_p
        if technology is not CellularTechnology.LTE:
            p += self.upload_failure_p_3g_extra
        return min(1.0, p)


@dataclass
class DeviceCollectionStats:
    """Per-device accounting of one campaign's collection.

    Conservation invariant: ``ticks == churned + uploaded`` and
    ``uploaded == delivered + dropped + cached``.
    """

    device_id: int
    #: Upload batches the device generated (one per reporting tick).
    ticks: int
    #: Slot the device stopped reporting at, or None.
    churn_slot: Optional[int]
    #: Batches never uploaded because the device had churned.
    churned: int
    #: Batches the device tried to upload.
    uploaded: int
    #: Batches the server received exactly once.
    delivered: int
    #: Duplicate deliveries the server had to drop.
    duplicates: int
    #: Batches evicted from the bounded on-device cache (lost).
    dropped: int
    #: Batches still cached when the campaign ended (never delivered).
    cached: int

    @property
    def completeness(self) -> float:
        """Fraction of generated batches that reached the server."""
        if self.ticks == 0:
            return 1.0
        return self.delivered / self.ticks


@dataclass
class CollectionReport:
    """Campaign-level view of what the collection pipeline delivered."""

    n_slots: int
    devices: List[DeviceCollectionStats] = field(default_factory=list)
    batches_received: int = 0
    duplicates_dropped: int = 0

    @property
    def recruited(self) -> int:
        """Devices that entered the campaign (Table 1 'recruited')."""
        return len(self.devices)

    def completeness(self) -> np.ndarray:
        """Per-device completeness fractions."""
        return np.array([s.completeness for s in self.devices])

    def n_valid(self, min_completeness: float = 0.5) -> int:
        """Table 1 'valid': devices that delivered enough to analyse."""
        return sum(s.completeness >= min_completeness for s in self.devices)

    def totals(self) -> Dict[str, int]:
        """Campaign-level batch counters summed over devices."""
        keys = ("ticks", "churned", "uploaded", "delivered", "duplicates",
                "dropped", "cached")
        return {
            key: sum(getattr(s, key) for s in self.devices) for key in keys
        }
