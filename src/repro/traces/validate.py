"""Dataset invariant checks.

:func:`validate_dataset` verifies the structural invariants every consumer
relies on; it raises :class:`~repro.errors.SchemaError` on the first
violation and returns a summary on success. Run it after assembling a
dataset from an untrusted source (e.g. loaded from disk).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SchemaError
from repro.traces.dataset import CampaignDataset
from repro.traces.records import IfaceKind, WifiStateCode


@dataclass(frozen=True)
class ValidationSummary:
    """Row counts per table after a successful validation."""

    n_devices: int
    n_aps: int
    rows: dict

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        rows = ", ".join(f"{k}={v}" for k, v in self.rows.items())
        return f"dataset ok: {self.n_devices} devices, {self.n_aps} APs, {rows}"


def validate_dataset(dataset: CampaignDataset) -> ValidationSummary:
    """Check structural invariants; raise :class:`SchemaError` on failure."""
    n_dev = dataset.n_devices
    n_slots = dataset.n_slots

    _check_range(dataset.traffic.device, 0, n_dev, "traffic.device")
    _check_range(dataset.traffic.t, 0, n_slots, "traffic.t")
    valid_ifaces = {int(k) for k in IfaceKind}
    if len(dataset.traffic) and not set(np.unique(dataset.traffic.iface)) <= valid_ifaces:
        raise SchemaError("traffic.iface contains unknown interface codes")
    _check_nonnegative(dataset.traffic.rx, "traffic.rx")
    _check_nonnegative(dataset.traffic.tx, "traffic.tx")
    _check_nonnegative(dataset.traffic.rx_pkts, "traffic.rx_pkts")
    _check_nonnegative(dataset.traffic.tx_pkts, "traffic.tx_pkts")
    if len(dataset.traffic):
        has_bytes = dataset.traffic.rx > 0
        if (dataset.traffic.rx_pkts[has_bytes] < 1).any():
            raise SchemaError("traffic rows with RX bytes must carry packets")

    _check_range(dataset.wifi.device, 0, n_dev, "wifi.device")
    _check_range(dataset.wifi.t, 0, n_slots, "wifi.t")
    valid_states = {int(k) for k in WifiStateCode}
    if len(dataset.wifi) and not set(np.unique(dataset.wifi.state)) <= valid_states:
        raise SchemaError("wifi.state contains unknown state codes")
    assoc = dataset.wifi.state == int(WifiStateCode.ASSOCIATED)
    if len(dataset.wifi) and (dataset.wifi.ap_id[assoc] < 0).any():
        raise SchemaError("associated wifi rows must reference an ap_id")
    known_aps = np.array(sorted(dataset.ap_directory), dtype=np.int64)
    referenced = np.unique(dataset.wifi.ap_id[assoc])
    if referenced.size and not np.isin(referenced, known_aps).all():
        raise SchemaError("wifi table references APs missing from the directory")

    _check_range(dataset.geo.device, 0, n_dev, "geo.device")
    _check_range(dataset.geo.t, 0, n_slots, "geo.t")

    _check_range(dataset.scans.device, 0, n_dev, "scans.device")
    for column in ("n24_all", "n24_strong", "n5_all", "n5_strong"):
        _check_nonnegative(getattr(dataset.scans, column), f"scans.{column}")
    if len(dataset.scans):
        if (dataset.scans.n24_strong > dataset.scans.n24_all).any():
            raise SchemaError("scans: 2.4GHz strong count exceeds total")
        if (dataset.scans.n5_strong > dataset.scans.n5_all).any():
            raise SchemaError("scans: 5GHz strong count exceeds total")

    _check_range(dataset.apps.device, 0, n_dev, "apps.device")
    _check_range(dataset.apps.day, 0, dataset.n_days, "apps.day")
    _check_nonnegative(dataset.apps.rx, "apps.rx")
    _check_nonnegative(dataset.apps.tx, "apps.tx")
    wifi_apps = dataset.apps.cellular == 0
    if len(dataset.apps) and (dataset.apps.ap_id[wifi_apps] < 0).any():
        raise SchemaError("WiFi app rows must reference an ap_id")

    _check_range(dataset.updates.device, 0, n_dev, "updates.device")
    _check_nonnegative(dataset.updates.bytes, "updates.bytes")

    _check_range(dataset.battery.device, 0, n_dev, "battery.device")
    _check_range(dataset.battery.t, 0, n_slots, "battery.t")
    if len(dataset.battery):
        levels = dataset.battery.level
        if levels.min() < 0.0 or levels.max() > 100.0:
            raise SchemaError("battery.level out of [0, 100]")

    rows = {
        name: len(getattr(dataset, name))
        for name in ("traffic", "wifi", "geo", "scans", "sightings", "apps",
                     "updates", "battery")
    }
    return ValidationSummary(n_devices=n_dev, n_aps=len(dataset.ap_directory), rows=rows)


def _check_range(col: np.ndarray, low: int, high: int, name: str) -> None:
    if len(col) == 0:
        return
    if col.min() < low or col.max() >= high:
        raise SchemaError(f"{name} out of range [{low}, {high})")


def _check_nonnegative(col: np.ndarray, name: str) -> None:
    if len(col) and col.min() < 0:
        raise SchemaError(f"{name} contains negative values")
