"""Hand-crafted dataset construction for analysis unit tests.

Building tiny datasets with known contents lets the analysis tests assert
exact outcomes instead of statistical ones.
"""

from __future__ import annotations

from datetime import date
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.constants import SAMPLES_PER_DAY, SAMPLES_PER_HOUR
from repro.net.cellular import CellularTechnology
from repro.radio.bands import Band
from repro.simulation.campaign import plan_campaign
from repro.simulation.kernel import simulate_devices
from repro.timeutil import TimeAxis
from repro.traces.dataset import CampaignDataset, DatasetBuilder, observed_ap_ids
from repro.traces.records import (
    ApDirectoryEntry,
    DeviceInfo,
    DeviceOS,
    IfaceKind,
    WifiStateCode,
)


def make_builder(
    n_devices: int = 2,
    year: int = 2015,
    start: date = date(2015, 3, 2),  # a Monday
    n_days: int = 7,
    os_plan: Optional[Iterable[DeviceOS]] = None,
) -> DatasetBuilder:
    """A builder pre-populated with devices."""
    builder = DatasetBuilder(year, TimeAxis(start, n_days))
    plans = list(os_plan) if os_plan else [DeviceOS.ANDROID] * n_devices
    for device_id in range(n_devices):
        builder.add_device(
            DeviceInfo(
                device_id=device_id,
                os=plans[device_id % len(plans)],
                carrier="docomo",
                technology=CellularTechnology.LTE,
                occupation="office worker",
            )
        )
    return builder


def add_ap(
    builder: DatasetBuilder,
    ap_id: int,
    essid: str,
    band: Band = Band.GHZ_2_4,
    channel: int = 6,
    bssid: Optional[str] = None,
) -> None:
    builder.add_ap(
        ApDirectoryEntry(
            ap_id=ap_id,
            bssid=bssid or f"02:00:00:00:{ap_id // 256:02x}:{ap_id % 256:02x}",
            essid=essid,
            band=band,
            channel=channel,
        )
    )


def slot(day: int, hour: int, minute: int = 0) -> int:
    """Slot index for day/hour/minute."""
    minutes_per_sample = 60 // SAMPLES_PER_HOUR
    return (
        day * SAMPLES_PER_DAY
        + hour * SAMPLES_PER_HOUR
        + minute // minutes_per_sample
    )


def add_association_span(
    builder: DatasetBuilder,
    device: int,
    ap_id: int,
    t_start: int,
    t_end: int,
    rssi: float = -55.0,
) -> None:
    """Associated observations for slots [t_start, t_end)."""
    ts = np.arange(t_start, t_end)
    builder.extend_wifi(
        device=np.full(len(ts), device),
        t=ts,
        state=np.full(len(ts), int(WifiStateCode.ASSOCIATED)),
        ap_id=np.full(len(ts), ap_id),
        rssi=np.full(len(ts), rssi),
    )


def add_state_span(
    builder: DatasetBuilder,
    device: int,
    state: WifiStateCode,
    t_start: int,
    t_end: int,
) -> None:
    """Non-associated observations for slots [t_start, t_end)."""
    ts = np.arange(t_start, t_end)
    builder.extend_wifi(
        device=np.full(len(ts), device),
        t=ts,
        state=np.full(len(ts), int(state)),
        ap_id=np.full(len(ts), -1),
        rssi=np.zeros(len(ts)),
    )


def add_geo_span(
    builder: DatasetBuilder,
    device: int,
    cell: Tuple[int, int],
    t_start: int,
    t_end: int,
) -> None:
    ts = np.arange(t_start, t_end)
    builder.extend_geo(
        device=np.full(len(ts), device),
        t=ts,
        col=np.full(len(ts), cell[0]),
        row=np.full(len(ts), cell[1]),
    )


def add_daily_traffic(
    builder: DatasetBuilder,
    device: int,
    day: int,
    cell_rx_mb: float = 0.0,
    wifi_rx_mb: float = 0.0,
    cell_tx_mb: float = 0.0,
    wifi_tx_mb: float = 0.0,
    hour: int = 20,
    iface_cell: IfaceKind = IfaceKind.CELL_LTE,
) -> None:
    """Lump a day's volume into a single slot per interface."""
    t = slot(day, hour)
    if cell_rx_mb or cell_tx_mb:
        builder.extend_traffic(
            device=[device], t=[t], iface=[int(iface_cell)],
            rx=[cell_rx_mb * 1e6], tx=[cell_tx_mb * 1e6],
        )
    if wifi_rx_mb or wifi_tx_mb:
        builder.extend_traffic(
            device=[device], t=[t + 1], iface=[int(IfaceKind.WIFI)],
            rx=[wifi_rx_mb * 1e6], tx=[wifi_tx_mb * 1e6],
        )


def nightly_home_association(
    builder: DatasetBuilder,
    device: int,
    ap_id: int,
    n_days: int,
    rssi: float = -55.0,
) -> None:
    """Associate ``device`` with ``ap_id`` every night 22:00-24:00 + 0:00-6:00."""
    for day in range(n_days):
        add_association_span(builder, device, ap_id, slot(day, 22), slot(day, 24), rssi)
        add_association_span(builder, device, ap_id, slot(day, 0), slot(day, 6), rssi)


def kernel_reference(config) -> CampaignDataset:
    """A campaign built without the collection pipeline.

    The plan's world runs through the batch kernel and every device's
    tables go straight into a :class:`DatasetBuilder`; the AP directory
    holds the observed APs, as in ``run_campaign``. A zero-fault campaign
    must match it bit for bit.
    """
    world = plan_campaign(config).world
    builder = DatasetBuilder(config.year, config.axis)
    for info in world.infos:
        builder.add_device(info)
    chunks: Dict[str, list] = {}
    for result in simulate_devices(
        world.profiles, config.axis, world.deployment, world.demand,
        config.params, seed=config.seed, year=config.year,
    ):
        for name, columns in result.tables.items():
            getattr(builder, f"extend_{name}")(**columns)
            chunks.setdefault(name, []).append(columns)
    for ap_id in sorted(observed_ap_ids([chunks])):
        ap = world.deployment.ap(ap_id)
        add_ap(builder, ap_id, ap.essid, ap.band, ap.channel, ap.bssid)
    return builder.build()


def received_dataset(server) -> CampaignDataset:
    """Every row a :class:`~repro.collection.server.CollectionServer`
    received, frozen by a :class:`DatasetBuilder` (which sorts)."""
    builder = DatasetBuilder(server.year, server.axis)
    for info in server.devices:
        builder.add_device(info)
    for name, chunks in server.flush_buffers().items():
        for columns in chunks:
            getattr(builder, f"extend_{name}")(**columns)
    return builder.build()
