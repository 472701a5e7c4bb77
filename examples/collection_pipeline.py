#!/usr/bin/env python3
"""Drive the measurement-collection substrate directly (§2).

Shows the agent -> flaky uploader -> server path the real measurement
software used: each device's records for a day, cut into one upload per
10-minute slot; uploads that fail are cached on-device and retried, the
server deduplicates retries and assembles a dataset. Ends by validating
the dataset and printing its row counts.

Usage::

    python examples/collection_pipeline.py
"""

from datetime import date

import numpy as np

from repro.collection.agent import MeasurementAgent
from repro.collection.server import CollectionServer
from repro.collection.uploader import FlakyTransport, Uploader, drain_all
from repro.geo.coords import Coordinate, cell_index
from repro.net.cellular import CellularTechnology
from repro.timeutil import TimeAxis
from repro.traces.records import DeviceInfo, DeviceOS, IfaceKind, WifiStateCode
from repro.traces.validate import validate_dataset

TOKYO = Coordinate(35.681, 139.767)
SUBURB = Coordinate(35.86, 139.64)


def day_tables(info: DeviceInfo, n_slots: int, rng: np.random.Generator):
    """One device's day of records as column tables, as the simulator
    emits them: home nights and evenings in the suburb, daytime in Tokyo."""
    t = np.arange(n_slots)
    hour = (t % 144) // 6
    at_home = (hour < 8) | (hour >= 19)
    home_cell, city_cell = cell_index(SUBURB), cell_index(TOKYO)
    device = np.full(n_slots, info.device_id)
    tables = {
        "traffic": dict(
            device=device, t=t,
            iface=np.full(n_slots, int(IfaceKind.from_technology(info.technology))),
            rx=rng.exponential(2e5, n_slots), tx=rng.exponential(4e4, n_slots),
        ),
        "geo": dict(
            device=device, t=t,
            col=np.where(at_home, home_cell[0], city_cell[0]),
            row=np.where(at_home, home_cell[1], city_cell[1]),
        ),
    }
    if info.os is DeviceOS.ANDROID:
        # Android reports its WiFi state every slot and scans while out;
        # iOS reports only associations, and this day has none.
        tables["wifi"] = dict(
            device=device, t=t,
            state=np.where(at_home, int(WifiStateCode.OFF),
                           int(WifiStateCode.AVAILABLE)),
            ap_id=np.full(n_slots, -1), rssi=np.zeros(n_slots),
        )
        away = t[~at_home]
        n24 = rng.poisson(3.0, len(away))
        tables["scans"] = dict(
            device=device[:len(away)], t=away,
            n24_all=n24, n24_strong=np.minimum(n24, rng.poisson(1.0, len(away))),
            n5_all=rng.poisson(1.0, len(away)), n5_strong=np.zeros(len(away), int),
        )
    return tables


def main() -> None:
    axis = TimeAxis(date(2015, 3, 2), n_days=1)
    server = CollectionServer(2015, axis)

    devices = [
        DeviceInfo(0, DeviceOS.ANDROID, "docomo", CellularTechnology.LTE),
        DeviceInfo(1, DeviceOS.IOS, "softbank", CellularTechnology.LTE),
        DeviceInfo(2, DeviceOS.ANDROID, "au", CellularTechnology.THREE_G),
    ]
    rng = np.random.default_rng(5)
    uploads = []
    uploaders = []
    for info in devices:
        server.register_device(info)
        transport = FlakyTransport(
            server.receive, failure_rate=0.35,
            rng=np.random.default_rng(100 + info.device_id),
        )
        uploaders.append(Uploader(info.device_id, transport))
        uploads.append(MeasurementAgent(info).package_uploads(
            day_tables(info, axis.n_slots, rng), axis.n_slots
        ))

    print("Uploading one day at 10-minute ticks with a 35% upload-failure rate...")
    # Every device records geo each slot, so all devices upload every tick.
    for tick in zip(*uploads):
        for uploader, (_, payload) in zip(uploaders, tick):
            uploader.upload(payload)

    caches = [uploader.cached_batches for uploader in uploaders]
    print(f"End of day: cached batches awaiting retry per device: {caches}")
    drain_all(uploaders)
    print("Caches drained; assembling the dataset server-side...")

    dataset = server.build_dataset()
    summary = validate_dataset(dataset)
    print(summary)
    print(f"Server stats: {server.batches_received} batches received, "
          f"{server.duplicates_dropped} duplicates dropped.")
    lost = axis.n_slots * len(devices) - summary.rows["geo"]
    print(f"Data loss after retries: {lost} samples (expected 0).")


if __name__ == "__main__":
    main()
