"""Unit tests for the §2 cleaning rules."""

import numpy as np
import pytest

from repro.traces.cleaning import clean_for_main_analysis, drop_update_window
from tests.helpers import add_daily_traffic, make_builder, slot


def test_drop_update_window_removes_two_days():
    builder = make_builder(n_devices=2, n_days=5)
    for day in range(5):
        add_daily_traffic(builder, 0, day, wifi_rx_mb=10)
        add_daily_traffic(builder, 1, day, wifi_rx_mb=10)
    builder.extend_apps(device=[0, 0], day=[1, 3], category=[0, 0],
                        cellular=[1, 1], ap_id=[-1, -1], col=[0, 0], row=[0, 0],
                        rx=[1e6, 1e6], tx=[0, 0])
    # Device 0 updates on day 1.
    builder.extend_updates(device=[0], t=[slot(1, 20)], bytes=[565e6])
    dataset = builder.build()

    cleaned, report = drop_update_window(dataset)
    assert report.devices_affected == 1
    # Device 0 loses days 1 and 2 (2 rows); device 1 keeps all 5.
    kept = cleaned.daily_matrix("all", "rx") / 1e6
    assert kept[0, 0] == 10 and kept[0, 1] == 0 and kept[0, 2] == 0
    assert kept[0, 3] == 10
    assert (kept[1] == 10).all()
    # App rows: day 1 dropped, day 3 kept.
    assert list(cleaned.apps.day) == [3]
    assert report.traffic_rows_dropped == 2
    assert report.app_rows_dropped == 1


def test_drop_update_window_noop_without_updates():
    builder = make_builder(n_devices=1, n_days=2)
    add_daily_traffic(builder, 0, 0, wifi_rx_mb=1)
    dataset = builder.build()
    cleaned, report = drop_update_window(dataset)
    assert cleaned is dataset
    assert report.devices_affected == 0


def test_clean_for_main_analysis_study(study):
    raw = study.dataset(2015)
    cleaned = clean_for_main_analysis(raw)
    assert len(cleaned.traffic) < len(raw.traffic)
    # Updated devices carry no traffic on their update day.
    from repro.constants import SAMPLES_PER_DAY
    for device, t in zip(raw.updates.device, raw.updates.t):
        day = int(t) // SAMPLES_PER_DAY
        day_mask = (
            (cleaned.traffic.device == device)
            & (cleaned.traffic.t // SAMPLES_PER_DAY == day)
        )
        assert not day_mask.any()


def test_clean_preserves_2013(study):
    raw = study.dataset(2013)
    cleaned = clean_for_main_analysis(raw)
    assert len(cleaned.traffic) == len(raw.traffic)


def _panel(n_devices: int, rows_per_device: int):
    """A 2015-like panel: every fifth device updated on day 1."""
    from dataclasses import replace

    from repro.traces.dataset import _Table

    base = make_builder(n_devices=1).build()
    device = np.repeat(np.arange(n_devices, dtype=np.int32), rows_per_device)
    t = np.tile(np.arange(rows_per_device, dtype=np.int32) * 7,
                n_devices).astype(np.int32)
    updated = np.arange(0, n_devices, 5, dtype=np.int32)
    traffic = _Table({"device": device, "t": t,
                      "rx": np.ones(len(device))})
    updates = _Table({"device": updated,
                      "t": np.full(len(updated), slot(1, 20), np.int32),
                      "bytes": np.ones(len(updated))})
    return replace(base, traffic=traffic, updates=updates)


def test_drop_update_window_cost_per_row_stays_flat():
    """Cleaning is linear in the panel: at 8x the devices (the same share
    updated) a row costs well under 3x what it costs at 1x; a pass that
    touches the whole table per updated device reads about 8x."""
    import time

    def seconds_per_row(dataset):
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            drop_update_window(dataset)
            best = min(best, time.perf_counter() - start)
        return best / len(dataset.traffic)

    small, large = _panel(500, 200), _panel(4000, 200)
    cleaned, report = drop_update_window(large)
    assert report.devices_affected == 800
    assert report.traffic_rows_dropped > 0
    assert seconds_per_row(large) < 3 * seconds_per_row(small)


def test_drop_update_window_keeps_untouched_table():
    """A table no window reaches is returned as is, not copied."""
    builder = make_builder(n_devices=2, n_days=5)
    for day in range(5):
        add_daily_traffic(builder, 0, day, wifi_rx_mb=10)
    builder.extend_apps(device=[1], day=[1], category=[0], cellular=[1],
                        ap_id=[-1], col=[0], row=[0], rx=[1e6], tx=[0])
    builder.extend_updates(device=[0], t=[slot(1, 20)], bytes=[565e6])
    dataset = builder.build()
    cleaned, report = drop_update_window(dataset)
    assert cleaned.apps is dataset.apps and report.app_rows_dropped == 0
    assert report.traffic_rows_dropped == 2
