"""Unit tests for the columnar dataset and builder."""

import numpy as np
import pytest

from repro.constants import SAMPLES_PER_DAY, SAMPLES_PER_HOUR
from repro.errors import DatasetError, SchemaError
from repro.net.cellular import CellularTechnology
from repro.traces.dataset import DatasetBuilder
from repro.traces.records import (
    DeviceInfo,
    DeviceOS,
    IfaceKind,
    WifiStateCode,
)
from tests.helpers import add_ap, add_daily_traffic, make_builder, slot


class TestBuilder:
    def test_device_ids_must_be_dense(self):
        builder = make_builder(n_devices=1)
        with pytest.raises(SchemaError):
            builder.add_device(
                DeviceInfo(5, DeviceOS.ANDROID, "docomo", CellularTechnology.LTE)
            )

    def test_duplicate_ap_rejected(self):
        builder = make_builder()
        add_ap(builder, 1, "net")
        with pytest.raises(SchemaError):
            add_ap(builder, 1, "net2")

    def test_rows_sorted_by_device_then_time(self):
        builder = make_builder(n_devices=2)
        builder.extend_traffic(device=[1, 0, 1], t=[5, 9, 2],
                               iface=[2, 2, 2], rx=[1.0, 2.0, 3.0], tx=[0, 0, 0])
        dataset = builder.build()
        assert list(dataset.traffic.device) == [0, 1, 1]
        assert list(dataset.traffic.t) == [9, 2, 5]

    def test_out_of_range_device_rejected(self):
        builder = make_builder(n_devices=1)
        builder.extend_traffic(device=[3], t=[0], iface=[2], rx=[1.0], tx=[0.0])
        with pytest.raises(SchemaError):
            builder.build()

    def test_out_of_range_slot_rejected(self):
        builder = make_builder(n_devices=1, n_days=1)
        builder.extend_traffic(device=[0], t=[144], iface=[2], rx=[1.0], tx=[0.0])
        with pytest.raises(SchemaError):
            builder.build()

    def test_ragged_chunk_rejected(self):
        builder = make_builder()
        with pytest.raises(SchemaError):
            builder.extend_traffic(device=[0, 1], t=[0], iface=[2], rx=[1.0], tx=[0.0])

    def test_empty_build(self):
        dataset = make_builder().build()
        assert len(dataset.traffic) == 0
        assert len(dataset.wifi) == 0
        assert dataset.n_devices == 2


class TestDailyMatrix:
    def test_daily_matrix_aggregates_by_day(self):
        builder = make_builder(n_devices=2, n_days=3)
        add_daily_traffic(builder, 0, 0, cell_rx_mb=10, wifi_rx_mb=5)
        add_daily_traffic(builder, 0, 2, cell_rx_mb=1)
        add_daily_traffic(builder, 1, 1, wifi_rx_mb=7)
        ds = builder.build()
        total = ds.daily_matrix("all", "rx") / 1e6
        assert total[0, 0] == pytest.approx(15)
        assert total[0, 2] == pytest.approx(1)
        assert total[1, 1] == pytest.approx(7)
        assert total[1, 0] == 0.0

    def test_kind_filters(self):
        builder = make_builder(n_devices=1, n_days=1)
        builder.extend_traffic(
            device=[0, 0, 0], t=[0, 1, 2],
            iface=[int(IfaceKind.CELL_3G), int(IfaceKind.CELL_LTE), int(IfaceKind.WIFI)],
            rx=[1e6, 2e6, 4e6], tx=[0, 0, 0],
        )
        ds = builder.build()
        assert ds.daily_matrix("3g", "rx").sum() == 1e6
        assert ds.daily_matrix("lte", "rx").sum() == 2e6
        assert ds.daily_matrix("cell", "rx").sum() == 3e6
        assert ds.daily_matrix("wifi", "rx").sum() == 4e6
        assert ds.daily_matrix("all", "rx").sum() == 7e6

    def test_unknown_kind_or_direction(self):
        ds = make_builder().build()
        with pytest.raises(DatasetError):
            ds.daily_matrix("fiber", "rx")
        with pytest.raises(DatasetError):
            ds.daily_matrix("all", "sideways")

    def test_hourly_series(self):
        builder = make_builder(n_devices=1, n_days=2)
        builder.extend_traffic(
            device=[0, 0], t=[slot(0, 10), slot(1, 10)],
            iface=[2, 2], rx=[5e6, 7e6], tx=[0, 0],
        )
        ds = builder.build()
        series = ds.hourly_series("wifi", "rx")
        assert len(series) == 48
        assert series[10] == 5e6
        assert series[34] == 7e6
        assert series.sum() == 12e6


G3, LTE, WIFI = (int(k) for k in (IfaceKind.CELL_3G, IfaceKind.CELL_LTE,
                                    IfaceKind.WIFI))
KIND_MASKS = {
    "all": lambda iface: np.ones(len(iface), dtype=bool),
    "wifi": lambda iface: iface == WIFI,
    "cell": lambda iface: iface != WIFI,
    "3g": lambda iface: iface == G3,
    "lte": lambda iface: iface == LTE,
}


def _order_sensitive_dataset():
    """Rows whose float64 sums depend on the order they are added in.

    1e16 absorbs a following 1.0 (its ulp is 2), so adding rows one by one
    keeps 1e16 where adding per-interface subtotals gives 1e16 + 2.
    """
    builder = make_builder(n_devices=3, n_days=2)
    # Device 0, day 0: WiFi and cellular rows interleaved in one hour.
    builder.extend_traffic(
        device=[0] * 5, t=[slot(0, 9, m) for m in (0, 10, 20, 30, 40)],
        iface=[WIFI, G3, WIFI, LTE, G3],
        rx=[1e16, 1.0, 1.0, 1.0, 1.0], tx=[1.0, 1e16, 1.0, 1.0, 1.0],
    )
    # Device 1, day 1: 3G and LTE rows on the same day and hour.
    builder.extend_traffic(
        device=[1] * 4, t=[slot(1, 9, m) for m in (0, 10, 20, 30)],
        iface=[G3, LTE, LTE, WIFI], rx=[1e16, 1.0, 1.0, 3.0],
        tx=[2.0, 1e16, 1.0, 1.0],
    )
    # Device 2 shares device 0's hour, so hourly bins mix devices too.
    builder.extend_traffic(
        device=[2, 2], t=[slot(0, 9, 50), slot(1, 9, 40)], iface=[LTE, WIFI],
        rx=[1.0, 1.0], tx=[1.0, 1.0],
    )
    return builder.build()


class TestTrafficFold:
    """Every kind of the one-pass fold is its masked row-order bincount."""

    @pytest.mark.parametrize("by", ["day", "hour"])
    @pytest.mark.parametrize("direction", ["rx", "tx"])
    def test_every_kind_matches_masked_row_order_bincount(self, by, direction):
        ds = _order_sensitive_dataset()
        traffic = ds.traffic
        if by == "day":
            key = (traffic.device.astype(np.int64) * ds.n_days
                   + traffic.t // SAMPLES_PER_DAY)
            n_bins = ds.n_devices * ds.n_days
        else:
            key = traffic.t.astype(np.int64) // SAMPLES_PER_HOUR
            n_bins = ds.n_days * 24
        values = traffic.columns[direction]
        fold = ds.traffic_fold(by, direction)
        assert set(fold) == set(KIND_MASKS)
        for kind, mask_of in KIND_MASKS.items():
            mask = mask_of(traffic.iface)
            want = np.bincount(key[mask], weights=values[mask],
                               minlength=n_bins)
            got = fold[kind]
            assert got.flags.c_contiguous
            assert np.array_equal(got.ravel(), want), (kind, by, direction)
            accessor = ds.daily_matrix if by == "day" else ds.hourly_series
            assert np.array_equal(accessor(kind, direction), got)

    @pytest.mark.parametrize("by", ["day", "hour"])
    def test_data_defeats_a_sum_of_subtotals(self, by):
        # Guard on the fixture itself: were any kind built by adding other
        # kinds' totals, the exactness test above would see it.
        for direction in ("rx", "tx"):
            fold = _order_sensitive_dataset().traffic_fold(by, direction)
            assert not np.array_equal(fold["all"], fold["wifi"] + fold["cell"])
            assert not np.array_equal(fold["cell"], fold["3g"] + fold["lte"])

    def test_interface_code_outside_ifacekind_raises(self):
        builder = make_builder(n_devices=1, n_days=1)
        builder.extend_traffic(device=[0, 0], t=[0, 1], iface=[WIFI, 3],
                               rx=[1.0, 1.0], tx=[0.0, 0.0])
        ds = builder.build()
        for by in ("day", "hour"):
            with pytest.raises(DatasetError, match="IfaceKind"):
                ds.traffic_fold(by, "rx")

    def test_unknown_grouping(self):
        with pytest.raises(DatasetError):
            make_builder().build().traffic_fold("week", "rx")


class TestDeviceAccessors:
    def test_device_lookup(self):
        ds = make_builder(n_devices=2).build()
        assert ds.device(0).device_id == 0
        with pytest.raises(DatasetError):
            ds.device(9)

    def test_os_split(self):
        ds = make_builder(
            n_devices=4, os_plan=[DeviceOS.ANDROID, DeviceOS.IOS]
        ).build()
        assert list(ds.android_ids()) == [0, 2]
        assert list(ds.ios_ids()) == [1, 3]
