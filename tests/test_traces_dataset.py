"""Unit tests for the columnar dataset and builder."""

import numpy as np
import pytest

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
