"""Unit tests for the record schema and its invariants on dataset rows."""

import pytest

from repro.errors import SchemaError
from repro.net.cellular import CellularTechnology
from repro.traces.records import (
    DeviceInfo,
    DeviceOS,
    IfaceKind,
    NetLocation,
    WifiStateCode,
)
from repro.traces.validate import validate_dataset
from tests.helpers import make_builder


def _validated(**tables):
    """Build a one-device, one-day dataset from ``tables`` and validate it."""
    builder = make_builder(n_devices=1, n_days=1)
    for name, rows in tables.items():
        columns = {key: [row[key] for row in rows] for key in rows[0]}
        n = len(rows)
        getattr(builder, f"extend_{name}")(device=[0] * n, **columns)
    dataset = builder.build()
    validate_dataset(dataset)
    return dataset


class TestIfaceKind:
    def test_cellular_predicate(self):
        assert IfaceKind.CELL_3G.is_cellular
        assert IfaceKind.CELL_LTE.is_cellular
        assert not IfaceKind.WIFI.is_cellular

    def test_from_technology(self):
        assert IfaceKind.from_technology(CellularTechnology.LTE) is IfaceKind.CELL_LTE
        assert IfaceKind.from_technology(CellularTechnology.THREE_G) is IfaceKind.CELL_3G


class TestRecordValidation:
    def test_device_info_rejects_negative_id(self):
        with pytest.raises(SchemaError):
            DeviceInfo(-1, DeviceOS.ANDROID, "docomo", CellularTechnology.LTE)

    def test_traffic_sample_rejects_negative_bytes(self):
        with pytest.raises(SchemaError, match="traffic.rx"):
            _validated(traffic=[dict(t=0, iface=2, rx=-1.0, tx=0.0)])

    def test_wifi_observation_associated_needs_ap(self):
        with pytest.raises(SchemaError, match="ap_id"):
            _validated(wifi=[dict(t=0, state=int(WifiStateCode.ASSOCIATED),
                                  ap_id=-1, rssi=-50.0)])
        # Non-associated states do not need an AP.
        _validated(wifi=[
            dict(t=0, state=int(WifiStateCode.OFF), ap_id=-1, rssi=0.0),
            dict(t=1, state=int(WifiStateCode.AVAILABLE), ap_id=-1, rssi=0.0),
        ])

    def test_scan_summary_strong_bounded_by_all(self):
        def scan(n24_all, n24_strong, n5_all, n5_strong):
            return dict(t=0, n24_all=n24_all, n24_strong=n24_strong,
                        n5_all=n5_all, n5_strong=n5_strong)

        with pytest.raises(SchemaError, match="strong count exceeds"):
            _validated(scans=[scan(3, 4, 0, 0)])
        with pytest.raises(SchemaError, match="negative"):
            _validated(scans=[scan(-1, 0, 0, 0)])
        _validated(scans=[scan(5, 2, 3, 1)])

    def test_app_record_wifi_needs_ap(self):
        def app(cellular):
            return dict(day=0, category=2, cellular=cellular, ap_id=-1,
                        col=0, row=0, rx=1.0, tx=0.0)

        with pytest.raises(SchemaError, match="ap_id"):
            _validated(apps=[app(cellular=0)])
        _validated(apps=[app(cellular=1)])

    def test_app_record_rejects_negative(self):
        with pytest.raises(SchemaError, match="apps.rx"):
            _validated(apps=[dict(day=0, category=2, cellular=1, ap_id=-1,
                                  col=0, row=0, rx=-5.0, tx=0.0)])

    def test_geo_and_update(self):
        # Grid cells may be negative (west/south of the grid origin).
        ds = _validated(geo=[dict(t=0, col=-3, row=7)],
                        updates=[dict(t=100, bytes=565e6)])
        assert (ds.geo.col[0], ds.geo.row[0]) == (-3, 7)
        assert ds.updates.bytes.tolist() == [565e6]


class TestNetLocation:
    def test_labels(self):
        assert NetLocation.CELL_HOME.label == "Cell home"
        assert NetLocation.WIFI_PUBLIC.label == "WiFi public"


class TestPacketCounters:
    def test_estimation_defaults(self):
        ds = _validated(traffic=[dict(t=0, iface=2, rx=12_000.0, tx=800.0)])
        assert ds.traffic.rx_pkts[0] == 10
        assert ds.traffic.tx_pkts[0] >= 1

    def test_explicit_counts_respected(self):
        ds = _validated(traffic=[dict(t=0, iface=2, rx=1000.0, tx=0.0,
                                      rx_pkts=7, tx_pkts=0)])
        assert ds.traffic.rx_pkts[0] == 7
        assert ds.traffic.tx_pkts[0] == 0

    def test_estimate_packets_floor(self):
        ds = _validated(traffic=[dict(t=t, iface=2, rx=rx, tx=0.0)
                                 for t, rx in enumerate([0.0, 1.0, 2400.0])])
        assert ds.traffic.rx_pkts.tolist() == [0, 1, 2]

    def test_builder_fills_packets(self):
        builder = make_builder(n_devices=1, n_days=1)
        builder.extend_traffic(device=[0], t=[0], iface=[2],
                               rx=[120_000.0], tx=[4000.0])
        ds = builder.build()
        assert ds.traffic.rx_pkts[0] == 100
        assert ds.traffic.tx_pkts[0] == 10

    def test_simulated_packets_consistent(self, raw2015):
        import numpy as np
        traffic = raw2015.traffic
        positive = traffic.rx > 0
        assert (traffic.rx_pkts[positive] >= 1).all()
        # Mean packet size lands near the configured estimate.
        mean_size = traffic.rx[positive].sum() / traffic.rx_pkts[positive].sum()
        assert 800 < mean_size < 1400
