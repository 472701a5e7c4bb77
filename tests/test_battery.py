"""Tests for the battery stream and the drain-by-WiFi-state analysis."""

import numpy as np
import pytest

from repro.analysis.battery import battery_drain
from repro.errors import AnalysisError, SchemaError
from repro.traces.records import WifiStateCode
from repro.traces.validate import validate_dataset
from tests.helpers import (
    add_ap, add_association_span, add_state_span, make_builder,
    received_dataset,
)


class TestBatterySchema:
    @staticmethod
    def _validate_levels(*levels):
        builder = make_builder(n_devices=1, n_days=1)
        builder.extend_battery(device=[0] * len(levels),
                               t=list(range(len(levels))),
                               level=list(levels), charging=[0] * len(levels))
        return validate_dataset(builder.build())

    def test_level_bounds(self):
        self._validate_levels(0.0, 100.0)
        with pytest.raises(SchemaError):
            self._validate_levels(101.0)
        with pytest.raises(SchemaError):
            self._validate_levels(-1.0)

    def test_builder_round_trip(self):
        builder = make_builder(n_devices=1, n_days=1)
        builder.extend_battery(device=[0], t=[5], level=[80.0], charging=[1])
        ds = builder.build()
        assert len(ds.battery) == 1
        assert ds.battery.level[0] == 80.0
        assert ds.battery.charging[0] == 1

    def test_validation_catches_bad_level(self):
        builder = make_builder(n_devices=1, n_days=1)
        builder.extend_battery(device=[0], t=[0], level=[130.0], charging=[0])
        ds = builder.build()
        with pytest.raises(SchemaError, match="battery"):
            validate_dataset(ds)


class TestBatteryDrainAnalysis:
    def _dataset(self):
        builder = make_builder(n_devices=1, n_days=1)
        add_ap(builder, 0, "net")
        # First 2 hours WiFi off: drain 2%/sample (half-hourly -> 4%/h).
        add_state_span(builder, 0, WifiStateCode.OFF, 0, 12)
        # Next 2 hours associated: drain 3%/sample (6%/h).
        add_association_span(builder, 0, 0, 12, 24)
        ts = np.arange(0, 24, 3)
        levels = []
        level = 100.0
        for t in ts:
            levels.append(level)
            level -= 2.0 if t < 12 else 3.0
        builder.extend_battery(device=np.zeros(len(ts)), t=ts,
                               level=np.array(levels),
                               charging=np.zeros(len(ts)))
        return builder.build()

    def test_per_state_rates(self):
        drain = battery_drain(self._dataset())
        assert drain.drain_pct_per_hour["wifi_off"] == pytest.approx(4.0)
        # The off->associated boundary pair (4%/h) averages into the
        # associated bucket: (4 + 6 + 6 + 6) / 4 = 5.5.
        assert drain.drain_pct_per_hour["wifi_associated"] == pytest.approx(5.5)

    def test_extra_cost(self):
        drain = battery_drain(self._dataset())
        assert drain.extra_cost_of_wifi() == pytest.approx(1.5)

    def test_charging_samples_excluded(self):
        builder = make_builder(n_devices=1, n_days=1)
        add_state_span(builder, 0, WifiStateCode.OFF, 0, 12)
        builder.extend_battery(device=[0, 0, 0], t=[0, 3, 6],
                               level=[50.0, 60.0, 58.0],
                               charging=[1, 1, 0])
        with pytest.raises(AnalysisError):
            battery_drain(builder.build())  # no usable discharge pairs

    def test_requires_battery(self):
        with pytest.raises(AnalysisError):
            battery_drain(make_builder().build())

    def test_study_wifi_cost_small(self, raw2015):
        drain = battery_drain(raw2015)
        # §4.2(4): battery life is not a significant WiFi cost.
        assert 0.0 <= drain.extra_cost_of_wifi() < 2.0
        assert drain.drain_pct_per_hour["wifi_off"] > 0.5
        assert 0.05 < drain.charging_fraction < 0.6

    def test_levels_bounded_in_study(self, raw2015):
        assert raw2015.battery.level.min() >= 0.0
        assert raw2015.battery.level.max() <= 100.0


class TestAgentBattery:
    def test_battery_passthrough(self):
        from datetime import date

        from repro.collection.server import (
            CollectionServer, occupied_slots, upload_slots,
        )
        from repro.net.cellular import CellularTechnology
        from repro.timeutil import TimeAxis
        from repro.traces.records import DeviceInfo, DeviceOS
        server = CollectionServer(2015, TimeAxis(date(2015, 3, 2), 1))
        server.register_device(
            DeviceInfo(0, DeviceOS.ANDROID, "docomo", CellularTechnology.LTE)
        )
        battery = dict(device=np.array([0]), t=np.array([3]),
                       level=np.array([77.0]), charging=np.array([0]))
        slots = upload_slots(0, {"battery": battery}, 144)
        assert slots["battery"].tolist() == [3]
        server.receive_bulk(0, {"battery": battery}, slots,
                            occupied_slots(slots, 144))
        received = received_dataset(server).battery
        assert received.level.tolist() == [77.0]
        assert received.charging.tolist() == [0]
