"""Unit tests for WiFi ratios (Figures 6-8) and interface states (Figure 9)."""

import numpy as np
import pytest

from repro.analysis.interface_state import interface_state_ratios, ios_android_gap
from repro.analysis.ratios import wifi_ratios
from repro.traces.records import DeviceOS, IfaceKind, WifiStateCode
from tests.helpers import (
    add_association_span,
    add_ap,
    add_state_span,
    make_builder,
    slot,
)


def _ratio_dataset():
    """10 devices; device volumes known per hour."""
    builder = make_builder(n_devices=10, n_days=1)
    add_ap(builder, 0, "net")
    for device in range(10):
        # Hour 10: every device downloads 6 MB cellular.
        builder.extend_traffic(
            device=[device], t=[slot(0, 10)], iface=[int(IfaceKind.CELL_LTE)],
            rx=[6e6], tx=[0],
        )
        # Hour 20: every device downloads 2 MB cellular + 6 MB wifi.
        builder.extend_traffic(
            device=[device, device], t=[slot(0, 20), slot(0, 20) + 1],
            iface=[int(IfaceKind.CELL_LTE), int(IfaceKind.WIFI)],
            rx=[2e6, 6e6], tx=[0, 0],
        )
        # Half the devices associate during hour 20.
        if device < 5:
            add_association_span(builder, device, 0, slot(0, 20), slot(0, 21))
    return builder.build()


class TestWifiTrafficRatio:
    def test_hourly_values_exact(self):
        ds = _ratio_dataset()
        ratios = wifi_ratios(ds)
        hourly = ratios.traffic("all").hourly.values
        assert hourly[10] == pytest.approx(0.0)
        assert hourly[20] == pytest.approx(0.75)  # 6 / (6+2)
        assert np.isnan(hourly[5])  # no traffic that hour

    def test_user_ratio_counts_distinct_devices(self):
        ds = _ratio_dataset()
        ratios = wifi_ratios(ds)
        hourly = ratios.users("all").hourly.values
        assert hourly[20] == pytest.approx(0.5)  # 5 of 10 devices
        assert hourly[10] == pytest.approx(0.0)

    def test_subset_ratios_follow_classification(self, dataset2015):
        ratios = wifi_ratios(dataset2015)
        # Heavy hitters offload more than light users (Figure 7).
        assert ratios.traffic("heavy").mean > ratios.traffic("light").mean

    def test_means_finite(self, dataset2013):
        ratios = wifi_ratios(dataset2013)
        for subset in ("all", "light", "heavy"):
            assert 0.0 <= ratios.traffic(subset).mean <= 1.0
            assert 0.0 <= ratios.users(subset).mean <= 1.0

    def test_growth_2013_to_2015(self, dataset2013, dataset2015):
        r13 = wifi_ratios(dataset2013)
        r15 = wifi_ratios(dataset2015)
        # §3.3.2: both ratios grow between campaigns.
        assert r15.traffic("all").mean > r13.traffic("all").mean
        assert r15.users("all").mean > r13.users("all").mean


class TestInterfaceStates:
    def _state_dataset(self):
        builder = make_builder(
            n_devices=4, n_days=1,
            os_plan=[DeviceOS.ANDROID, DeviceOS.ANDROID,
                     DeviceOS.ANDROID, DeviceOS.IOS],
        )
        add_ap(builder, 0, "net")
        full_day = (0, 144)
        # Android device 0: associated all day.
        add_association_span(builder, 0, 0, *full_day)
        # Android device 1: off all day.
        add_state_span(builder, 1, WifiStateCode.OFF, *full_day)
        # Android device 2: available all day.
        add_state_span(builder, 2, WifiStateCode.AVAILABLE, *full_day)
        # iOS device 3: associated half the day.
        add_association_span(builder, 3, 0, 0, 72)
        return builder.build()

    def test_android_partition(self):
        ratios = interface_state_ratios(self._state_dataset())
        assert ratios.android_means["wifi_user"] == pytest.approx(1 / 3)
        assert ratios.android_means["wifi_off"] == pytest.approx(1 / 3)
        assert ratios.android_means["wifi_available"] == pytest.approx(1 / 3)

    def test_ios_ratio(self):
        ratios = interface_state_ratios(self._state_dataset())
        assert ratios.ios_user_mean == pytest.approx(0.5)

    def test_gap(self):
        ratios = interface_state_ratios(self._state_dataset())
        assert ios_android_gap(ratios) == pytest.approx(0.5)

    def test_android_states_partition_in_study(self, dataset2015):
        ratios = interface_state_ratios(dataset2015)
        total = sum(ratios.android_means.values())
        # Per slot the states partition; per hour a device can appear in two
        # states (it toggled mid-hour), so the sum can slightly exceed 1.
        assert 1.0 <= total < 1.15

    def test_ios_connects_more_than_android(self, dataset2015):
        ratios = interface_state_ratios(dataset2015)
        assert ios_android_gap(ratios) > 0.0  # §3.3.4

    def test_wifi_off_declines_2013_to_2015(self, dataset2013, dataset2015):
        r13 = interface_state_ratios(dataset2013)
        r15 = interface_state_ratios(dataset2015)
        assert r15.android_means["wifi_off"] < r13.android_means["wifi_off"]

    def test_folded_unknown_key(self, dataset2015):
        from repro.errors import AnalysisError
        ratios = interface_state_ratios(dataset2015)
        with pytest.raises(AnalysisError):
            ratios.folded("bogus")
