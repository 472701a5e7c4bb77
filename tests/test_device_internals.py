"""Unit tests for per-device simulation internals and helpers."""

from datetime import date

import numpy as np
import pytest

from repro.apps.demand import DemandModel
from repro.constants import SAMPLES_PER_DAY
from repro.network_env.deployment import DeploymentConfig, build_deployment
from repro.network_env.home_wifi import HomeWifiConfig
from repro.network_env.public_wifi import PublicWifiConfig
from repro.population.recruitment import RecruitmentConfig, recruit
from repro.simulation.cap import SoftCapTracker
from repro.simulation.kernel import simulate_devices
from repro.simulation.params import default_params
from repro.timeutil import TimeAxis
from repro.traces.records import IfaceKind


class TestDeviceSimulator:
    """Whole-campaign simulation of a small panel through the batch kernel."""

    @pytest.fixture()
    def world(self, rng):
        params = default_params(2015)
        demand = DemandModel(2, appetite_median_mb=50.0,
                             wifi_uplift=params.wifi_uplift)
        config = RecruitmentConfig(
            year=2015, n_android=10, n_ios=4, lte_share=0.8, home_ap_share=0.9
        )
        profiles = recruit(config, demand, rng)
        deployment = build_deployment(
            profiles,
            DeploymentConfig(
                year=2015,
                home=HomeWifiConfig(2015, 0.15, 0.15),
                public=PublicWifiConfig(2015, 200, 0.5),
                open_ap_count=20,
            ),
            rng,
        )
        return profiles, deployment, demand, params

    def test_run_produces_all_streams(self, world):
        from repro.traces.dataset import DatasetBuilder
        from repro.traces.records import ApDirectoryEntry, DeviceInfo
        from repro.traces.validate import validate_dataset
        profiles, deployment, demand, params = world
        axis = TimeAxis(date(2015, 3, 2), 4)
        builder = DatasetBuilder(2015, axis)
        for p in profiles:
            builder.add_device(DeviceInfo(p.user_id, p.os, p.carrier.name,
                                          p.technology, occupation=p.occupation.value))
        for result in simulate_devices(profiles, axis, deployment, demand,
                                       params, seed=0, year=2015):
            for name, columns in result.tables.items():
                getattr(builder, f"extend_{name}")(**columns)
        for ap_id, ap in deployment.aps.items():
            builder.add_ap(ApDirectoryEntry(ap_id, ap.bssid, ap.essid,
                                            ap.band, ap.channel))
        ds = builder.build()
        assert len(ds.traffic) > 0
        assert len(ds.wifi) > 0
        assert len(ds.geo) == len(profiles) * axis.n_slots
        assert len(ds.battery) == len(profiles) * axis.n_slots // 3
        validate_dataset(ds)

    def test_cap_throttle_applies(self, world):
        """A monster cellular day gets clipped during peak hours."""
        profiles, deployment, demand, params = world
        profile = next(p for p in profiles if not p.has_home_ap and
                       not p.cellular_data_off)
        profile.appetite_bytes = 3e9  # 3 GB/day demand
        axis = TimeAxis(date(2015, 3, 2), 6)
        (result,) = simulate_devices(
            profiles, axis, deployment, demand, params, seed=0, year=2015,
            device_ids=[profile.user_id],
        )
        # Replay the device's daily cellular download through the tracker.
        traffic = result.tables["traffic"]
        cellular = traffic["iface"] != int(IfaceKind.WIFI)
        day_rx_cell = np.bincount(
            traffic["t"][cellular] // SAMPLES_PER_DAY,
            weights=traffic["rx"][cellular], minlength=axis.n_days,
        )
        cap = SoftCapTracker(params.cap_policy)
        for rx_cell in day_rx_cell:
            cap.record_day(float(rx_cell))
        assert cap.potentially_capped()
