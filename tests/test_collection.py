"""Unit and integration tests for the collection substrate."""

from datetime import date

import numpy as np
import pytest

from repro.apps.demand import DemandModel
from repro.collection.agent import ColumnarRecords, MeasurementAgent
from repro.collection.server import CollectionServer
from repro.collection.uploader import (
    FlakyTransport,
    UploadBatch,
    Uploader,
    drain_all,
)
from repro.errors import CollectionError, ConfigurationError, UploadError
from repro.net.cellular import CellularTechnology
from repro.network_env.deployment import DeploymentConfig, build_deployment
from repro.network_env.home_wifi import HomeWifiConfig
from repro.network_env.public_wifi import PublicWifiConfig
from repro.population.recruitment import RecruitmentConfig, recruit
from repro.simulation.kernel import simulate_devices
from repro.simulation.params import default_params
from repro.timeutil import TimeAxis
from repro.traces.records import DeviceInfo, DeviceOS, WifiStateCode

N_SLOTS = 144


def _device(device_id=0, os=DeviceOS.ANDROID):
    return DeviceInfo(device_id, os, "docomo", CellularTechnology.LTE)


def _empty():
    return ColumnarRecords({})


def _slot_tables(device_id, t):
    """One slot's records: WiFi + cellular traffic, an association, geo."""
    return {
        "traffic": dict(device=np.full(2, device_id), t=np.full(2, t),
                        iface=np.array([2, 1]), rx=np.array([1e6, 2e5]),
                        tx=np.array([1e5, 1e4])),
        "wifi": dict(device=np.array([device_id]), t=np.array([t]),
                     state=np.array([int(WifiStateCode.ASSOCIATED)]),
                     ap_id=np.array([3]), rssi=np.array([-55.0])),
        "geo": dict(device=np.array([device_id]), t=np.array([t]),
                    col=np.array([12]), row=np.array([-4])),
    }


@pytest.fixture(scope="module")
def simulated():
    """Two days of a small 2015 panel through the kernel, by device."""
    rng = np.random.default_rng(12345)
    params = default_params(2015)
    demand = DemandModel(2, appetite_median_mb=50.0,
                         wifi_uplift=params.wifi_uplift)
    profiles = recruit(
        RecruitmentConfig(year=2015, n_android=4, n_ios=6, lte_share=0.8,
                          home_ap_share=0.9),
        demand, rng,
    )
    deployment = build_deployment(
        profiles,
        DeploymentConfig(year=2015, home=HomeWifiConfig(2015, 0.15, 0.15),
                         public=PublicWifiConfig(2015, 200, 0.5),
                         open_ap_count=20),
        rng,
    )
    results = simulate_devices(profiles, TimeAxis(date(2015, 3, 2), 2),
                               deployment, demand, params, seed=0, year=2015)
    return {r.device_id: (profiles[r.device_id].os, r.tables)
            for r in results}


def _tables_for(simulated, os):
    return [tables for device_os, tables in simulated.values()
            if device_os is os]


class TestAgent:
    def test_basic_sampling(self):
        agent = MeasurementAgent(_device())
        uploads = list(agent.package_uploads(_slot_tables(0, 7), N_SLOTS))
        assert [t for t, _ in uploads] == [7]
        payload = uploads[0][1]
        assert {name: hi - lo for name, (_, lo, hi)
                in payload.ranges.items()} == {"traffic": 2, "wifi": 1,
                                              "geo": 1}
        assert len(payload) == 4

    def test_geo_quantized_to_cells(self, simulated):
        for _, tables in simulated.values():
            geo = tables["geo"]
            assert np.issubdtype(geo["col"].dtype, np.integer)
            assert np.issubdtype(geo["row"].dtype, np.integer)

    def test_ios_hides_off_state(self, simulated):
        for tables in _tables_for(simulated, DeviceOS.IOS):
            if "wifi" in tables:
                states = set(tables["wifi"]["state"].tolist())
                assert states == {int(WifiStateCode.ASSOCIATED)}

    def test_ios_reports_association(self, simulated):
        wifi = [tables["wifi"] for tables in _tables_for(simulated, DeviceOS.IOS)
                if "wifi" in tables]
        assert wifi, "no iOS device associated in the panel"
        assert all((cols["ap_id"] >= 0).all() for cols in wifi)

    def test_ios_drops_scans_and_apps(self, simulated):
        for tables in _tables_for(simulated, DeviceOS.IOS):
            assert not {"scans", "sightings", "apps"} & set(tables)
        android = _tables_for(simulated, DeviceOS.ANDROID)
        assert any("apps" in tables for tables in android)

    def test_monotonic_time_enforced(self):
        # Rows arrive out of slot order; uploads still go out in slot order.
        tables = {"geo": dict(device=np.zeros(3, int), t=np.array([9, 2, 5]),
                              col=np.array([1, 2, 3]), row=np.zeros(3, int))}
        uploads = list(MeasurementAgent(_device()).package_uploads(tables,
                                                                   N_SLOTS))
        assert [t for t, _ in uploads] == [2, 5, 9]
        cols = [p.ranges["geo"][0]["col"][p.ranges["geo"][1]]
                for _, p in uploads]
        assert cols == [2, 3, 1]

    def test_update_event_carried(self):
        agent = MeasurementAgent(_device(os=DeviceOS.IOS))
        tables = _slot_tables(0, 10)
        tables["updates"] = dict(device=np.array([0]), t=np.array([10]),
                                 bytes=np.array([565e6]))
        (t, payload), = agent.package_uploads(tables, N_SLOTS)
        cols, lo, hi = payload.ranges["updates"]
        assert t == 10
        assert cols["bytes"][lo:hi].tolist() == [565e6]


class TestUploader:
    def test_reliable_transport_delivers(self):
        received = []
        transport = FlakyTransport(received.append, failure_rate=0.0)
        uploader = Uploader(device_id=0, transport=transport)
        assert uploader.upload(_empty())
        assert len(received) == 1
        assert uploader.cached_batches == 0

    def test_failures_cached_and_retried(self, rng):
        received = []

        class FailNTimes:
            def __init__(self, n):
                self.n = n

            def deliver(self, batch):
                if self.n > 0:
                    self.n -= 1
                    raise UploadError("down")
                received.append(batch)

        uploader = Uploader(device_id=0, transport=FailNTimes(2))
        assert not uploader.upload(_empty())
        assert uploader.cached_batches == 1
        assert not uploader.flush()
        assert uploader.flush()
        assert len(received) == 1

    def test_ordering_preserved_after_failure(self):
        received = []

        class FailFirst:
            def __init__(self):
                self.calls = 0

            def deliver(self, batch):
                self.calls += 1
                if self.calls == 1:
                    raise UploadError("down")
                received.append(batch.sequence)

        uploader = Uploader(device_id=0, transport=FailFirst())
        uploader.upload(_empty())  # seq 0 fails
        uploader.upload(_empty())  # retries 0, then 1
        assert received == [0, 1]

    def test_cache_overflow_evicts_oldest(self):
        received = []

        class Down:
            def __init__(self):
                self.up = False

            def deliver(self, batch):
                if not self.up:
                    raise UploadError("down")
                received.append(batch.sequence)

        transport = Down()
        uploader = Uploader(device_id=0, transport=transport, max_cache_batches=2)
        for _ in range(4):
            uploader.upload(_empty())
        # Bounded storage: the two oldest batches were evicted, recorded as
        # data loss, and the uploader keeps working.
        assert uploader.dropped_batches == 2
        assert uploader.cached_batches == 2
        transport.up = True
        assert uploader.flush()
        assert received == [2, 3]

    def test_flaky_transport_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            FlakyTransport(lambda b: None, failure_rate=1.5)
        with pytest.raises(ConfigurationError):
            FlakyTransport(lambda b: None, failure_rate=-0.1)

    def test_flaky_transport_permanent_outage(self):
        # failure_rate == 1.0 is a valid permanent-outage configuration.
        transport = FlakyTransport(lambda b: None, failure_rate=1.0)
        uploader = Uploader(device_id=0, transport=transport)
        uploader.upload(_empty())
        assert uploader.cached_batches == 1
        with pytest.raises(UploadError, match="did not drain"):
            drain_all([uploader], max_rounds=3)

    def test_flaky_transport_rate(self, rng):
        transport = FlakyTransport(lambda b: None, failure_rate=0.3, rng=rng)
        failures = 0
        for i in range(1000):
            try:
                transport.deliver(UploadBatch(0, i, _empty()))
            except UploadError:
                failures += 1
        assert failures / 1000 == pytest.approx(0.3, abs=0.05)

    def test_drain_all_gives_up(self):
        def always_fail(batch):
            raise UploadError("down")

        class Down:
            def deliver(self, batch):
                always_fail(batch)

        uploader = Uploader(device_id=0, transport=Down())
        uploader.upload(_empty())
        with pytest.raises(UploadError, match="did not drain"):
            drain_all([uploader], max_rounds=3)


class TestServerPipeline:
    def test_end_to_end_with_flaky_uploads(self, rng):
        """Agent -> flaky uploader -> server -> dataset, no data loss."""
        axis = TimeAxis(date(2015, 3, 2), 2)
        server = CollectionServer(2015, axis)
        infos = [_device(0), _device(1, os=DeviceOS.IOS)]
        for info in infos:
            server.register_device(info)

        uploaders = []
        for info in infos:
            agent = MeasurementAgent(info)
            transport = FlakyTransport(
                server.receive, failure_rate=0.4,
                rng=np.random.default_rng(info.device_id),
            )
            uploader = Uploader(device_id=info.device_id, transport=transport)
            uploaders.append((agent, uploader))

        n_ticks = 50
        for agent, uploader in uploaders:
            device_id = agent.info.device_id
            tables = {"traffic": dict(
                device=np.full(n_ticks, device_id), t=np.arange(n_ticks),
                iface=np.ones(n_ticks, int),
                rx=1000.0 + np.arange(n_ticks), tx=np.full(n_ticks, 100.0),
            )}
            for _, payload in agent.package_uploads(tables, N_SLOTS):
                uploader.upload(payload)
        drain_all([u for _, u in uploaders])

        dataset = server.build_dataset()
        # Every tick's traffic arrived exactly once despite 40% failures.
        assert len(dataset.traffic) == n_ticks * 2
        assert server.duplicates_dropped == 0
        for device in (0, 1):
            rows = dataset.traffic.device == device
            assert sorted(dataset.traffic.t[rows]) == list(range(n_ticks))

    def test_duplicate_batches_dropped(self):
        axis = TimeAxis(date(2015, 3, 2), 1)
        server = CollectionServer(2015, axis)
        server.register_device(_device(0))
        batch = UploadBatch(0, 0, _empty())
        server.receive(batch)
        server.receive(batch)
        assert server.batches_received == 1
        assert server.duplicates_dropped == 1

    def test_unregistered_device_rejected(self):
        axis = TimeAxis(date(2015, 3, 2), 1)
        server = CollectionServer(2015, axis)
        with pytest.raises(CollectionError):
            server.receive(UploadBatch(3, 0, _empty()))

    def test_registration_checked_against_actual_ids(self):
        # Validation is against the registered id set, not a dense-range
        # assumption: with two devices enrolled, device 2 is still foreign.
        axis = TimeAxis(date(2015, 3, 2), 1)
        server = CollectionServer(2015, axis)
        server.register_device(_device(0))
        server.register_device(_device(1))
        server.receive(UploadBatch(1, 0, _empty()))
        with pytest.raises(CollectionError, match="unregistered device 2"):
            server.receive(UploadBatch(2, 0, _empty()))
        assert server.received_by_device == {1: 1}

    def test_foreign_row_mid_table_rejected(self):
        # First and last rows belong to device 0; the middle one does not.
        from repro.collection.faults import FaultPlan
        from repro.collection.pipeline import CollectionPump

        axis = TimeAxis(date(2015, 3, 2), 1)
        tables = {"geo": dict(device=np.array([0, 1, 0]), t=np.arange(3),
                              col=np.zeros(3, int), row=np.zeros(3, int))}
        server = CollectionServer(2015, axis)
        server.register_device(_device(0))
        server.register_device(_device(1))
        with pytest.raises(CollectionError, match="foreign device"):
            server.receive_bulk(0, tables, axis.n_slots)
        # transmit() is the per-tick replay, whatever the plan.
        pump = CollectionPump(server, FaultPlan.zero(), n_slots=axis.n_slots)
        with pytest.raises(CollectionError, match="foreign device"):
            pump.transmit(_device(0), tables)
        assert server.received_by_device == {}
        assert len(server.build_dataset().geo) == 0
