"""Unit and integration tests for the collection substrate.

The upload rules (§2: cache on failure, retry oldest first, bounded cache,
outages, churn, duplicate retransmissions) run over batch numbers in
:func:`replay_uploads`. Their tests script the uniforms the replay draws,
so each rule is pinned by the exact batches it delivers, keeps or drops,
and a property checks the block-drawn replay against a plain per-tick,
per-attempt reference on random plans.
"""

from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.demand import DemandModel
from repro.collection.faults import (
    DeviceCollectionStats,
    FaultPlan,
    OutageWindow,
)
from repro.collection.pipeline import CollectionPump
from repro.collection.server import (
    CollectionServer,
    occupied_slots,
    upload_slots,
)
from repro.collection.uploader import replay_uploads
from repro.constants import SAMPLES_PER_DAY
from repro.errors import CollectionError, ConfigurationError
from repro.net.cellular import CellularTechnology
from repro.network_env.deployment import DeploymentConfig, build_deployment
from repro.network_env.home_wifi import HomeWifiConfig
from repro.network_env.public_wifi import PublicWifiConfig
from repro.population.recruitment import RecruitmentConfig, recruit
from repro.simulation.kernel import simulate_devices
from repro.simulation.params import default_params
from repro.timeutil import TimeAxis
from repro.traces.records import DeviceInfo, DeviceOS, WifiStateCode
from tests.helpers import received_dataset

N_SLOTS = 144
LTE = CellularTechnology.LTE


def _device(device_id=0, os=DeviceOS.ANDROID):
    return DeviceInfo(device_id, os, "docomo", LTE)


def _server(*infos, n_days=1):
    server = CollectionServer(2015, TimeAxis(date(2015, 3, 2), n_days))
    for info in infos:
        server.register_device(info)
    return server


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


def _traffic(device_id, t):
    t = np.asarray(t)
    return {"traffic": dict(device=np.full(len(t), device_id), t=t,
                            iface=np.ones(len(t), int),
                            rx=1000.0 + t, tx=np.full(len(t), 100.0))}


class _Scripted:
    """A generator whose uniforms are scripted; past the script every
    uniform is 0.99 (an attempt succeeds and sends no duplicate)."""

    def __init__(self, *uniforms):
        self.uniforms = uniforms

    def random(self, n):
        out = np.full(n, 0.99)
        head = self.uniforms[:n]
        out[:len(head)] = head
        return out


def _receive_all(server, device_id, tables):
    """Hand ``server`` every batch of ``tables``, as a lossless upload."""
    slots = upload_slots(device_id, tables, N_SLOTS)
    return server.receive_bulk(device_id, tables, slots,
                               occupied_slots(slots, N_SLOTS))


def _replay(slots, plan, rng=None, n_slots=N_SLOTS, technology=LTE):
    return replay_uploads(
        0, np.asarray(slots, dtype=np.int64), plan, technology,
        rng if rng is not None else np.random.default_rng(0), n_slots,
    )


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
    """What the on-device agent sends: one upload batch per slot."""

    def test_basic_sampling(self):
        slots = upload_slots(0, _slot_tables(0, 7), N_SLOTS)
        assert {name: key.tolist() for name, key in slots.items()} == {
            "traffic": [7, 7], "wifi": [7], "geo": [7]}
        assert occupied_slots(slots, N_SLOTS).tolist() == [7]

    def test_daily_rows_ride_the_last_slot_of_their_day(self):
        apps = dict(device=np.zeros(2, int), day=np.array([0, 2]),
                    category=np.zeros(2, int))
        slots = upload_slots(0, {"apps": apps}, 3 * SAMPLES_PER_DAY)
        assert slots["apps"].tolist() == [SAMPLES_PER_DAY - 1,
                                          3 * SAMPLES_PER_DAY - 1]

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
        # Rows arrive out of slot order; batches still go out in slot order
        # and the built dataset holds them in slot order.
        tables = {"geo": dict(device=np.zeros(3, int), t=np.array([9, 2, 5]),
                              col=np.array([1, 2, 3]), row=np.zeros(3, int))}
        slots = upload_slots(0, tables, N_SLOTS)
        assert occupied_slots(slots, N_SLOTS).tolist() == [2, 5, 9]
        server = _server(_device())
        assert _receive_all(server, 0, tables) == 3
        geo = received_dataset(server).geo
        assert geo.t.tolist() == [2, 5, 9]
        assert geo.col.tolist() == [2, 3, 1]

    def test_update_event_carried(self):
        tables = _slot_tables(0, 10)
        tables["updates"] = dict(device=np.array([0]), t=np.array([10]),
                                 bytes=np.array([565e6]))
        slots = upload_slots(0, tables, N_SLOTS)
        assert occupied_slots(slots, N_SLOTS).tolist() == [10]
        server = _server(_device(os=DeviceOS.IOS))
        _receive_all(server, 0, tables)
        updates = received_dataset(server).updates
        assert updates.t.tolist() == [10]
        assert updates.bytes.tolist() == [565e6]


class TestUploader:
    """The §2 upload rules, replayed over batch numbers."""

    def test_reliable_transport_delivers(self):
        delivered, stats, failures = _replay(
            [3, 4, 9], FaultPlan(max_cache_batches=1))
        assert delivered.tolist() == [3, 4, 9]
        assert failures == 0
        assert stats == DeviceCollectionStats(
            device_id=0, ticks=3, churn_slot=None, churned=0, uploaded=3,
            delivered=3, duplicates=0, dropped=0, cached=0)

    def test_failures_cached_and_retried(self):
        plan = FaultPlan(upload_failure_p=0.5, final_drain_rounds=0)
        # Batch 0 fails on ticks 0 and 1, then goes out with batches 1, 2.
        delivered, stats, failures = _replay(
            [0, 1, 2], plan, _Scripted(0.1, 0.1, 0.9, 0.9, 0.9))
        assert delivered.tolist() == [0, 1, 2]
        assert (failures, stats.cached) == (2, 0)
        # Still failing at the last tick: both batches stay cached.
        delivered, stats, failures = _replay(
            [0, 1], plan, _Scripted(0.1, 0.1))
        assert delivered.tolist() == []
        assert (failures, stats.cached, stats.delivered) == (2, 2, 0)

    def test_ordering_preserved_after_failure(self):
        # Tick 2 retries batch 1 first; once it fails, batch 2 is not tried
        # (its uniform would have been a success), so both stay cached.
        plan = FaultPlan(upload_failure_p=0.5, final_drain_rounds=0)
        delivered, stats, failures = _replay(
            [0, 1, 2], plan, _Scripted(0.9, 0.1, 0.1, 0.9))
        assert delivered.tolist() == [0]
        assert (failures, stats.cached) == (2, 2)

    def test_cache_overflow_evicts_oldest(self):
        # Down for four ticks with room for two batches: the two oldest are
        # evicted, recorded as data loss, and the rest drain at the end.
        plan = FaultPlan(outages=(OutageWindow(0, 4),), max_cache_batches=2)
        delivered, stats, failures = _replay([0, 1, 2, 3], plan)
        assert delivered.tolist() == [2, 3]
        assert (stats.dropped, stats.cached, failures) == (2, 0, 4)
        # An outage inside the campaign: batches 10-14 fail and 13, 14 are
        # left; slot 15's batch evicts 13 before the flush that recovers.
        plan = FaultPlan(outages=(OutageWindow(10, 15),), max_cache_batches=2)
        delivered, stats, failures = _replay(range(8, 18), plan)
        assert delivered.tolist() == [8, 9, 14, 15, 16, 17]
        assert (stats.dropped, stats.cached, failures) == (4, 0, 5)

    def test_flaky_transport_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(upload_failure_p=1.5)
        with pytest.raises(ConfigurationError):
            FaultPlan(upload_failure_p=-0.1)
        # 3G extra loss stacks on the base rate, capped at certain failure.
        plan = FaultPlan(upload_failure_p=0.7, upload_failure_p_3g_extra=0.5)
        assert plan.failure_p(CellularTechnology.THREE_G) == 1.0
        assert plan.failure_p(LTE) == 0.7

    def test_flaky_transport_permanent_outage(self):
        # upload_failure_p == 1.0 is a valid permanent-outage configuration:
        # every attempt fails without a draw, the cache keeps the newest
        # batches and the bounded final drain stalls without raising.
        plan = FaultPlan(upload_failure_p=1.0, max_cache_batches=4,
                         final_drain_rounds=3)
        delivered, stats, failures = _replay(range(10), plan, _Scripted())
        assert delivered.tolist() == []
        assert (stats.dropped, stats.cached) == (6, 4)
        assert failures == 10 + 3

    def test_flaky_transport_rate(self):
        plan = FaultPlan(upload_failure_p=0.3, final_drain_rounds=100)
        delivered, stats, failures = _replay(
            range(1000), plan, np.random.default_rng(12345), n_slots=1000)
        assert len(delivered) == stats.delivered == 1000
        assert failures / (failures + 1000) == pytest.approx(0.3, abs=0.05)

    def test_final_drain_gives_up(self):
        # Dark past the campaign end: each drain round fails once and the
        # drain stops after final_drain_rounds.
        for rounds in (0, 3):
            plan = FaultPlan(outages=(OutageWindow(5, 10_000),),
                             final_drain_rounds=rounds)
            delivered, stats, failures = _replay(range(8), plan)
            assert delivered.tolist() == [0, 1, 2, 3, 4]
            assert stats.cached == 3
            assert failures == 3 + rounds

    def test_churn_stops_uploads(self):
        plan = FaultPlan(dropout_p=1.0, dropout_min_frac=0.5)
        delivered, stats, _ = _replay(range(0, N_SLOTS, 2), plan)
        assert stats.churn_slot >= N_SLOTS // 2
        assert delivered.max() < stats.churn_slot
        assert stats.churned == sum(
            1 for t in range(0, N_SLOTS, 2) if t >= stats.churn_slot)

    def test_duplicates_follow_successes(self):
        # duplicate_p == 1: every delivered batch is retransmitted once.
        plan = FaultPlan(upload_failure_p=0.5, duplicate_p=1.0,
                         final_drain_rounds=0)
        delivered, stats, failures = _replay(
            [0, 1, 2], plan, _Scripted(0.9, 0.5, 0.1, 0.9, 0.5, 0.9, 0.5))
        assert delivered.tolist() == [0, 1, 2]
        assert stats.duplicates == stats.delivered == 3
        assert failures == 1


def _scalar_replay(slots, plan, technology, rng, n_slots):
    """The upload rules one tick and one attempt at a time, one scalar
    draw per uniform: the reference the block-drawn replay must match."""
    churn_slot = None
    if plan.dropout_p and rng.random() < plan.dropout_p:
        churn_slot = int(rng.integers(
            min(int(n_slots * plan.dropout_min_frac), n_slots - 1), n_slots))
    p = plan.failure_p(technology)
    cache, delivered = [], []
    counts = dict(dropped=0, duplicates=0, failures=0)

    def flush(now):
        while cache:
            if any(w.covers(now) for w in plan.outages) or p >= 1.0 or (
                    p > 0.0 and rng.random() < p):
                counts["failures"] += 1
                return
            delivered.append(cache.pop(0))
            if plan.duplicate_p and rng.random() < plan.duplicate_p:
                counts["duplicates"] += 1

    uploaded = [t for t in slots if churn_slot is None or t < churn_slot]
    for t in uploaded:
        cache.append(t)
        while len(cache) > plan.max_cache_batches:
            cache.pop(0)
            counts["dropped"] += 1
        flush(t)
    for _ in range(plan.final_drain_rounds):
        if not cache:
            break
        flush(n_slots)
    stats = DeviceCollectionStats(
        device_id=0, ticks=len(slots), churn_slot=churn_slot,
        churned=len(slots) - len(uploaded), uploaded=len(uploaded),
        delivered=len(delivered), duplicates=counts["duplicates"],
        dropped=counts["dropped"], cached=len(cache))
    return delivered, stats, counts["failures"]


@st.composite
def fault_plans(draw):
    n_windows = draw(st.integers(0, 2))
    outages = []
    for _ in range(n_windows):
        start = draw(st.integers(0, 200))
        outages.append(OutageWindow(start, start + draw(st.integers(1, 150))))
    probability = st.sampled_from([0.0, 0.02, 0.3, 0.9, 1.0])
    return FaultPlan(
        upload_failure_p=draw(probability),
        upload_failure_p_3g_extra=draw(st.sampled_from([0.0, 0.2])),
        outages=tuple(outages),
        dropout_p=draw(st.sampled_from([0.0, 0.5, 1.0])),
        duplicate_p=draw(probability),
        max_cache_batches=draw(st.sampled_from([1, 3, 16, 4096])),
        final_drain_rounds=draw(st.integers(0, 4)),
        seed=draw(st.integers(0, 3)),
    )


class TestReplayProperties:
    @given(plan=fault_plans(),
           occupied=st.sets(st.integers(0, 199), max_size=120),
           technology=st.sampled_from(list(CellularTechnology)),
           key=st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_block_replay_is_the_scalar_replay(self, plan, occupied,
                                               technology, key):
        slots = sorted(occupied)
        expected = _scalar_replay(slots, plan, technology,
                                  np.random.default_rng(key), 200)
        delivered, stats, failures = replay_uploads(
            0, np.array(slots, dtype=np.int64), plan, technology,
            np.random.default_rng(key), 200)
        assert (delivered.tolist(), stats, failures) == expected

    @given(plan=fault_plans(),
           occupied=st.sets(st.integers(0, 199), max_size=120),
           key=st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_every_batch_is_accounted_once(self, plan, occupied, key):
        delivered, s, _ = replay_uploads(
            0, np.array(sorted(occupied), dtype=np.int64), plan, LTE,
            np.random.default_rng(key), 200)
        assert s.ticks == len(occupied)
        assert s.ticks == s.churned + s.uploaded
        assert s.uploaded == s.delivered + s.dropped + s.cached
        assert len(delivered) == s.delivered
        assert set(delivered.tolist()) <= occupied


class TestServerPipeline:
    def test_end_to_end_with_flaky_uploads(self):
        """Device → faulty uploads → server → dataset, no data loss."""
        server = _server(_device(0), _device(1, os=DeviceOS.IOS), n_days=2)
        pump = CollectionPump(
            server, FaultPlan(upload_failure_p=0.4, final_drain_rounds=200),
            n_slots=2 * N_SLOTS,
        )
        n_ticks = 50
        for device_id in (0, 1):
            stats = pump.transmit_bulk(
                _device(device_id), _traffic(device_id, np.arange(n_ticks)))
            assert stats.delivered == n_ticks

        dataset = received_dataset(server)
        # Every tick's traffic arrived exactly once despite 40% failures.
        assert len(dataset.traffic) == n_ticks * 2
        assert server.duplicates_dropped == 0
        for device in (0, 1):
            rows = dataset.traffic.device == device
            assert sorted(dataset.traffic.t[rows]) == list(range(n_ticks))

    def test_duplicate_batches_dropped(self):
        server = _server(_device(0))
        pump = CollectionPump(server, FaultPlan(duplicate_p=1.0),
                              n_slots=N_SLOTS)
        stats = pump.transmit_bulk(_device(0), _traffic(0, [3, 4, 5]))
        assert stats.duplicates == 3
        assert server.batches_received == 3
        assert server.duplicates_dropped == 3
        assert received_dataset(server).traffic.t.tolist() == [3, 4, 5]

    def test_unregistered_device_rejected(self):
        server = _server()
        with pytest.raises(CollectionError):
            server.receive_bulk(3, {}, {}, np.array([], dtype=np.int64))

    def test_registration_checked_against_actual_ids(self):
        # Validation is against the registered id set, not a dense-range
        # assumption: with two devices enrolled, device 2 is still foreign.
        server = _server(_device(0), _device(1))
        _receive_all(server, 1, _traffic(1, [0]))
        with pytest.raises(CollectionError, match="unregistered device 2"):
            _receive_all(server, 2, _traffic(2, [0]))
        assert server.batches_received == 1

    def test_foreign_row_mid_table_rejected(self):
        # First and last rows belong to device 0; the middle one does not.
        tables = {"geo": dict(device=np.array([0, 1, 0]), t=np.arange(3),
                              col=np.zeros(3, int), row=np.zeros(3, int))}
        with pytest.raises(CollectionError, match="foreign device"):
            upload_slots(0, tables, N_SLOTS)
        server = _server(_device(0), _device(1))
        for plan in (FaultPlan.zero(), FaultPlan(upload_failure_p=0.5)):
            pump = CollectionPump(server, plan, n_slots=N_SLOTS)
            with pytest.raises(CollectionError, match="foreign device"):
                pump.transmit_bulk(_device(0), tables)
        assert server.batches_received == 0
        assert len(received_dataset(server).geo) == 0
