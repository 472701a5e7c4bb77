"""Failure-injection tests: corrupted inputs, degenerate data, byzantine IO."""

from datetime import date

import numpy as np
import pytest

from repro.errors import AnalysisError, DatasetError, SchemaError
from repro.net.cellular import CellularTechnology
from repro.timeutil import TimeAxis
from repro.traces.records import DeviceInfo, DeviceOS
from repro.traces.store import load_dataset, save_dataset
from tests.helpers import (
    add_ap, add_daily_traffic, make_builder, received_dataset,
)

_INFO = DeviceInfo(0, DeviceOS.ANDROID, "docomo", CellularTechnology.LTE)


class TestCorruptedPersistence:
    def test_missing_tables_file(self, tmp_path, study):
        root = save_dataset(study.dataset(2013), tmp_path / "ds")
        (root / "tables" / "traffic__rx.npy").unlink()
        loaded = load_dataset(root)
        with pytest.raises(DatasetError, match="traffic.rx cannot be read"):
            loaded.traffic.rx

    def test_truncated_meta(self, tmp_path, study):
        root = save_dataset(study.dataset(2013), tmp_path / "ds")
        meta = (root / "meta.json").read_text()
        (root / "meta.json").write_text(meta[: len(meta) // 2])
        with pytest.raises(Exception):
            load_dataset(root)

    def test_column_tampering_caught_by_validation(self, tmp_path, study):
        from repro.traces.validate import validate_dataset
        root = save_dataset(study.dataset(2013), tmp_path / "ds")
        loaded = load_dataset(root)
        with pytest.raises(ValueError, match="read-only"):
            loaded.traffic.device[:] = 0
        del loaded
        # Tamper with the column file itself: unknown devices.
        path = root / "tables" / "traffic__device.npy"
        tampered = np.full_like(np.load(path), 10_000)
        np.save(path, tampered)
        with pytest.raises(SchemaError):
            validate_dataset(load_dataset(root))


class TestDegenerateDatasets:
    def test_single_user_analyses(self):
        builder = make_builder(n_devices=1, n_days=7)
        add_ap(builder, 0, "home-0")
        for day in range(7):
            add_daily_traffic(builder, 0, day, cell_rx_mb=10, wifi_rx_mb=20)
        ds = builder.build()
        from repro.analysis import aggregate_traffic, wifi_cell_heatmap
        agg = aggregate_traffic(ds)
        assert 0 < agg.wifi_share < 1
        heat = wifi_cell_heatmap(ds)
        assert heat.n_points == 7

    def test_all_zero_traffic(self):
        from repro.analysis import aggregate_traffic
        builder = make_builder(n_devices=2, n_days=2)
        with pytest.raises(AnalysisError):
            aggregate_traffic(builder.build())

    def test_analyses_on_empty_wifi(self):
        from repro.analysis import classify_aps, association_durations
        builder = make_builder(n_devices=2, n_days=2)
        add_daily_traffic(builder, 0, 0, cell_rx_mb=10)
        ds = builder.build()
        assert classify_aps(ds).ap_class == {}
        with pytest.raises(AnalysisError):
            association_durations(ds)

    def test_nan_rx_rejected_by_validation(self):
        from repro.traces.validate import validate_dataset
        builder = make_builder(n_devices=1, n_days=1)
        add_daily_traffic(builder, 0, 0, cell_rx_mb=10)
        ds = builder.build()
        ds.traffic.columns["rx"][0] = np.nan
        # NaN compares false against < 0, but downstream medians/AGRs would
        # propagate it; the schema check treats NaN as negative via min().
        result_is_nan = np.isnan(ds.traffic.rx.min())
        assert result_is_nan
        # validate_dataset only enforces non-negativity; the ECDF layer
        # rejects NaNs explicitly:
        from repro.stats.distributions import ecdf
        with pytest.raises(AnalysisError):
            ecdf(ds.traffic.rx)


class TestByzantineTransport:
    def test_transport_raising_unrelated_errors_propagates(self):
        from repro.collection.faults import FaultPlan
        from repro.collection.pipeline import CollectionPump
        from repro.collection.server import CollectionServer
        from repro.errors import CollectionError

        server = CollectionServer(2015, TimeAxis(date(2015, 3, 2), 1))
        server.register_device(_INFO)
        pump = CollectionPump(server, FaultPlan(upload_failure_p=0.5),
                              n_slots=144)
        # Upload failures are accounted loss; a malformed upload is a bug
        # and surfaces, leaving nothing behind.
        traffic = dict(device=np.array([0, 7]), t=np.array([1, 2]),
                       iface=np.array([1, 1]), rx=np.ones(2), tx=np.ones(2))
        with pytest.raises(CollectionError, match="foreign device"):
            pump.transmit_bulk(_INFO, {"traffic": traffic})
        assert server.batches_received == 0

    def test_intermittent_recovery(self, rng):
        from repro.collection.faults import FaultPlan
        from repro.collection.uploader import replay_uploads

        plan = FaultPlan(upload_failure_p=0.8, final_drain_rounds=200)
        delivered, stats, failures = replay_uploads(
            0, np.arange(30), plan, CellularTechnology.LTE, rng, 144)
        assert delivered.tolist() == list(range(30))
        assert stats.cached == stats.dropped == 0
        assert failures > 30

    def test_server_rejects_foreign_year_slots(self):
        from repro.collection.server import CollectionServer, upload_slots
        from repro.errors import CollectionError

        axis = TimeAxis(date(2015, 3, 2), 1)  # 144 slots only
        server = CollectionServer(2015, axis)
        server.register_device(_INFO)
        traffic = dict(device=np.array([0]), t=np.array([999]),
                       iface=np.array([1]), rx=np.array([5.0]),
                       tx=np.array([0.0]))
        with pytest.raises(CollectionError, match="outside the campaign"):
            upload_slots(0, {"traffic": traffic}, axis.n_slots)
        assert len(received_dataset(server).traffic) == 0


class TestFaultPlanScenarios:
    def test_outage_window_caches_then_recovers(self):
        from repro.collection.faults import FaultPlan, OutageWindow
        from repro.collection.uploader import replay_uploads

        plan = FaultPlan(outages=(OutageWindow(3, 7),))
        delivered, stats, failures = replay_uploads(
            0, np.arange(10), plan, CellularTechnology.LTE,
            np.random.default_rng(0), 144)
        # Every batch made it out once coverage returned, in order.
        assert delivered.tolist() == list(range(10))
        assert stats.cached == 0
        assert failures == 4

    def test_outage_covering_campaign_end_strands_cache(self):
        from repro.collection.faults import FaultPlan, OutageWindow
        from repro.collection.uploader import replay_uploads

        plan = FaultPlan(outages=(OutageWindow(0, 10_000),),
                         final_drain_rounds=4)
        delivered, stats, failures = replay_uploads(
            0, np.arange(5), plan, CellularTechnology.LTE,
            np.random.default_rng(0), 144)
        # The bounded final drain stalls, never raises.
        assert stats.cached == 5
        assert stats.delivered == len(delivered) == 0
        assert failures == 5 + 4

    def test_churn_stops_reporting_mid_campaign(self):
        from repro.collection.faults import FaultPlan
        from repro.simulation.study import default_campaign_config
        from repro.simulation.campaign import run_campaign

        plan = FaultPlan(dropout_p=1.0, dropout_min_frac=0.5)
        config = default_campaign_config(2013, scale=0.003, seed=9, faults=plan)
        result = run_campaign(config)
        report = result.collection
        n_slots = result.dataset.n_slots
        for stats in report.devices:
            assert stats.churn_slot is not None
            assert stats.churn_slot >= n_slots // 2
            assert stats.churned > 0
            assert 0.0 < stats.completeness < 1.0
            # Nothing recorded after the dropout slot reached the server.
            rows = result.dataset.geo.device == stats.device_id
            assert result.dataset.geo.t[rows].max() < stats.churn_slot
        assert report.n_valid(0.99) == 0

    def test_total_blackout_yields_empty_but_valid_dataset(self):
        from repro.collection.faults import FaultPlan
        from repro.simulation.study import default_campaign_config
        from repro.simulation.campaign import run_campaign

        plan = FaultPlan(upload_failure_p=1.0, final_drain_rounds=2)
        config = default_campaign_config(2013, scale=0.003, seed=9, faults=plan)
        result = run_campaign(config)  # no exception escapes the campaign
        assert len(result.dataset.traffic) == 0
        assert len(result.dataset.geo) == 0
        report = result.collection
        assert report.n_valid(0.01) == 0
        for stats in report.devices:
            assert stats.delivered == 0
            assert stats.uploaded == stats.dropped + stats.cached
