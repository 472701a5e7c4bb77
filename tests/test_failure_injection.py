"""Failure-injection tests: corrupted inputs, degenerate data, byzantine IO."""

import numpy as np
import pytest

from repro.errors import AnalysisError, DatasetError, SchemaError, UploadError
from repro.traces.store import load_dataset, save_dataset
from tests.helpers import add_ap, add_daily_traffic, make_builder


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
        from repro.collection.agent import ColumnarRecords
        from repro.collection.uploader import Uploader

        class Exploding:
            def deliver(self, batch):
                raise RuntimeError("segfault in modem firmware")

        uploader = Uploader(device_id=0, transport=Exploding())
        # Only UploadError is treated as retryable; other bugs surface.
        with pytest.raises(RuntimeError):
            uploader.upload(ColumnarRecords({}))

    def test_intermittent_recovery(self, rng):
        from repro.collection.agent import ColumnarRecords
        from repro.collection.uploader import FlakyTransport, Uploader, drain_all

        received = []
        transport = FlakyTransport(received.append, failure_rate=0.8, rng=rng)
        uploader = Uploader(device_id=0, transport=transport)
        for _ in range(30):
            uploader.upload(ColumnarRecords({}))
        drain_all([uploader], max_rounds=200)
        assert len(received) == 30
        sequences = [batch.sequence for batch in received]
        assert sequences == sorted(sequences)  # order preserved end to end

    def test_server_rejects_foreign_year_slots(self):
        from datetime import date
        from repro.collection.agent import ColumnarRecords
        from repro.collection.server import CollectionServer
        from repro.collection.uploader import UploadBatch
        from repro.net.cellular import CellularTechnology
        from repro.timeutil import TimeAxis
        from repro.traces.records import DeviceInfo, DeviceOS

        axis = TimeAxis(date(2015, 3, 2), 1)  # 144 slots only
        server = CollectionServer(2015, axis)
        info = DeviceInfo(0, DeviceOS.ANDROID, "docomo", CellularTechnology.LTE)
        server.register_device(info)
        traffic = dict(device=np.array([0]), t=np.array([999]),
                       iface=np.array([1]), rx=np.array([5.0]),
                       tx=np.array([0.0]))
        records = ColumnarRecords({"traffic": (traffic, 0, 1)})
        server.receive(UploadBatch(0, 0, records))
        with pytest.raises(SchemaError):
            server.build_dataset()  # out-of-range slot caught at freeze


class TestFaultPlanScenarios:
    def test_outage_window_caches_then_recovers(self):
        from repro.collection.agent import ColumnarRecords
        from repro.collection.faults import FaultedTransport, FaultPlan, OutageWindow
        from repro.collection.uploader import Uploader
        from repro.net.cellular import CellularTechnology

        received = []
        plan = FaultPlan(outages=(OutageWindow(3, 7),))
        transport = FaultedTransport(
            received.append, plan, CellularTechnology.LTE,
            np.random.default_rng(0),
        )
        uploader = Uploader(device_id=0, transport=transport)
        for t in range(10):
            transport.now = t
            uploader.upload(ColumnarRecords({}))
            if 3 <= t < 7:
                assert uploader.cached_batches == t - 3 + 1
        # Every batch made it out once coverage returned, in order.
        assert uploader.cached_batches == 0
        assert [b.sequence for b in received] == list(range(10))
        assert transport.failures == 4

    def test_outage_covering_campaign_end_strands_cache(self):
        from repro.collection.agent import ColumnarRecords
        from repro.collection.faults import FaultedTransport, FaultPlan, OutageWindow
        from repro.collection.uploader import Uploader
        from repro.net.cellular import CellularTechnology

        plan = FaultPlan(outages=(OutageWindow(0, 10_000),))
        transport = FaultedTransport(
            lambda b: None, plan, CellularTechnology.LTE,
            np.random.default_rng(0),
        )
        uploader = Uploader(device_id=0, transport=transport)
        for t in range(5):
            transport.now = t
            assert not uploader.upload(ColumnarRecords({}))
        for _ in range(4):  # bounded final drain: stalls, never raises
            uploader.flush()
        assert uploader.cached_batches == 5
        assert uploader.delivered == 0

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
