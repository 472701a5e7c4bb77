"""Collection-pipeline tests: zero-fault equivalence, fault accounting.

A campaign routed through the collection pump (upload replay → server)
under a zero-fault plan must produce a dataset *bit-for-bit identical* to
appending the kernel's output for the same world straight into a
``DatasetBuilder``.
"""

import dataclasses

import numpy as np
import pytest

from repro.collection.faults import CollectionReport, FaultPlan, OutageWindow
from repro.errors import ConfigurationError
from repro.simulation.campaign import run_campaign
from repro.simulation.study import default_campaign_config
from tests.helpers import kernel_reference

TABLES = ("traffic", "wifi", "geo", "scans", "sightings", "apps",
          "updates", "battery")


def _small_config(**kwargs):
    config = default_campaign_config(2013, scale=0.004, seed=11, **kwargs)
    return dataclasses.replace(config, n_days=4)


@pytest.fixture(scope="module")
def equivalence_pair():
    reference = kernel_reference(_small_config())
    piped = run_campaign(_small_config())
    return reference, piped


class TestZeroFaultEquivalence:
    def test_tables_bit_identical(self, equivalence_pair):
        reference, piped = equivalence_pair
        for name in TABLES:
            expected = getattr(reference, name)
            actual = getattr(piped.dataset, name)
            assert set(expected.columns) == set(actual.columns), name
            for colname, col in expected.columns.items():
                got = actual.columns[colname]
                assert got.dtype == col.dtype, (name, colname)
                np.testing.assert_array_equal(got, col,
                                              err_msg=f"{name}.{colname}")

    def test_metadata_identical(self, equivalence_pair):
        reference, piped = equivalence_pair
        assert piped.dataset.devices == reference.devices
        assert piped.dataset.ap_directory == reference.ap_directory
        assert piped.dataset.year == reference.year

    def test_zero_fault_report_is_lossless(self, equivalence_pair):
        _, piped = equivalence_pair
        report = piped.collection
        assert isinstance(report, CollectionReport)
        assert report.recruited == piped.dataset.n_devices
        assert report.n_valid() == report.recruited
        assert report.duplicates_dropped == 0
        for stats in report.devices:
            assert stats.completeness == 1.0
            assert stats.churned == stats.dropped == stats.cached == 0
        assert piped.collection.totals()["delivered"] == report.batches_received


class TestConservation:
    """Every generated batch is accounted for exactly once."""

    @pytest.fixture(scope="class")
    def faulted(self):
        plan = FaultPlan(
            upload_failure_p=0.3,
            upload_failure_p_3g_extra=0.2,
            outages=(OutageWindow(50, 150),),
            dropout_p=0.4,
            duplicate_p=0.1,
            max_cache_batches=32,
            seed=3,
        )
        return run_campaign(_small_config(faults=plan))

    def test_per_device_conservation(self, faulted):
        for stats in faulted.collection.devices:
            assert stats.ticks == stats.churned + stats.uploaded
            assert stats.uploaded == (stats.delivered + stats.dropped
                                      + stats.cached)
            assert 0.0 <= stats.completeness <= 1.0

    def test_dedup_never_drops_a_first_delivery(self, faulted):
        report = faulted.collection
        totals = report.totals()
        # Every unique batch the server accepted is a delivered batch, and
        # every re-delivery it refused was a duplicate — nothing else.
        assert report.batches_received == totals["delivered"]
        assert report.duplicates_dropped == totals["duplicates"]

    def test_faults_explain_recruited_valid_gap(self, faulted):
        report = faulted.collection
        assert report.n_valid(0.99) < report.recruited
        completeness = report.completeness()
        assert completeness.min() < 1.0
        assert report.n_valid(0.0) == report.recruited == len(completeness)

    def test_lossy_dataset_is_a_subset(self, faulted):
        lossless = run_campaign(_small_config())
        for name in TABLES:
            assert len(getattr(faulted.dataset, name)) <= \
                len(getattr(lossless.dataset, name)), name


class TestFaultPlanValidation:
    def test_bad_probabilities_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(upload_failure_p=1.5)
        with pytest.raises(ConfigurationError):
            FaultPlan(dropout_p=-0.1)
        with pytest.raises(ConfigurationError):
            FaultPlan(duplicate_p=2.0)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(max_cache_batches=0)
        with pytest.raises(ConfigurationError):
            FaultPlan(dropout_min_frac=1.5)

    def test_bad_outage_rejected(self):
        with pytest.raises(ConfigurationError):
            OutageWindow(10, 10)
        with pytest.raises(ConfigurationError):
            OutageWindow(-1, 5)

    def test_zero_plan_is_zero(self):
        assert FaultPlan.zero().is_zero
        assert not FaultPlan(upload_failure_p=0.1).is_zero
        assert not FaultPlan(outages=(OutageWindow(0, 1),)).is_zero


class TestCLIFaultFlags:
    def test_no_flags_means_no_plan(self):
        from repro.cli import _fault_plan_from_args, build_parser
        args = build_parser().parse_args(
            ["simulate", "--out", "/tmp/x", "--scale", "0.01"])
        assert _fault_plan_from_args(args) is None

    def test_flags_build_plan(self):
        from repro.cli import _fault_plan_from_args, build_parser
        args = build_parser().parse_args(
            ["simulate", "--out", "/tmp/x", "--fault-rate", "0.2",
             "--outage", "10:20", "--outage", "40:50",
             "--dropout-p", "0.3", "--cache-batches", "16"])
        plan = _fault_plan_from_args(args)
        assert plan.upload_failure_p == 0.2
        assert plan.outages == (OutageWindow(10, 20), OutageWindow(40, 50))
        assert plan.dropout_p == 0.3
        assert plan.max_cache_batches == 16

    def test_malformed_outage_rejected(self):
        from repro.cli import _fault_plan_from_args, build_parser
        args = build_parser().parse_args(
            ["simulate", "--out", "/tmp/x", "--outage", "banana"])
        with pytest.raises(ConfigurationError, match="START:END"):
            _fault_plan_from_args(args)


class TestReportRendering:
    def test_render_smoke(self):
        from repro.reporting.collection import render_collection_report
        plan = FaultPlan(upload_failure_p=0.4, dropout_p=0.3, seed=1)
        result = run_campaign(_small_config(faults=plan))
        text = render_collection_report(result.collection)
        assert "devices recruited" in text
        assert "completeness" in text
