"""Sharded execution engine tests.

The tentpole invariant lives here: ``n_jobs=1`` and ``n_jobs=k`` must
produce bit-for-bit identical ``CampaignDataset``s and equal
``CollectionReport``s for any valid ``FaultPlan`` — shard membership,
worker count, and completion order can never change results.
"""

import dataclasses
import multiprocessing
import time

import numpy as np
import pytest

from repro.collection.faults import FaultPlan, OutageWindow
from repro.engine import (
    ParallelExecutor,
    RetryPolicy,
    SerialExecutor,
    make_executor,
    plan_units,
    resolve_jobs,
)
from repro.engine.merge import merge_reports, ordered_outputs
from repro.errors import ConfigurationError, EngineError
from repro.simulation.campaign import (
    merge_campaign,
    plan_campaign,
    run_campaign,
    simulate_shard,
)
from repro.simulation.study import default_campaign_config, run_study
from tests.helpers import kernel_reference

TABLES = ("traffic", "wifi", "geo", "scans", "sightings", "apps",
          "updates", "battery")


def _small_config(year=2013, **kwargs):
    config = default_campaign_config(year, scale=0.004, seed=11, **kwargs)
    return dataclasses.replace(config, n_days=4)


def assert_datasets_identical(expected, actual):
    """Bit-for-bit dataset comparison: values, dtypes, row order, metadata."""
    for name in TABLES:
        left = getattr(expected, name)
        right = getattr(actual, name)
        assert set(left.columns) == set(right.columns), name
        for colname, col in left.columns.items():
            got = right.columns[colname]
            assert got.dtype == col.dtype, (name, colname)
            np.testing.assert_array_equal(got, col, err_msg=f"{name}.{colname}")
    assert actual.devices == expected.devices
    assert actual.ap_directory == expected.ap_directory
    assert actual.year == expected.year


# ---------------------------------------------------------------------------
# Shard planning
# ---------------------------------------------------------------------------

class TestShardPlanner:
    def test_partition_covers_panel_in_order(self):
        plan = plan_units(range(10), 3)
        assert plan.n_shards == 3
        assert plan.device_order() == tuple(range(10))
        sizes = [s.n_devices for s in plan.shards]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self):
        a = plan_units(range(100), 7)
        b = plan_units(range(100), 7)
        assert a == b

    def test_more_shards_than_devices(self):
        plan = plan_units(range(3), 8)
        assert plan.n_shards == 3
        assert all(s.n_devices == 1 for s in plan.shards)

    def test_empty_panel(self):
        plan = plan_units([], 4)
        assert plan.n_shards == 0 and plan.n_devices == 0

    def test_rejects_unordered_ids(self):
        with pytest.raises(ConfigurationError):
            plan_units([3, 1, 2], 2)


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------

def _double(x):
    return x * 2


def _fails_in_worker(x):
    # Raises only inside a pool worker, so the serial fallback succeeds.
    if multiprocessing.parent_process() is not None:
        raise RuntimeError("worker crash")
    return x * 2


def _slow_in_worker(x):
    if multiprocessing.parent_process() is not None:
        time.sleep(2.0)
    return x


def _always_fails(x):
    raise ValueError("poison unit")


class TestExecutors:
    def test_serial_runs_in_order(self):
        executor = SerialExecutor()
        assert executor.run(_double, [1, 2, 3]) == [2, 4, 6]
        assert executor.fallbacks == 0

    def test_parallel_matches_serial(self):
        with ParallelExecutor(2) as executor:
            assert executor.run(_double, list(range(8))) == \
                [x * 2 for x in range(8)]
            assert executor.fallbacks == 0

    def test_parallel_empty_units(self):
        with ParallelExecutor(2) as executor:
            assert executor.run(_double, []) == []

    def test_worker_failure_falls_back_to_serial(self):
        with ParallelExecutor(2) as executor:
            assert executor.run(_fails_in_worker, [1, 2, 3]) == [2, 4, 6]
            assert executor.fallbacks == 3

    def test_shard_timeout_falls_back_to_serial(self):
        policy = RetryPolicy(max_attempts=1, shard_timeout_s=0.25)
        with ParallelExecutor(2, policy=policy) as executor:
            assert executor.run(_slow_in_worker, [7]) == [7]
            assert executor.fallbacks == 1

    def test_fallback_failure_propagates(self):
        with ParallelExecutor(2) as executor:
            with pytest.raises(ValueError, match="poison"):
                executor.run(_always_fails, [1])

    def test_make_executor(self):
        assert isinstance(make_executor(1), SerialExecutor)
        parallel = make_executor(3)
        assert isinstance(parallel, ParallelExecutor)
        assert parallel.n_jobs == 3
        parallel.close()

    def test_parallel_validates_args(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(1)


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        assert resolve_jobs(3) == 3

    def test_env_var_consulted(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5

    def test_auto_uses_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(None, default=0) >= 1

    def test_bad_env_var_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ConfigurationError):
            resolve_jobs()


# ---------------------------------------------------------------------------
# Campaign-level determinism (the hard guarantee)
# ---------------------------------------------------------------------------

_FAULTED_PLAN = FaultPlan(
    upload_failure_p=0.3,
    upload_failure_p_3g_extra=0.2,
    outages=(OutageWindow(50, 150),),
    dropout_p=0.4,
    duplicate_p=0.1,
    max_cache_batches=32,
    seed=3,
)


class TestEngineEquivalence:
    @pytest.fixture(scope="class")
    def serial(self):
        return run_campaign(_small_config(), n_jobs=1)

    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_zero_fault_bit_identical(self, serial, n_jobs):
        parallel = run_campaign(_small_config(), n_jobs=n_jobs)
        assert_datasets_identical(serial.dataset, parallel.dataset)
        assert parallel.collection == serial.collection
        assert parallel.execution.executor == "parallel"
        assert parallel.execution.n_shards > 1

    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_nonzero_faults_bit_identical(self, n_jobs):
        serial = run_campaign(_small_config(faults=_FAULTED_PLAN), n_jobs=1)
        parallel = run_campaign(_small_config(faults=_FAULTED_PLAN),
                                n_jobs=n_jobs)
        assert_datasets_identical(serial.dataset, parallel.dataset)
        assert parallel.collection == serial.collection
        # The plan really does lose data, so this is a nontrivial guarantee.
        assert serial.collection.totals()["delivered"] < \
            serial.collection.totals()["ticks"]

    def test_rerun_is_deterministic(self, serial):
        again = run_campaign(_small_config(), n_jobs=1)
        assert_datasets_identical(serial.dataset, again.dataset)
        assert again.collection == serial.collection

    def test_update_year_parallel_identical(self):
        # 2015 carries the stateful iOS-update model; decisions must be
        # per-device so shard placement cannot change them.
        config = default_campaign_config(2015, scale=0.008, seed=11)
        serial = run_campaign(config, n_jobs=1)
        parallel = run_campaign(config, n_jobs=3)
        assert_datasets_identical(serial.dataset, parallel.dataset)
        assert len(serial.dataset.updates) > 0

    def test_direct_build_parallel_matches_pipeline(self):
        # The sharded pipeline equals the kernel's output built directly.
        parallel = run_campaign(_small_config(), n_jobs=2)
        assert_datasets_identical(kernel_reference(_small_config()),
                                  parallel.dataset)

    def test_study_fans_years_across_one_executor(self, serial):
        study1 = run_study(scale=0.004, seed=11, n_jobs=1)
        study2 = run_study(scale=0.004, seed=11, n_jobs=2)
        for year in study1.years:
            assert_datasets_identical(study1.dataset(year),
                                      study2.dataset(year))
            assert study1.campaigns[year].collection == \
                study2.campaigns[year].collection
            assert study1.surveys[year] == study2.surveys[year]
        assert study2.execution.executor == "parallel"
        # All years' shards went through the shared executor.
        assert study2.execution.n_shards == sum(
            study2.campaigns[y].execution.n_shards for y in study2.years
        )


# ---------------------------------------------------------------------------
# Merge layer
# ---------------------------------------------------------------------------

class TestMerge:
    @pytest.fixture(scope="class")
    def plan_and_outputs(self):
        plan = plan_campaign(_small_config(), n_jobs=3)
        outputs = [simulate_shard(work) for work in plan.work]
        return plan, outputs

    def test_merge_is_order_insensitive(self, plan_and_outputs):
        plan, outputs = plan_and_outputs
        assert len(outputs) > 1
        canonical = merge_campaign(plan, outputs)
        shuffled = merge_campaign(plan, list(reversed(outputs)))
        assert_datasets_identical(canonical.dataset, shuffled.dataset)
        assert shuffled.collection == canonical.collection

    def test_report_stats_in_canonical_device_order(self, plan_and_outputs):
        plan, outputs = plan_and_outputs
        report = merge_reports(list(reversed(outputs)), plan.shard_plan,
                               plan.config.axis.n_slots)
        device_ids = [stats.device_id for stats in report.devices]
        assert device_ids == list(plan.shard_plan.device_order())

    def test_missing_shard_rejected(self, plan_and_outputs):
        plan, outputs = plan_and_outputs
        with pytest.raises(EngineError, match="shard outputs"):
            merge_campaign(plan, outputs[:-1])

    def test_duplicate_shard_rejected(self, plan_and_outputs):
        plan, outputs = plan_and_outputs
        with pytest.raises(EngineError):
            merge_campaign(plan, [outputs[0]] + list(outputs[:-1]))

    def test_device_coverage_mismatch_rejected(self, plan_and_outputs):
        plan, outputs = plan_and_outputs
        bad = dataclasses.replace(
            outputs[0],
            device_ids=tuple(d + 1000 for d in outputs[0].device_ids),
        )
        with pytest.raises(EngineError, match="covered devices"):
            ordered_outputs([bad] + list(outputs[1:]), plan.shard_plan)


# ---------------------------------------------------------------------------
# Engine path through the CLI
# ---------------------------------------------------------------------------

def test_cli_jobs_flag_surfaces_executor(tmp_path, capsys):
    from repro.cli import main

    out_dir = tmp_path / "data"
    assert main(["simulate", "--scale", "0.004", "--seed", "3",
                 "--out", str(out_dir), "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "executor: parallel (2 jobs" in out
    assert "shards)" in out
    assert "2 shards" in out  # per-campaign shard counts ride the save lines


def test_cli_jobs_serial(tmp_path, capsys):
    from repro.cli import main

    out_dir = tmp_path / "data"
    assert main(["simulate", "--scale", "0.004", "--seed", "3",
                 "--out", str(out_dir), "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "executor: serial (1 job" in out
