"""Self-healing execution tests: resume, retries, chaos, degradation.

The acceptance bar: the chaos harness can crash 30% of shards, hang one,
and kill the campaign mid-run — and every recovered (or resumed) run is
bit-for-bit identical to an uninterrupted one at any worker count.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.engine import (
    ChaosCrash,
    ChaosKill,
    ChaosPlan,
    ExecutionLosses,
    ParallelExecutor,
    ResilienceConfig,
    ResilienceReport,
    RetryPolicy,
    SerialExecutor,
    corrupt_checkpoints,
    missing_shards,
)
from repro.engine.chaos import ChaosInjector, ChaosMonkey, unit_key_of
from repro.engine.resilience import (
    FAILURE_BROKEN_POOL,
    FAILURE_CRASH,
    FAILURE_TIMEOUT,
    OUTCOME_DROPPED,
    OUTCOME_OK,
    OUTCOME_RETRIED,
    classify_exception,
)
from repro.errors import ConfigurationError, EngineError
from repro.obs.manifest import RunManifest, build_manifest, run_summary
from repro.simulation.campaign import (
    identity_of,
    merge_campaign,
    plan_campaign,
    run_campaign,
)
from repro.simulation.study import default_campaign_config, run_study
from repro.traces.store import CampaignStore
from tests.test_engine import assert_datasets_identical


def _small_config(year=2013, **kwargs):
    config = default_campaign_config(year, scale=0.004, seed=11, **kwargs)
    return dataclasses.replace(config, n_days=4)


def _store_for(config, root):
    return CampaignStore(root / f"campaign{config.year}", config.year,
                         config.axis)


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------

class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter_frac=1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(shard_timeout_s=0)

    def test_backoff_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_factor=2.0,
                             backoff_max_s=0.5, jitter_frac=0.25, seed=3)
        for attempt in range(1, 8):
            a = policy.backoff_s("2013:0", attempt)
            b = policy.backoff_s("2013:0", attempt)
            assert a == b
            raw = min(0.5, 0.1 * 2.0 ** (attempt - 1))
            assert raw * 0.75 <= a <= raw * 1.25

    def test_jitter_varies_by_unit(self):
        policy = RetryPolicy(backoff_base_s=1.0, jitter_frac=0.25)
        assert policy.backoff_s("a", 1) != policy.backoff_s("b", 1)

    def test_zero_jitter_exact(self):
        policy = RetryPolicy(backoff_base_s=0.2, jitter_frac=0.0)
        assert policy.backoff_s("x", 1) == pytest.approx(0.2)

    def test_classify(self):
        from concurrent.futures import BrokenExecutor, CancelledError
        from concurrent.futures import TimeoutError as FuturesTimeout

        assert classify_exception(ValueError("x")) == FAILURE_CRASH
        assert classify_exception(FuturesTimeout()) == FAILURE_TIMEOUT
        assert classify_exception(BrokenExecutor()) == FAILURE_BROKEN_POOL
        assert classify_exception(CancelledError()) == FAILURE_BROKEN_POOL


# ---------------------------------------------------------------------------
# Spill partitions as the durable shard format
# ---------------------------------------------------------------------------

_IDENTITY = {"config_key": "aa", "seed": 7, "n_shards": 2}
_COLLECTION = {"stats": [[0, 4, None, 0, 4, 4, 0, 0, 0]],
               "batches_received": 4, "duplicates_dropped": 0}


def _traffic(n=40):
    return {"traffic": [dict(
        device=np.zeros(n, np.int32), t=np.arange(n, dtype=np.int32),
        iface=np.zeros(n, np.int8), rx=np.linspace(0.0, 1.0, n),
        tx=np.ones(n), rx_pkts=np.ones(n, np.int64),
        tx_pkts=np.ones(n, np.int64),
    )]}


def _bound_store(root, identity=_IDENTITY, resume=False):
    store = CampaignStore(root, 2013, _small_config().axis)
    store.bind(identity, resume=resume)
    return store


class TestCheckpointStore:
    def test_round_trip(self, tmp_path):
        _bound_store(tmp_path).write_partition(
            "shard-0001", _traffic(), collection=_COLLECTION)
        kept, rejected = CampaignStore(
            tmp_path, 2013, _small_config().axis
        ).bind(_IDENTITY, resume=True)
        assert rejected == []
        (ref,) = kept
        assert ref.name == "shard-0001"
        assert ref.collection == _COLLECTION
        (chunk,) = ref.chunk_map()["traffic"]
        for column, values in _traffic()["traffic"][0].items():
            assert np.array_equal(chunk[column], values)

    @pytest.mark.parametrize("mode", ["truncate", "flip"])
    def test_corruption_degrades_gracefully(self, tmp_path, mode):
        store = _bound_store(tmp_path)
        store.write_partition("shard-0000", _traffic(),
                              collection=_COLLECTION)
        damaged = corrupt_checkpoints(tmp_path, mode=mode)
        assert len(damaged) == 1 and damaged[0].suffix == ".npy"
        kept, rejected = store.bind(_IDENTITY, resume=True)
        assert kept == [] and rejected == ["shard-0000"]
        # The poisoned partition was deleted, so a re-spill round-trips.
        assert store.partition_names() == []
        store.write_partition("shard-0000", _traffic(),
                              collection=_COLLECTION)
        kept, rejected = store.bind(_IDENTITY, resume=True)
        assert [ref.name for ref in kept] == ["shard-0000"]

    def test_wrong_key_in_header_rejected(self, tmp_path):
        store = _bound_store(tmp_path)
        ref = store.write_partition("shard-0000", _traffic(),
                                    collection=_COLLECTION)
        ref.path.rename(store.parts_dir / "shard-0001")
        assert store.bind(_IDENTITY, resume=True) == ([], ["shard-0001"])

    def test_resume_identity_mismatch_refused(self, tmp_path):
        _bound_store(tmp_path).write_partition(
            "shard-0000", _traffic(), collection=_COLLECTION)
        with pytest.raises(ConfigurationError, match="different run"):
            _bound_store(tmp_path, {**_IDENTITY, "seed": 8}, resume=True)

    def test_fresh_run_purges_stale_directory(self, tmp_path):
        _bound_store(tmp_path).write_partition(
            "shard-0000", _traffic(), collection=_COLLECTION)
        other = _bound_store(tmp_path, {**_IDENTITY, "seed": 8})
        assert other.partition_names() == []

    def test_resume_over_empty_directory_is_fresh(self, tmp_path):
        store = CampaignStore(tmp_path / "new", 2013, _small_config().axis)
        assert store.bind(_IDENTITY, resume=True) == ([], [])

    def test_resume_without_meta_refused(self, tmp_path):
        # Written by a store no run was bound to: no identity recorded.
        CampaignStore(tmp_path, 2013, _small_config().axis).write_partition(
            "shard-0000", _traffic(), collection=_COLLECTION)
        with pytest.raises(ConfigurationError, match="different run"):
            _bound_store(tmp_path, resume=True)


# ---------------------------------------------------------------------------
# Chaos plan
# ---------------------------------------------------------------------------

class TestChaosPlan:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ChaosPlan(crash_rate=1.5, state_dir="x")
        with pytest.raises(ConfigurationError):
            ChaosPlan(kill_after_shards=0)
        with pytest.raises(ConfigurationError):
            ChaosPlan(crash_rate=0.5)  # worker faults need a state_dir

    def test_selection_deterministic(self, tmp_path):
        plan = ChaosPlan(crash_rate=0.5, seed=3, state_dir=tmp_path)
        keys = [f"2013:{i}" for i in range(64)]
        first = [plan.selects("crash", k) for k in keys]
        again = [plan.selects("crash", k) for k in keys]
        assert first == again
        assert any(first) and not all(first)

    def test_explicit_units_always_selected(self, tmp_path):
        plan = ChaosPlan(crash_units=("2013:1",), state_dir=tmp_path)
        assert plan.selects("crash", "2013:1")
        assert not plan.selects("crash", "2013:0")

    def test_attempt_counting_is_cross_instance(self, tmp_path):
        plan = ChaosPlan(crash_units=("7",), crash_attempts=2,
                         state_dir=tmp_path)
        injector = ChaosInjector(_double, plan)
        with pytest.raises(ChaosCrash):
            injector(7)
        # A fresh injector (fresh process in real runs) continues counting.
        with pytest.raises(ChaosCrash):
            ChaosInjector(_double, plan)(7)
        assert ChaosInjector(_double, plan)(7) == 14

    def test_monkey_kills_after_n(self):
        monkey = ChaosMonkey(ChaosPlan(kill_after_shards=2))
        monkey.on_shard_complete()
        with pytest.raises(ChaosKill):
            monkey.on_shard_complete()

    def test_unit_key_of_shard_work(self):
        plan = plan_campaign(_small_config(), 2)
        assert unit_key_of(plan.work[0]) == "2013:0"


# ---------------------------------------------------------------------------
# Executor retry / deadline / partial semantics
# ---------------------------------------------------------------------------

def _double(x):
    return x * 2


def _always_fails(x):
    raise ValueError(f"boom {x}")


class TestSerialExecutorResilience:
    def test_retry_recovers(self, tmp_path):
        plan = ChaosPlan(crash_units=("3",), crash_attempts=1,
                         state_dir=tmp_path)
        executor = SerialExecutor(policy=RetryPolicy(
            max_attempts=2, backoff_base_s=0.0))
        results = executor.run(ChaosInjector(_double, plan), [2, 3, 4])
        assert results == [4, 6, 8]
        assert executor.retries == 1
        outcomes = [log.outcome for log in executor.history]
        assert outcomes == [OUTCOME_OK, OUTCOME_RETRIED, OUTCOME_OK]

    def test_exhausted_raises_in_strict_mode(self):
        executor = SerialExecutor(policy=RetryPolicy(
            max_attempts=2, backoff_base_s=0.0))
        with pytest.raises(ValueError):
            executor.run(_always_fails, [1])
        assert executor.history[0].attempts == 2

    def test_partial_drops_exhausted_unit(self):
        executor = SerialExecutor(
            policy=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
            allow_partial=True,
        )
        results = executor.run(_always_fails, [1])
        assert results == [None]
        assert executor.dropped == 1
        assert executor.history[0].outcome == OUTCOME_DROPPED
        assert [f.kind for f in executor.failures] == ["crash", "crash"]


class TestParallelExecutorResilience:
    def test_in_pool_retry_recovers(self, tmp_path):
        plan = ChaosPlan(crash_units=("1", "3"), crash_attempts=1,
                         state_dir=tmp_path)
        with ParallelExecutor(
            2, policy=RetryPolicy(max_attempts=3, backoff_base_s=0.01),
        ) as executor:
            results = executor.run(ChaosInjector(_double, plan),
                                   [0, 1, 2, 3])
            assert results == [0, 2, 4, 6]
            assert executor.retries == 2
            assert executor.fallbacks == 0

    def test_deadline_charges_only_the_running_shard(self, tmp_path):
        """Regression: queued shards must never be charged queue wait.

        With the legacy sequential ``future.result(timeout=...)``
        accounting, fast units queued behind a hung sibling on a saturated
        pool were timed out through no fault of their own. The deadline is
        now measured from each shard's observed start: only the hung unit
        may record a timeout failure.
        """
        plan = ChaosPlan(hang_units=("0",), hang_attempts=1, hang_s=8.0,
                         state_dir=tmp_path)
        with ParallelExecutor(
            2,
            policy=RetryPolicy(max_attempts=2, backoff_base_s=0.01,
                               shard_timeout_s=1.0),
        ) as executor:
            results = executor.run(ChaosInjector(_double, plan),
                                   list(range(6)))
        assert results == [x * 2 for x in range(6)]
        timed_out = {f.unit_index for f in executor.failures
                     if f.kind == FAILURE_TIMEOUT}
        assert timed_out == {0}
        for log in executor.history[1:]:
            assert log.attempts == 1
            assert not log.failures

    def test_partial_drops_poisoned_unit(self, tmp_path):
        plan = ChaosPlan(crash_units=("2",), crash_attempts=99,
                         state_dir=tmp_path)
        with ParallelExecutor(
            2, policy=RetryPolicy(max_attempts=2, backoff_base_s=0.01),
            allow_partial=True,
        ) as executor:
            results = executor.run(ChaosInjector(_double, plan), [1, 2, 3])
        assert results == [2, None, 6]
        assert executor.dropped == 1
        assert executor.history[1].outcome == OUTCOME_DROPPED

    def test_strict_mode_still_raises_after_fallback(self):
        with ParallelExecutor(
            2, policy=RetryPolicy(max_attempts=2, backoff_base_s=0.01),
        ) as executor:
            with pytest.raises(ValueError):
                executor.run(_always_fails, [1])


# ---------------------------------------------------------------------------
# Campaign-level resume bit-identity
# ---------------------------------------------------------------------------

def _killed(config, root, n_jobs, kill_after=1):
    """Run ``config`` on a disk store under ``root`` and kill it after
    ``kill_after`` accepted shards."""
    with pytest.raises(ChaosKill):
        run_campaign(config, n_jobs=n_jobs, store=_store_for(config, root),
                     resilience=ResilienceConfig(
                         chaos=ChaosPlan(kill_after_shards=kill_after)))


def _resumed(config, root, n_jobs):
    return run_campaign(config, n_jobs=n_jobs,
                        store=_store_for(config, root),
                        resilience=ResilienceConfig(resume=True))


class TestCheckpointResume:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_interrupt_then_resume_bit_identical(self, tmp_path, n_jobs):
        """The tentpole guarantee: kill after k shards, resume, same bits."""
        config = _small_config(2014)
        baseline = run_campaign(config, n_jobs=n_jobs)
        _killed(config, tmp_path, n_jobs)
        resumed = _resumed(config, tmp_path, n_jobs)
        assert_datasets_identical(baseline.dataset, resumed.dataset)
        assert resumed.resilience.checkpoint_hits >= 1
        assert resumed.resilience.checkpoint_corrupt == 0
        assert resumed.losses is None
        assert resumed.collection == baseline.collection
        assert not _store_for(config, tmp_path).parts_dir.exists()

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("mode", ["flip", "truncate"])
    def test_damaged_column_is_simulated_again(self, tmp_path, mode,
                                               n_jobs):
        """A spilled column damaged after a kill is caught by its digest:
        the partition is deleted and its shard simulated again, and the
        resumed dataset still equals the uninterrupted one."""
        config = _small_config(2014)
        baseline = run_campaign(config, n_jobs=n_jobs)
        _killed(config, tmp_path, n_jobs)
        damaged = corrupt_checkpoints(tmp_path, mode=mode)
        assert len(damaged) == 1
        assert damaged[0].suffix == ".npy"  # a column, not the manifest
        resumed = _resumed(config, tmp_path, n_jobs)
        assert resumed.resilience.checkpoint_corrupt >= 1
        assert resumed.resilience.checkpoint_hits == 0
        assert_datasets_identical(baseline.dataset, resumed.dataset)
        assert resumed.collection == baseline.collection

    def test_full_resume_skips_all_simulation(self, tmp_path):
        config = _small_config()
        baseline = run_campaign(config, n_jobs=2)
        n_shards = baseline.execution.n_shards
        # Killed on the last accepted shard: every partition is on disk,
        # nothing is merged.
        _killed(config, tmp_path, 2, kill_after=n_shards)
        resumed = _resumed(config, tmp_path, 2)
        assert resumed.resilience.checkpoint_hits == n_shards
        assert resumed.resilience.shard_attempts == []  # nothing executed
        assert resumed.execution.transport_bytes == 0
        assert_datasets_identical(baseline.dataset, resumed.dataset)

    def test_corrupted_checkpoints_recompute_identically(self, tmp_path):
        config = _small_config(2014)
        baseline = run_campaign(config, n_jobs=2)
        _killed(config, tmp_path, 2, kill_after=baseline.execution.n_shards)
        damaged = corrupt_checkpoints(tmp_path, rate=1.0, mode="flip")
        assert len(damaged) == baseline.execution.n_shards
        resumed = _resumed(config, tmp_path, 2)
        assert resumed.resilience.checkpoint_corrupt == len(damaged)
        assert_datasets_identical(baseline.dataset, resumed.dataset)

    def test_resume_with_different_shard_layout_refused(self, tmp_path):
        config = _small_config()
        _killed(config, tmp_path, 2)
        with pytest.raises(ConfigurationError, match="n_shards"):
            _resumed(config, tmp_path, 1)

    def test_resume_with_different_seed_refused(self, tmp_path):
        config = _small_config()
        _killed(config, tmp_path, 2)
        reseeded = dataclasses.replace(config, seed=config.seed + 1)
        with pytest.raises(ConfigurationError, match="different run"):
            _resumed(reseeded, tmp_path, 2)

    def test_resume_without_store_rejected(self):
        with pytest.raises(ConfigurationError, match="--store disk"):
            run_campaign(_small_config(), n_jobs=1,
                         resilience=ResilienceConfig(resume=True))

    def test_bound_identity_is_the_plan_identity(self, tmp_path):
        config = _small_config()
        _killed(config, tmp_path, 2)
        store = _store_for(config, tmp_path)
        (name,) = store.partition_names()
        manifest = json.loads(
            (store.parts_dir / name / "part_manifest.json").read_text())
        assert manifest["identity"] == identity_of(plan_campaign(config, 2))


# ---------------------------------------------------------------------------
# Chaos acceptance: crashes + a hang + retries, still bit-identical
# ---------------------------------------------------------------------------

class TestChaosAcceptance:
    def test_crash_rate_plus_hang_recovers_identically(self, tmp_path):
        """Crash ~30% of shards, hang one, retry everything back to green."""
        config = _small_config(2015)
        n_jobs = 4
        baseline = run_campaign(config, n_jobs=n_jobs)

        plan = plan_campaign(config, n_jobs)
        keys = [f"{config.year}:{w.shard_index}" for w in plan.work]
        chaos = ChaosPlan(
            crash_rate=0.3,
            crash_units=(keys[0],),  # >= one crash regardless of the draw
            hang_units=(keys[-1],),
            hang_s=6.0,
            seed=5,
            state_dir=tmp_path / "chaos",
        )
        res = ResilienceConfig(
            policy=RetryPolicy(max_attempts=3, backoff_base_s=0.01,
                               shard_timeout_s=1.5),
            chaos=chaos,
        )
        result = run_campaign(config, n_jobs=n_jobs, resilience=res)
        assert_datasets_identical(baseline.dataset, result.dataset)
        kinds = result.resilience.failures_by_kind
        assert kinds.get("crash", 0) >= 1
        assert kinds.get("timeout", 0) >= 1
        assert result.resilience.retries >= 2
        assert result.losses is None

    def test_study_resume_and_fidelity_json_identical(self, tmp_path):
        """Interrupted+resumed study scores bit-identical fidelity JSON."""
        from repro.analysis.context import AnalysisContext
        from repro.obs.fidelity import score_fidelity

        kwargs = dict(scale=0.004, seed=11)
        baseline = run_study(n_jobs=2, **kwargs)

        store_dir = tmp_path / "out"
        with pytest.raises(ChaosKill):
            run_study(n_jobs=2, store_dir=store_dir,
                      resilience=ResilienceConfig(
                          chaos=ChaosPlan(kill_after_shards=2)),
                      **kwargs)
        resumed = run_study(n_jobs=2, store_dir=store_dir,
                            resilience=ResilienceConfig(resume=True),
                            **kwargs)
        assert resumed.resilience.checkpoint_hits == 2
        for year in (2013, 2014, 2015):
            assert_datasets_identical(baseline.dataset(year),
                                      resumed.dataset(year))
        checks = ["t1_panel_shrinks", "t1_lte_share", "t3_median_all"]
        base_json = score_fidelity(AnalysisContext(baseline), checks=checks,
                                   scale=0.004, seed=11).to_json()
        resumed_json = score_fidelity(AnalysisContext(resumed),
                                      checks=checks,
                                      scale=0.004, seed=11).to_json()
        assert base_json == resumed_json


# ---------------------------------------------------------------------------
# Graceful degradation (--partial-results)
# ---------------------------------------------------------------------------

class TestPartialResults:
    def _poisoned(self, tmp_path, config, shard_index):
        return ResilienceConfig(
            policy=RetryPolicy(max_attempts=2, backoff_base_s=0.01),
            partial=True,
            chaos=ChaosPlan(
                crash_units=(f"{config.year}:{shard_index}",),
                crash_attempts=99, state_dir=tmp_path,
            ),
        )

    def test_dropped_shard_accounted_and_roster_kept(self, tmp_path):
        config = _small_config(2014)
        baseline = run_campaign(config, n_jobs=2)
        result = run_campaign(config, n_jobs=2,
                              resilience=self._poisoned(tmp_path, config, 0))
        assert result.losses is not None
        assert result.losses.dropped_shards == (0,)
        assert 0.0 < result.losses.device_completeness < 1.0
        # Dropped devices keep their roster entries (dense id space).
        assert result.dataset.n_devices == baseline.dataset.n_devices
        assert result.dataset.devices == baseline.dataset.devices
        assert result.resilience.dropped_shards == 1
        # Surviving shards' records are untouched.
        assert len(result.dataset.traffic) < len(baseline.dataset.traffic)

    def test_all_shards_dropped_is_an_error(self, tmp_path):
        config = _small_config(2014)
        res = ResilienceConfig(
            policy=RetryPolicy(max_attempts=1, backoff_base_s=0.0),
            partial=True,
            chaos=ChaosPlan(crash_rate=1.0, crash_attempts=99,
                            state_dir=tmp_path),
        )
        with pytest.raises(EngineError, match="lost every shard"):
            run_campaign(config, n_jobs=2, resilience=res)

    def test_strict_mode_missing_shard_still_rejected(self):
        config = _small_config()
        plan = plan_campaign(config, 2)
        outputs = [simulate_one(plan, 0), None]
        with pytest.raises(EngineError, match="shard outputs"):
            merge_campaign(plan, outputs)

    def test_missing_shards_helper(self):
        config = _small_config()
        plan = plan_campaign(config, 2)
        outputs = [None, simulate_one(plan, 1)]
        assert missing_shards(outputs, plan.shard_plan) == (0,)
        assert missing_shards([], plan.shard_plan) == (0, 1)

    def test_fidelity_skips_instead_of_crashing_on_partial(self, tmp_path,
                                                           monkeypatch):
        from repro.analysis.context import AnalysisContext
        from repro.obs import fidelity as fidelity_mod

        config = _small_config(2013)
        partial = run_campaign(config, n_jobs=2,
                               resilience=self._poisoned(tmp_path, config, 0))

        class _FakeStudy:
            campaigns = {2013: partial}

            def dataset(self, year):
                return partial.dataset

        ctx = AnalysisContext(_FakeStudy())
        assert fidelity_mod._context_is_partial(ctx)

        def explode(_ctx):
            raise RuntimeError("hole in the data")

        monkeypatch.setitem(fidelity_mod._EXTRACTORS, "t1_panel_shrinks",
                            explode)
        report = fidelity_mod.score_fidelity(ctx,
                                             checks=["t1_panel_shrinks"])
        assert report.records[0].verdict == "skip"
        # A complete context still surfaces the bug instead of hiding it.
        full = AnalysisContext(run_campaign(config, n_jobs=1).dataset)
        with pytest.raises(RuntimeError):
            fidelity_mod.score_fidelity(full, checks=["t1_panel_shrinks"])


def simulate_one(plan, shard_index):
    from repro.simulation.campaign import simulate_shard

    return simulate_shard(plan.work[shard_index])


# ---------------------------------------------------------------------------
# Observability surfaces
# ---------------------------------------------------------------------------

class TestObservability:
    def _report(self):
        return ResilienceReport(
            shard_attempts=[{"year": 2013, "shard": 0, "unit": 0,
                             "attempts": 2, "outcome": "retried",
                             "failures": []}],
            retries=1, fallbacks=0, dropped_shards=0,
            failures_by_kind={"crash": 1},
            checkpoint_saved=2, checkpoint_hits=1, checkpoint_corrupt=0,
        )

    def test_metrics_ingest_resilience(self):
        counters = run_summary(resilience=self._report())["counters"]
        assert counters["engine.retries"] == 1
        assert counters["engine.failures.crash"] == 1
        assert counters["checkpoint.saved"] == 2
        assert counters["checkpoint.hits"] == 1

    def test_metrics_ingest_losses(self):
        losses = ExecutionLosses(year=2014, n_shards=4, dropped_shards=(1,),
                                 n_devices=16, dropped_devices=4)
        counters = run_summary(losses=[losses])["counters"]
        assert counters["engine.2014.devices_dropped"] == 4
        assert counters["engine.2014.device_completeness"] == 0.75

    def test_manifest_carries_shard_attempts_and_round_trips(self, tmp_path):
        losses = ExecutionLosses(year=2014, n_shards=4, dropped_shards=(1,),
                                 n_devices=16, dropped_devices=4)
        manifest = build_manifest([
            {"kind": "run_start", "command": "simulate", "seed": 7},
            {"kind": "run_summary", **run_summary(
                resilience=self._report(), losses=[losses])},
            {"kind": "run_end", "status": "ok", "exit_code": 0},
        ])
        assert manifest.shard_attempts[0]["outcome"] == "retried"
        assert manifest.losses[0]["dropped_shards"] == [1]
        assert manifest.counters["engine.retries"] == 1
        path = manifest.write(tmp_path / "run_manifest.json")
        assert RunManifest.read(path) == manifest

    def test_losses_describe_and_dict(self):
        losses = ExecutionLosses(year=2013, n_shards=2, dropped_shards=(0,),
                                 n_devices=10, dropped_devices=5)
        assert "dropped 1/2 shards" in losses.describe()
        assert losses.to_dict()["device_completeness"] == 0.5
        assert losses.shard_completeness == 0.5

    def test_report_describe(self):
        text = self._report().describe()
        assert "1 retried" in text
        assert "crash=1" in text

    def test_losses_table_renders(self):
        from repro.reporting.collection import execution_losses_table

        losses = ExecutionLosses(year=2014, n_shards=4, dropped_shards=(1,),
                                 n_devices=16, dropped_devices=4)
        text = execution_losses_table([losses]).render()
        assert "2014" in text and "1/4" in text and "75.0%" in text


# ---------------------------------------------------------------------------
# CLI flow
# ---------------------------------------------------------------------------

class TestCli:
    def test_kill_resume_flow(self, tmp_path, capsys):
        from repro.cli import main
        from repro import load_dataset

        base = tmp_path / "base"
        out = tmp_path / "out"
        common = ["simulate", "--scale", "0.004", "--seed", "11",
                  "--jobs", "2"]
        assert main(common + ["--out", str(base)]) == 0

        rc = main(common + ["--out", str(out), "--store", "disk",
                            "--chaos-kill-after", "2"])
        assert rc == 3
        assert "keeps its spilled partitions" in capsys.readouterr().err

        rc = main(common + ["--out", str(out), "--store", "disk",
                            "--resume", "--events", str(tmp_path / "e.jsonl")])
        assert rc == 0
        assert main(["events", str(tmp_path / "e.jsonl"),
                     "--manifest", str(tmp_path / "m.json")]) == 0
        manifest = json.loads((tmp_path / "m.json").read_text())
        assert manifest["counters"]["checkpoint.hits"] >= 2
        for year in (2013, 2014, 2015):
            assert_datasets_identical(
                load_dataset(base / f"campaign{year}"),
                load_dataset(out / f"campaign{year}"),
            )
            assert not (out / f"campaign{year}" / "parts").exists()

    def test_resume_mismatch_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        common = ["simulate", "--scale", "0.004", "--jobs", "2",
                  "--out", str(tmp_path / "out"), "--store", "disk"]
        assert main(common + ["--seed", "11", "--chaos-kill-after", "1"]) == 3
        rc = main(common + ["--seed", "12", "--resume"])
        assert rc == 2
        assert "different run" in capsys.readouterr().err

    def test_resume_without_store_disk_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["simulate", "--scale", "0.004",
                   "--out", str(tmp_path / "out"), "--resume"])
        assert rc == 2
        assert "--store disk" in capsys.readouterr().err

    def test_partial_results_reports_losses(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["simulate", "--scale", "0.004", "--seed", "11",
                   "--jobs", "2", "--out", str(tmp_path / "out"),
                   "--partial-results", "--max-attempts", "2",
                   "--retry-backoff-s", "0.01",
                   "--chaos-crash-rate", "1.0",
                   "--chaos-crash-attempts", "99",
                   "--chaos-state-dir", str(tmp_path / "chaos")])
        # Every shard of every year crashes forever; the first fully-lost
        # campaign aborts the run with the explicit "lost every shard"
        # EngineError (exit 2) — losing only SOME shards would instead
        # degrade gracefully (covered above).
        assert rc == 2
        assert "lost every shard" in capsys.readouterr().err
