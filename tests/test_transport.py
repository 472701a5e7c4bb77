"""Zero-copy shard transport, warm worker pools, and work stealing.

Three layers of the columnar end-to-end path are pinned here:

* :class:`ShardPayload` — pack/attach round trips are bit-identical,
  handles pickle small, unlink/sweep lifecycle never leaks ``/dev/shm``
  segments (clean exit, chaos kill, timed-out straggler);
* the warm-pool cache — pools are parked and reused across executors and
  runs, and reuse never changes results;
* the work-stealing scheduler — idle slots drain a busy sibling's queue,
  and stealing never changes results either.
"""

import dataclasses
import errno
import os
import pickle
import time

import numpy as np
import pytest

from repro.engine.chaos import ChaosKill, ChaosPlan
from repro.engine.executor import (
    ParallelExecutor,
    shutdown_warm_pools,
    warm_pool_stats,
)
from repro.engine.planner import (
    MIN_UNIT_DEVICES,
    UNIT_OVERSPLIT,
    plan_units,
)
from repro.engine.resilience import (
    CheckpointStore,
    ResilienceConfig,
    RetryPolicy,
)
from repro.engine.transport import (
    ShardPayload,
    run_token,
    segment_names,
    sweep_orphans,
)
from repro.errors import EngineError
from repro.simulation.campaign import (
    merge_campaign,
    plan_campaign,
    run_campaign,
    simulate_shard,
)
from repro.simulation.study import default_campaign_config, run_study

from tests.test_engine import assert_datasets_identical


def _small_config(year=2013, **kwargs):
    config = default_campaign_config(year, scale=0.004, seed=11, **kwargs)
    return dataclasses.replace(config, n_days=4)


def _chunks():
    """A synthetic multi-table, multi-chunk, mixed-dtype ChunkMap."""
    rng = np.random.default_rng(42)
    return {
        "traffic": [
            {"t": np.arange(7, dtype=np.int64),
             "rx": rng.random(7),
             "wifi": rng.random(7) < 0.5},
            {"t": np.arange(3, dtype=np.int64),
             "rx": rng.random(3),
             "wifi": rng.random(3) < 0.5},
        ],
        "geo": [
            {"pos": rng.random((5, 2)),
             "code": np.array([1, 2, 3, 4, 5], dtype=np.int16)},
        ],
        "empty": [{"t": np.array([], dtype=np.int64)}],
    }


def assert_chunkmaps_identical(expected, actual):
    assert set(expected) == set(actual)
    for table, chunk_list in expected.items():
        assert len(actual[table]) == len(chunk_list), table
        for i, chunk in enumerate(chunk_list):
            assert set(actual[table][i]) == set(chunk), (table, i)
            for column, arr in chunk.items():
                got = actual[table][i][column]
                assert got.dtype == arr.dtype, (table, i, column)
                np.testing.assert_array_equal(
                    got, arr, err_msg=f"{table}[{i}].{column}"
                )


# ---------------------------------------------------------------------------
# ShardPayload pack/attach round trips
# ---------------------------------------------------------------------------

class TestShardPayload:
    def test_round_trip_bit_identical(self):
        chunks = _chunks()
        payload = ShardPayload.pack(chunks, run_token())
        try:
            assert_chunkmaps_identical(chunks, payload.chunk_map())
        finally:
            payload.unlink()
            payload.release()

    def test_handle_pickles_small(self):
        """The payload crosses the pool queue as a handle, not a buffer."""
        big = {"t": [{"x": np.zeros(1 << 20)}]}  # 8 MB of column data
        payload = ShardPayload.pack(big, run_token())
        try:
            wire = pickle.dumps(payload)
            assert len(wire) < 4096
            clone = pickle.loads(wire)
            np.testing.assert_array_equal(
                clone.chunk_map()["t"][0]["x"], big["t"][0]["x"]
            )
            clone.release()
        finally:
            payload.unlink()
            payload.release()

    def test_transport_bytes_accounts_payload(self):
        payload = ShardPayload.pack(_chunks(), run_token())
        try:
            total = sum(
                arr.nbytes
                for chunk_list in _chunks().values()
                for chunk in chunk_list for arr in chunk.values()
            )
            # Padding only ever rounds columns up to 16-byte alignment.
            assert total <= payload.n_bytes < total + 16 * 12
        finally:
            payload.unlink()

    def test_materialize_survives_segment_teardown(self):
        payload = ShardPayload.pack(_chunks(), run_token())
        copied = payload.materialize()
        payload.unlink()
        payload.release()
        assert_chunkmaps_identical(_chunks(), copied)

    def test_unlink_is_idempotent_and_attach_after_sweep_fails(self):
        payload = ShardPayload.pack(_chunks(), run_token())
        assert payload.name in segment_names(run_token())
        assert payload.unlink() is True
        assert payload.unlink() is False
        assert payload.name not in segment_names(run_token())
        fresh = pickle.loads(pickle.dumps(payload))
        with pytest.raises(EngineError, match="gone"):
            fresh.attach()
        payload.release()

    def test_empty_chunkmap(self):
        payload = ShardPayload.pack({}, run_token())
        try:
            assert payload.chunk_map() == {}
            assert payload.n_bytes == 1  # zero-size segments don't exist
        finally:
            payload.unlink()
            payload.release()

    def test_sweep_is_token_scoped(self):
        mine = ShardPayload.pack(_chunks(), run_token())
        other = ShardPayload.pack(_chunks(), "feedfacecafe")
        try:
            removed = sweep_orphans("feedfacecafe")
            assert removed == [other.name]
            assert mine.name in segment_names(run_token())
        finally:
            sweep_orphans()  # unscoped: reap whatever is left
        assert segment_names() == []


# ---------------------------------------------------------------------------
# Unit planning (oversplit for stealing)
# ---------------------------------------------------------------------------

class TestPlanUnits:
    def test_serial_is_one_unit(self):
        plan = plan_units(range(100), 1)
        assert plan.n_shards == 1

    def test_small_panel_keeps_one_unit_per_worker(self):
        # Below MIN_UNIT_DEVICES per split there is nothing worth
        # stealing; the plan must match the old one-shard-per-worker.
        ids = range(2 * MIN_UNIT_DEVICES - 1)
        assert plan_units(ids, 2).n_shards == 2

    def test_large_panel_oversplits(self):
        ids = range(2 * UNIT_OVERSPLIT * MIN_UNIT_DEVICES)
        plan = plan_units(ids, 2)
        assert plan.n_shards == 2 * UNIT_OVERSPLIT
        assert plan.device_order() == tuple(ids)

    def test_oversplit_is_bounded_by_unit_floor(self):
        n = 3 * MIN_UNIT_DEVICES  # enough for 3 units, not 8
        plan = plan_units(range(n), 2)
        assert plan.n_shards == 3
        assert min(s.n_devices for s in plan.shards) >= MIN_UNIT_DEVICES


# ---------------------------------------------------------------------------
# Work stealing
# ---------------------------------------------------------------------------

def _sleepy(unit):
    index, delay = unit
    time.sleep(delay)
    return index * 10


class TestWorkStealing:
    def test_idle_slot_steals_from_busy_sibling(self):
        # Slot 0 starts on units 0-3, slot 1 on units 4-7. Unit 0 is the
        # fat straggler: slot 1 drains its own queue fast and must steal
        # slot 0's tail instead of idling.
        units = [(0, 1.0)] + [(i, 0.01) for i in range(1, 8)]
        with ParallelExecutor(2) as executor:
            results = executor.run(_sleepy, units)
        assert results == [i * 10 for i in range(8)]
        assert executor.steals >= 1

    def test_balanced_units_need_no_steals_to_finish(self):
        units = [(i, 0.0) for i in range(4)]
        with ParallelExecutor(2) as executor:
            results = executor.run(_sleepy, units)
        assert results == [0, 10, 20, 30]

    def test_stealing_campaign_matches_serial(self):
        # A panel big enough to oversplit: stealing (or not, depending on
        # timing) must be invisible in the merged dataset.
        config = default_campaign_config(2015, scale=0.04, seed=3)
        config = dataclasses.replace(config, n_days=3)
        serial = run_campaign(config, n_jobs=1)
        parallel = run_campaign(config, n_jobs=2)
        assert parallel.execution.n_shards > 2  # oversplit engaged
        assert parallel.execution.transport_bytes > 0
        assert_datasets_identical(serial.dataset, parallel.dataset)


# ---------------------------------------------------------------------------
# Warm pools
# ---------------------------------------------------------------------------

class TestWarmPools:
    def test_close_parks_and_next_executor_reuses(self):
        shutdown_warm_pools()
        before = warm_pool_stats()
        with ParallelExecutor(2) as executor:
            executor.run(_sleepy, [(i, 0.0) for i in range(4)])
        parked = warm_pool_stats()
        assert parked["parked"] >= 1
        with ParallelExecutor(2) as executor:
            executor.run(_sleepy, [(i, 0.0) for i in range(4)])
        after = warm_pool_stats()
        assert after["reused"] >= before["reused"] + 1

    def test_reused_pool_runs_are_bit_identical(self):
        config = _small_config(2014)
        baseline = run_campaign(config, n_jobs=1)
        first = run_campaign(config, n_jobs=2)
        reused_before = warm_pool_stats()["reused"]
        second = run_campaign(config, n_jobs=2)
        assert warm_pool_stats()["reused"] > reused_before
        assert_datasets_identical(baseline.dataset, first.dataset)
        assert_datasets_identical(baseline.dataset, second.dataset)

    def test_shutdown_empties_the_cache(self):
        with ParallelExecutor(2) as executor:
            executor.run(_sleepy, [(0, 0.0)])
        assert shutdown_warm_pools() >= 1
        assert warm_pool_stats()["parked"] == 0


# ---------------------------------------------------------------------------
# Segment hygiene: /dev/shm leak checks
# ---------------------------------------------------------------------------

class TestSegmentHygiene:
    def test_clean_parallel_run_leaves_no_segments(self):
        run_campaign(_small_config(2014), n_jobs=2)
        assert segment_names(run_token()) == []

    def test_chaos_kill_leaves_no_segments(self, tmp_path):
        res = ResilienceConfig(
            store=CheckpointStore(tmp_path),
            chaos=ChaosPlan(kill_after_shards=1),
        )
        with pytest.raises(ChaosKill):
            run_campaign(_small_config(2014), n_jobs=2, resilience=res)
        assert segment_names(run_token()) == []

    def test_full_shm_falls_back_to_the_parent(self, monkeypatch):
        """A /dev/shm too full for a segment fails its reservation with an
        EngineError instead of SIGBUS; the exhausted shard then runs in
        the parent without shared memory, and the study is unchanged."""
        def enospc(fd, offset, length):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        # Workers forked from here on inherit the patch.
        shutdown_warm_pools()
        monkeypatch.setattr(os, "posix_fallocate", enospc, raising=False)
        try:
            with pytest.raises(EngineError, match="cannot reserve"):
                ShardPayload.pack(_chunks(), run_token())
            starved = run_study(scale=0.004, seed=11, n_jobs=2)
        finally:
            shutdown_warm_pools()
        assert segment_names(run_token()) == []
        assert starved.execution.transport_bytes == 0
        serial = run_study(scale=0.004, seed=11, n_jobs=1)
        for year in serial.years:
            assert_datasets_identical(serial.dataset(year),
                                      starved.dataset(year))

    def test_inline_and_payload_shards_merge_together(self):
        """A shard re-run in the parent (inline chunks) merges with shards
        that came through shared memory, whose columns are listed in
        another order."""
        config = _small_config(2014)
        plan = plan_campaign(config, n_jobs=2)
        token = run_token()
        outputs = [
            simulate_shard(dataclasses.replace(
                work, shm_token=token if work.shard_index % 2 else None))
            for work in plan.work
        ]
        try:
            assert {o.payload is None for o in outputs} == {True, False}
            mixed = merge_campaign(plan, outputs)
        finally:
            sweep_orphans(token)
        reference = run_campaign(config, n_jobs=1)
        assert_datasets_identical(reference.dataset, mixed.dataset)

    def test_timed_out_straggler_is_janitored(self, tmp_path):
        """A hung worker that packs after the run's sweep is still reaped.

        The run itself cannot unlink a segment that does not exist yet
        (the worker is asleep inside the chaos hang when the run ends);
        the janitor contract is that the *next* sweep gets it — which is
        what the campaign/study runners and the atexit hook provide.
        """
        hang_s = 2.0
        res = ResilienceConfig(
            policy=RetryPolicy(max_attempts=1, backoff_base_s=0.01,
                               shard_timeout_s=0.5),
            partial=True,
            chaos=ChaosPlan(hang_units=("2014:0",), hang_attempts=1,
                            hang_s=hang_s, state_dir=tmp_path),
        )
        started = time.monotonic()
        result = run_campaign(_small_config(2014), n_jobs=2, resilience=res)
        assert result.losses is not None
        assert len(result.losses.dropped_shards) >= 1
        # Let the abandoned worker wake up, finish its shard, and pack.
        time.sleep(max(0.0, started + hang_s + 2.0 - time.monotonic()))
        sweep_orphans(run_token())
        assert segment_names(run_token()) == []
