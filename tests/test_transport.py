"""Zero-copy shard transport and the process-pool scheduler.

Two layers of the columnar end-to-end path are pinned here:

* :class:`ShardPayload` — pack/attach round trips are bit-identical,
  handles pickle small, unlink/sweep lifecycle never leaks ``/dev/shm``
  segments (clean exit, chaos kill, timed-out straggler);
* the FIFO pool map — a straggler never holds back queued units,
  completion order never changes results, and ``close`` reaps the
  workers.
"""

import dataclasses
import errno
import os
import pickle
import time

import numpy as np
import pytest

from repro.engine.chaos import ChaosKill, ChaosPlan
from repro.engine.executor import ParallelExecutor
from repro.engine.planner import plan_units
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
# Unit planning
# ---------------------------------------------------------------------------

class TestPlanUnits:
    def test_serial_is_one_unit(self):
        plan = plan_units(range(100), 1)
        assert plan.n_shards == 1

    def test_small_panel_keeps_one_unit_per_worker(self):
        assert plan_units(range(31), 2).n_shards == 2
        plan = plan_units(range(500), 2)
        assert plan.n_shards == 2
        assert plan.device_order() == tuple(range(500))


# ---------------------------------------------------------------------------
# Scheduling
# ---------------------------------------------------------------------------

def _sleepy(unit):
    index, delay = unit
    time.sleep(delay)
    return index * 10


def _worker_pid(_):
    time.sleep(0.05)
    return os.getpid()


class TestWorkStealing:
    """An idle worker takes the next queued unit; a straggler holds only
    its own worker."""

    def test_straggler_does_not_hold_back_queued_units(self):
        units = [(0, 1.0)] + [(i, 0.01) for i in range(1, 8)]
        finished = []
        with ParallelExecutor(2) as executor:
            results = executor.run(
                _sleepy, units, on_result=lambda i, _: finished.append(i)
            )
        assert results == [i * 10 for i in range(8)]
        assert finished[-1] == 0
        assert sorted(finished[:-1]) == list(range(1, 8))

    def test_balanced_units_need_no_steals_to_finish(self):
        units = [(i, 0.0) for i in range(4)]
        with ParallelExecutor(2) as executor:
            results = executor.run(_sleepy, units)
        assert results == [0, 10, 20, 30]

    def test_stealing_campaign_matches_serial(self):
        # Completion order varies with timing; it must be invisible in
        # the merged dataset.
        config = default_campaign_config(2015, scale=0.04, seed=3)
        config = dataclasses.replace(config, n_days=3)
        serial = run_campaign(config, n_jobs=1)
        parallel = run_campaign(config, n_jobs=2)
        assert parallel.execution.transport_bytes > 0
        assert_datasets_identical(serial.dataset, parallel.dataset)

    def test_close_reaps_pool_workers(self):
        executor = ParallelExecutor(2)
        pids = set(executor.run(_worker_pid, range(4)))
        executor.close()
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


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

        # The run's workers fork after this and inherit the patch.
        monkeypatch.setattr(os, "posix_fallocate", enospc, raising=False)
        with pytest.raises(EngineError, match="cannot reserve"):
            ShardPayload.pack(_chunks(), run_token())
        starved = run_study(scale=0.004, seed=11, n_jobs=2)
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
