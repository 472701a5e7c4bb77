"""Batch-kernel determinism and bulk-collection equivalence.

The columnar batch kernel (`repro.simulation.kernel`) is the only
simulation kernel (the scalar legacy loop completed its deprecation
window and was removed after a full release of CI-gated equivalence).
What this module pins:

* **The batch kernel is fully deterministic** and its per-device
  streams are shard-layout independent: simulating a panel in one call
  or any partition of calls yields bit-identical per-device tables.
* **The zero plan is the replay's closed form.** ``transmit_bulk`` skips
  the upload replay for a zero fault plan; a plan that can lose nothing
  but still runs the replay must build a bit-identical dataset with the
  same accounting.
"""

import dataclasses

import numpy as np

from repro.collection.faults import FaultPlan, OutageWindow
from repro.collection.pipeline import CollectionPump
from repro.collection.server import CollectionServer
from repro.simulation.campaign import plan_campaign, run_campaign
from repro.simulation.kernel import simulate_devices
from repro.simulation.study import default_campaign_config

from tests.helpers import received_dataset
from tests.test_engine import assert_datasets_identical


class TestBatchDeterminism:
    def test_same_config_is_bit_identical(self):
        config = dataclasses.replace(
            default_campaign_config(2013, scale=0.004, seed=11), n_days=4
        )
        first = run_campaign(config).dataset
        second = run_campaign(config).dataset
        assert_datasets_identical(first, second)

    def test_per_device_streams_are_shard_layout_independent(self):
        """One call over the panel == any partition of calls, bit for bit.

        This is the property that makes `n_jobs` invisible: the kernel
        streams key only on the device id, never on shard membership.
        """
        config = dataclasses.replace(
            default_campaign_config(2014, scale=0.006, seed=5), n_days=3
        )
        plan = plan_campaign(config, 1)
        world = plan.world
        axis = config.axis
        ids = [info.device_id for info in world.infos]

        def run(device_ids):
            return {
                result.device_id: result.tables
                for result in simulate_devices(
                    world.profiles, axis, world.deployment, world.demand,
                    config.params, seed=config.seed, year=config.year,
                    device_ids=device_ids,
                )
            }

        whole = run(ids)
        # Contiguous halves, interleaved evens/odds, and a singleton: all
        # must reproduce the whole-panel result exactly.
        split = run(ids[: len(ids) // 2])
        split.update(run(ids[len(ids) // 2:]))
        interleaved = run(ids[::2])
        interleaved.update(run(ids[1::2]))
        lone = run([ids[0]])
        for device_id in ids:
            for layout in (split, interleaved):
                for name, columns in whole[device_id].items():
                    for colname, col in columns.items():
                        np.testing.assert_array_equal(
                            layout[device_id][name][colname], col,
                            err_msg=f"device {device_id} {name}.{colname}",
                        )
        for name, columns in whole[ids[0]].items():
            for colname, col in columns.items():
                np.testing.assert_array_equal(
                    lone[ids[0]][name][colname], col
                )


class TestBulkCollection:
    def test_transmit_bulk_matches_per_tick_replay(self):
        """Zero-plan closed form == the upload replay, bit for bit."""
        config = dataclasses.replace(
            default_campaign_config(2013, scale=0.004, seed=11), n_days=4
        )
        plan = plan_campaign(config, 1)
        world = plan.world
        axis = config.axis
        results = list(simulate_devices(
            world.profiles, axis, world.deployment, world.demand,
            config.params, seed=config.seed, year=config.year,
            device_ids=[info.device_id for info in world.infos],
        ))

        def collect(fault_plan):
            server = CollectionServer(config.year, axis)
            for info in world.infos:
                server.register_device(info)
            pump = CollectionPump(
                server, fault_plan, n_slots=axis.n_slots,
                seed=config.seed, year=config.year,
            )
            stats = [
                pump.transmit_bulk(world.infos[result.device_id],
                                   result.tables)
                for result in results
            ]
            return server, stats

        # An outage after the campaign end makes the plan non-zero, so the
        # replay runs, but no attempt can fail and nothing is drawn.
        lossless = FaultPlan(outages=(OutageWindow(axis.n_slots + 1,
                                                   axis.n_slots + 2),))
        assert not lossless.is_zero
        replay_server, replay_stats = collect(lossless)
        bulk_server, bulk_stats = collect(FaultPlan.zero())

        assert_datasets_identical(
            received_dataset(replay_server), received_dataset(bulk_server)
        )
        assert bulk_server.batches_received == replay_server.batches_received
        assert bulk_server.duplicates_dropped == 0
        assert bulk_stats == replay_stats
        for bulk in bulk_stats:
            assert bulk.delivered == bulk.ticks
            assert (bulk.churned, bulk.duplicates, bulk.dropped,
                    bulk.cached) == (0, 0, 0, 0)

    def test_transmit_bulk_falls_back_under_faults(self):
        """A lossy plan must leave the closed form for the replay."""
        config = dataclasses.replace(
            default_campaign_config(2013, scale=0.004, seed=11), n_days=4
        )
        faulty = FaultPlan(upload_failure_p=0.5, duplicate_p=0.1, seed=2)
        config = dataclasses.replace(config, faults=faulty)
        result = run_campaign(config)
        report = result.collection
        assert report is not None
        # Under 50% upload failure something must be retried or lost;
        # closed-form zero-fault accounting would show none of that.
        assert any(
            s.duplicates > 0 or s.dropped > 0 or s.cached > 0
            for s in report.devices
        )
