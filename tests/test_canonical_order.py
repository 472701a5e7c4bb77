"""Canonical row order, from the kernel to the merged dataset.

The kernel emits every table sorted by ``t`` (``apps`` by ``day``), with a
device's WiFi traffic row before its cellular row at equal ``t``, and the
shard planner hands out contiguous device ranges in canonical order. So
the in-memory merge (``merge_dataset``) and the store merge
(``CampaignStore.finalize``) find their input already in stable
``(device, t)`` order: they check it in one pass (``canonical_chunks``)
and refuse anything else (``tests/test_store.py``). Only
``DatasetBuilder.build`` sorts, for records appended out of order.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.collection.faults import FaultPlan, OutageWindow
from repro.simulation.campaign import plan_campaign, run_campaign
from repro.simulation.kernel import simulate_devices
from repro.simulation.study import default_campaign_config
from repro.traces import dataset as dataset_module
from repro.traces import store as store_module
from repro.traces.dataset import (
    _EMPTY_DTYPES,
    DatasetBuilder,
    _in_canonical_order,
)
from repro.traces.records import DeviceOS, IfaceKind
from repro.traces.store import STORE_MANIFEST, CampaignStore

from tests.test_columnar_ingest_property import YEAR, _axis, _info


def _small_config(year=2014, seed=11, faults=None):
    config = default_campaign_config(year, scale=0.006, seed=seed,
                                     faults=faults)
    return dataclasses.replace(config, n_days=4)


class _NoSort:
    """Stands in for ``numpy`` inside one module; ``lexsort`` raises."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def lexsort(keys, axis=-1):
        raise AssertionError("canonical input was sorted")


@pytest.fixture
def no_sort(monkeypatch):
    monkeypatch.setattr(dataset_module, "np", _NoSort())
    monkeypatch.setattr(store_module, "np", _NoSort())


# ---------------------------------------------------------------------------
# Kernel: every table leaves in canonical order
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [3, 11])
def test_kernel_tables_leave_in_canonical_order(seed):
    config = _small_config(seed=seed)
    world = plan_campaign(config, 1).world
    ids = [info.device_id for info in world.infos]
    seen_os = set()
    for result in simulate_devices(
        world.profiles, config.axis, world.deployment, world.demand,
        config.params, seed=config.seed, year=config.year, device_ids=ids,
    ):
        seen_os.add(world.infos[result.device_id].os)
        for name, columns in result.tables.items():
            key = columns["day" if name == "apps" else "t"]
            assert np.all(np.diff(key) >= 0), (result.device_id, name)
            assert np.all(columns["device"] == result.device_id)
        traffic = result.tables.get("traffic")
        if traffic is not None:
            tie = np.flatnonzero(np.diff(traffic["t"]) == 0)
            assert np.all(traffic["iface"][tie] == int(IfaceKind.WIFI))
            assert np.all(traffic["iface"][tie + 1] != int(IfaceKind.WIFI))
    assert seen_os == {DeviceOS.ANDROID, DeviceOS.IOS}


# ---------------------------------------------------------------------------
# In-memory merge: no sort on canonical input, adopt or copy
# ---------------------------------------------------------------------------

def test_serial_campaign_builds_without_sorting(no_sort):
    assert run_campaign(_small_config(), n_jobs=1).dataset.n_rows_total > 0


@pytest.mark.parametrize("plan", [
    FaultPlan(upload_failure_p=0.9, max_cache_batches=1, duplicate_p=0.5,
              dropout_p=0.3,
              outages=(OutageWindow(100, 200), OutageWindow(300, 420))),
    FaultPlan(upload_failure_p=0.5, max_cache_batches=2, duplicate_p=0.2,
              outages=(OutageWindow(0, 150), OutageWindow(400, 576)),
              seed=4),
], ids=["harsh", "outage-edges"])
def test_faulted_collection_stays_canonical(plan, no_sort):
    """Retries, cache evictions, duplicates and churn reorder nothing."""
    dataset = run_campaign(_small_config(faults=plan), n_jobs=1).dataset
    assert dataset.n_rows_total > 0


def _battery(t):
    n = len(t)
    return dict(device=np.zeros(n, np.int32), t=t,
                level=np.ones(n, np.float32), charging=np.zeros(n, np.int8))


def _builder():
    builder = DatasetBuilder(YEAR, _axis())
    builder.add_device(_info(0))
    builder.add_device(_info(1))
    return builder


def test_build_adopts_a_single_owned_chunk():
    t = np.arange(5, dtype=np.int32)
    builder = _builder()
    builder.extend_battery(**_battery(t))
    assert np.shares_memory(builder.build().battery.t, t)


@pytest.mark.parametrize("kind", ["read-only", "view"])
def test_build_copies_a_shared_chunk(kind):
    if kind == "read-only":
        t = np.arange(5, dtype=np.int32)
        t.flags.writeable = False
    else:
        t = np.arange(10, dtype=np.int32)[2:7]
    builder = _builder()
    builder.extend_battery(**_battery(t))
    built = builder.build().battery.t
    assert not np.shares_memory(built, t)
    np.testing.assert_array_equal(built, t)


def test_out_of_order_chunks_fall_back_to_the_stable_sort():
    builder = _builder()
    builder.extend_battery(**_battery(np.array([4, 2, 2, 0], np.int32)))
    builder.extend_battery(device=np.array([1, 0], np.int32),
                           t=np.array([0, 2], np.int32),
                           level=np.array([7, 8], np.float32),
                           charging=np.zeros(2, np.int8))
    battery = builder.build().battery
    np.testing.assert_array_equal(battery.device, [0, 0, 0, 0, 0, 1])
    np.testing.assert_array_equal(battery.t, [0, 2, 2, 2, 4, 0])
    np.testing.assert_array_equal(battery.level, [1, 1, 1, 8, 1, 7])


def test_canonical_check_is_stable_lexsort_identity():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(0, 8))
        device = np.sort(rng.integers(0, 3, n)) if rng.random() < 0.5 \
            else rng.integers(0, 3, n)
        key = rng.integers(0, 4, n)
        identity = np.array_equal(np.lexsort((key, device)), np.arange(n))
        assert _in_canonical_order(device, key) == identity


# ---------------------------------------------------------------------------
# Store merge: in-order partitions stream straight into the columns
# ---------------------------------------------------------------------------

def _store(config, root):
    return CampaignStore(Path(root) / f"campaign{config.year}",
                         config.year, config.axis)


def test_in_order_store_finalize_stages_nothing(tmp_path, no_sort):
    config = _small_config(2013)
    store = _store(config, tmp_path)
    stored = run_campaign(config, n_jobs=1, store=store).dataset
    # Finalize leaves the manifests and one file per column, nothing else.
    assert {p.name for p in store.root.iterdir()} == {
        STORE_MANIFEST, "meta.json", "tables"}
    assert {p.name for p in store.tables_dir.iterdir()} == {
        f"{table}__{column}.npy"
        for table, columns in _EMPTY_DTYPES.items() for column, _ in columns}
    assert stored.n_rows_total > 0
