"""Out-of-core store tests: round-trip identity, read path, janitor.

The acceptance bar for the storage layer: a campaign run through the
disk-backed :class:`CampaignStore` — spilled shard by shard, streaming-
merged, read back memory-mapped — is bit-for-bit identical to the
in-memory build at any worker count and survives chaos kills without
leaking partitions.
"""

import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    ChaosKill,
    ChaosPlan,
    ResilienceConfig,
    RetryPolicy,
)
from repro.errors import ConfigurationError, DatasetError, SchemaError
from repro.simulation.campaign import (
    identity_of, plan_campaign, run_campaign, simulate_shard,
)
from repro.simulation.study import default_campaign_config
from repro.traces.dataset import DatasetBuilder, merge_dataset
from repro.traces.store import (
    STORE_MANIFEST,
    CampaignStore,
    load_dataset,
    save_dataset,
    sweep_orphan_partitions,
)
from tests.test_columnar_ingest_property import (
    N_DAYS,
    YEAR,
    _axis,
    _columns,
    _info,
    device_batch,
)
from tests.test_engine import assert_datasets_identical


def _small_config(year=2013, **kwargs):
    config = default_campaign_config(year, scale=0.004, seed=11, **kwargs)
    return dataclasses.replace(config, n_days=4)


def _store_for(config, root):
    return CampaignStore(Path(root) / f"campaign{config.year}",
                         config.year, config.axis)


# ---------------------------------------------------------------------------
# Round-trip property: builder -> partitions -> finalize -> load, bit-for-bit
# ---------------------------------------------------------------------------

class TestRoundTripProperty:
    @given(st.lists(device_batch(), min_size=1, max_size=3), st.data())
    @settings(max_examples=15, deadline=None)
    def test_store_round_trip_is_bit_identical(self, batches, data):
        """Any panel written through partitions reloads exactly."""
        builder = DatasetBuilder(YEAR, _axis())
        for device_id in range(len(batches)):
            builder.add_device(_info(device_id))
        for device_id, batch in enumerate(batches):
            for name, columns in _columns(device_id, batch).items():
                getattr(builder, f"extend_{name}")(**columns)
        expected = builder.build()

        # Two shards, split at a device boundary: partitions concatenated
        # in shard order must reproduce the dataset's canonical rows.
        split = data.draw(st.integers(0, len(batches)), label="split")
        shards = ({}, {})
        for table in expected.table_names:
            columns = getattr(expected, table).columns
            cut = int(np.searchsorted(columns["device"], split))
            shards[0][table] = [{c: v[:cut] for c, v in columns.items()}]
            shards[1][table] = [{c: v[cut:] for c, v in columns.items()}]

        with tempfile.TemporaryDirectory() as tmp:
            store = CampaignStore(Path(tmp) / "campaign", YEAR, _axis())
            refs = [store.write_partition(f"shard-000{i}", shard)
                    for i, shard in enumerate(shards)]
            store.finalize(builder.devices, builder.ap_directory,
                           builder.ground_truth,
                           [ref.chunk_map() for ref in refs])
            assert_datasets_identical(expected, store.load_dataset())
            # Reopening from the manifest alone sees the same bits.
            reopened = CampaignStore.open(store.root)
            assert_datasets_identical(expected, reopened.load_dataset())
            assert reopened.fingerprint == store.fingerprint


def _apps_chunk(device, day):
    n = len(device)
    return dict(device=np.asarray(device, np.int32),
                day=np.asarray(day, np.int16),
                category=np.zeros(n, np.int8), cellular=np.zeros(n, np.int8),
                ap_id=np.zeros(n, np.int32), col=np.zeros(n, np.int16),
                row=np.zeros(n, np.int16), rx=np.ones(n), tx=np.zeros(n))


@pytest.mark.parametrize("device, day, message", [
    ([0, 2], [0, 1], "table 'apps' references unknown device"),
    ([-1, 0], [0, 1], "table 'apps' references unknown device"),
    ([0, 1], [0, N_DAYS], "table 'apps' has out-of-range day"),
    ([0, 1], [-1, 0], "table 'apps' has out-of-range day"),
])
def test_both_merges_reject_a_bad_chunk_alike(tmp_path, device, day, message):
    """The in-memory build and the store's finalize run one range check."""
    chunk = _apps_chunk(device, day)
    builder = DatasetBuilder(YEAR, _axis())
    for device_id in range(2):
        builder.add_device(_info(device_id))
    builder.extend_apps(**chunk)
    with pytest.raises(SchemaError) as built:
        builder.build()
    store = CampaignStore(tmp_path / "campaign", YEAR, _axis())
    with pytest.raises(SchemaError) as finalized:
        store.finalize(builder.devices, builder.ap_directory, None,
                       [{"apps": [chunk]}])
    assert str(built.value) == str(finalized.value) == message


def _battery_chunk(device, t):
    n = len(device)
    return dict(device=np.asarray(device, np.int32),
                t=np.asarray(t, np.int32), level=np.ones(n, np.float32),
                charging=np.zeros(n, np.int8))


@pytest.mark.parametrize("table, chunk_maps", [
    ("battery", [{"battery": [_battery_chunk([0, 1], [1, 3])]},
                 {"battery": [_battery_chunk([1], [2])]}]),
    ("battery", [{"battery": [_battery_chunk([0, 0, 1], [2, 1, 0])]}]),
    ("apps", [{"apps": [_apps_chunk([1], [1])]},
              {"apps": [_apps_chunk([0], [0])]}]),
    ("apps", [{"apps": [_apps_chunk([0, 0], [1, 0])]}]),
], ids=["battery-boundary-goes-back", "battery-unsorted-inside",
        "apps-boundary-goes-back", "apps-unsorted-inside"])
def test_both_merges_refuse_out_of_order_chunks(tmp_path, table, chunk_maps):
    """Neither merge sorts: rows out of (device, t) order are refused,
    within a chunk and across a shard boundary alike."""
    devices = [_info(0), _info(1)]
    key = "day" if table == "apps" else "t"
    message = f"table {table!r} is not in (device, {key}) order"
    with pytest.raises(SchemaError) as merged:
        merge_dataset(YEAR, _axis(), devices, {}, None, chunk_maps)
    store = CampaignStore(tmp_path / "campaign", YEAR, _axis())
    refs = [store.write_partition(f"shard-000{i}", chunk_map)
            for i, chunk_map in enumerate(chunk_maps)]
    with pytest.raises(SchemaError) as finalized:
        store.finalize(devices, {}, None, [ref.chunk_map() for ref in refs])
    assert str(merged.value) == str(finalized.value) == message
    assert not (store.root / STORE_MANIFEST).exists()


# ---------------------------------------------------------------------------
# Engine integration: spill + streaming merge == in-memory build
# ---------------------------------------------------------------------------

class TestEngineStoreIdentity:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_store_run_matches_memory_run(self, tmp_path, n_jobs):
        config = _small_config(2014)
        baseline = run_campaign(config, n_jobs=n_jobs)
        store = _store_for(config, tmp_path)
        stored = run_campaign(config, n_jobs=n_jobs, store=store)
        assert_datasets_identical(baseline.dataset, stored.dataset)
        truth = stored.dataset.ground_truth
        assert truth.ap_types == baseline.dataset.ground_truth.ap_types
        # Spill partitions are reclaimed by a successful finalize.
        assert not store.parts_dir.exists()

    def test_store_dir_is_a_loadable_campaign(self, tmp_path):
        """A ``--store disk`` campaign is a saved dataset: ``save_dataset``
        of the in-memory run writes the same files, fingerprint and all."""
        config = _small_config(2013)
        store = _store_for(config, tmp_path / "disk")
        result = run_campaign(config, store=store)
        assert_datasets_identical(result.dataset, load_dataset(store.root))
        saved = save_dataset(run_campaign(config).dataset,
                             tmp_path / "mem" / "campaign2013")
        assert CampaignStore.open(saved).fingerprint == store.fingerprint

    def test_fingerprint_tracks_content(self, tmp_path):
        config = _small_config(2013)
        run_campaign(config, store=_store_for(config, tmp_path / "a"))
        run_campaign(config, store=_store_for(config, tmp_path / "b"))
        reseeded = dataclasses.replace(config, seed=config.seed + 1)
        run_campaign(reseeded, store=_store_for(reseeded, tmp_path / "c"))
        a, b, c = (CampaignStore.open(tmp_path / run / "campaign2013")
                   .fingerprint for run in "abc")
        assert a == b  # determinism: same config, same bytes
        assert a != c  # sensitivity: different data, different print

    def test_partial_run_spills_only_surviving_shards(self, tmp_path):
        """``--partial-results`` composes with the disk store."""
        config = _small_config(2014)
        baseline = run_campaign(config, n_jobs=2)
        res = ResilienceConfig(
            policy=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
            partial=True,
            chaos=ChaosPlan(crash_units=(f"{config.year}:0",),
                            crash_attempts=99, state_dir=tmp_path / "chaos"),
        )
        store = _store_for(config, tmp_path)
        result = run_campaign(config, n_jobs=2, resilience=res, store=store)
        assert result.losses is not None
        assert result.losses.dropped_shards == (0,)
        # The dropped shard's rows are missing, the roster is intact, and
        # the surviving rows came back out of the store's column files.
        assert result.dataset.devices == baseline.dataset.devices
        assert len(result.dataset.traffic) < len(baseline.dataset.traffic)
        assert not store.parts_dir.exists()


# ---------------------------------------------------------------------------
# Read path: projection pushdown over memory-mapped columns
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def finalized(tmp_path_factory):
    config = _small_config(2015)
    store = _store_for(config, tmp_path_factory.mktemp("store"))
    result = run_campaign(config, store=store)
    return store, result.dataset


class TestReadPushdown:
    def test_columns_are_memory_mapped(self, finalized):
        store, _ = finalized
        assert isinstance(store.column("traffic", "rx"), np.memmap)

    def test_unknown_column_is_a_dataset_error(self, finalized):
        store, _ = finalized
        with pytest.raises(DatasetError, match="no column"):
            store.column("traffic", "nope")

    def test_open_rejects_non_store_dir(self, tmp_path):
        with pytest.raises(DatasetError, match="no campaign store"):
            CampaignStore.open(tmp_path)


class TestFormats:
    @staticmethod
    def _manifest_with_format(finalized, root, fmt):
        store, _ = finalized
        manifest = json.loads((store.root / STORE_MANIFEST).read_text())
        manifest["format"] = fmt
        (root / STORE_MANIFEST).write_text(json.dumps(manifest))
        return root

    def test_unknown_format_rejected(self, finalized, tmp_path):
        root = self._manifest_with_format(finalized, tmp_path, "feather")
        with pytest.raises(ConfigurationError, match="format 'feather'"):
            CampaignStore.open(root)

    def test_parquet_without_pyarrow_rejected(self, finalized, tmp_path):
        # Stores written by the removed Parquet backend no longer open,
        # whether or not pyarrow is installed.
        root = self._manifest_with_format(finalized, tmp_path, "parquet")
        with pytest.raises(ConfigurationError, match="format 'parquet'"):
            CampaignStore.open(root)

    def test_stores_are_written_as_npy(self, finalized):
        store, _ = finalized
        manifest = json.loads((store.root / STORE_MANIFEST).read_text())
        assert manifest["format"] == "npy"
        assert CampaignStore.open(store.root).fingerprint == store.fingerprint


# ---------------------------------------------------------------------------
# Janitor: a killed run keeps exactly its accepted partitions for resume
# ---------------------------------------------------------------------------

class TestPartitionJanitor:
    def test_chaos_kill_keeps_only_accepted_partitions(self, tmp_path):
        """A killed disk run keeps exactly its accepted, verifiable
        partitions for --resume, and `repro clean` reclaims them."""
        config = _small_config(2014)
        store = _store_for(config, tmp_path)
        res = ResilienceConfig(chaos=ChaosPlan(kill_after_shards=1))
        with pytest.raises(ChaosKill):
            run_campaign(config, n_jobs=2, resilience=res, store=store)
        names = store.partition_names()
        assert len(names) == 1
        assert not (store.root / STORE_MANIFEST).exists()
        # Rebinding for resume verifies every column of what was kept.
        kept, rejected = _store_for(config, tmp_path).bind(
            identity_of(plan_campaign(config, 2)), resume=True)
        assert [ref.name for ref in kept] == names and rejected == []
        assert sweep_orphan_partitions(tmp_path) == names
        assert not store.parts_dir.exists()

    def test_checkpointed_kill_keeps_partitions_for_resume(self, tmp_path):
        config = _small_config(2014)
        baseline = run_campaign(config, n_jobs=2)
        res = ResilienceConfig(chaos=ChaosPlan(kill_after_shards=1))
        store = _store_for(config, tmp_path)
        with pytest.raises(ChaosKill):
            run_campaign(config, n_jobs=2, resilience=res, store=store)
        assert store.partition_names()  # kept for resume

        resumed = run_campaign(
            config, n_jobs=2, store=_store_for(config, tmp_path),
            resilience=ResilienceConfig(resume=True),
        )
        assert_datasets_identical(baseline.dataset, resumed.dataset)
        assert resumed.resilience.checkpoint_hits >= 1
        assert not store.parts_dir.exists()

    def test_stale_partition_falls_back_to_resimulation(self, tmp_path):
        """A partition whose manifest was changed re-simulates: one edit
        that keeps the JSON valid (only the manifest's own digest sees
        it) and one truncation."""
        config = _small_config(2014)
        baseline = run_campaign(config, n_jobs=2)
        n_shards = baseline.execution.n_shards
        res = ResilienceConfig(chaos=ChaosPlan(kill_after_shards=n_shards))
        store = _store_for(config, tmp_path)
        with pytest.raises(ChaosKill):
            run_campaign(config, n_jobs=2, resilience=res, store=store)
        edited, truncated = [store.parts_dir / name / "part_manifest.json"
                             for name in store.partition_names()]
        manifest = json.loads(edited.read_text())
        manifest["collection"]["batches_received"] += 1
        edited.write_text(json.dumps(manifest))
        truncated.write_bytes(truncated.read_bytes()[:40])
        resumed = run_campaign(
            config, n_jobs=2, store=_store_for(config, tmp_path),
            resilience=ResilienceConfig(resume=True),
        )
        assert resumed.resilience.checkpoint_corrupt == 2
        assert resumed.resilience.checkpoint_hits == 0
        assert_datasets_identical(baseline.dataset, resumed.dataset)
        assert resumed.collection == baseline.collection

    def test_partition_ref_detects_tamper(self, tmp_path):
        store = CampaignStore(tmp_path / "campaign", YEAR, _axis())
        ref = store.write_partition("shard-0000", {
            "traffic": [dict(
                device=np.zeros(3, np.int32), t=np.arange(3, dtype=np.int32),
                iface=np.zeros(3, np.int8),
                rx=np.ones(3, np.float64), tx=np.ones(3, np.float64),
                rx_pkts=np.ones(3, np.int64), tx_pkts=np.ones(3, np.int64),
            )],
        })
        assert ref.is_valid()
        manifest = ref.path / "part_manifest.json"
        manifest.write_bytes(manifest.read_bytes() + b" ")
        assert not ref.is_valid()
        with pytest.raises(DatasetError, match="missing or stale"):
            ref.chunk_map()

    def test_sweep_orphan_partitions_helper(self, tmp_path):
        for campaign in ("campaign2013", "campaign2015"):
            part = tmp_path / campaign / "parts" / "shard-0000"
            part.mkdir(parents=True)
            (part / "part_manifest.json").write_text("{}")
        removed = sweep_orphan_partitions(tmp_path)
        assert removed == ["shard-0000", "shard-0000"]
        assert not (tmp_path / "campaign2013" / "parts").exists()
        assert not (tmp_path / "campaign2015" / "parts").exists()
        assert sweep_orphan_partitions(tmp_path) == []


# ---------------------------------------------------------------------------
# Address space: spilled rows are released, columns map on first read
# ---------------------------------------------------------------------------

class TestDiskPathFootprint:
    def test_spill_releases_the_rows_in_place(self, tmp_path):
        """The executor keeps every result it returns: the spilled output
        itself, not a copy, must drop its rows."""
        config = _small_config(2013)
        output = simulate_shard(plan_campaign(config, 1).work[0])
        assert output.chunks is not None
        spilled = output.spill(_store_for(config, tmp_path), "shard-0000")
        assert spilled is output
        assert output.chunks is None and output.partition.is_valid()

    def test_store_dataset_maps_only_the_columns_read(self, tmp_path):
        maps = Path("/proc/self/maps")
        if not maps.exists():
            pytest.skip("needs procfs")
        config = _small_config(2013)
        store = _store_for(config, tmp_path)
        dataset = run_campaign(config, store=store).dataset

        def mapped():
            return {Path(line.split()[-1]).name
                    for line in maps.read_text().splitlines()
                    if str(store.tables_dir) in line}

        assert mapped() == set()
        assert len(dataset.wifi.rssi) > 0
        assert mapped() == {"wifi__rssi.npy"}

    def test_column_length_is_checked_against_the_manifest(self, tmp_path):
        config = _small_config(2013)
        store = _store_for(config, tmp_path)
        run_campaign(config, store=store)
        np.save(store.tables_dir / "wifi__rssi.npy",
                np.zeros(3, dtype=np.float32))
        dataset = CampaignStore.open(store.root).load_dataset()
        with pytest.raises(DatasetError, match="manifest says"):
            dataset.wifi.rssi

