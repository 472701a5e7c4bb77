"""Round-trip tests for dataset persistence (the campaign-store layout)."""

import json

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.net.accesspoint import APType
from repro.traces.dataset import GroundTruth
from repro.traces.store import (
    STORE_MANIFEST, CampaignStore, load_dataset, save_dataset,
)
from tests.helpers import add_ap, add_association_span, add_daily_traffic, make_builder


@pytest.fixture()
def small_dataset():
    builder = make_builder(n_devices=2, n_days=3)
    add_ap(builder, 0, "home-1")
    add_ap(builder, 1, "0000docomo")
    add_daily_traffic(builder, 0, 0, cell_rx_mb=10, wifi_rx_mb=30)
    add_daily_traffic(builder, 1, 1, cell_rx_mb=4)
    add_association_span(builder, 0, 0, 10, 30, rssi=-52.0)
    builder.extend_geo(device=[0], t=[0], col=[2], row=[-1])
    builder.extend_scans(device=[0], t=[5], n24_all=[4], n24_strong=[1],
                         n5_all=[2], n5_strong=[0])
    builder.extend_sightings(device=[0], t=[6], ap_id=[1], rssi=[-66.0])
    builder.extend_apps(device=[0], day=[0], category=[2], cellular=[0],
                        ap_id=[0], col=[2], row=[-1], rx=[1e6], tx=[2e5])
    builder.extend_updates(device=[1], t=[200], bytes=[565e6])
    builder.ground_truth = GroundTruth(
        ap_types={0: APType.HOME, 1: APType.PUBLIC},
        home_ap_of_user={0: 0},
        wifi_policy_of_user={0: "always_on", 1: "no_config"},
    )
    return builder.build()


def test_round_trip(tmp_path, small_dataset):
    save_dataset(small_dataset, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds")

    assert loaded.year == small_dataset.year
    assert loaded.axis == small_dataset.axis
    assert loaded.devices == small_dataset.devices
    assert loaded.ap_directory == small_dataset.ap_directory
    for table in ("traffic", "wifi", "geo", "scans", "sightings", "apps", "updates"):
        original = getattr(small_dataset, table)
        copy = getattr(loaded, table)
        assert set(original.columns) == set(copy.columns)
        for col in original.columns:
            np.testing.assert_array_equal(original.columns[col], copy.columns[col])


def test_ground_truth_round_trip(tmp_path, small_dataset):
    save_dataset(small_dataset, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds")
    assert loaded.ground_truth is not None
    assert loaded.ground_truth.ap_types == {0: APType.HOME, 1: APType.PUBLIC}
    assert loaded.ground_truth.home_ap_of_user == {0: 0}
    assert loaded.ground_truth.wifi_policy_of_user[1] == "no_config"


def test_load_missing_path(tmp_path):
    with pytest.raises(DatasetError):
        load_dataset(tmp_path / "nope")


def test_saved_dataset_is_a_finalized_store(tmp_path, small_dataset):
    root = save_dataset(small_dataset, tmp_path / "ds")
    store = CampaignStore.open(root)
    assert store.year == small_dataset.year
    assert not (root / "parts").exists()
    assert not (root / "tables.npz").exists()
    # Loaded columns are read-only memory maps.
    rx = load_dataset(root).traffic.rx
    assert isinstance(rx, np.memmap) and not rx.flags.writeable


def test_load_bad_version(tmp_path, small_dataset):
    root = save_dataset(small_dataset, tmp_path / "ds")
    manifest = json.loads((root / STORE_MANIFEST).read_text())
    manifest["store_version"] = 99
    (root / STORE_MANIFEST).write_text(json.dumps(manifest))
    with pytest.raises(DatasetError, match="store version: 99"):
        load_dataset(root)


def test_legacy_npz_layout_is_refused(tmp_path):
    root = tmp_path / "campaign2013"
    root.mkdir()
    (root / "meta.json").write_text(json.dumps({"format_version": 1}))
    np.savez_compressed(root / "tables.npz", traffic__rx=np.zeros(1))
    with pytest.raises(DatasetError, match="re-run `repro simulate`"):
        load_dataset(root)


def test_save_overwrites_cleanly(tmp_path, small_dataset):
    root = save_dataset(small_dataset, tmp_path / "ds")
    first = CampaignStore.open(root).fingerprint
    save_dataset(small_dataset, root)
    loaded = load_dataset(root)
    assert loaded.n_devices == 2
    assert CampaignStore.open(root).fingerprint == first
    # Saving a loaded campaign back over its own files keeps its bytes.
    save_dataset(loaded, root)
    assert CampaignStore.open(root).fingerprint == first
    np.testing.assert_array_equal(load_dataset(root).traffic.rx,
                                  small_dataset.traffic.rx)
