"""Tests for the query layer and the §3.4.2 mobility statistics."""

import numpy as np
import pytest

from repro.analysis.mobility_stats import mobility_stats
from repro.errors import AnalysisError
from repro.traces.query import (
    SlotIndex,
    association_index,
    composite_keys,
    distinct_cells_per_device_day,
    geo_cell_index,
)
from tests.helpers import (
    add_ap,
    add_association_span,
    add_daily_traffic,
    add_geo_span,
    make_builder,
    slot,
)


class TestSlotIndex:
    def test_lookup_found_and_missing(self):
        device = np.array([0, 0, 1])
        t = np.array([5, 9, 5])
        index = SlotIndex.build(device, t, n_slots=100)
        pos, found = index.lookup(np.array([0, 1, 1]), np.array([9, 5, 6]))
        assert list(found) == [True, True, False]
        values = index.gather(np.array([10.0, 20.0, 30.0]), pos)
        assert values[0] == 20.0  # (0, 9)
        assert values[1] == 30.0  # (1, 5)

    def test_empty_index(self):
        index = SlotIndex.build(np.array([]), np.array([]), n_slots=10)
        _pos, found = index.lookup(np.array([0]), np.array([0]))
        assert not found.any()

    @staticmethod
    def _reference(keys, want):
        """The sorted-index lookup: argsort, binary search, clip."""
        if len(keys) == 0:
            return np.zeros(len(want), dtype=np.int64), np.zeros(len(want), bool)
        ordered = keys[np.argsort(keys)]
        pos = np.clip(np.searchsorted(ordered, want), 0, len(keys) - 1)
        return pos, ordered[pos] == want

    @pytest.mark.parametrize("keys", [
        np.arange(12),                      # dense from 0 (geo)
        np.arange(7, 19),                   # dense, offset
        np.array([3, 4, 9, 10, 11, 40]),    # sparse
        np.array([25]),                     # single key
        np.array([], dtype=np.int64),       # empty
    ], ids=["dense", "dense-offset", "sparse", "single", "empty"])
    def test_lookup_and_gather_match_the_sorted_reference(self, keys):
        n_slots = 10
        device, t = keys // n_slots, keys % n_slots
        index = SlotIndex.build(device, t, n_slots)
        # Needles below, inside and beyond the key range, hits and misses.
        want = np.arange(-3, 60)
        pos, found = index.lookup(want // n_slots, want % n_slots)
        ref_pos, ref_found = self._reference(keys, want)
        assert pos.dtype == ref_pos.dtype
        assert np.array_equal(pos, ref_pos)
        assert np.array_equal(found, ref_found)
        assert np.array_equal(found, np.isin(want, keys))
        if len(keys):
            column = keys * 3 + 1
            ref_values = column[np.argsort(keys)][ref_pos]
            assert np.array_equal(index.gather(column, pos), ref_values)

    @pytest.mark.parametrize("device, t", [
        (np.array([0, 1, 0]), np.array([5, 5, 9])),   # unsorted
        (np.array([0, 0, 1]), np.array([5, 5, 2])),   # duplicate key
    ], ids=["unsorted", "duplicate"])
    def test_build_rejects_rows_out_of_canonical_order(self, device, t):
        with pytest.raises(AnalysisError, match="strictly increasing"):
            SlotIndex.build(device, t, n_slots=100)

    def test_build_never_sorts(self, monkeypatch):
        from repro.traces import query as query_module

        class NoArgsort:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def argsort(*args, **kwargs):
                raise AssertionError("canonical keys were sorted")

        monkeypatch.setattr(query_module, "np", NoArgsort())
        index = SlotIndex.build(np.array([0, 0, 2]), np.array([1, 4, 0]), 10)
        pos, found = index.lookup(np.array([0, 2]), np.array([4, 1]))
        assert list(pos) == [1, 2] and list(found) == [True, False]

    def test_composite_keys_unique(self):
        keys = composite_keys(np.array([0, 1]), np.array([99, 0]), n_slots=100)
        assert keys[0] == 99 and keys[1] == 100

    def test_geo_cell_index_requires_geo(self):
        with pytest.raises(AnalysisError):
            geo_cell_index(make_builder().build())

    def test_association_index(self):
        builder = make_builder(n_devices=1, n_days=1)
        add_ap(builder, 7, "net")
        add_association_span(builder, 0, 7, 10, 12)
        ds = builder.build()
        index, aps = association_index(ds)
        pos, found = index.lookup(np.array([0]), np.array([11]))
        assert found[0]
        assert aps[pos[0]] == 7


class TestDistinctCells:
    def test_counts(self):
        builder = make_builder(n_devices=2, n_days=2)
        add_geo_span(builder, 0, (0, 0), slot(0, 0), slot(0, 12))
        add_geo_span(builder, 0, (1, 0), slot(0, 12), slot(0, 24))
        add_geo_span(builder, 1, (5, 5), slot(1, 0), slot(1, 24))
        counts = distinct_cells_per_device_day(builder.build())
        assert counts[0, 0] == 2
        assert counts[0, 1] == 0
        assert counts[1, 1] == 1


class TestMobilityStats:
    def test_uncorrelated_by_construction(self):
        """Volume varies, mobility constant -> correlation undefined/zero."""
        builder = make_builder(n_devices=8, n_days=1)
        for device in range(8):
            add_daily_traffic(builder, device, 0, cell_rx_mb=5 + 10 * device)
            add_geo_span(builder, device, (0, 0), 0, 144)
        stats = mobility_stats(builder.build())
        assert np.isnan(stats.corr_cells_vs_volume) or (
            abs(stats.corr_cells_vs_volume) < 0.2
        )

    def test_correlated_when_constructed(self):
        """Heavier users visiting more cells -> positive correlation."""
        builder = make_builder(n_devices=8, n_days=1)
        for device in range(8):
            add_daily_traffic(builder, device, 0, cell_rx_mb=2 ** device)
            for cell in range(device + 1):
                add_geo_span(builder, device, (cell, 0),
                             slot(0, cell), slot(0, cell + 1))
        stats = mobility_stats(builder.build())
        assert stats.corr_cells_vs_volume > 0.8

    def test_study_matches_paper_claim(self, dataset2015, cache):
        """§3.4.2: traffic volume does not correlate with mobility."""
        stats = mobility_stats(dataset2015, cache.user_classes(2015))
        assert stats.uncorrelated()
        # Heavy hitters and light users see similar numbers of cells (Fig 12).
        assert stats.mean_cells_heavy == pytest.approx(
            stats.mean_cells_light, rel=0.5
        )

    def test_requires_valid_days(self):
        with pytest.raises(AnalysisError):
            builder = make_builder(n_devices=1, n_days=1)
            add_geo_span(builder, 0, (0, 0), 0, 144)
            mobility_stats(builder.build())
