"""The AnalysisContext memo layer: equivalence, instrumentation, immutability.

The central contract is that memoization is invisible: every experiment
produces bit-identical output whether its analyses run against a warm shared
context or a cold per-experiment one. The rest pins the CacheStats counters
and the read-only guarantee on cached arrays.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from repro import AnalysisContext
from repro.analysis.context import CacheStats, _cached_nbytes
from repro.errors import AnalysisError
from repro.reporting.experiments import list_experiments, run_experiment
from repro.reporting.figures import Figure
from repro.reporting.tables import Table
from repro.traces.dataset import CampaignDataset


def _same_cell(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) and a != a and b != b:
        return True  # NaN == NaN for our purposes
    return a == b


def assert_same_artifact(a, b) -> None:
    """Exact structural equality for Table/Figure experiment outputs."""
    assert type(a) is type(b)
    if isinstance(a, Table):
        assert a.title == b.title
        assert list(a.columns) == list(b.columns)
        assert len(a.rows) == len(b.rows)
        for row_a, row_b in zip(a.rows, b.rows):
            assert len(row_a) == len(row_b)
            assert all(_same_cell(x, y) for x, y in zip(row_a, row_b))
    elif isinstance(a, Figure):
        assert a.figure_id == b.figure_id
        assert a.caption == b.caption
        assert [s.label for s in a.series] == [s.label for s in b.series]
        for s_a, s_b in zip(a.series, b.series):
            assert np.array_equal(s_a.x, s_b.x, equal_nan=True)
            assert np.array_equal(s_a.y, s_b.y, equal_nan=True)
    else:  # pragma: no cover - new artifact kinds must extend this helper
        raise AssertionError(f"unexpected artifact type {type(a).__name__}")


@pytest.fixture(scope="module")
def warm_context(study):
    """A context with every experiment already run once (all-hot memo)."""
    context = AnalysisContext(study)
    for experiment in list_experiments():
        run_experiment(experiment.experiment_id, context)
    return context


@pytest.mark.parametrize(
    "experiment_id", [e.experiment_id for e in list_experiments()]
)
def test_cached_and_uncached_sweeps_are_bit_identical(
    experiment_id, study, warm_context
):
    cold = run_experiment(experiment_id, AnalysisContext(study))
    warm = run_experiment(experiment_id, warm_context)
    assert_same_artifact(cold, warm)


def test_analysis_function_results_identical_via_context(dataset2015):
    from repro.analysis import classify_aps, classify_user_days

    direct = classify_aps(dataset2015)
    ctx = AnalysisContext.of(dataset2015)
    via_context = classify_aps(ctx)
    assert direct.ap_class == via_context.ap_class
    assert direct.home_ap_of_device == via_context.home_ap_of_device
    assert direct.wifi_devices == via_context.wifi_devices

    classes_direct = classify_user_days(dataset2015)
    classes_ctx = classify_user_days(ctx)
    assert np.array_equal(classes_direct.volumes, classes_ctx.volumes)
    assert np.array_equal(classes_direct.light, classes_ctx.light)
    assert np.array_equal(classes_direct.heavy, classes_ctx.heavy)


class TestCacheStats:
    def test_miss_then_hit_counters(self, dataset2015):
        ctx = AnalysisContext.of(dataset2015)
        stats = ctx.stats.artifact("daily_matrix")
        assert (stats.hits, stats.misses) == (0, 0)

        first = ctx.daily_matrix("all", "rx")
        stats = ctx.stats.artifact("daily_matrix")
        assert (stats.hits, stats.misses) == (0, 1)
        assert stats.compute_seconds >= 0.0
        # The matrix is one kind of the day fold, whose bytes count once,
        # under traffic_fold: all five kinds.
        assert stats.cached_bytes == 0
        fold = ctx.stats.artifact("traffic_fold")
        assert (fold.hits, fold.misses) == (0, 1)
        assert 5 * first.nbytes <= fold.cached_bytes < 6 * first.nbytes

        second = ctx.daily_matrix("all", "rx")
        assert second is first
        stats = ctx.stats.artifact("daily_matrix")
        assert (stats.hits, stats.misses) == (1, 1)

    def test_distinct_keys_in_one_family(self, dataset2015):
        ctx = AnalysisContext.of(dataset2015)
        ctx.daily_matrix("all", "rx")
        ctx.daily_matrix("wifi", "rx")
        ctx.daily_matrix("cell", "rx")
        stats = ctx.stats.artifact("daily_matrix")
        assert stats.misses == 3
        assert ctx.stats.artifact("traffic_fold").misses == 1
        assert ctx.stats.cached_bytes > 0

    def test_nested_artifacts_share_the_memo(self, dataset2015):
        # user_classes reads the daily matrix through the same context, so
        # a prior daily_matrix() call is reused, not recomputed.
        ctx = AnalysisContext.of(dataset2015)
        matrix = ctx.daily_matrix("all", "rx")
        classes = ctx.user_classes()
        assert classes.volumes is matrix
        assert ctx.stats.artifact("daily_matrix").misses == 1
        assert ctx.stats.artifact("daily_matrix").hits == 1

    def test_app_breakdown_is_memoized(self, dataset2015):
        from repro.analysis import app_breakdown

        ctx = AnalysisContext.of(dataset2015)
        first = ctx.app_breakdown()
        assert ctx.app_breakdown() is first
        stats = ctx.stats.artifact("app_breakdown")
        assert (stats.hits, stats.misses) == (1, 1)
        assert first == app_breakdown(dataset2015)

    def test_render_lists_artifacts(self, dataset2015):
        ctx = AnalysisContext.of(dataset2015)
        ctx.daily_matrix()
        ctx.hourly_series()
        report = ctx.stats.render()
        assert "analysis cache" in report
        assert "daily_matrix" in report
        assert "hourly_series" in report
        assert "total" in report

    def test_as_dict_round_trip(self, dataset2015):
        ctx = AnalysisContext.of(dataset2015)
        ctx.daily_matrix()
        ctx.daily_matrix()
        payload = ctx.stats.as_dict()
        assert payload["daily_matrix"]["hits"] == 1
        assert payload["daily_matrix"]["misses"] == 1
        assert payload["traffic_fold"]["cached_bytes"] > 0

    def test_nested_compute_time_counts_once(self, study):
        # classification nests clean and geo_index; each family records
        # its self time, so the total cannot exceed the wall time.
        ctx = AnalysisContext(study)
        start = time.perf_counter()
        ctx.classification(2015)
        wall = time.perf_counter() - start
        assert ctx.stats.artifact("clean").misses == 1
        assert ctx.stats.artifact("geo_index").misses == 1
        assert 0 < ctx.stats.compute_seconds <= wall

    def test_wifi_ratios_is_memoized(self, dataset2015):
        from repro.analysis import wifi_ratios

        ctx = AnalysisContext.of(dataset2015)
        first = ctx.wifi_ratios()
        assert ctx.wifi_ratios() is first
        stats = ctx.stats.artifact("wifi_ratios")
        assert (stats.hits, stats.misses) == (1, 1)
        fresh = wifi_ratios(dataset2015)
        for subset in ("all", "light", "heavy"):
            for got, want in ((first.traffic(subset), fresh.traffic(subset)),
                              (first.users(subset), fresh.users(subset))):
                assert np.array_equal(got.hourly.values, want.hourly.values,
                                      equal_nan=True)
                assert np.array_equal(got.mean, want.mean, equal_nan=True)

    def test_empty_stats(self):
        stats = CacheStats()
        assert stats.hits == 0 and stats.misses == 0
        assert stats.artifact("anything").requests == 0
        assert stats.artifact("anything").hit_rate == 0.0


class TestReadOnlyArtifacts:
    def test_daily_matrix_is_immutable(self, dataset2015):
        ctx = AnalysisContext.of(dataset2015)
        matrix = ctx.daily_matrix("all", "rx")
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0

    def test_hourly_series_is_immutable(self, dataset2015):
        ctx = AnalysisContext.of(dataset2015)
        series = ctx.hourly_series("all", "rx")
        with pytest.raises(ValueError):
            series[0] = 1.0

    def test_index_arrays_are_immutable(self, dataset2015):
        ctx = AnalysisContext.of(dataset2015)
        index = ctx.geo_index()
        with pytest.raises(ValueError):
            index.keys[0] = 0
        assoc, ap_sorted = ctx.association_index()
        with pytest.raises(ValueError):
            ap_sorted[0] = 0


class TestContextConstruction:
    def test_of_context_is_identity(self, dataset2015):
        ctx = AnalysisContext.of(dataset2015)
        assert AnalysisContext.of(ctx) is ctx

    def test_of_dataset_is_verbatim(self, raw2015):
        # of(dataset) analyzes the dataset as handed in — no implicit clean.
        assert AnalysisContext.of(raw2015).dataset() is raw2015

    def test_of_rejects_other_types(self):
        with pytest.raises(AnalysisError):
            AnalysisContext.of(object())

    def test_study_context_analyzes_cleaned_data(self, cache, dataset2015):
        assert cache.campaign(2015).dataset().n_devices == dataset2015.n_devices

    def test_multi_campaign_requires_year(self, cache):
        with pytest.raises(AnalysisError, match="year is required"):
            cache.daily_matrix()

    def test_unknown_year_rejected(self, cache):
        with pytest.raises(AnalysisError, match="no campaign for year"):
            cache.campaign(1999)

    def test_campaign_view_shares_memo(self, study):
        context = AnalysisContext(study)
        view = context.campaign(2015)
        assert view.daily_matrix() is context.daily_matrix(year=2015)
        assert view.stats is context.stats

    def test_empty_mapping_rejected(self):
        with pytest.raises(AnalysisError):
            AnalysisContext({})

    def test_raw_campaign_view_shares_memo(self, study):
        context = AnalysisContext(study)
        for year in context.years:
            view = context.raw_campaign(year)
            assert view.dataset() is context.raw(year)
            assert view.stats is context.stats
            assert view.years == (year,)
            shared = context.clean(year) is context.raw(year)
            same = view.daily_matrix() is context.daily_matrix(year=year)
            assert same == shared, year
            assert context.raw_campaign(year).daily_matrix() is view.daily_matrix()
        # 2015 drops the update window; 2013 has no update events.
        assert context.clean(2015) is not context.raw(2015)
        assert context.clean(2013) is context.raw(2013)

        # 2015's cleaning rewrote traffic and apps only: the artifacts over
        # the tables it left alone are the clean campaign's.
        raw, clean = context.raw_campaign(2015), context.campaign(2015)
        for artifact in ("association_index", "geo_index",
                         "available_scan_mask"):
            assert getattr(raw, artifact)() is getattr(clean, artifact)(), artifact
        assert raw.traffic_fold() is not clean.traffic_fold()
        # 2013's cleaning left every table alone: every artifact is shared.
        raw, clean = context.raw_campaign(2013), context.campaign(2013)
        for artifact in ("traffic_fold", "daily_matrix", "hourly_series",
                         "geo_index", "association_index",
                         "available_scan_mask", "user_classes",
                         "classification", "wifi_ratios", "app_breakdown"):
            assert getattr(raw, artifact)() is getattr(clean, artifact)(), artifact

    def test_raw_campaign_composites_read_the_raw_capture(self, study):
        from repro.analysis import classify_aps

        context = AnalysisContext(study)
        raw = context.raw_campaign(2015).classification()
        assert raw is not context.classification(2015)
        direct = classify_aps(study.dataset(2015))
        assert raw.ap_class == direct.ap_class
        assert raw.home_ap_of_device == direct.home_ap_of_device
        assert raw.wifi_devices == direct.wifi_devices


class TestFoldSharing:
    """Raw campaigns fold through the shared memo, day folds only."""

    @staticmethod
    def _count_folds(monkeypatch):
        calls = []
        fold = CampaignDataset.traffic_fold

        def counting(self, by="day", direction="rx"):
            calls.append((id(self), by, direction))
            return fold(self, by, direction)

        monkeypatch.setattr(CampaignDataset, "traffic_fold", counting)
        return calls

    def test_table1_folds_each_dataset_once_and_by_day(self, study, monkeypatch):
        calls = self._count_folds(monkeypatch)
        context = AnalysisContext(study)
        run_experiment("table1", context)
        assert [c for c in calls if c[1] != "day"] == []
        raw_ids = {id(context.raw(year)) for year in context.years}
        assert {c[0] for c in calls} == raw_ids
        # The clean campaign's own folds: a campaign whose cleaning dropped
        # nothing was already folded by Table 1 and is not folded again.
        for year in context.years:
            for direction in ("rx", "tx"):
                context.traffic_fold("day", direction, year)
        assert len(calls) == len(set(calls))
        assert len(calls) == 2 * (len(context.years) + 1)  # + clean 2015

    def test_fidelity_folds_each_raw_campaign_at_most_once(
        self, study, monkeypatch
    ):
        from repro.obs.fidelity import score_fidelity

        calls = self._count_folds(monkeypatch)
        score_fidelity(AnalysisContext(study))
        raw_ids = {id(study.dataset(year)) for year in study.campaigns}
        raw_calls = [c for c in calls if c[0] in raw_ids]
        assert raw_calls
        assert len(raw_calls) == len(set(raw_calls))


def test_cached_nbytes_counts_arrays_and_containers():
    arr = np.zeros(10, dtype=np.int64)
    assert _cached_nbytes(arr, set()) == 80
    # One buffer, however many arrays view it.
    assert _cached_nbytes((arr, arr), set()) == 80
    assert _cached_nbytes((arr[2:], arr[::2]), set()) == 80
    assert _cached_nbytes({"a": arr}, set()) >= 80
    assert _cached_nbytes(object(), set()) == 0
    held = set()
    _cached_nbytes(arr, held)
    assert _cached_nbytes([arr[:5]], held) == 0


def _buffers(value, out: dict) -> None:
    """Every buffer reachable from ``value``, keyed by the id of the
    array that owns it."""
    if isinstance(value, np.ndarray):
        while isinstance(value.base, np.ndarray):
            value = value.base
        out[id(value)] = value.nbytes
    elif isinstance(value, dict):
        for item in value.values():
            _buffers(item, out)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _buffers(item, out)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            _buffers(getattr(value, field.name), out)


def test_cached_bytes_match_a_buffer_identity_count(study):
    """``CacheStats`` counts each buffer the memo holds once, and none
    of the study's own: a cleaned campaign sharing every table with its
    raw capture adds nothing."""
    ctx = AnalysisContext(study)
    artifacts = {"clean": [], "geo_index": [], "association_index": []}
    for year in ctx.years:
        artifacts["clean"].append(ctx.clean(year))
        artifacts["geo_index"].append(ctx.geo_index(year))
        artifacts["association_index"].append(ctx.association_index(year))
    owned = {}
    for year in ctx.years:
        _buffers(study.dataset(year), owned)
    for family, values in artifacts.items():
        held = {}
        _buffers(values, held)
        direct = sum(n for key, n in held.items() if key not in owned)
        counted = ctx.stats.artifact(family).cached_bytes
        # Scalars (a dataset's year, column names) are sized too, at a
        # few dozen bytes each.
        assert direct <= counted <= direct + 1024 * len(values), family
    assert any(ctx.clean(year) is study.dataset(year) for year in ctx.years)
