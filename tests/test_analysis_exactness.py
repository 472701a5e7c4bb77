"""Exactness pins for the vectorized analysis kernels.

Each rewrite below replaced a slower routine that read the same inputs.
The replaced code is kept here verbatim as the reference, and each pin
asserts bit-identical output (``tobytes()``) or dataclass equality:

* the ASCII renderer's bucket means (a per-slice ``.mean()`` loop);
* ``HourlySeries.fold_week`` (a per-hour Python loop);
* ``association_durations`` (which sorted rows already in canonical order);
* ``drop_update_window`` (a per-row window mask and a boolean compress);
* ``classify_aps`` (sort-based unique counts over int64 copies);
* the distinct devices of ``offload_estimate`` and ``survey_gap`` and the
  distinct AP ids of ``_associated_aps`` and ``shared_infrastructure``
  (``np.unique`` over whole columns).

The canonical (device, t) row order that ``DatasetBuilder.build`` and
``CampaignStore.finalize`` guarantee is what lets the new code skip sorts,
so every dataset here comes out of one of them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AnalysisContext, run_study
from repro.analysis import ap_classification as M
from repro.analysis.ap_classification import (
    WIFI_CLASSES,
    APClassification,
    classify_aps,
)
from repro.analysis.association import association_durations
from repro.analysis.survey_gap import LOCATION_CLASSES
from repro.constants import SAMPLES_PER_DAY, SAMPLES_PER_HOUR
from repro.errors import AnalysisError
from repro.net.identifiers import is_fon_public_essid, is_public_essid
from repro.reporting.figures import _bucket_means, render_ascii_series
from repro.stats.distributions import ccdf
from repro.stats.timeseries import HOURS_PER_WEEK, HourlySeries
from repro.traces.cleaning import CleaningReport, drop_update_window
from repro.traces.query import (
    device_day_of,
    distinct_ids,
    group_starts,
    hour_of_day,
    packed_keys,
)
from repro.traces.records import IfaceKind, WifiStateCode
from tests.helpers import (
    add_ap,
    add_association_span,
    add_geo_span,
    make_builder,
    nightly_home_association,
    slot,
)

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module", params=[3, 11])
def small_study(request):
    return run_study(scale=0.02, seed=request.param, n_jobs=1)


# ---------------------------------------------------------------------------
# Renderer
# ---------------------------------------------------------------------------

_BLOCKS = " ▁▂▃▄▅▆▇█"


def _reference_bucket_means(arr, width):
    edges = np.linspace(0, arr.size, width + 1).astype(int)
    return np.array([arr[a:b].mean() for a, b in zip(edges[:-1], edges[1:]) if b > a])


def _reference_render(values, width=72):
    arr = np.asarray(values, dtype=float)
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        return "(no data)"
    if arr.size > width:
        edges = np.linspace(0, arr.size, width + 1).astype(int)
        arr = np.array([arr[a:b].mean() for a, b in zip(edges[:-1], edges[1:]) if b > a])
    lo, hi = float(arr.min()), float(arr.max())
    if hi <= lo:
        return _BLOCKS[1] * len(arr)
    scaled = (arr - lo) / (hi - lo) * (len(_BLOCKS) - 2) + 1
    return "".join(_BLOCKS[int(round(v))] for v in scaled)


def _series(seed: int, n: int, non_finite: float,
            bad=(np.nan, np.inf, -np.inf)) -> np.ndarray:
    """Signed values over magnitudes 1e-3..1e6, a share of them ``bad``."""
    rng = np.random.default_rng(seed)
    values = rng.random(n) * 10.0 ** rng.uniform(-3, 6, n)
    values *= rng.choice([-1.0, 1.0], n)
    hit = rng.random(n) < non_finite
    values[hit] = rng.choice(bad, int(hit.sum()))
    return values


def _length(width: int):
    return st.one_of(st.just(0), st.integers(1, width), st.just(width + 1),
                     st.integers(width + 2, 5000))


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 120), st.data(),
       st.sampled_from([0.0, 0.01, 0.3]), st.booleans())
def test_render_matches_per_slice_means(seed, width, data, non_finite,
                                        small_ints):
    values = _series(seed, data.draw(_length(width)), non_finite)
    if small_ints:
        # Levels land exactly halfway between two blocks: both round to even.
        values = np.where(np.isfinite(values), np.abs(values) % 15 // 1, values)
    assert render_ascii_series(values, width) == _reference_render(values, width)
    finite = values[np.isfinite(values)]
    if finite.size > width:
        got = _bucket_means(finite, width)
        assert got.tobytes() == _reference_bucket_means(finite, width).tobytes()


@pytest.mark.parametrize("n", [73, 144, 2562, 5000])
def test_bucket_means_at_pairwise_summation_sizes(n):
    # At 2562 and 5000 values ``np.add.reduceat``, which groups each
    # bucket's additions differently, differs from ``.mean()``.
    values = _series(n, n, 0.0)
    assert (_bucket_means(values, 72).tobytes()
            == _reference_bucket_means(values, 72).tobytes())


# ---------------------------------------------------------------------------
# Week folds
# ---------------------------------------------------------------------------

def _reference_fold_week(values, start_weekday, week_start_weekday=5):
    sums = np.zeros(HOURS_PER_WEEK)
    counts = np.zeros(HOURS_PER_WEEK)
    for h, v in enumerate(values):
        weekday = (start_weekday + h // 24) % 7
        hour_of_week = ((weekday - week_start_weekday) % 7) * 24 + h % 24
        sums[hour_of_week] += v
        counts[hour_of_week] += 1
    with np.errstate(invalid="ignore", divide="ignore"):
        out = sums / counts
    out[counts == 0] = np.nan
    return out


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(0, 24 * 40),
       st.integers(0, 6), st.integers(0, 6),
       st.sampled_from([0.0, 0.05, 0.5]))
def test_fold_week_matches_hour_loop(seed, n_hours, start, week_start,
                                     non_finite):
    # NaN propagates bit for bit. Infinities are left out: ``inf - inf``
    # makes a NaN whose sign bit depends on the add path, and no series
    # of byte totals or ratios holds an infinity.
    values = _series(seed, n_hours, non_finite, bad=(np.nan,))
    got = HourlySeries(values, start).fold_week(week_start)
    want = _reference_fold_week(values, start, week_start)
    assert got.tobytes() == want.tobytes()


def test_fold_week_on_every_campaign_series(small_study):
    for year in sorted(small_study.campaigns):
        context = AnalysisContext(small_study).campaign(year)
        dataset = context.dataset()
        for kind in ("all", "cell", "wifi"):
            values = dataset.hourly_series(kind)
            start = dataset.axis.start.weekday()
            got = HourlySeries(values, start).fold_week()
            assert got.tobytes() == _reference_fold_week(values, start).tobytes()


# ---------------------------------------------------------------------------
# Association durations
# ---------------------------------------------------------------------------

def _reference_durations(dataset, classification):
    wifi = dataset.wifi
    assoc = wifi.state == int(WifiStateCode.ASSOCIATED)
    if not assoc.any():
        raise AnalysisError("no associations in dataset")
    device = wifi.device[assoc].astype(np.int64)
    t = wifi.t[assoc].astype(np.int64)
    ap = wifi.ap_id[assoc].astype(np.int64)
    order = np.lexsort((t, device))
    device, t, ap = device[order], t[order], ap[order]

    starts = np.flatnonzero(np.r_[
        True,
        (device[1:] != device[:-1]) | (t[1:] != t[:-1] + 1) | (ap[1:] != ap[:-1]),
    ])
    hours = np.diff(np.r_[starts, len(t)]) / SAMPLES_PER_HOUR
    code = classification.class_codes(ap[starts])
    _, first = np.unique(code, return_index=True)
    durations = {WIFI_CLASSES[code[i]]: hours[code == code[i]]
                 for i in np.sort(first)}
    ccdfs = {cls: ccdf(arr) for cls, arr in durations.items()}
    p90 = {cls: float(np.percentile(arr, 90)) for cls, arr in durations.items()}
    return ccdfs, p90


def _assert_durations_equal(dataset):
    classification = classify_aps(dataset)
    got = association_durations(dataset, classification)
    ccdfs, p90 = _reference_durations(dataset, classification)
    assert got.p90_hours == p90
    assert list(got.ccdf_by_class) == list(ccdfs)
    for cls, want in ccdfs.items():
        have = got.ccdf_by_class[cls]
        assert have.values.tobytes() == want.values.tobytes()
        assert have.probs.tobytes() == want.probs.tobytes()


def test_durations_without_the_sort_on_studies(small_study):
    for year in sorted(small_study.campaigns):
        _assert_durations_equal(small_study.dataset(year))


def test_durations_on_spans_appended_out_of_order():
    builder = make_builder(n_devices=3, n_days=3)
    for ap_id, essid in enumerate(["home-a", "0000docomo", "corp-1"]):
        add_ap(builder, ap_id, essid)
    # Appended newest first and device 2 before 0; build() sorts them.
    add_association_span(builder, 2, 2, slot(2, 9), slot(2, 17))
    add_association_span(builder, 0, 1, slot(1, 12), slot(1, 13))
    add_association_span(builder, 0, 0, slot(1, 13), slot(1, 20))
    nightly_home_association(builder, 0, 0, n_days=3)
    add_association_span(builder, 1, 1, slot(0, 8), slot(0, 9))
    add_association_span(builder, 1, 1, slot(0, 10), slot(0, 12))
    _assert_durations_equal(builder.build())


# ---------------------------------------------------------------------------
# Cleaning
# ---------------------------------------------------------------------------

def _reference_drop_update_window(dataset):
    updates = dataset.updates
    if len(updates) == 0:
        return dataset, CleaningReport(0, 0, 0)

    update_day = {}
    for device, t in zip(updates.device, updates.t):
        day = int(t) // SAMPLES_PER_DAY
        update_day[int(device)] = min(day, update_day.get(int(device), day))

    devices = np.array(sorted(update_day), dtype=np.int64)
    days = np.array([update_day[d] for d in devices], dtype=np.int64)

    def window_mask(dev_col, day_col):
        pos = np.searchsorted(devices, dev_col)
        pos = np.clip(pos, 0, len(devices) - 1)
        hit = devices[pos] == dev_col
        start = days[pos]
        in_window = (day_col >= start) & (day_col <= start + 1)
        return hit & in_window

    traffic_day = dataset.traffic.t // SAMPLES_PER_DAY
    traffic_drop = window_mask(dataset.traffic.device, traffic_day)
    apps_drop = window_mask(dataset.apps.device, dataset.apps.day.astype(np.int64))

    cleaned = replace(
        dataset,
        traffic=dataset.traffic.select(~traffic_drop),
        apps=dataset.apps.select(~apps_drop),
    )
    report = CleaningReport(
        devices_affected=len(devices),
        traffic_rows_dropped=int(traffic_drop.sum()),
        app_rows_dropped=int(apps_drop.sum()),
    )
    return cleaned, report


def _assert_tables_identical(got, want):
    assert list(got.columns) == list(want.columns)
    for name in want.columns:
        a, b = got.columns[name], want.columns[name]
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


@st.composite
def update_campaigns(draw):
    """Several devices with traffic, app rows and updates anywhere,
    first and last day included; some devices have no traffic."""
    n_devices, n_days = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    n_slots = n_days * SAMPLES_PER_DAY
    edges = sorted({s for d in range(n_days + 1)
                    for s in (d * SAMPLES_PER_DAY - 1, d * SAMPLES_PER_DAY)
                    if 0 <= s < n_slots})
    any_slot = st.one_of(st.integers(0, n_slots - 1), st.sampled_from(edges))
    update_slot = st.one_of(
        st.integers(0, SAMPLES_PER_DAY - 1),
        st.integers(n_slots - SAMPLES_PER_DAY, n_slots - 1), any_slot)
    builder = make_builder(n_devices=n_devices, n_days=n_days)
    for device in range(n_devices):
        cells = sorted(draw(st.sets(st.tuples(any_slot, st.sampled_from(
            [int(IfaceKind.WIFI), int(IfaceKind.CELL_LTE)])), max_size=14)))
        if cells:
            builder.extend_traffic(
                device=[device] * len(cells), t=[t for t, _ in cells],
                iface=[i for _, i in cells],
                rx=[1e3 * (k + 1) for k in range(len(cells))],
                tx=[7.0] * len(cells))
        apps = sorted(draw(st.sets(st.tuples(st.integers(0, n_days - 1),
                                             st.integers(0, 3)), max_size=6)))
        if apps:
            k = len(apps)
            builder.extend_apps(
                device=[device] * k, day=[d for d, _ in apps],
                category=[c for _, c in apps], cellular=[1] * k,
                ap_id=[-1] * k, col=[0] * k, row=[0] * k,
                rx=[float(i) for i in range(k)], tx=[0.0] * k)
        updates = draw(st.lists(update_slot, max_size=2))
        if updates:
            builder.extend_updates(device=[device] * len(updates),
                                   t=updates, bytes=[5e8] * len(updates))
    return builder.build()


@SETTINGS
@given(update_campaigns())
def test_cleaning_matches_row_mask(dataset):
    got, got_report = drop_update_window(dataset)
    want, want_report = _reference_drop_update_window(dataset)
    assert got_report == want_report
    if want is dataset:
        assert got is dataset
        return
    for table in dataset.table_names:
        _assert_tables_identical(getattr(got, table), getattr(want, table))


def test_cleaning_matches_row_mask_on_studies(small_study):
    for year in sorted(small_study.campaigns):
        raw = small_study.dataset(year)
        got, got_report = drop_update_window(raw)
        want, want_report = _reference_drop_update_window(raw)
        assert got_report == want_report
        _assert_tables_identical(got.traffic, want.traffic)
        _assert_tables_identical(got.apps, want.apps)


# ---------------------------------------------------------------------------
# AP classification
# ---------------------------------------------------------------------------

def _reference_classify_aps(data):
    ctx = AnalysisContext.of(data)
    dataset = ctx.dataset()
    result = APClassification()
    wifi = dataset.wifi
    assoc_mask = wifi.state == int(WifiStateCode.ASSOCIATED)
    if not assoc_mask.any():
        return result
    device = wifi.device[assoc_mask].astype(np.int64)
    t = wifi.t[assoc_mask].astype(np.int64)
    ap_id = wifi.ap_id[assoc_mask].astype(np.int64)
    result.wifi_devices = {int(d) for d in np.unique(device)}

    hour = hour_of_day(t)
    day = device_day_of(t)
    weekday = dataset.axis.weekday_of(t)

    home_of_device = _reference_home_aps(device, day, hour, ap_id)
    home_aps = set(home_of_device.values())
    fon_home_aps = _reference_fon(dataset, device, ap_id)
    home_aps |= fon_home_aps
    mobile_aps = _reference_mobile_aps(ctx, device, t, ap_id)

    in_window = (
        (hour >= M.OFFICE_START_HOUR) & (hour < M.OFFICE_END_HOUR) & (weekday < 5)
    )
    unique_aps, inverse = np.unique(ap_id, return_inverse=True)
    totals = np.bincount(inverse, minlength=len(unique_aps))
    window_counts = np.bincount(inverse[in_window], minlength=len(unique_aps))
    office = (window_counts / totals >= M.OFFICE_WINDOW_FRACTION) & (
        totals >= M.MIN_NIGHT_SLOTS
    )

    for a, is_office in zip(unique_aps.tolist(), office.tolist()):
        essid = dataset.ap_directory[a].essid
        if a in home_aps:
            result.ap_class[a] = "home"
        elif a in mobile_aps:
            result.ap_class[a] = "mobile"
        elif is_public_essid(essid) or (
            is_fon_public_essid(essid) and a not in fon_home_aps
        ):
            result.ap_class[a] = "public"
        elif is_office:
            result.ap_class[a] = "office"
        else:
            result.ap_class[a] = "other"

    result.home_ap_of_device = home_of_device
    for a in fon_home_aps:
        users = device[ap_id == a]
        if len(users) == 0:
            continue
        top_user = int(Counter(users.tolist()).most_common(1)[0][0])
        result.home_ap_of_device.setdefault(top_user, a)
    return result


def _reference_home_aps(device, day, hour, ap_id):
    night = (hour >= M.HOME_NIGHT_START_HOUR) | (hour < M.HOME_NIGHT_END_HOUR)
    if not night.any():
        return {}
    d = device[night]
    dy = day[night]
    a = ap_id[night]
    _, first, counts = np.unique(
        packed_keys(d, dy, a), return_index=True, return_counts=True
    )
    g_dev, g_ap = d[first], a[first]
    night_key = packed_keys(g_dev, dy[first])
    totals = np.add.reduceat(counts, group_starts(night_key))
    order = np.lexsort((-counts, night_key))
    top = order[group_starts(night_key[order])]
    votes = top[
        (totals >= M.MIN_NIGHT_SLOTS)
        & (counts[top] / totals >= M.HOME_NIGHT_FRACTION)
    ]
    if votes.size == 0:
        return {}
    _, first_vote, n_votes = np.unique(
        packed_keys(g_dev[votes], g_ap[votes]),
        return_index=True, return_counts=True,
    )
    vote_dev = g_dev[votes][first_vote]
    order = np.lexsort((first_vote, -n_votes, vote_dev))
    winner = order[group_starts(vote_dev[order])]
    return {
        int(dv): int(ap) for dv, ap in
        zip(vote_dev[winner], g_ap[votes][first_vote][winner])
    }


def _reference_fon(dataset, device, ap_id):
    fon_aps = {
        a for a, entry in dataset.ap_directory.items()
        if is_fon_public_essid(entry.essid)
    }
    if not fon_aps:
        return set()
    threshold_slots = 24 * SAMPLES_PER_HOUR
    fon_mask = np.isin(ap_id, list(fon_aps))
    if not fon_mask.any():
        return set()
    fon_ap = ap_id[fon_mask]
    _, first, slots = np.unique(
        packed_keys(device[fon_mask], fon_ap),
        return_index=True, return_counts=True,
    )
    return {int(ap) for ap in fon_ap[first[slots >= threshold_slots]]}


def _reference_mobile_aps(ctx, device, t, ap_id):
    dataset = ctx.dataset()
    geo = dataset.geo
    if len(geo) == 0:
        return set()
    index = ctx.geo_index()
    pos, found = index.lookup(device, t)

    idx = np.flatnonzero(found)
    if idx.size == 0:
        return set()
    dev, ap = device[idx], ap_id[idx]
    _, distinct = np.unique(
        packed_keys(dev, ap, index.gather(geo.col, pos[idx]),
                    index.gather(geo.row, pos[idx])),
        return_index=True,
    )
    _, first, n_cells = np.unique(
        packed_keys(dev[distinct], ap[distinct]),
        return_index=True, return_counts=True,
    )
    return {
        int(a) for a in ap[distinct][first[n_cells >= M.MOBILE_CELL_THRESHOLD]]
    }


def _assert_classification_equal(dataset):
    got, want = classify_aps(dataset), _reference_classify_aps(dataset)
    assert got == want
    # Dict equality ignores order; the insertion order is pinned too.
    assert list(got.ap_class.items()) == list(want.ap_class.items())
    assert (list(got.home_ap_of_device.items())
            == list(want.home_ap_of_device.items()))


def test_classification_on_studies(small_study):
    context = AnalysisContext(small_study)
    for year in sorted(small_study.campaigns):
        _assert_classification_equal(context.campaign(year).dataset())
        _assert_classification_equal(small_study.dataset(year))


def test_classification_fon_tie_goes_to_smallest_device():
    # Two devices spend the same > 24 h on one FON AP; neither has a home.
    builder = make_builder(n_devices=3, n_days=5)
    add_ap(builder, 4, "FON_FREE_INTERNET")
    add_ap(builder, 5, "0000docomo")
    for device in (2, 1):
        for day in range(5):
            add_association_span(builder, device, 4, slot(day, 8), slot(day, 14))
    add_association_span(builder, 0, 5, slot(0, 12), slot(0, 13))
    dataset = builder.build()
    _assert_classification_equal(dataset)
    assert classify_aps(dataset).home_ap_of_device == {1: 4}


def test_classification_home_vote_ties():
    builder = make_builder(n_devices=2, n_days=4)
    for ap_id, essid in ((3, "router-b"), (9, "router-a"), (6, "FON_AP")):
        add_ap(builder, ap_id, essid)
    # Device 0: one night each on APs 9 and 3, a 1-1 vote (first wins).
    add_association_span(builder, 0, 9, slot(0, 0), slot(0, 6))
    add_association_span(builder, 0, 3, slot(1, 0), slot(1, 6))
    # Device 1: nights split between APs 3 and 9, and a FON AP all day.
    for day in range(4):
        add_association_span(builder, 1, 3, slot(day, 0), slot(day, 3))
        add_association_span(builder, 1, 9, slot(day, 3), slot(day, 6))
        add_association_span(builder, 1, 6, slot(day, 8), slot(day, 20))
    _assert_classification_equal(builder.build())


def test_classification_equal_night_slots(monkeypatch):
    # At 50% both halves of a split night qualify: the smaller AP id wins.
    monkeypatch.setattr(M, "HOME_NIGHT_FRACTION", 0.5)
    builder = make_builder(n_devices=1, n_days=1)
    add_ap(builder, 3, "router-b")
    add_ap(builder, 7, "router-a")
    add_association_span(builder, 0, 7, slot(0, 0), slot(0, 3))
    add_association_span(builder, 0, 3, slot(0, 3), slot(0, 6))
    _assert_classification_equal(builder.build())


_ESSIDS = ("router-{}", "0000docomo", "FON_FREE_INTERNET", "corp-{}",
           "WM-{}", "eduroam")


@st.composite
def wifi_campaigns(draw):
    """Devices hopping between home, public, FON, office and mobile APs,
    with geo spans over a few cells."""
    n_devices, n_days = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    n_aps = draw(st.integers(1, 6))
    builder = make_builder(n_devices=n_devices, n_days=n_days)
    for ap_id in range(n_aps):
        add_ap(builder, ap_id, draw(st.sampled_from(_ESSIDS)).format(ap_id))
    n_slots = n_days * SAMPLES_PER_DAY
    for device in range(n_devices):
        t = 0
        spans = draw(st.lists(st.tuples(
            st.integers(0, 40), st.integers(1, 200), st.integers(0, n_aps - 1),
            st.sampled_from([(0, 0), (0, 1), (2, 0), (5, 5)])), max_size=25))
        for gap, length, ap_id, cell in spans:
            start, t = t + gap, min(t + gap + length, n_slots)
            if start >= t:
                break
            add_association_span(builder, device, ap_id, start, t)
            add_geo_span(builder, device, cell, start, t)
    return builder.build()


@SETTINGS
@given(wifi_campaigns())
def test_classification_on_generated_campaigns(dataset):
    _assert_classification_equal(dataset)


# ---------------------------------------------------------------------------
# Distinct devices and AP ids without np.unique
# ---------------------------------------------------------------------------

def _assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _sorted_distinct(values):
    return values[group_starts(values)]


@SETTINGS
@given(st.lists(st.integers(0, 50), max_size=60),
       st.sampled_from([np.int32, np.int64]))
def test_distinct_helpers_match_unique(values, dtype):
    ids = np.array(values, dtype=dtype)
    _assert_same_array(distinct_ids(ids), np.unique(ids))
    ids.sort()
    _assert_same_array(_sorted_distinct(ids), np.unique(ids))


def test_distinct_columns_on_studies(small_study):
    context = AnalysisContext(small_study)
    for year in sorted(small_study.campaigns):
        ctx = context.campaign(year)
        dataset = ctx.dataset()
        # offload_estimate: devices with available scans, and with strong
        # ones.
        scans = dataset.scans
        mask = ctx.available_scan_mask()
        strong = mask & ((scans.n24_strong + scans.n5_strong) >= 1)
        for rows in (mask, strong):
            devices = scans.device[rows]
            _assert_same_array(_sorted_distinct(devices), np.unique(devices))
        # survey_gap: associated devices per location class.
        wifi = dataset.wifi
        assoc = wifi.state == int(WifiStateCode.ASSOCIATED)
        device = wifi.device[assoc]
        codes = ctx.classification().class_codes(wifi.ap_id[assoc])
        for classes in LOCATION_CLASSES.values():
            wanted = np.isin(codes, [WIFI_CLASSES.index(c) for c in classes])
            assert (group_starts(device[wanted]).size
                    == np.unique(device[wanted]).size)
        # _associated_aps and shared_infrastructure: associated and
        # sighted AP ids.
        for ids in (wifi.ap_id[assoc], dataset.sightings.ap_id):
            assert len(ids)
            _assert_same_array(distinct_ids(ids), np.unique(ids))
