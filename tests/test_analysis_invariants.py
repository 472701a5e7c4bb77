"""Metamorphic properties of the analysis layer.

Every table and figure is a fold over anonymous per-device logs (§2), which
implies exact relations the analyses must obey whatever their internal
order of work:

- **Device relabelling.** Device ids are random identifiers, so renaming
  the devices of every campaign (and re-sorting each table by
  ``(device, t)``, as the dataset builder would) must leave all 30
  rendered experiments byte-identical.
- **Power-of-two scaling.** Doubling every ``rx``/``tx`` byte count is
  exact in floating point, so every share and ratio must stay
  bit-identical and every absolute volume must double exactly.
- **Subset additivity.** The app-category volumes of the ``light`` and
  ``heavy`` device-days plus the unclassified ones sum to the ``all``
  view, and a one-year study equals that year's slice of the full study.

Fuzzed with hypothesis over tiny studies (scale 0.01); the examples are
few because each one renders a full sweep.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis as A
from repro import AnalysisContext, run_study
from repro.analysis.ap_classification import HOME
from repro.analysis.app_breakdown import CONTEXTS, infer_home_cells
from repro.analysis.users import UserDayClasses
from repro.apps.categories import CATEGORIES
from repro.reporting.experiments import EXPERIMENTS, run_experiment
from repro.simulation.study import YEARS

SCALE = 0.01
#: Seeds whose 0.01-scale study renders all 30 experiments without error.
SEEDS = (2, 5)

#: Analyses the scaling relation does not cover: each compares volumes
#: with an absolute threshold or takes their logarithm, so doubling every
#: byte legitimately moves its result.
SCALING_EXEMPT = {
    "classify_user_days": "light/heavy classes: the 0.1 MB valid-day "
                          "floor is absolute",
    "cap_effect": "the 1 GB / 3-day bandwidth cap is absolute",
    "volume_growth_table": "AGR fits log volumes and rejects zero-volume "
                           "years",
}


@lru_cache(maxsize=None)
def _study(seed: int, years: tuple = YEARS):
    return run_study(scale=SCALE, seed=seed, years=years, n_jobs=1)


class _StudyView:
    """A study with its campaigns replaced by a ``{year: dataset}`` map."""

    def __init__(self, study, datasets) -> None:
        self.campaigns = datasets
        self.surveys = study.surveys

    def dataset(self, year: int):
        return self.campaigns[year]


def _rebuild(dataset, columns_of, **fields):
    """``dataset`` with each table's columns passed through ``columns_of``."""
    tables = {}
    for name in dataset.table_names:
        table = getattr(dataset, name)
        tables[name] = type(table)(columns_of(dict(table.columns)))
    return dataclasses.replace(dataset, **tables, **fields)


def _relabel(dataset, perm: np.ndarray):
    """Device ``d`` renamed ``perm[d]``; rows re-sorted by (device, t)."""
    def columns_of(columns):
        device = columns["device"]
        columns["device"] = perm[device].astype(device.dtype)
        key = columns["t"] if "t" in columns else columns["day"]
        order = np.lexsort((key, columns["device"]))
        return {name: column[order] for name, column in columns.items()}

    devices = sorted(
        (dataclasses.replace(d, device_id=int(perm[d.device_id]))
         for d in dataset.devices),
        key=lambda d: d.device_id,
    )
    return _rebuild(dataset, columns_of, devices=devices, ground_truth=None)


def _scale_volumes(dataset, factor: float = 2.0):
    def columns_of(columns):
        for name in ("rx", "tx"):
            if name in columns:
                columns[name] = columns[name] * factor
        return columns

    return _rebuild(dataset, columns_of)


def _render_all(context) -> dict:
    out = {}
    for eid in EXPERIMENTS:
        try:
            result = run_experiment(eid, context)
            out[eid] = result.render() if hasattr(result, "render") else str(result)
        except Exception as exc:  # the relation holds for failures too
            out[eid] = f"{type(exc).__name__}: {exc}"
    return out


@settings(max_examples=4, deadline=None)
@given(seed=st.sampled_from(SEEDS), perm_seed=st.integers(0, 2**32 - 1))
def test_device_relabelling_keeps_every_experiment(seed, perm_seed):
    study = _study(seed)
    rng = np.random.default_rng(perm_seed)
    relabelled = {}
    for year in sorted(study.campaigns):
        dataset = study.dataset(year)
        relabelled[year] = _relabel(dataset, rng.permutation(dataset.n_devices))
    base = _render_all(AnalysisContext(study))
    assert not any(text.startswith("AnalysisError") for text in base.values())
    assert _render_all(AnalysisContext(_StudyView(study, relabelled))) == base


def _assert_doubled(scaled: np.ndarray, base: np.ndarray) -> None:
    assert np.array_equal(scaled, 2.0 * base, equal_nan=True)


@settings(max_examples=2, deadline=None)
@given(seed=st.sampled_from(SEEDS))
def test_doubling_volumes_keeps_shares_and_doubles_volumes(seed):
    study = _study(seed)
    base = AnalysisContext(study)
    scaled = AnalysisContext(
        {y: _scale_volumes(study.dataset(y)) for y in sorted(study.campaigns)}
    )
    for year in base.years:
        b, s = base.campaign(year), scaled.campaign(year)
        for kind in ("all", "cell", "wifi", "3g", "lte"):
            for direction in ("rx", "tx"):
                _assert_doubled(s.daily_matrix(kind, direction),
                                b.daily_matrix(kind, direction))
                _assert_doubled(s.hourly_series(kind, direction),
                                b.hourly_series(kind, direction))

        agg_b, agg_s = A.aggregate_traffic(b), A.aggregate_traffic(s)
        assert agg_s.wifi_share == agg_b.wifi_share
        assert agg_s.lte_share_of_cellular == agg_b.lte_share_of_cellular
        for key, series in agg_b.series.items():
            _assert_doubled(agg_s.series[key].values, series.values)
        for kind in ("cell", "wifi"):
            assert (A.weekend_weekday_ratio(s, kind)
                    == A.weekend_weekday_ratio(b, kind))

        assert A.app_breakdown(s) == A.app_breakdown(b)

        loc_b, loc_s = A.location_traffic(b), A.location_traffic(s)
        assert loc_s.volume_share == loc_b.volume_share
        for key, series in loc_b.series.items():
            _assert_doubled(loc_s.series[key].values, series.values)

        # Hold the (exempt) user classes fixed: the ratios themselves are
        # scale-free. ``s`` is a view of its own, so only it reads the base
        # campaign's classes.
        ratios_b = A.wifi_ratios(b)
        base_classes = b.user_classes()
        s.user_classes = lambda year=None: base_classes
        ratios_s = A.wifi_ratios(s)
        for subset, ratio in ratios_b.traffic_ratio.items():
            assert np.array_equal(ratios_s.traffic(subset).hourly.values,
                                  ratio.hourly.values, equal_nan=True)
            assert np.array_equal(ratios_s.traffic(subset).mean, ratio.mean,
                                  equal_nan=True)


def test_scaling_exemptions_name_real_analyses():
    for name in SCALING_EXEMPT:
        assert callable(getattr(A, name, None)), name


def _row_contexts(campaign) -> np.ndarray:
    """Each app row's context code (an index into ``CONTEXTS``), from the
    documented rule: cellular rows are home in the device's modal night
    cell, WiFi rows are home on a home-class AP and public otherwise."""
    apps = campaign.dataset().apps
    home_cells = infer_home_cells(campaign.dataset())
    at_home = np.array([
        home_cells.get(d) == (c, r) for d, c, r in zip(
            apps.device.tolist(), apps.col.tolist(), apps.row.tolist())
    ], dtype=bool)
    wifi_away = campaign.classification().class_codes(apps.ap_id) != HOME
    return np.where(apps.cellular != 0, ~at_home, 2 + wifi_away)


def _category_volumes(breakdown, campaign, contexts, rows,
                      direction) -> np.ndarray:
    """(context, category) byte volumes of ``rows``: the breakdown's
    shares times each context's total volume over those rows."""
    values = getattr(campaign.dataset().apps, direction)[rows]
    totals = np.bincount(contexts[rows], weights=values,
                         minlength=len(CONTEXTS))
    shares = breakdown.shares_rx if direction == "rx" else breakdown.shares_tx
    volumes = np.zeros((len(CONTEXTS), len(CATEGORIES)))
    for ci, name in enumerate(CONTEXTS):
        for code, share in shares[name].items():
            volumes[ci, code] = share * totals[ci]
    return volumes


@settings(max_examples=2, deadline=None)
@given(seed=st.sampled_from(SEEDS), year=st.sampled_from(YEARS))
def test_app_volumes_of_light_heavy_and_unclassified_sum_to_all(seed, year):
    campaign = AnalysisContext(_study(seed)).campaign(year)
    apps = campaign.dataset().apps
    classes = campaign.user_classes()
    unclassified = ~(classes.light | classes.heavy)
    # The unclassified device-days, as a "light" mask of their own.
    rest = UserDayClasses(volumes=classes.volumes, valid=classes.valid,
                          light=unclassified,
                          heavy=np.zeros_like(unclassified))
    day_masks = {"light": classes.light, "heavy": classes.heavy,
                 "unclassified": unclassified}
    rows = {name: np.flatnonzero(mask[apps.device, apps.day])
            for name, mask in day_masks.items()}
    # The three subsets partition the app rows.
    assert sum(r.size for r in rows.values()) == len(apps)
    breakdowns = {
        "light": A.app_breakdown(campaign, classes=classes, subset="light"),
        "heavy": A.app_breakdown(campaign, classes=classes, subset="heavy"),
        "unclassified": A.app_breakdown(campaign, classes=rest,
                                        subset="light"),
    }
    contexts = _row_contexts(campaign)
    everything = np.arange(len(apps))
    for direction in ("rx", "tx"):
        whole = _category_volumes(A.app_breakdown(campaign), campaign,
                                  contexts, everything, direction)
        parts = sum(
            _category_volumes(breakdowns[name], campaign, contexts,
                              rows[name], direction)
            for name in day_masks
        )
        assert whole.sum() > 0
        np.testing.assert_allclose(parts, whole, rtol=1e-9, atol=1e-6)


@settings(max_examples=2, deadline=None)
@given(seed=st.sampled_from(SEEDS), year=st.sampled_from(YEARS))
def test_one_year_study_equals_that_year_of_the_full_study(seed, year):
    full = _study(seed)
    alone = _study(seed, (year,))
    assert alone.years == (year,)
    a, b = full.dataset(year), alone.dataset(year)
    assert a.devices == b.devices
    for name in a.table_names:
        left, right = getattr(a, name).columns, getattr(b, name).columns
        assert left.keys() == right.keys(), name
        for column in left:
            assert np.array_equal(left[column], right[column]), \
                f"{name}.{column}"
    assert alone.surveys[year] == full.surveys[year]

    base = AnalysisContext(full).campaign(year)
    single = AnalysisContext(alone).campaign(year)
    for kind in ("all", "cell", "wifi", "3g", "lte"):
        for direction in ("rx", "tx"):
            assert np.array_equal(single.daily_matrix(kind, direction),
                                  base.daily_matrix(kind, direction))
            assert np.array_equal(single.hourly_series(kind, direction),
                                  base.hourly_series(kind, direction),
                                  equal_nan=True)
    assert A.app_breakdown(single) == A.app_breakdown(base)
    assert single.classification().ap_class == base.classification().ap_class
    for mask in ("valid", "light", "heavy"):
        assert np.array_equal(getattr(single.user_classes(), mask),
                              getattr(base.user_classes(), mask))
    agg_b, agg_s = A.aggregate_traffic(base), A.aggregate_traffic(single)
    assert agg_s.wifi_share == agg_b.wifi_share
    for key, series in agg_b.series.items():
        assert np.array_equal(agg_s.series[key].values, series.values,
                              equal_nan=True)
    assert (A.location_traffic(single).volume_share
            == A.location_traffic(base).volume_share)
