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
from repro.reporting.experiments import EXPERIMENTS, run_experiment

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
def _study(seed: int):
    return run_study(scale=SCALE, seed=seed, n_jobs=1)


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
        # scale-free.
        ratios_b = A.wifi_ratios(b)
        ratios_s = A.wifi_ratios(s, classes=b.user_classes())
        for subset, ratio in ratios_b.traffic_ratio.items():
            assert np.array_equal(ratios_s.traffic(subset).hourly.values,
                                  ratio.hourly.values, equal_nan=True)
            assert np.array_equal(ratios_s.traffic(subset).mean, ratio.mean,
                                  equal_nan=True)


def test_scaling_exemptions_name_real_analyses():
    for name in SCALING_EXEMPT:
        assert callable(getattr(A, name, None)), name
