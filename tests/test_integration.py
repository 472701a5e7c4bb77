"""End-to-end integration: simulate -> persist -> reload -> analyze."""

import numpy as np
import pytest

import repro
from repro import (
    clean_for_main_analysis,
    load_dataset,
    run_experiment,
    save_dataset,
    validate_dataset,
)
from repro.analysis import aggregate_traffic, classify_aps, wifi_ratios


def test_public_api_surface():
    for name in repro.__all__:
        assert hasattr(repro, name), name
    assert repro.__version__


def test_save_load_analyze_round_trip(tmp_path, study):
    original = study.dataset(2014)
    save_dataset(original, tmp_path / "campaign2014")
    reloaded = load_dataset(tmp_path / "campaign2014")
    validate_dataset(reloaded)

    agg_a = aggregate_traffic(clean_for_main_analysis(original))
    agg_b = aggregate_traffic(clean_for_main_analysis(reloaded))
    assert agg_a.wifi_share == pytest.approx(agg_b.wifi_share)
    assert agg_a.lte_share_of_cellular == pytest.approx(agg_b.lte_share_of_cellular)

    cls_a = classify_aps(original)
    cls_b = classify_aps(reloaded)
    assert cls_a.counts() == cls_b.counts()


def test_analysis_does_not_mutate_dataset(study):
    ds = clean_for_main_analysis(study.dataset(2013))
    before = ds.traffic.rx.copy()
    wifi_ratios(ds)
    classify_aps(ds)
    np.testing.assert_array_equal(ds.traffic.rx, before)


def test_full_experiment_sweep_consistency(cache):
    """Rerunning an experiment on the same cache gives identical output."""
    for experiment_id in ("table3", "fig05", "fig14"):
        a = run_experiment(experiment_id, cache)
        b = run_experiment(experiment_id, cache)
        assert a.render() == b.render()


def test_longitudinal_consistency(cache):
    """Cross-experiment invariants hold on the same study."""
    # Table 4 totals equal the number of classified APs per year.
    for year in cache.years:
        classification = cache.classification(year)
        counts = classification.counts()
        assert counts["total"] == len(classification.ap_class)
        assert counts["home"] + counts["public"] + counts["other"] == (
            counts["total"]
        )

    # Table 1 panel sizes match the dataset rosters.
    from repro.analysis import campaign_overview
    for year in cache.years:
        overview = campaign_overview(cache.raw(year))
        assert overview.n_total == cache.raw(year).n_devices


def test_deterministic_study(study):
    from repro import run_study
    again = run_study(scale=study.config.scale, seed=study.config.seed)
    for year in study.years:
        a, b = study.dataset(year), again.dataset(year)
        assert len(a.traffic) == len(b.traffic)
        np.testing.assert_array_equal(a.traffic.rx, b.traffic.rx)
        np.testing.assert_array_equal(a.wifi.state, b.wifi.state)
