"""Benchmarks for the measurement-campaign simulator itself.

These are throughput benchmarks (devices simulated per second), not paper
artifacts: they track the cost of generating a campaign and of the two most
expensive analyses.
"""

from repro import clean_for_main_analysis, run_campaign
from repro.analysis import classify_aps, wifi_ratios
from repro.simulation.study import default_campaign_config


def test_simulate_small_campaign(benchmark):
    config = default_campaign_config(2015, scale=0.01, seed=3)
    result = benchmark(run_campaign, config)
    assert result.dataset.n_devices > 5


def test_simulate_small_campaign_sharded(benchmark):
    # Same campaign through the process-pool executor; tracks the engine's
    # shard/merge overhead relative to the serial path above.
    config = default_campaign_config(2015, scale=0.01, seed=3)
    result = benchmark(run_campaign, config, n_jobs=2)
    assert result.dataset.n_devices > 5
    assert result.execution.executor == "parallel"


def test_classify_aps_speed(bench_cache, benchmark):
    dataset = bench_cache.clean(2015)
    result = benchmark(classify_aps, dataset)
    assert result.counts()["total"] > 0


def test_wifi_ratios_speed(bench_cache, benchmark):
    # The campaign view shares the memoized user classes, so each round
    # times the ratios alone (the direct call is not memoized).
    campaign = bench_cache.campaign(2015)
    campaign.user_classes()
    result = benchmark(wifi_ratios, campaign)
    assert 0 < result.traffic("all").mean < 1
