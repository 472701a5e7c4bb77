"""Unit tests for the application model: categories, demand, updates."""

import numpy as np
import pytest

from repro.apps.categories import (
    CATEGORIES,
    CATEGORY_BY_NAME,
    category,
    category_name,
)
from repro.apps.demand import CategoryMix, DemandModel
from repro.apps.updates import UpdateModel, UpdatePolicy
from repro.errors import ConfigurationError


class TestCategories:
    def test_exactly_26(self):
        assert len(CATEGORIES) == 26

    def test_codes_dense_and_unique(self):
        assert sorted(c.code for c in CATEGORIES) == list(range(26))

    def test_paper_categories_present(self):
        for name in ("browser", "social", "video", "communication", "news",
                     "game", "music", "travel", "shopping", "downloading",
                     "entertainment", "tools", "productivity", "lifestyle",
                     "health", "business"):
            assert name in CATEGORY_BY_NAME

    def test_lookups(self):
        assert category_name(CATEGORY_BY_NAME["browser"].code) == "browser"
        assert category(0).name == "browser"

    def test_unknown_lookups(self):
        with pytest.raises(ConfigurationError):
            category_name(99)

    def test_wifi_only_is_productivity(self):
        wifi_only = [c.name for c in CATEGORIES if c.wifi_only]
        assert wifi_only == ["productivity"]

    def test_video_grows_and_prefers_wifi(self):
        video = CATEGORY_BY_NAME["video"]
        assert video.wifi_affinity > 1.0
        assert video.growth(2) > video.growth(0)
        assert video.rx_tx_ratio > 5.0

    def test_productivity_upload_heavy(self):
        assert CATEGORY_BY_NAME["productivity"].rx_tx_ratio < 1.0

    def test_growth_index_validated(self):
        with pytest.raises(ConfigurationError):
            CATEGORIES[0].growth(5)


class TestCategoryMix:
    def test_sample_mix_valid(self, rng):
        model = DemandModel(0, appetite_median_mb=50.0)
        mix = model.sample_mix(rng)
        assert mix.weights.sum() == pytest.approx(1.0)
        assert (mix.weights >= 0).all()

    def test_context_shares_cellular_excludes_wifi_only(self, rng):
        model = DemandModel(0, appetite_median_mb=50.0)
        mix = model.sample_mix(rng)
        cell_shares = mix.context_shares(on_wifi=False)
        prod = CATEGORY_BY_NAME["productivity"].code
        assert cell_shares[prod] == 0.0
        assert cell_shares.sum() == pytest.approx(1.0)

    def test_context_shares_wifi_boosts_video(self, rng):
        model = DemandModel(0, appetite_median_mb=50.0)
        mix = model.sample_mix(rng)
        wifi = mix.context_shares(on_wifi=True)
        cell = mix.context_shares(on_wifi=False)
        video = CATEGORY_BY_NAME["video"].code
        assert wifi[video] > cell[video]

    def test_invalid_mix_rejected(self):
        with pytest.raises(ConfigurationError):
            CategoryMix(np.ones(26))  # sums to 26
        with pytest.raises(ConfigurationError):
            CategoryMix(np.ones(5) / 5)


class TestDemandModel:
    def test_appetite_median(self, rng):
        model = DemandModel(2, appetite_median_mb=60.0, appetite_sigma=0.8)
        draws = np.array([model.sample_appetite_bytes(rng) for _ in range(4000)])
        assert np.median(draws) / 1e6 == pytest.approx(60.0, rel=0.1)

    def test_appetite_skew(self, rng):
        model = DemandModel(2, appetite_median_mb=60.0, appetite_sigma=0.85)
        draws = np.array([model.sample_appetite_bytes(rng) for _ in range(4000)])
        assert draws.mean() > np.median(draws) * 1.2

    def test_tx_fraction_reasonable(self, rng):
        model = DemandModel(0, appetite_median_mb=50.0)
        mix = model.sample_mix(rng)
        frac = model.tx_fraction(mix, on_wifi=False)
        # RX is roughly 5x TX in aggregate (Figure 3).
        assert 0.1 < frac < 0.5

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            DemandModel(5, appetite_median_mb=50.0)
        with pytest.raises(ConfigurationError):
            DemandModel(0, appetite_median_mb=-1.0)
        with pytest.raises(ConfigurationError):
            DemandModel(0, appetite_median_mb=1.0, wifi_uplift=0.5)


class TestUpdates:
    def test_policy_hazard_shape(self):
        policy = UpdatePolicy(release_day=10)
        assert policy.hazard(-1, False) == 0.0
        assert policy.hazard(0, False) == policy.day0_hazard
        assert policy.hazard(1, False) > policy.hazard(5, False)
        assert policy.hazard(2, True) > policy.hazard(2, False)

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            UpdatePolicy(release_day=-1)
        with pytest.raises(ConfigurationError):
            UpdatePolicy(release_day=0, size_bytes=0.0)
        with pytest.raises(ConfigurationError):
            UpdatePolicy(release_day=0, daily_hazard=0.0)

    def test_update_requires_wifi(self, rng):
        model = UpdateModel(UpdatePolicy(release_day=0, day0_hazard=1.0))
        assert not model.maybe_update(1, 0, False, wifi_hours_today=0.0, rng=rng)
        assert model.maybe_update(1, 0, False, wifi_hours_today=5.0, rng=rng)
        assert model.updated(1)

    def test_update_happens_once(self, rng):
        model = UpdateModel(UpdatePolicy(release_day=0, day0_hazard=1.0,
                                         daily_hazard=1.0, tail_decay=1.0))
        assert model.maybe_update(1, 0, False, 5.0, rng)
        assert not model.maybe_update(1, 1, False, 5.0, rng)

    def test_no_update_before_release(self, rng):
        model = UpdateModel(UpdatePolicy(release_day=5, day0_hazard=1.0))
        assert not model.maybe_update(1, 3, False, 10.0, rng)

    def test_flash_crowd_statistics(self, rng):
        policy = UpdatePolicy(release_day=0)
        model = UpdateModel(policy)
        update_day = {}
        for device in range(600):
            for day in range(15):
                if model.maybe_update(device, day, day % 7 >= 5, 4.0, rng):
                    update_day[device] = day
        frac_updated = len(update_day) / 600
        assert 0.4 < frac_updated < 0.9  # §3.7: 58% in two weeks
        first_day = sum(1 for d in update_day.values() if d == 0) / 600
        assert 0.05 < first_day < 0.35
