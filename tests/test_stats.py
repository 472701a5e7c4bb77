"""Unit tests for statistical helpers."""

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.stats.distributions import ccdf, ecdf, pdf_histogram, percentile_band_mask
from repro.stats.growth import annual_growth_rate, linear_fit
from repro.stats.timeseries import HourlySeries, bytes_to_mbps


class TestEcdf:
    def test_basic(self):
        dist = ecdf([3.0, 1.0, 2.0])
        assert list(dist.values) == [1.0, 2.0, 3.0]
        assert list(dist.probs) == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_at(self):
        dist = ecdf([1.0, 2.0, 3.0, 4.0])
        assert dist.at(0.5) == 0.0
        assert dist.at(2.0) == 0.5
        assert dist.at(2.5) == 0.5
        assert dist.at(10.0) == 1.0

    def test_quantile_and_median(self):
        dist = ecdf(np.arange(1, 101, dtype=float))
        assert dist.median() == 50.0
        assert dist.quantile(0.9) == 90.0
        assert dist.quantile(1.0) == 100.0

    def test_quantile_validation(self):
        dist = ecdf([1.0])
        with pytest.raises(AnalysisError):
            dist.quantile(0.0)
        with pytest.raises(AnalysisError):
            dist.quantile(1.5)

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            ecdf([])

    def test_nan_rejected(self):
        with pytest.raises(AnalysisError):
            ecdf([1.0, float("nan")])

    def test_ccdf_complements(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        c = ccdf(samples)
        e = ecdf(samples)
        assert np.allclose(c.probs, 1.0 - e.probs)


class TestPdfHistogram:
    def test_density_integrates_to_one(self, rng):
        samples = rng.normal(-55, 7, 5000)
        centers, density = pdf_histogram(samples, bins=40)
        width = centers[1] - centers[0]
        assert (density * width).sum() == pytest.approx(1.0, abs=0.01)

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            pdf_histogram([])


class TestPercentileBand:
    def test_light_band_is_about_20pct(self, rng):
        samples = rng.exponential(100.0, 10_000)
        mask = percentile_band_mask(samples, 40, 60)
        assert mask.mean() == pytest.approx(0.20, abs=0.01)

    def test_top_band_inclusive(self):
        samples = np.arange(100, dtype=float)
        mask = percentile_band_mask(samples, 95, 100)
        assert mask.sum() == 5
        assert mask[-1]

    def test_bands_partition(self, rng):
        samples = rng.normal(0, 1, 1000)
        low = percentile_band_mask(samples, 0, 50)
        high = percentile_band_mask(samples, 50, 100)
        assert (low | high).all()
        assert not (low & high).any()

    def test_invalid_band(self):
        with pytest.raises(AnalysisError):
            percentile_band_mask(np.ones(5), 60, 40)

    def test_empty_returns_empty(self):
        assert percentile_band_mask(np.array([]), 40, 60).size == 0


class TestGrowth:
    def test_linear_fit_exact(self):
        intercept, slope = linear_fit([0, 1, 2], [1.0, 3.0, 5.0])
        assert intercept == pytest.approx(1.0)
        assert slope == pytest.approx(2.0)

    def test_linear_fit_needs_two_points(self):
        with pytest.raises(AnalysisError):
            linear_fit([1], [2.0])

    def test_agr_geometric_series(self):
        # Doubling every year -> AGR 100%.
        agr = annual_growth_rate([2013, 2014, 2015], [100.0, 200.0, 400.0])
        assert agr == pytest.approx(1.0)

    def test_agr_matches_table3_exactly(self):
        # Table 3 WiFi medians 9.2/24.3/50.7 -> reported AGR 134%.
        agr = annual_growth_rate([2013, 2014, 2015], [9.2, 24.3, 50.7])
        assert agr == pytest.approx(1.34, abs=0.02)
        # Table 3 "All" medians 57.9/90.3/126.5 -> reported AGR 48%.
        agr_all = annual_growth_rate([2013, 2014, 2015], [57.9, 90.3, 126.5])
        assert agr_all == pytest.approx(0.48, abs=0.01)

    def test_agr_rejects_nonpositive_values(self):
        with pytest.raises(AnalysisError):
            annual_growth_rate([0, 1, 2], [-10.0, 0.0, 10.0])


class TestTimeseries:
    def test_bytes_to_mbps(self):
        # 450 MB in one hour = 1 Mbps.
        assert bytes_to_mbps(np.array([450e6]))[0] == pytest.approx(1.0)
        with pytest.raises(AnalysisError):
            bytes_to_mbps(np.ones(3), interval_s=0)

    def test_fold_week_alignment(self):
        # Campaign starting Wednesday (weekday 2), one full week of hours.
        values = np.arange(168.0)
        series = HourlySeries(values, start_weekday=2)
        folded = series.fold_week(week_start_weekday=2)
        assert np.allclose(folded, values)

    def test_fold_week_averages_repeats(self):
        values = np.concatenate([np.full(168, 1.0), np.full(168, 3.0)])
        series = HourlySeries(values, start_weekday=5)
        folded = series.fold_week()
        assert np.allclose(folded, 2.0)

    def test_fold_week_nan_for_uncovered(self):
        series = HourlySeries(np.ones(24), start_weekday=5)  # one Saturday
        folded = series.fold_week(week_start_weekday=5)
        assert np.isfinite(folded[:24]).all()
        assert np.isnan(folded[24:]).all()

    def test_bad_weekday(self):
        with pytest.raises(AnalysisError):
            HourlySeries(np.ones(24), start_weekday=7)
