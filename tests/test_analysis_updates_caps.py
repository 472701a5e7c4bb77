"""Unit tests for update timing (Fig 18), cap effects (Fig 19), implications."""

import numpy as np
import pytest

from repro.analysis.ap_classification import classify_aps
from repro.analysis.bandwidth_cap import cap_effect
from repro.analysis.evolution import campaign_overview, yearly
from repro.analysis.implications import offload_impact
from repro.analysis.software_update import update_timing
from repro.errors import AnalysisError
from repro.traces.records import DeviceOS, IfaceKind
from tests.helpers import (
    add_ap,
    add_association_span,
    add_daily_traffic,
    make_builder,
    nightly_home_association,
    slot,
)


class TestUpdateTiming:
    def _update_dataset(self):
        builder = make_builder(
            n_devices=4, n_days=7,
            os_plan=[DeviceOS.IOS, DeviceOS.IOS, DeviceOS.IOS, DeviceOS.ANDROID],
        )
        add_ap(builder, 0, "home-0")
        add_ap(builder, 1, "0000docomo")
        # Device 0 has a home AP and updates on release day (day 2).
        nightly_home_association(builder, 0, 0, n_days=7)
        builder.extend_updates(device=[0], t=[slot(2, 21)], bytes=[565e6])
        # Device 1 has no home AP; updates late via public WiFi (day 5).
        add_association_span(builder, 1, 1, slot(5, 12), slot(5, 13))
        builder.extend_updates(device=[1], t=[slot(5, 12)], bytes=[565e6])
        # Device 2 never updates. Device 3 is Android.
        return builder.build()

    def test_fractions(self):
        ds = self._update_dataset()
        timing = update_timing(ds)
        assert timing.updated_fraction == pytest.approx(2 / 3)
        assert timing.release_day == 2
        assert timing.first_day_fraction == pytest.approx(1 / 3)

    def test_no_home_delay(self):
        timing = update_timing(self._update_dataset())
        assert timing.median_delay_days_no_home > timing.median_delay_days

    def test_no_home_update_network(self):
        timing = update_timing(self._update_dataset())
        assert timing.no_home_update_network.get("public") == 1

    def test_cdf_curve(self):
        timing = update_timing(self._update_dataset())
        days, frac = timing.cdf_curve()
        assert list(days) == [0, 3]
        assert frac[-1] == pytest.approx(2 / 3)

    def test_requires_updates(self):
        with pytest.raises(AnalysisError):
            update_timing(make_builder().build())

    def test_study_2015(self, study, cache):
        timing = update_timing(study.dataset(2015), cache.classification(2015))
        # §3.7: 58% of iPhones updated within two weeks; 10% on day one.
        assert 0.35 < timing.updated_fraction < 0.85
        assert timing.updated_fraction_no_home < timing.updated_fraction
        assert timing.update_days.max() > 3  # long tail


class TestCapEffect:
    def _cap_dataset(self):
        builder = make_builder(n_devices=6, n_days=8)
        for device in range(6):
            heavy = device == 0
            for day in range(8):
                if heavy:
                    # 0.5 GB/day: 3-day window = 1.5 GB > cap; throttled days
                    # drop to 0.1 GB once capped.
                    mb = 500 if day < 4 else 100
                else:
                    mb = 30
                add_daily_traffic(builder, device, day, cell_rx_mb=mb)
        return builder.build()

    def test_capped_detection(self):
        effect = cap_effect(self._cap_dataset())
        assert effect.potentially_capped_fraction > 0.0
        # Throttled days sit left of unthrottled days.
        assert effect.capped_ratio_cdf.median() < effect.others_ratio_cdf.median()

    def test_too_short_campaign(self):
        builder = make_builder(n_devices=2, n_days=3)
        add_daily_traffic(builder, 0, 0, cell_rx_mb=10)
        with pytest.raises(AnalysisError):
            cap_effect(builder.build())

    def test_study_gap_shrinks_2015(self, cache):
        effect14 = cap_effect(cache.clean(2014))
        effect15 = cap_effect(cache.clean(2015))
        # §3.8: the policy relaxation narrows the capped-vs-others gap.
        assert effect15.median_gap() < effect14.median_gap()

    def test_study_capped_fraction_small(self, cache):
        for year in (2014, 2015):
            effect = cap_effect(cache.clean(year))
            assert effect.potentially_capped_fraction < 0.12

class TestImplications:
    def test_exact_arithmetic(self):
        builder = make_builder(n_devices=5, n_days=1)
        for device in range(5):
            add_daily_traffic(builder, device, 0, cell_rx_mb=36, wifi_rx_mb=50.4)
        impact = offload_impact(builder.build())
        assert impact.wifi_to_cell_ratio == pytest.approx(1.4)
        assert impact.offload_share_of_broadband == pytest.approx(
            0.2 * 1.4 * 0.95
        )
        assert impact.smartphone_share_of_home_broadband == pytest.approx(
            50.4 / 436.0
        )

    def test_validation(self, dataset2015):
        with pytest.raises(AnalysisError):
            offload_impact(dataset2015, home_wifi_fraction=0.0)

    def test_study_2015_shapes(self, dataset2015):
        impact = offload_impact(dataset2015)
        # §4.1: WiFi:cellular ~1.4:1, offload ~28% of broadband, ~12% of a
        # home's volume; generous bands for the small panel.
        assert 0.8 < impact.wifi_to_cell_ratio < 3.5
        assert 0.10 < impact.offload_share_of_broadband < 0.70
        assert 0.05 < impact.smartphone_share_of_home_broadband < 0.30


class TestEvolution:
    def test_overview_row(self, study):
        row = campaign_overview(study.dataset(2015))
        assert row.year == 2015
        assert row.n_total == row.n_android + row.n_ios
        assert 0.5 < row.lte_share <= 1.0

    def test_yearly_helper(self, study):
        datasets = {y: study.dataset(y) for y in study.years}
        result = yearly(datasets, lambda ds: ds.n_devices)
        assert set(result) == set(study.years)
