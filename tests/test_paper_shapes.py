"""Paper-shape assertions: the qualitative results the reproduction must hold.

Each test pins one claim from the paper's evaluation (who wins, which
direction a trend moves, rough magnitudes). Bands are generous because the
session fixture runs a small panel; benchmarks at larger scale tighten them.
"""

import numpy as np
import pytest

import repro.analysis as A


class TestHeadlineFindings:
    def test_wifi_share_grows_59_to_67(self, cache):
        """§3.1: WiFi share of total volume grows from 59% to 67%."""
        shares = {
            y: A.aggregate_traffic(cache.clean(y)).wifi_share for y in cache.years
        }
        assert shares[2013] < shares[2015]
        assert 0.4 < shares[2013] < 0.8
        assert 0.55 < shares[2015] < 0.9

    def test_lte_share_25_to_80(self, cache):
        """Table 1: LTE share of cellular traffic 25% -> 80%."""
        shares = {
            y: A.aggregate_traffic(cache.clean(y)).lte_share_of_cellular
            for y in cache.years
        }
        assert shares[2013] < 0.5
        assert shares[2015] > 0.6
        assert shares[2013] < shares[2014] < shares[2015]

    def test_wifi_median_overtakes_cellular(self, cache):
        """Table 3: median WiFi < cellular in 2013, > cellular by 2015."""
        growth = A.volume_growth_table([cache.clean(y) for y in cache.years])
        assert growth.median["wifi"][2013] < growth.median["cell"][2013]
        assert growth.median["wifi"][2015] > growth.median["cell"][2015]

    def test_wifi_agr_highest(self, cache):
        """Table 3: WiFi grows fastest (134%/yr median vs 35% cellular)."""
        growth = A.volume_growth_table([cache.clean(y) for y in cache.years])
        assert growth.agr_median["wifi"] > growth.agr_median["cell"] > 0

    def test_rx_about_5x_tx(self, cache):
        """Figure 3: download is about five times upload."""
        ds = cache.clean(2015)
        rx = ds.daily_matrix("all", "rx").sum()
        tx = ds.daily_matrix("all", "tx").sum()
        assert 2.5 < rx / tx < 9.0


class TestUserDiversity:
    def test_cellular_intensive_declines(self, cache):
        """Figure 5: cellular-intensive user-days 35% -> 22%."""
        fractions = {
            y: A.wifi_cell_heatmap(cache.clean(y)).cellular_intensive_fraction
            for y in cache.years
        }
        assert fractions[2015] < fractions[2013]
        assert 0.2 < fractions[2013] < 0.6
        assert 0.12 < fractions[2015] < 0.45

    def test_wifi_intensive_stable_small(self, cache):
        """Figure 5: WiFi-intensive users a stable small minority (~8%)."""
        for year in cache.years:
            frac = A.wifi_cell_heatmap(cache.clean(year)).wifi_intensive_fraction
            assert 0.01 < frac < 0.2

    def test_ratio_means_grow(self, cache):
        """§3.3.2: mean WiFi-traffic ratio 0.58->0.71; user ratio 0.32->0.48."""
        r13 = cache.wifi_ratios(2013)
        r15 = cache.wifi_ratios(2015)
        assert r15.traffic("all").mean > r13.traffic("all").mean
        assert r15.users("all").mean > r13.users("all").mean
        assert 0.45 < r13.traffic("all").mean < 0.75
        assert 0.25 < r13.users("all").mean < 0.5

    def test_heavy_hitters_offload_more(self, cache):
        """Figures 7-8: heavy hitters lead light users in both ratios."""
        for year in (2013, 2015):
            ratios = cache.wifi_ratios(year)
            assert ratios.traffic("heavy").mean > ratios.traffic("light").mean
            assert ratios.users("heavy").mean > ratios.users("light").mean

    def test_android_wifi_off_declines_50_to_40(self, cache):
        """Figure 9 / §3.3.4: WiFi-off Android users drop ~50% -> ~40%."""
        off = {
            y: A.interface_state_ratios(cache.clean(y)).android_means["wifi_off"]
            for y in cache.years
        }
        assert off[2015] < off[2013]

    def test_ios_connects_about_30pct_more(self, cache):
        """§3.3.4: iOS WiFi-user ratio exceeds Android's."""
        gap = A.ios_android_gap(A.interface_state_ratios(cache.clean(2015)))
        assert gap > 0.05


class TestWifiEnvironment:
    def test_home_ap_users_grow_66_to_79(self, cache):
        """§3.4.1: users with inferred home AP 66% -> 79%."""
        fractions = {
            y: cache.classification(y).fraction_devices_with_home_ap(
                cache.clean(y).n_devices
            )
            for y in cache.years
        }
        assert fractions[2013] < fractions[2015]
        assert 0.5 < fractions[2013] < 0.8
        assert 0.6 < fractions[2015] < 0.92

    def test_public_aps_double(self, cache):
        """Table 4: detected public APs double 2013 -> 2015."""
        counts = {y: cache.classification(y).counts() for y in cache.years}
        assert counts[2015]["public"] > 1.5 * counts[2013]["public"]

    def test_office_aps_stable(self, cache):
        """Table 4: office APs stay flat while public explodes."""
        counts = {y: cache.classification(y).counts() for y in cache.years}
        assert counts[2015]["office"] < 3 * max(counts[2013]["office"], 1)

    def test_home_carries_most_wifi_volume(self, cache):
        """Figure 11: ~95% of WiFi volume is at home."""
        for year in (2013, 2015):
            lt = A.location_traffic(cache.clean(year), cache.classification(year))
            assert lt.volume_share["home"] > 0.8

    def test_single_ap_days_decline(self, cache):
        """Figure 12: 1-AP days drop from ~70% toward ~60%."""
        one_ap = {
            y: A.aps_per_day(cache.clean(y), cache.user_classes(y)).pct("all", 1)
            for y in cache.years
        }
        assert one_ap[2015] < one_ap[2013]

    def test_association_duration_ordering(self, cache):
        """Figure 13: home >> office-ish >> public durations."""
        durations = A.association_durations(
            cache.clean(2015), cache.classification(2015)
        )
        assert durations.p90_hours["home"] > 6.0
        assert durations.p90_hours["public"] < 2.5

    def test_public_5ghz_majority_2015(self, cache):
        """Figure 14: public 5 GHz > 50% by 2015; home/office < ~20%."""
        fractions = A.band_fractions(cache.clean(2015), cache.classification(2015))
        assert fractions.fraction("public") > 0.4
        assert fractions.fraction("home") < 0.35

    def test_rssi_home_vs_public(self, cache):
        """Figure 15: home ~ -54 dBm; public weaker with a ~12% weak tail."""
        dist = A.rssi_distributions(cache.clean(2015), cache.classification(2015))
        assert -62 < dist.mean["home"] < -45
        assert dist.mean["public"] < dist.mean["home"]
        assert 0.02 < dist.weak_fraction["public"] < 0.3
        assert dist.weak_fraction["home"] < 0.1

    def test_channels_public_planned_home_dispersing(self, cache):
        """Figure 16: public on 1/6/11; home Ch1 concentration declines."""
        d13 = A.channel_distributions(cache.clean(2013), cache.classification(2013))
        d15 = A.channel_distributions(cache.clean(2015), cache.classification(2015))
        assert d15.trio_share("public") > 0.9
        assert d15.channel_share("home", 1) < d13.channel_share("home", 1)


class TestUpdateAndCap:
    def test_update_story(self, cache):
        """§3.7: most iPhones update in two weeks; no-home users lag."""
        timing = A.update_timing(cache.raw(2015), cache.classification(2015))
        assert timing.updated_fraction > 0.3
        assert timing.updated_fraction_no_home < timing.updated_fraction
        if not np.isnan(timing.median_delay_days_no_home):
            assert timing.median_delay_days_no_home >= timing.median_delay_days

    def test_cap_gap_shrinks(self, cache):
        """Figure 19: capped-vs-others gap narrows after the 2015 change."""
        gap14 = A.cap_effect(cache.clean(2014)).median_gap()
        gap15 = A.cap_effect(cache.clean(2015)).median_gap()
        assert gap15 < gap14

    def test_offload_estimate_band(self, cache):
        """§3.5: 15-20% of WiFi-available users' cellular is offloadable."""
        estimate = A.offload_estimate(cache.clean(2015))
        assert 0.05 < estimate.offloadable_fraction < 0.35

    def test_offload_impact_magnitudes(self, cache):
        """§4.1: offload ~28% of broadband; one phone ~12% of home volume."""
        impact = A.offload_impact(cache.clean(2015))
        assert 0.1 < impact.offload_share_of_broadband < 0.7
        assert 0.04 < impact.smartphone_share_of_home_broadband < 0.3
