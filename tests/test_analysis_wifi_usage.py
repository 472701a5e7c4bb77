"""Unit tests for AP density, location traffic, associations, spectrum, RSSI."""

import numpy as np
import pytest

from repro.analysis.ap_classification import classify_aps
from repro.analysis.ap_density import association_density_maps
from repro.analysis.association import (
    aps_per_day,
    association_durations,
    hpo_breakdown,
)
from repro.analysis.location_traffic import location_traffic
from repro.analysis.signal import rssi_distributions
from repro.analysis.spectrum import band_fractions, channel_distributions
from repro.analysis.users import classify_user_days
from repro.errors import AnalysisError
from repro.radio.bands import Band
from repro.traces.records import IfaceKind
from tests.helpers import (
    add_ap,
    add_association_span,
    add_daily_traffic,
    add_geo_span,
    make_builder,
    nightly_home_association,
    slot,
)


def _usage_dataset():
    """Two devices, one home AP each, one shared public AP, one office AP."""
    builder = make_builder(n_devices=2, n_days=7)
    add_ap(builder, 0, "home-0", channel=1)
    add_ap(builder, 1, "home-1", channel=6)
    add_ap(builder, 2, "0000docomo", band=Band.GHZ_5, channel=36)
    add_ap(builder, 3, "corp-1", channel=11)
    nightly_home_association(builder, 0, 0, n_days=7, rssi=-50.0)
    nightly_home_association(builder, 1, 1, n_days=7, rssi=-58.0)
    # Device 0 visits the public AP daily at noon for 30 minutes.
    for day in range(7):
        add_association_span(builder, 0, 2, slot(day, 12), slot(day, 12) + 3,
                             rssi=-63.0)
    # Device 1 works on weekdays under the office AP.
    for day in range(5):
        add_association_span(builder, 1, 3, slot(day, 11), slot(day, 17),
                             rssi=-54.0)
    # Daily traffic so every device-day passes the 0.1 MB validity floor.
    for device in (0, 1):
        for day in range(7):
            add_daily_traffic(builder, device, day, cell_rx_mb=5, wifi_rx_mb=20)
    # Geo: both devices live in distinct cells; device 0 lunches downtown.
    for device, cell in ((0, (0, 0)), (1, (2, 2))):
        for day in range(7):
            add_geo_span(builder, device, cell, slot(day, 0), slot(day + 1, 0)
                         if day < 6 else builder.axis.n_slots)
    return builder


class TestDensityMaps:
    def test_home_aps_in_their_cells(self):
        builder = _usage_dataset()
        ds = builder.build()
        maps = association_density_maps(ds)
        home_grid = maps.grid("home")
        assert home_grid.count((0, 0)) == 1
        assert home_grid.count((2, 2)) == 1
        public_grid = maps.grid("public")
        assert public_grid.count((0, 0)) == 1  # device 0's noon cell

    def test_unknown_class(self, dataset2015, cache):
        maps = association_density_maps(dataset2015, cache.classification(2015))
        with pytest.raises(AnalysisError):
            maps.grid("bogus")

    def test_public_denser_downtown_in_study(self, dataset2015, cache):
        maps = association_density_maps(dataset2015, cache.classification(2015))
        public = maps.grid("public")
        home = maps.grid("home")
        # Homes spread over more cells; publics concentrate (Figure 10).
        assert public.max_count() >= home.max_count()


class TestLocationTraffic:
    def test_volume_shares_exact(self):
        builder = _usage_dataset()
        # Traffic only during associated slots with known volumes.
        builder.extend_traffic(
            device=[0, 0, 1],
            t=[slot(0, 22), slot(0, 12), slot(0, 11)],
            iface=[int(IfaceKind.WIFI)] * 3,
            rx=[90e6, 10e6, 50e6], tx=[0, 0, 0],
        )
        lt = location_traffic(builder.build())
        assert lt.volume_share["home"] == pytest.approx(90e6 / 150e6)
        assert lt.volume_share["public"] == pytest.approx(10e6 / 150e6)
        assert lt.volume_share["office"] == pytest.approx(50e6 / 150e6)

    def test_home_dominates_in_study(self, dataset2015, cache):
        lt = location_traffic(dataset2015, cache.classification(2015))
        assert lt.volume_share["home"] > 0.85  # paper: ~95%
        assert lt.volume_share["public"] < 0.10

    def test_series_keys(self, dataset2013, cache):
        lt = location_traffic(dataset2013, cache.classification(2013))
        for key in ("home_rx", "home_tx", "public_rx", "office_rx", "other_rx"):
            assert key in lt.series
        with pytest.raises(AnalysisError):
            lt.folded_week("bogus")


class TestApsPerDay:
    def test_counts_exact(self):
        ds = _usage_dataset().build()
        # Device 0: home + public every day (2 APs). Device 1: home always,
        # office on weekdays (the campaign starts Monday: 5 weekdays).
        result = aps_per_day(ds)
        assert result.pct("all", 2) == pytest.approx(100.0 * 12 / 14)
        assert result.pct("all", 1) == pytest.approx(100.0 * 2 / 14)

    def test_multi_ap_growth_in_study(self, dataset2013, dataset2015):
        r13 = aps_per_day(dataset2013)
        r15 = aps_per_day(dataset2015)
        assert r15.pct("all", 1) < r13.pct("all", 1)  # §3.4.2

    def test_requires_associations(self):
        with pytest.raises(AnalysisError):
            aps_per_day(make_builder().build())


class TestHpoBreakdown:
    def test_combos_exact(self):
        ds = _usage_dataset().build()
        breakdown = hpo_breakdown(ds)
        # Device 0 days: 1 home + 1 public = "110". Device 1 weekdays:
        # 1 home + 1 other(office) = "101"; weekends home only = "100".
        assert breakdown.pct(1, 1, 0) == pytest.approx(100.0 * 7 / 14)
        assert breakdown.pct(1, 0, 1) == pytest.approx(100.0 * 5 / 14)
        assert breakdown.pct(1, 0, 0) == pytest.approx(100.0 * 2 / 14)

    def test_percentages_sum_to_100(self, dataset2015, cache):
        breakdown = hpo_breakdown(dataset2015, cache.classification(2015))
        total = sum(breakdown.combos.values()) + breakdown.four_plus_pct
        assert total == pytest.approx(100.0)

    def test_home_only_dominates(self, dataset2015, cache):
        breakdown = hpo_breakdown(dataset2015, cache.classification(2015))
        assert breakdown.pct(1, 0, 0) > 30.0  # Table 5: ~46% in 2015


class TestAssociationDurations:
    def test_durations_exact(self):
        builder = make_builder(n_devices=1, n_days=2)
        add_ap(builder, 0, "0000docomo")
        add_association_span(builder, 0, 0, slot(0, 12), slot(0, 13))  # 1 h
        add_association_span(builder, 0, 0, slot(1, 9), slot(1, 12))   # 3 h
        durations = association_durations(builder.build())
        values = sorted(durations.ccdf_by_class["public"].values)
        assert values == [1.0, 3.0]

    def test_interruption_splits_runs(self):
        builder = make_builder(n_devices=1, n_days=1)
        add_ap(builder, 0, "0000docomo")
        add_association_span(builder, 0, 0, slot(0, 10), slot(0, 11))
        add_association_span(builder, 0, 0, slot(0, 12), slot(0, 13))
        durations = association_durations(builder.build())
        assert len(durations.ccdf_by_class["public"].values) == 2

    def test_ap_change_splits_runs(self):
        builder = make_builder(n_devices=1, n_days=1)
        add_ap(builder, 0, "0000docomo")
        add_ap(builder, 1, "0001softbank")
        add_association_span(builder, 0, 0, slot(0, 10), slot(0, 11))
        add_association_span(builder, 0, 1, slot(0, 11), slot(0, 12))
        durations = association_durations(builder.build())
        assert len(durations.ccdf_by_class["public"].values) == 2

    def test_study_ordering_home_longest(self, dataset2015, cache):
        durations = association_durations(dataset2015, cache.classification(2015))
        # Figure 13: home (~12h) > office (~8h) > public (~1h) at the 90th pct.
        assert durations.p90_hours["home"] > durations.p90_hours["public"]
        assert durations.p90_hours["public"] < 2.5


class TestSpectrum:
    def test_band_fraction_exact(self):
        ds = _usage_dataset().build()
        fractions = band_fractions(ds)
        assert fractions.fraction("public") == pytest.approx(1.0)  # the 5GHz AP
        assert fractions.fraction("home") == pytest.approx(0.0)

    def test_public_5ghz_grows(self, dataset2013, dataset2015, cache):
        f13 = band_fractions(dataset2013, cache.classification(2013))
        f15 = band_fractions(dataset2015, cache.classification(2015))
        assert f15.fraction("public") > f13.fraction("public")
        assert f15.fraction("home") < 0.35  # still mostly 2.4 GHz

    def test_channel_distribution_exact(self):
        # The only public AP is 5 GHz, so restrict to home/office classes.
        ds = _usage_dataset().build()
        dist = channel_distributions(ds, classes=("home", "office"))
        assert dist.channel_share("home", 1) == pytest.approx(0.5)
        assert dist.channel_share("home", 6) == pytest.approx(0.5)
        assert dist.channel_share("office", 11) == pytest.approx(1.0)

    def test_channel_requires_some_24ghz_aps(self):
        builder = make_builder(n_devices=1, n_days=1)
        add_ap(builder, 0, "0000docomo", band=Band.GHZ_5, channel=36)
        add_association_span(builder, 0, 0, 0, 6)
        with pytest.raises(AnalysisError):
            channel_distributions(builder.build(), classes=("public",))

    def test_channel_skips_empty_classes(self):
        builder = make_builder(n_devices=1, n_days=1)
        add_ap(builder, 0, "0000docomo", band=Band.GHZ_5, channel=36)
        add_ap(builder, 1, "cafe-guest-0001", band=Band.GHZ_2_4, channel=6)
        add_association_span(builder, 0, 0, 0, 6)
        add_association_span(builder, 0, 1, 12, 18)
        dist = channel_distributions(builder.build(), classes=("public", "other"))
        assert "public" not in dist.pdf
        assert dist.channel_share("other", 6) == pytest.approx(1.0)

    def test_public_channels_concentrated_on_trio(self, dataset2015, cache):
        dist = channel_distributions(dataset2015, cache.classification(2015))
        assert dist.trio_share("public") > 0.95  # Figure 16

    def test_home_ch1_declines(self, dataset2013, dataset2015, cache):
        d13 = channel_distributions(dataset2013, cache.classification(2013))
        d15 = channel_distributions(dataset2015, cache.classification(2015))
        assert d15.channel_share("home", 1) < d13.channel_share("home", 1)


class TestRssi:
    def test_max_rssi_per_ap(self):
        builder = make_builder(n_devices=1, n_days=1)
        add_ap(builder, 0, "0000docomo")
        builder.extend_wifi(device=[0, 0, 0], t=[0, 1, 2], state=[2, 2, 2],
                            ap_id=[0, 0, 0], rssi=[-70.0, -55.0, -62.0])
        dist = rssi_distributions(builder.build(), classes=("public",))
        assert dist.samples["public"].tolist() == [-55.0]

    def test_weak_fraction(self):
        builder = make_builder(n_devices=1, n_days=1)
        for ap_id, rssi in enumerate((-50.0, -70.0, -75.0, -80.0)):
            add_ap(builder, ap_id, "0000docomo", bssid=None)
            builder.extend_wifi(device=[0], t=[ap_id], state=[2],
                                ap_id=[ap_id], rssi=[rssi])
        dist = rssi_distributions(builder.build(), classes=("public",))
        # RSSI < -70 is weak: two of four.
        assert dist.weak_fraction["public"] == pytest.approx(0.5)

    def test_5ghz_aps_excluded(self):
        builder = make_builder(n_devices=1, n_days=1)
        add_ap(builder, 0, "0000docomo", band=Band.GHZ_5, channel=36)
        add_association_span(builder, 0, 0, 0, 3)
        with pytest.raises(AnalysisError):
            rssi_distributions(builder.build(), classes=("public",))

    def test_study_home_stronger_than_public(self, dataset2015, cache):
        dist = rssi_distributions(dataset2015, cache.classification(2015))
        assert dist.mean["home"] > dist.mean["public"]  # Figure 15
        assert dist.weak_fraction["public"] > dist.weak_fraction["home"]

    def test_pdf_shape(self, dataset2015, cache):
        dist = rssi_distributions(dataset2015, cache.classification(2015))
        centers, density = dist.pdf("home")
        assert len(centers) == len(density)
        assert density.min() >= 0
