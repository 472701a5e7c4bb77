"""Unit tests for availability (Fig 17, §3.5) and the app breakdown (T6/T7)."""

import numpy as np
import pytest

from repro.analysis.app_breakdown import app_breakdown, infer_home_cells
from repro.analysis.availability import offload_estimate, public_availability
from repro.analysis.users import classify_user_days
from repro.apps.categories import CATEGORY_BY_NAME
from repro.errors import AnalysisError
from repro.traces.records import IfaceKind, WifiStateCode
from tests.helpers import (
    add_ap,
    add_association_span,
    add_geo_span,
    add_state_span,
    make_builder,
    nightly_home_association,
    slot,
)


class TestPublicAvailability:
    def _scan_dataset(self):
        builder = make_builder(n_devices=2, n_days=1)
        # Device 0 available 9:00-12:00 with known scan counts.
        add_state_span(builder, 0, WifiStateCode.AVAILABLE, slot(0, 9), slot(0, 12))
        builder.extend_scans(
            device=[0, 0, 0],
            t=[slot(0, 9), slot(0, 10), slot(0, 11)],
            n24_all=[2, 12, 0], n24_strong=[1, 3, 0],
            n5_all=[0, 4, 0], n5_strong=[0, 1, 0],
        )
        # Device 1 scans while associated: must be excluded from Fig 17.
        add_ap(builder, 0, "net")
        add_association_span(builder, 1, 0, slot(0, 9), slot(0, 10))
        builder.extend_scans(
            device=[1], t=[slot(0, 9)], n24_all=[50], n24_strong=[25],
            n5_all=[0], n5_strong=[0],
        )
        return builder

    def test_only_available_samples_counted(self):
        availability = public_availability(self._scan_dataset().build())
        assert availability.n_samples == 3
        # Only device 0's counts contribute; the 50-AP sample is excluded.
        assert availability.ccdf("24_all").values.max() == 12

    def test_fraction_seeing(self):
        availability = public_availability(self._scan_dataset().build())
        assert availability.fraction_seeing("24_all", 10) == pytest.approx(1 / 3)
        assert availability.fraction_seeing("24_strong", 1) == pytest.approx(2 / 3)
        assert availability.fraction_seeing("24_all", 0) == 1.0

    def test_unknown_key(self):
        availability = public_availability(self._scan_dataset().build())
        with pytest.raises(AnalysisError):
            availability.ccdf("6ghz_all")

    def test_requires_scans(self):
        with pytest.raises(AnalysisError):
            public_availability(make_builder().build())

    def test_paper_shape_in_study(self, dataset2015):
        availability = public_availability(dataset2015)
        # Figure 17: most available samples see fewer than 10 2.4 GHz APs.
        assert availability.fraction_seeing("24_all", 10) < 0.35
        # Strong networks are rarer than all detected networks.
        strong1 = availability.fraction_seeing("24_strong", 1)
        all1 = availability.fraction_seeing("24_all", 1)
        assert strong1 < all1


class TestOffloadEstimate:
    def test_offloadable_fraction_exact(self):
        builder = make_builder(n_devices=1, n_days=1)
        add_state_span(builder, 0, WifiStateCode.AVAILABLE, slot(0, 9), slot(0, 12))
        # Strong public network visible only at 10:00.
        builder.extend_scans(
            device=[0, 0], t=[slot(0, 9), slot(0, 10)],
            n24_all=[3, 3], n24_strong=[0, 2], n5_all=[0, 0], n5_strong=[0, 0],
        )
        builder.extend_traffic(
            device=[0, 0], t=[slot(0, 9), slot(0, 10)],
            iface=[int(IfaceKind.CELL_LTE)] * 2, rx=[30e6, 10e6], tx=[0, 0],
        )
        estimate = offload_estimate(builder.build())
        assert estimate.offloadable_fraction == pytest.approx(0.25)
        assert estimate.devices_with_opportunity == 1.0
        assert estimate.n_available_devices == 1

    def test_study_range(self, dataset2015):
        estimate = offload_estimate(dataset2015)
        # §3.5: 15-20% offloadable; allow slack for the small panel.
        assert 0.05 < estimate.offloadable_fraction < 0.35
        assert estimate.devices_with_opportunity > 0.4


class TestHomeCellInference:
    def test_modal_night_cell(self):
        builder = make_builder(n_devices=1, n_days=2)
        for day in range(2):
            add_geo_span(builder, 0, (5, 5), slot(day, 0), slot(day, 9))
            add_geo_span(builder, 0, (9, 9), slot(day, 9), slot(day, 18))
            add_geo_span(builder, 0, (5, 5), slot(day, 18), slot(day, 24))
        homes = infer_home_cells(builder.build())
        assert homes[0] == (5, 5)

    def test_equal_night_counts_first_seen_wins(self):
        builder = make_builder(n_devices=1, n_days=1)
        # 18 night slots in each cell; (9, 9) is seen first.
        add_geo_span(builder, 0, (9, 9), slot(0, 0), slot(0, 3))
        add_geo_span(builder, 0, (5, 5), slot(0, 3), slot(0, 6))
        assert infer_home_cells(builder.build()) == {0: (9, 9)}

    def test_empty_geo(self):
        assert infer_home_cells(make_builder().build()) == {}


class TestAppBreakdown:
    def _app_dataset(self):
        builder = make_builder(n_devices=1, n_days=3)
        add_ap(builder, 0, "home-0")
        add_ap(builder, 1, "0000docomo")
        nightly_home_association(builder, 0, 0, n_days=3)
        add_geo_span(builder, 0, (0, 0), 0, builder.axis.n_slots)
        video = CATEGORY_BY_NAME["video"].code
        browser = CATEGORY_BY_NAME["browser"].code
        prod = CATEGORY_BY_NAME["productivity"].code
        # WiFi home: video-dominated.
        builder.extend_apps(
            device=[0, 0], day=[0, 0], category=[video, browser],
            cellular=[0, 0], ap_id=[0, 0], col=[0, 0], row=[0, 0],
            rx=[80e6, 20e6], tx=[4e6, 16e6],
        )
        # WiFi public: productivity upload.
        add_association_span(builder, 0, 1, slot(1, 12), slot(1, 13))
        builder.extend_apps(
            device=[0], day=[1], category=[prod], cellular=[0], ap_id=[1],
            col=[0], row=[0], rx=[5e6], tx=[20e6],
        )
        # Cellular at home cell vs away.
        builder.extend_apps(
            device=[0, 0], day=[2, 2], category=[browser, video],
            cellular=[1, 1], ap_id=[-1, -1], col=[0, 9], row=[0, 9],
            rx=[30e6, 10e6], tx=[3e6, 1e6],
        )
        return builder.build()

    def test_context_attribution(self):
        breakdown = app_breakdown(self._app_dataset())
        top_home = breakdown.top("wifi_home", n=1)
        assert top_home[0][0] == "video"
        assert top_home[0][1] == pytest.approx(80.0)
        top_public = breakdown.top("wifi_public", n=1)
        assert top_public[0][0] == "productivity"
        top_cell_home = breakdown.top("cell_home", n=1)
        assert top_cell_home[0][0] == "browser"
        top_cell_other = breakdown.top("cell_other", n=1)
        assert top_cell_other[0][0] == "video"

    def test_tx_direction(self):
        breakdown = app_breakdown(self._app_dataset())
        top_tx = breakdown.top("wifi_home", n=1, direction="tx")
        assert top_tx[0][0] == "browser"  # 16e6 vs 4e6

    def test_shares_sum_to_one(self):
        breakdown = app_breakdown(self._app_dataset())
        for ctx, shares in breakdown.shares_rx.items():
            if shares:
                assert sum(shares.values()) == pytest.approx(1.0)

    def test_unknown_context(self):
        breakdown = app_breakdown(self._app_dataset())
        with pytest.raises(AnalysisError):
            breakdown.top("wifi_moon")

    def test_requires_app_records(self):
        with pytest.raises(AnalysisError):
            app_breakdown(make_builder().build())

    def test_subset_requires_classes(self):
        with pytest.raises(AnalysisError):
            app_breakdown(self._app_dataset(), subset="light")

    def test_study_browser_and_video_top(self, dataset2015, cache):
        breakdown = app_breakdown(dataset2015, cache.classification(2015))
        top5_home = [name for name, _ in breakdown.top("wifi_home", n=5)]
        # Tables 6: video and browser lead WiFi-home RX by 2015.
        assert "video" in top5_home
        assert "browser" in top5_home

    def test_study_productivity_on_wifi_tx(self, dataset2015, cache):
        breakdown = app_breakdown(dataset2015, cache.classification(2015))
        top5 = [name for name, _ in breakdown.top("wifi_home", n=5, direction="tx")]
        assert "productivity" in top5  # Table 7

    def test_light_subset_runs(self, dataset2015, cache):
        classes = cache.user_classes(2015)
        breakdown = app_breakdown(
            dataset2015, cache.classification(2015), classes, subset="light"
        )
        assert breakdown.top("cell_home", n=3)
