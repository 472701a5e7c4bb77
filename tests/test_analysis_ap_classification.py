"""Unit tests for §3.4.1 AP classification on hand-crafted datasets."""

import numpy as np
import pytest

from repro.analysis import ap_classification
from repro.analysis.ap_classification import classify_aps
from repro.net.accesspoint import APType
from tests.helpers import (
    add_ap,
    add_association_span,
    add_geo_span,
    make_builder,
    nightly_home_association,
    slot,
)


def test_nightly_ap_classified_home():
    builder = make_builder(n_devices=1, n_days=5)
    add_ap(builder, 0, "my-router")
    nightly_home_association(builder, 0, 0, n_days=5)
    result = classify_aps(builder.build())
    assert result.ap_class[0] == "home"
    assert result.home_ap_of_device == {0: 0}


def test_provider_essid_classified_public():
    builder = make_builder(n_devices=1, n_days=2)
    add_ap(builder, 0, "0000docomo")
    add_association_span(builder, 0, 0, slot(0, 12), slot(0, 13))
    result = classify_aps(builder.build())
    assert result.ap_class[0] == "public"


def test_eduroam_is_public():
    builder = make_builder(n_devices=1, n_days=2)
    add_ap(builder, 0, "eduroam")
    add_association_span(builder, 0, 0, slot(0, 12), slot(0, 16))
    result = classify_aps(builder.build())
    assert result.ap_class[0] == "public"


def test_weekday_business_hours_ap_is_office():
    builder = make_builder(n_devices=1, n_days=5)  # Mon-Fri (starts Monday)
    add_ap(builder, 0, "corp-00001")
    for day in range(5):
        add_association_span(builder, 0, 0, slot(day, 11), slot(day, 17))
    result = classify_aps(builder.build())
    assert result.ap_class[0] == "office"


def test_weekend_venue_is_other():
    # Make a 7-day week starting Monday; associate Saturday afternoon.
    builder = make_builder(n_devices=1, n_days=7)
    add_ap(builder, 0, "cafe-guest-1234")
    add_association_span(builder, 0, 0, slot(5, 13), slot(5, 15))  # Saturday
    result = classify_aps(builder.build())
    assert result.ap_class[0] == "other"


def test_evening_venue_is_other_not_office():
    builder = make_builder(n_devices=1, n_days=5)
    add_ap(builder, 0, "hotel-guest-0001")
    for day in range(5):
        add_association_span(builder, 0, 0, slot(day, 19), slot(day, 21))
    result = classify_aps(builder.build())
    assert result.ap_class[0] == "other"


def test_fon_used_all_night_reclassified_home():
    builder = make_builder(n_devices=1, n_days=5)
    add_ap(builder, 0, "FON_FREE_INTERNET")
    # Nightly + daytime usage: > 24 cumulative hours.
    for day in range(5):
        add_association_span(builder, 0, 0, slot(day, 0), slot(day, 8))
        add_association_span(builder, 0, 0, slot(day, 20), slot(day, 24))
    result = classify_aps(builder.build())
    assert result.ap_class[0] == "home"
    assert result.home_ap_of_device.get(0) == 0


def test_fon_used_briefly_stays_public():
    builder = make_builder(n_devices=1, n_days=5)
    add_ap(builder, 0, "FON_FREE_INTERNET")
    add_association_span(builder, 0, 0, slot(0, 12), slot(0, 14))
    result = classify_aps(builder.build())
    assert result.ap_class[0] == "public"


def test_mobile_ap_detected_from_many_cells():
    builder = make_builder(n_devices=1, n_days=3)
    add_ap(builder, 0, "WM-00042")
    # Same AP seen from three different 5km cells.
    for day, cell in enumerate(((0, 0), (3, 0), (0, 4))):
        add_association_span(builder, 0, 0, slot(day, 9), slot(day, 11))
        add_geo_span(builder, 0, cell, slot(day, 9), slot(day, 11))
    result = classify_aps(builder.build())
    assert result.ap_class[0] == "mobile"
    # Mobile is folded into 'other' in the paper's buckets.
    assert result.wifi_class_of(0) == "other"


def test_short_night_evidence_insufficient():
    builder = make_builder(n_devices=1, n_days=3)
    add_ap(builder, 0, "some-net")
    # Only 30 minutes at night: below the 1-hour evidence minimum.
    add_association_span(builder, 0, 0, slot(0, 23), slot(0, 23) + 3)
    result = classify_aps(builder.build())
    assert 0 not in result.home_ap_of_device.values() or (
        result.home_ap_of_device == {}
    )
    assert result.ap_class[0] != "home"


def test_mixed_night_needs_70_percent():
    builder = make_builder(n_devices=1, n_days=2)
    add_ap(builder, 0, "router-a")
    add_ap(builder, 1, "router-b")
    # Night split 50/50 between two APs within each day: neither reaches 70%.
    for day in range(2):
        add_association_span(builder, 0, 0, slot(day, 22), slot(day, 24))
        add_association_span(builder, 0, 1, slot(day, 0), slot(day, 2))
    result = classify_aps(builder.build())
    assert result.home_ap_of_device == {}


def test_equal_night_slots_smallest_ap_wins(monkeypatch):
    # At 70% a tied night never votes; at 50% two APs holding half the
    # night each both qualify, and the smaller AP id takes the vote.
    monkeypatch.setattr(ap_classification, "HOME_NIGHT_FRACTION", 0.5)
    builder = make_builder(n_devices=1, n_days=1)
    add_ap(builder, 3, "router-b")
    add_ap(builder, 7, "router-a")
    add_association_span(builder, 0, 7, slot(0, 0), slot(0, 3))
    add_association_span(builder, 0, 3, slot(0, 3), slot(0, 6))
    result = classify_aps(builder.build())
    assert result.home_ap_of_device == {0: 3}


def test_equal_home_votes_first_voted_wins():
    # One night each on two APs: a 1-1 vote, won by the earlier night's AP
    # even though its id is larger.
    builder = make_builder(n_devices=1, n_days=2)
    add_ap(builder, 3, "router-b")
    add_ap(builder, 9, "router-a")
    add_association_span(builder, 0, 9, slot(0, 0), slot(0, 6))
    add_association_span(builder, 0, 3, slot(1, 0), slot(1, 6))
    result = classify_aps(builder.build())
    assert result.home_ap_of_device == {0: 9}


def test_class_codes_match_wifi_class_of():
    builder = make_builder(n_devices=1, n_days=5)
    add_ap(builder, 0, "my-router")
    add_ap(builder, 1, "0000docomo")
    add_ap(builder, 2, "WM-00042")
    nightly_home_association(builder, 0, 0, n_days=5)
    add_association_span(builder, 0, 1, slot(1, 12), slot(1, 13))
    for day, cell in enumerate(((0, 0), (3, 0), (0, 4))):
        add_association_span(builder, 0, 2, slot(day, 9), slot(day, 11))
        add_geo_span(builder, 0, cell, slot(day, 9), slot(day, 11))
    result = classify_aps(builder.build())
    ap_ids = np.array([0, 1, 2, -1, 99])
    names = [ap_classification.WIFI_CLASSES[c]
             for c in result.class_codes(ap_ids)]
    assert names == [result.wifi_class_of(int(a)) for a in ap_ids]
    assert names == ["home", "public", "other", "other", "other"]


def test_counts_table4_buckets():
    builder = make_builder(n_devices=2, n_days=5)
    add_ap(builder, 0, "router-a")
    add_ap(builder, 1, "0000docomo")
    add_ap(builder, 2, "corp-77777")
    add_ap(builder, 3, "cafe-guest-0007")
    nightly_home_association(builder, 0, 0, n_days=5)
    add_association_span(builder, 1, 1, slot(0, 12), slot(0, 13))
    for day in range(5):
        add_association_span(builder, 1, 2, slot(day, 11), slot(day, 17))
    add_association_span(builder, 0, 3, slot(2, 19), slot(2, 20))
    result = classify_aps(builder.build())
    counts = result.counts()
    assert counts["home"] == 1
    assert counts["public"] == 1
    assert counts["office"] == 1
    assert counts["other"] == 2  # office + open cafe
    assert counts["total"] == 4


def test_empty_dataset():
    result = classify_aps(make_builder().build())
    assert result.ap_class == {}
    assert result.wifi_devices == set()


def test_against_simulator_ground_truth(study):
    """Inference agrees with ground truth for the dominant classes."""
    raw = study.dataset(2015)
    truth = raw.ground_truth
    result = classify_aps(raw)
    checked = agreements = 0
    for ap_id, inferred in result.ap_class.items():
        actual = truth.ap_types[ap_id]
        if actual is APType.HOME:
            expected = "home"
        elif actual is APType.PUBLIC:
            expected = "public"
        elif actual is APType.OFFICE:
            # eduroam campuses legitimately classify public.
            essid = raw.ap_directory[ap_id].essid
            expected = "public" if essid == "eduroam" else "office"
        else:
            continue
        checked += 1
        agreements += inferred == expected
    assert checked > 50
    assert agreements / checked > 0.85


def test_home_device_fraction_matches_truth(study):
    raw = study.dataset(2015)
    truth = raw.ground_truth
    result = classify_aps(raw)
    inferred = set(result.home_ap_of_device)
    actual = set(truth.home_ap_of_user)
    # Every inferred home user truly owns a home AP...
    assert len(inferred - actual) <= max(2, len(inferred) // 20)
    # ...and most owners who use WiFi are found.
    overlap = len(inferred & actual) / max(len(inferred), 1)
    assert overlap > 0.9
