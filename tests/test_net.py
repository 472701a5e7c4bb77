"""Unit tests for the network substrate: identifiers, APs, cellular, WiFi."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SchemaError
from repro.geo.coords import Coordinate
from repro.net.accesspoint import AccessPoint, APType
from repro.net.cellular import (
    CARRIERS,
    Carrier,
    CellularNetwork,
    CellularTechnology,
    assign_technology,
    pick_carrier,
)
from repro.net.identifiers import (
    is_fon_public_essid,
    is_public_essid,
    is_valid_bssid,
    normalize_essid,
    random_bssid,
    validate_bssid,
)
from repro.net.wifi import WifiState
from repro.radio.bands import Band


class TestIdentifiers:
    def test_random_bssid_valid_and_local(self, rng):
        for _ in range(50):
            bssid = random_bssid(rng)
            assert is_valid_bssid(bssid)
            first_octet = int(bssid[:2], 16)
            assert first_octet & 0x02  # locally administered
            assert not first_octet & 0x01  # unicast

    def test_random_bssids_unique(self, rng):
        bssids = {random_bssid(rng) for _ in range(1000)}
        assert len(bssids) > 995

    def test_validate_bssid_lowercases(self):
        assert validate_bssid("02:AB:CD:00:11:22") == "02:ab:cd:00:11:22"

    def test_validate_bssid_rejects_garbage(self):
        for bad in ("", "02:00", "0g:00:00:00:00:00", "02-00-00-00-00-00"):
            with pytest.raises(SchemaError):
                validate_bssid(bad)

    def test_public_essid_matching(self):
        assert is_public_essid("0000docomo")
        assert is_public_essid("0001softbank")
        assert is_public_essid("eduroam")
        assert is_public_essid("7SPOT")
        assert is_public_essid("Metro Free Wi-Fi")
        assert not is_public_essid("home-00001-42")
        assert not is_public_essid("corp-12345")

    def test_fon_essid_matching(self):
        assert is_fon_public_essid("FON_FREE_INTERNET")
        assert is_fon_public_essid("fon")
        assert not is_fon_public_essid("0000docomo")

    def test_normalize_essid(self):
        assert normalize_essid("  Metro Free Wi-Fi ") == "metro_free_wi-fi"


class TestAccessPoint:
    def _ap(self, **kwargs):
        defaults = dict(
            ap_id=1,
            bssid="02:00:00:00:00:01",
            essid="test-net",
            band=Band.GHZ_2_4,
            channel=6,
            location=Coordinate(35.68, 139.76),
            ap_type=APType.HOME,
        )
        defaults.update(kwargs)
        return AccessPoint(**defaults)

    def test_channel_must_match_band(self):
        with pytest.raises(ConfigurationError):
            self._ap(band=Band.GHZ_5, channel=6)
        with pytest.raises(ConfigurationError):
            self._ap(band=Band.GHZ_2_4, channel=36)


class TestCellular:
    def test_market_shares_sum_to_one(self):
        assert sum(c.market_share for c in CARRIERS) == pytest.approx(1.0)

    def test_pick_carrier_respects_shares(self, rng):
        picks = [pick_carrier(rng).name for _ in range(3000)]
        docomo_share = picks.count("docomo") / len(picks)
        assert 0.40 < docomo_share < 0.50

    def test_assign_technology_extremes(self, rng):
        carrier = Carrier("x", 1.0, lte_rollout_bias=0.0)
        assert assign_technology(0.0, carrier, rng) is CellularTechnology.THREE_G
        assert assign_technology(1.0, carrier, rng) is CellularTechnology.LTE

    def test_assign_technology_share(self, rng):
        carrier = Carrier("x", 1.0)
        picks = [assign_technology(0.7, carrier, rng) for _ in range(2000)]
        lte = sum(1 for p in picks if p is CellularTechnology.LTE) / len(picks)
        assert 0.65 < lte < 0.75

    def test_assign_technology_validates(self, rng):
        with pytest.raises(ConfigurationError):
            assign_technology(1.5, CARRIERS[0], rng)

    def test_capacity_lte_larger_than_3g(self):
        lte = CellularNetwork(CellularTechnology.LTE, CARRIERS[0])
        threeg = CellularNetwork(CellularTechnology.THREE_G, CARRIERS[0])
        assert lte.capacity_bytes(600) > threeg.capacity_bytes(600)
        with pytest.raises(ConfigurationError):
            lte.capacity_bytes(-1)


class TestWifiRadio:
    def test_wifi_state_enum(self):
        assert {s.value for s in WifiState} == {"off", "available", "associated"}
