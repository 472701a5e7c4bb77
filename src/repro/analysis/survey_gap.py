"""Survey-vs-measurement consistency (§4.2, Table 8 vs §3.4).

The paper cross-checks the questionnaire against the traces: home-AP answers
are "consistent with our estimation", but public-WiFi answers over-report —
"users think they have more connectivity than they really do in public WiFi
networks". This analysis quantifies both gaps for a campaign: the share of
users *claiming* to connect at each location versus the share actually
observed associating there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.ap_classification import WIFI_CLASSES, APClassification
from repro.analysis.context import AnalysisContext, DatasetOrContext
from repro.errors import AnalysisError
from repro.population.survey import SurveyResponse
from repro.traces.query import group_starts
from repro.traces.records import WifiStateCode

LOCATION_CLASSES = {"home": ("home",), "office": ("office",), "public": ("public",)}


@dataclass(frozen=True)
class SurveyGap:
    """Claimed vs measured connectivity per location."""

    year: int
    claimed_pct: Dict[str, float]
    measured_pct: Dict[str, float]

    def gap(self, location: str) -> float:
        """Claimed minus measured, in percentage points."""
        try:
            return self.claimed_pct[location] - self.measured_pct[location]
        except KeyError:
            raise AnalysisError(f"unknown location {location!r}") from None

    def overreported(self, location: str, threshold_pp: float = 5.0) -> bool:
        """Whether users claim noticeably more than the traces show."""
        return self.gap(location) > threshold_pp


def survey_gap(
    data: DatasetOrContext,
    responses: List[SurveyResponse],
    classification: Optional[APClassification] = None,
) -> SurveyGap:
    """Compare Table 8 claims against measured association behaviour."""
    if not responses:
        raise AnalysisError("no survey responses")
    ctx = AnalysisContext.of(data)
    dataset = ctx.dataset()
    if classification is None:
        classification = ctx.classification()

    wifi = dataset.wifi
    assoc = wifi.state == int(WifiStateCode.ASSOCIATED)
    # Masked rows keep canonical (device, t) order: one run per device.
    device = wifi.device[assoc]
    codes = classification.class_codes(wifi.ap_id[assoc])
    n = dataset.n_devices
    measured = {}
    for loc, classes in LOCATION_CLASSES.items():
        wanted = np.isin(codes, [WIFI_CLASSES.index(c) for c in classes])
        measured[loc] = 100.0 * group_starts(device[wanted]).size / n
    claimed = {}
    for loc in LOCATION_CLASSES:
        yes = sum(1 for r in responses if r.connected.get(loc) == "yes")
        claimed[loc] = 100.0 * yes / len(responses)
    return SurveyGap(year=dataset.year, claimed_pct=claimed, measured_pct=measured)
