"""Multi-provider shared-infrastructure APs (§4.3).

The paper suggests promoting APs that announce multiple provider ESSIDs from
one box, and confirms such APs exist in the dataset "by checking similar
BSSIDs assigned to different providers". This analysis does exactly that:
group observed public APs by BSSID hardware prefix (first five octets) and
report groups carrying more than one provider ESSID.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.context import AnalysisContext, DatasetOrContext
from repro.errors import AnalysisError
from repro.net.identifiers import bssid_prefix, is_public_essid
from repro.traces.query import distinct_ids
from repro.traces.records import WifiStateCode


@dataclass(frozen=True)
class SharedInfrastructure:
    """Observed multi-provider hardware groups."""

    year: int
    #: hardware prefix -> sorted list of (bssid, essid) pairs on that box.
    groups: Dict[str, List[Tuple[str, str]]]
    n_public_aps: int

    @property
    def n_shared_groups(self) -> int:
        return len(self.groups)

    @property
    def n_shared_aps(self) -> int:
        return sum(len(members) for members in self.groups.values())

    @property
    def shared_fraction(self) -> float:
        """Fraction of observed public APs that sit on shared hardware."""
        if self.n_public_aps == 0:
            return 0.0
        return self.n_shared_aps / self.n_public_aps

    def providers_per_group(self) -> List[int]:
        """Distinct ESSIDs per shared box (always >= 2)."""
        return sorted(
            len({essid for _, essid in members}) for members in self.groups.values()
        )


def shared_infrastructure(
    data: DatasetOrContext, include_sightings: bool = True
) -> SharedInfrastructure:
    """Find shared multi-provider hardware among observed public APs.

    Observed = associated, plus (optionally) scan-sighted APs; detection uses
    only data a passive analyst has: BSSIDs and ESSIDs in the directory.
    """
    dataset = AnalysisContext.of(data).dataset()
    observed = set()
    wifi = dataset.wifi
    assoc = wifi.state == int(WifiStateCode.ASSOCIATED)
    observed.update(distinct_ids(wifi.ap_id[assoc]).tolist())
    if include_sightings and len(dataset.sightings):
        observed.update(distinct_ids(dataset.sightings.ap_id).tolist())
    if not observed:
        raise AnalysisError("no observed APs")

    by_prefix: Dict[str, List[Tuple[str, str]]] = defaultdict(list)
    n_public = 0
    for ap_id in sorted(observed):
        entry = dataset.ap_directory.get(ap_id)
        if entry is None or not is_public_essid(entry.essid):
            continue
        n_public += 1
        by_prefix[bssid_prefix(entry.bssid)].append((entry.bssid, entry.essid))

    groups = {
        prefix: sorted(members)
        for prefix, members in by_prefix.items()
        if len({essid for _, essid in members}) >= 2
    }
    return SharedInfrastructure(
        year=dataset.year, groups=groups, n_public_aps=n_public
    )
