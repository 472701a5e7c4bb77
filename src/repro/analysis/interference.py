"""Cross-channel interference among neighbouring 2.4 GHz APs (§3.4.5, §4.3).

Two 2.4 GHz BSSIDs closer than five channels apart interfere. The paper
observes that public deployments plan around 1/6/11 while 2013 home routers
pile onto channel 1 — "potentially causing more channel interference" — and
that the situation improves by 2015. This analysis quantifies that: for each
5 km cell, take the observed 2.4 GHz APs of a class and compute the fraction
of AP pairs that interfere; report the device-weighted summary per class.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.ap_classification import WIFI_CLASSES, APClassification
from repro.analysis.ap_density import _lookup_cells
from repro.analysis.context import AnalysisContext, DatasetOrContext
from repro.errors import AnalysisError
from repro.radio.bands import Band
from repro.radio.channels import cross_channel_interference_fraction
from repro.traces.records import WifiStateCode


@dataclass(frozen=True)
class InterferenceSummary:
    """Per-class cross-channel interference statistics (co-channel excluded)."""

    year: int
    #: class -> mean over cells of the interfering-pair fraction.
    mean_fraction: Dict[str, float]
    #: class -> number of cells with >= 2 APs (the evaluable cells).
    evaluable_cells: Dict[str, int]
    #: class -> fraction of APs sitting on the 1/6/11 trio.
    trio_share: Dict[str, float]

    def fraction(self, ap_class: str) -> float:
        try:
            return self.mean_fraction[ap_class]
        except KeyError:
            raise AnalysisError(f"no interference data for {ap_class!r}") from None


def channel_interference(
    data: DatasetOrContext,
    classification: Optional[APClassification] = None,
    classes: Tuple[str, ...] = ("home", "public"),
) -> InterferenceSummary:
    """Compute neighbourhood interference for observed 2.4 GHz APs."""
    ctx = AnalysisContext.of(data)
    dataset = ctx.dataset()
    if classification is None:
        classification = ctx.classification()
    wifi = dataset.wifi
    assoc = wifi.state == int(WifiStateCode.ASSOCIATED)
    if not assoc.any():
        raise AnalysisError("no associations in dataset")
    device = wifi.device[assoc].astype(np.int64)
    t = wifi.t[assoc].astype(np.int64)
    ap_id = wifi.ap_id[assoc].astype(np.int64)
    cols, rows, found = _lookup_cells(ctx, device, t)

    # Each AP in the cell it was first observed in, in order of first sighting.
    ap_id, cols, rows = ap_id[found], cols[found], rows[found]
    _, first = np.unique(ap_id, return_index=True)
    first.sort()
    codes = classification.class_codes(ap_id[first])

    channels_by_class_cell: Dict[str, Dict[Tuple[int, int], List[int]]] = {
        cls: defaultdict(list) for cls in classes
    }
    trio_counts = {cls: [0, 0] for cls in classes}  # [on trio, total]
    for ap, col, row, code in zip(ap_id[first].tolist(), cols[first].tolist(),
                                  rows[first].tolist(), codes.tolist()):
        entry = dataset.ap_directory[ap]
        cls = WIFI_CLASSES[code]
        if entry.band is not Band.GHZ_2_4 or cls not in channels_by_class_cell:
            continue
        channels_by_class_cell[cls][(col, row)].append(entry.channel)
        trio_counts[cls][1] += 1
        if entry.channel in (1, 6, 11):
            trio_counts[cls][0] += 1

    mean_fraction = {}
    evaluable = {}
    trio_share = {}
    for cls in classes:
        fractions = [
            cross_channel_interference_fraction(chans)
            for chans in channels_by_class_cell[cls].values()
            if len(chans) >= 2
        ]
        evaluable[cls] = len(fractions)
        mean_fraction[cls] = float(np.mean(fractions)) if fractions else float("nan")
        on, total = trio_counts[cls]
        trio_share[cls] = on / total if total else float("nan")
    return InterferenceSummary(
        year=dataset.year,
        mean_fraction=mean_fraction,
        evaluable_cells=evaluable,
        trio_share=trio_share,
    )
