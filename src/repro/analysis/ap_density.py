"""AP density maps (Figure 10) and detected-network coverage (§3.5).

Figure 10 counts *associated* unique APs per 5 km cell, split home vs
public. The §3.5 coverage statistics count *detected* (scanned) public
networks per cell, split all vs strong and 2.4 vs 5 GHz.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.analysis.ap_classification import WIFI_CLASSES, APClassification
from repro.analysis.context import AnalysisContext, DatasetOrContext
from repro.constants import STRONG_RSSI_DBM
from repro.errors import AnalysisError
from repro.geo.coords import cell_center
from repro.geo.grid import DensityGrid
from repro.radio.bands import Band
from repro.traces.query import packed_keys
from repro.traces.records import WifiStateCode


@dataclass(frozen=True)
class DensityMaps:
    """Per-class association density grids for one campaign."""

    year: int
    grids: Dict[str, DensityGrid]

    def grid(self, ap_class: str) -> DensityGrid:
        try:
            return self.grids[ap_class]
        except KeyError:
            raise AnalysisError(f"no grid for class {ap_class!r}") from None


def association_density_maps(
    data: DatasetOrContext,
    classification: Optional[APClassification] = None,
) -> DensityMaps:
    """Figure 10: unique associated APs per 5 km cell, home vs public."""
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
    grids = {name: DensityGrid() for name in WIFI_CLASSES}
    ap_id, cols, rows = ap_id[found], cols[found], rows[found]
    # Each (ap, cell) pair once, in order of first sighting.
    _, first = np.unique(packed_keys(ap_id, cols, rows), return_index=True)
    first.sort()
    codes = classification.class_codes(ap_id[first])
    for a, col, row, code in zip(ap_id[first].tolist(), cols[first].tolist(),
                                 rows[first].tolist(), codes.tolist()):
        grids[WIFI_CLASSES[code]].add(cell_center((col, row)), a)
    return DensityMaps(year=dataset.year, grids=grids)


@dataclass(frozen=True)
class DetectedCoverage:
    """§3.5: detected public networks per cell (all vs strong, per band)."""

    year: int
    grids: Dict[str, DensityGrid]


def detected_coverage(data: DatasetOrContext) -> DetectedCoverage:
    """Count detected public networks per cell from scan sightings."""
    ctx = AnalysisContext.of(data)
    dataset = ctx.dataset()
    sightings = dataset.sightings
    if len(sightings) == 0:
        raise AnalysisError("dataset has no scan sightings")
    device = sightings.device.astype(np.int64)
    t = sightings.t.astype(np.int64)
    cols, rows, found = _lookup_cells(ctx, device, t)

    grids = {
        "24_all": DensityGrid(), "24_strong": DensityGrid(),
        "5_all": DensityGrid(), "5_strong": DensityGrid(),
    }
    directory = dataset.ap_directory
    ap_id = sightings.ap_id.astype(np.int64)
    strong = sightings.rssi >= STRONG_RSSI_DBM
    # Each (ap, cell, strong) sighting once, in order of first sighting.
    _, first = np.unique(
        packed_keys(ap_id[found], cols[found], rows[found], strong[found]),
        return_index=True,
    )
    rows_seen = np.flatnonzero(found)[np.sort(first)]
    for a, col, row, is_strong in zip(
        ap_id[rows_seen].tolist(), cols[rows_seen].tolist(),
        rows[rows_seen].tolist(), strong[rows_seen].tolist(),
    ):
        entry = directory.get(a)
        if entry is None:
            continue
        center = cell_center((col, row))
        band_key = "24" if entry.band is Band.GHZ_2_4 else "5"
        grids[f"{band_key}_all"].add(center, a)
        if is_strong:
            grids[f"{band_key}_strong"].add(center, a)
    return DetectedCoverage(year=dataset.year, grids=grids)


def _lookup_cells(ctx: AnalysisContext, device: np.ndarray, t: np.ndarray):
    """(device, t) -> geo cell join via the shared memoized slot index."""
    geo = ctx.dataset().geo
    index = ctx.geo_index()
    pos, found = index.lookup(device, t)
    return (
        index.gather(geo.col, pos),
        index.gather(geo.row, pos),
        found,
    )
