"""AP density maps (Figure 10).

Figure 10 counts *associated* unique APs per 5 km cell, split home vs
public.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.analysis.ap_classification import WIFI_CLASSES, APClassification
from repro.analysis.context import AnalysisContext, DatasetOrContext
from repro.errors import AnalysisError
from repro.geo.coords import cell_center
from repro.geo.grid import DensityGrid
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
