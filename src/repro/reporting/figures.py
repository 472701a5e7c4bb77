"""Figure-series containers and a small ASCII renderer.

Benchmarks regenerate every paper figure as one or more named
:class:`FigureSeries`; ``render_ascii_series`` draws a quick terminal
sparkline so the shape is visible without a plotting stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.errors import ReproError

_BLOCKS = " ▁▂▃▄▅▆▇█"


@dataclass(frozen=True)
class FigureSeries:
    """One named (x, y) series of a figure."""

    label: str
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ReproError(f"series {self.label!r}: x and y lengths differ")


@dataclass
class Figure:
    """A reproduced figure: id, caption, and its series.

    ``measures`` names the quantities the fidelity scorer reads, each a
    zero-argument callable over what the experiment built.
    """

    figure_id: str
    caption: str
    series: List[FigureSeries] = field(default_factory=list)
    measures: Dict[str, Callable[[], object]] = field(
        default_factory=dict, repr=False, compare=False)

    def add(self, label: str, x: Sequence[float], y: Sequence[float]) -> None:
        self.series.append(
            FigureSeries(label, np.asarray(x, float), np.asarray(y, float))
        )

    def get(self, label: str) -> FigureSeries:
        for s in self.series:
            if s.label == label:
                return s
        raise ReproError(
            f"figure {self.figure_id} has no series {label!r}; "
            f"have {[s.label for s in self.series]}"
        )

    def render(self, width: int = 72) -> str:
        lines = [f"{self.figure_id}: {self.caption}"]
        for s in self.series:
            lines.append(f"  {s.label}")
            lines.append("  " + render_ascii_series(s.y, width=width))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()


def render_ascii_series(values: Sequence[float], width: int = 72) -> str:
    """Downsample ``values`` to ``width`` columns of unicode blocks."""
    arr = np.asarray(values, dtype=float)
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        return "(no data)"
    if arr.size > width:
        arr = _bucket_means(arr, width)
    lo, hi = float(arr.min()), float(arr.max())
    if hi <= lo:
        return _BLOCKS[1] * len(arr)
    scaled = (arr - lo) / (hi - lo) * (len(_BLOCKS) - 2) + 1
    # ``np.rint`` rounds half to even, as ``round`` does.
    return "".join([_BLOCKS[i] for i in np.rint(scaled).astype(int).tolist()])


def _bucket_means(arr: np.ndarray, width: int) -> np.ndarray:
    """Means of ``arr`` over ``width`` ``linspace`` buckets (``arr.size >
    width``, so none is empty).

    The buckets have at most two sizes. Each size is one (buckets, size)
    gather whose row means equal each slice's ``.mean()`` bit for bit;
    ``np.add.reduceat`` would not: it groups the additions differently.
    """
    edges = np.linspace(0, arr.size, width + 1).astype(int)
    starts, sizes = edges[:-1], np.diff(edges)
    means = np.empty(width)
    for size in np.unique(sizes).tolist():
        pick = sizes == size
        means[pick] = arr[starts[pick, None] + np.arange(size)].mean(axis=1)
    return means
