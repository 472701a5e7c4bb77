"""Dependency-free SVG line charts for reproduced figures.

The benchmark harness renders each :class:`~repro.reporting.figures.Figure`
to a standalone SVG so the reproduced plots can be eyeballed against the
paper without a plotting stack. Supports linear and log axes, multiple
series with an automatic palette, axis ticks, and a legend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ReproError
from repro.reporting.figures import Figure

#: Color-blind-safe categorical palette (Okabe-Ito).
PALETTE = (
    "#0072B2", "#D55E00", "#009E73", "#CC79A7",
    "#E69F00", "#56B4E9", "#F0E442", "#000000",
)


@dataclass(frozen=True)
class Axis:
    """One axis' scale configuration."""

    label: str = ""
    log: bool = False

    def transform(self, values: np.ndarray) -> np.ndarray:
        if not self.log:
            return values
        safe = np.where(values > 0, values, np.nan)
        return np.log10(safe)


@dataclass
class SvgChart:
    """A simple multi-series line chart."""

    title: str
    x_axis: Axis = Axis()
    y_axis: Axis = Axis()
    width: int = 720
    height: int = 420
    margin: int = 56

    def __post_init__(self) -> None:
        if self.width <= 2 * self.margin or self.height <= 2 * self.margin:
            raise ReproError("chart too small for its margins")
        self._series: List[Tuple[str, np.ndarray, np.ndarray]] = []

    def add_series(self, label: str, x: Sequence[float], y: Sequence[float]) -> None:
        xa = np.asarray(x, dtype=float)
        ya = np.asarray(y, dtype=float)
        if xa.shape != ya.shape:
            raise ReproError(f"series {label!r}: x/y shape mismatch")
        self._series.append((label, xa, ya))

    # ------------------------------------------------------------------

    def render(self) -> str:
        """The chart as an SVG document string."""
        if not self._series:
            raise ReproError("chart has no series")
        tx, ty, (x_lo, x_hi), (y_lo, y_hi) = self._projected()
        parts = [self._header(), self._title_elem(), self._frame()]
        parts.extend(self._ticks(x_lo, x_hi, y_lo, y_hi))
        for i, (label, _, _) in enumerate(self._series):
            parts.append(self._polyline(tx[i], ty[i], PALETTE[i % len(PALETTE)]))
        parts.extend(self._legend())
        parts.append("</svg>")
        return "\n".join(parts)

    def save(self, path) -> None:
        from pathlib import Path

        Path(path).write_text(self.render())

    # ------------------------------------------------------------------

    def _projected(self):
        xs, ys = [], []
        for _, x, y in self._series:
            xs.append(self.x_axis.transform(x))
            ys.append(self.y_axis.transform(y))
        all_x = np.concatenate(xs)
        all_y = np.concatenate(ys)
        finite_x = all_x[np.isfinite(all_x)]
        finite_y = all_y[np.isfinite(all_y)]
        if finite_x.size == 0 or finite_y.size == 0:
            raise ReproError("no finite data to plot")
        x_lo, x_hi = float(finite_x.min()), float(finite_x.max())
        y_lo, y_hi = float(finite_y.min()), float(finite_y.max())
        if x_hi == x_lo:
            x_hi = x_lo + 1.0
        if y_hi == y_lo:
            y_hi = y_lo + 1.0
        pad_y = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

        inner_w = self.width - 2 * self.margin
        inner_h = self.height - 2 * self.margin

        def px(v):
            return self.margin + (v - x_lo) / (x_hi - x_lo) * inner_w

        def py(v):
            return self.height - self.margin - (v - y_lo) / (y_hi - y_lo) * inner_h

        tx = [px(x) for x in xs]
        ty = [py(y) for y in ys]
        return tx, ty, (x_lo, x_hi), (y_lo, y_hi)

    def _header(self) -> str:
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}" '
            f'font-family="sans-serif" font-size="12">'
            f'<rect width="{self.width}" height="{self.height}" fill="white"/>'
        )

    def _title_elem(self) -> str:
        return (
            f'<text x="{self.width / 2:.0f}" y="20" text-anchor="middle" '
            f'font-size="14" font-weight="bold">{_escape(self.title)}</text>'
        )

    def _frame(self) -> str:
        m = self.margin
        return (
            f'<rect x="{m}" y="{m}" width="{self.width - 2 * m}" '
            f'height="{self.height - 2 * m}" fill="none" stroke="#444"/>'
        )

    def _ticks(self, x_lo, x_hi, y_lo, y_hi) -> List[str]:
        parts = []
        m = self.margin
        inner_w = self.width - 2 * m
        inner_h = self.height - 2 * m
        for i in range(5):
            frac = i / 4
            x_val = x_lo + frac * (x_hi - x_lo)
            px = m + frac * inner_w
            parts.append(
                f'<text x="{px:.0f}" y="{self.height - m + 16}" '
                f'text-anchor="middle" fill="#333">'
                f'{_tick_label(x_val, self.x_axis.log)}</text>'
            )
            y_val = y_lo + frac * (y_hi - y_lo)
            py = self.height - m - frac * inner_h
            parts.append(
                f'<text x="{m - 6}" y="{py + 4:.0f}" text-anchor="end" '
                f'fill="#333">{_tick_label(y_val, self.y_axis.log)}</text>'
            )
        if self.x_axis.label:
            parts.append(
                f'<text x="{self.width / 2:.0f}" y="{self.height - 10}" '
                f'text-anchor="middle" fill="#111">'
                f'{_escape(self.x_axis.label)}</text>'
            )
        if self.y_axis.label:
            parts.append(
                f'<text x="16" y="{self.height / 2:.0f}" text-anchor="middle" '
                f'transform="rotate(-90 16 {self.height / 2:.0f})" fill="#111">'
                f'{_escape(self.y_axis.label)}</text>'
            )
        return parts

    def _polyline(self, px: np.ndarray, py: np.ndarray, color: str) -> str:
        finite = np.isfinite(px) & np.isfinite(py)
        points = " ".join(
            f"{x:.1f},{y:.1f}" for x, y in zip(px[finite], py[finite])
        )
        return (
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            f'stroke-width="1.6"/>'
        )

    def _legend(self) -> List[str]:
        parts = []
        x0 = self.margin + 10
        y0 = self.margin + 14
        for i, (label, _, _) in enumerate(self._series):
            color = PALETTE[i % len(PALETTE)]
            y = y0 + 16 * i
            parts.append(
                f'<line x1="{x0}" y1="{y - 4}" x2="{x0 + 18}" y2="{y - 4}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{x0 + 24}" y="{y}" fill="#111">{_escape(label)}</text>'
            )
        return parts


def _tick_label(value: float, is_log: bool) -> str:
    if is_log:
        return f"1e{value:.1f}" if value != int(value) else f"1e{int(value)}"
    if abs(value) >= 1000:
        return f"{value:.0f}"
    if abs(value) >= 10:
        return f"{value:.1f}"
    return f"{value:.2f}"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def span_timeline_svg(
    exported: dict,
    title: str = "run timeline",
    width: int = 920,
    row_height: int = 22,
    min_label_px: int = 46,
) -> str:
    """Render an exported span tree as a flame-graph-style timeline.

    ``exported`` is :meth:`~repro.obs.span.Span.as_dict` output (nested
    name/wall_s/children dicts). Spans record durations rather than start
    offsets, so children are packed left-to-right within their parent —
    the same synthetic layout the Chrome-trace export uses. Bar width is
    proportional to wall seconds; depth maps to the row. Each bar carries
    a ``<title>`` tooltip with exact wall/CPU seconds.
    """
    if not exported:
        raise ReproError("no span tree to render (telemetry was off?)")
    total = float(exported.get("wall_s", 0.0))
    if total <= 0.0:
        raise ReproError("span tree has no recorded wall time")

    # (depth, start_s, wall_s, node) rows via the packed preorder walk.
    rows: List[Tuple[int, float, float, dict]] = []

    def walk(node: dict, start: float, depth: int) -> None:
        wall = float(node.get("wall_s", 0.0))
        rows.append((depth, start, wall, node))
        child_start = start
        for child in node.get("children", ()):
            walk(child, child_start, depth + 1)
            child_start += float(child.get("wall_s", 0.0))

    walk(exported, 0.0, 0)
    n_levels = max(depth for depth, *_ in rows) + 1

    margin_x, top, bottom = 12, 34, 26
    height = top + n_levels * (row_height + 4) + bottom
    inner_w = width - 2 * margin_x
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{margin_x}" y="18" font-size="13" font-weight="bold">'
        f'{_escape(title)} — {total:.2f}s wall</text>',
    ]
    color_of: dict = {}
    for depth, start, wall, node in rows:
        x = margin_x + start / total * inner_w
        w = max(wall / total * inner_w, 1.0)
        y = top + depth * (row_height + 4)
        name = str(node.get("name", "?"))
        if name not in color_of:
            color_of[name] = PALETTE[len(color_of) % len(PALETTE)]
        tooltip = (
            f"{name}: {wall:.4f}s wall, "
            f"{float(node.get('cpu_s', 0.0)):.4f}s cpu"
        )
        counters = node.get("counters")
        if counters:
            tooltip += "; " + ", ".join(
                f"{k}={v}" for k, v in sorted(counters.items())
            )
        parts.append(
            f'<g><rect x="{x:.1f}" y="{y}" width="{w:.1f}" '
            f'height="{row_height}" rx="2" fill="{color_of[name]}" '
            f'fill-opacity="0.82" stroke="white" stroke-width="0.5">'
            f'<title>{_escape(tooltip)}</title></rect>'
        )
        if w >= min_label_px:
            parts.append(
                f'<text x="{x + 4:.1f}" y="{y + row_height - 7}" '
                f'fill="white">{_escape(name)}</text>'
            )
        parts.append("</g>")
    axis_y = top + n_levels * (row_height + 4) + 14
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        px = margin_x + frac * inner_w
        parts.append(
            f'<text x="{px:.0f}" y="{axis_y}" text-anchor="middle" '
            f'fill="#333">{frac * total:.2f}s</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def figure_to_svg(
    figure: Figure,
    log_x: bool = False,
    log_y: bool = False,
    x_label: str = "",
    y_label: str = "",
    width: int = 720,
    height: int = 420,
) -> str:
    """Render a :class:`Figure`'s series as one SVG chart."""
    chart = SvgChart(
        title=f"{figure.figure_id}: {figure.caption}",
        x_axis=Axis(x_label, log=log_x),
        y_axis=Axis(y_label, log=log_y),
        width=width,
        height=height,
    )
    for series in figure.series:
        chart.add_series(series.label, series.x, series.y)
    return chart.render()
