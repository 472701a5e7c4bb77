"""Plain-text table rendering for experiment output."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ReproError


@dataclass
class Table:
    """A titled table of rows; renders aligned monospace text.

    ``measures`` names the quantities the fidelity scorer reads, each a
    zero-argument callable over what the experiment built.
    """

    title: str
    columns: Sequence[str]
    rows: List[Sequence[object]] = field(default_factory=list)
    measures: Dict[str, Callable[[], object]] = field(
        default_factory=dict, repr=False, compare=False)

    def add_row(self, *values: object) -> None:
        if len(values) != len(self.columns):
            raise ReproError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(values)

    def render(self) -> str:
        cells = [[_fmt(c) for c in self.columns]]
        for row in self.rows:
            cells.append([_fmt(v) for v in row])
        widths = [max(len(r[i]) for r in cells) for i in range(len(self.columns))]
        lines = [self.title, "-" * len(self.title)]
        header = "  ".join(c.ljust(w) for c, w in zip(cells[0], widths))
        lines.append(header)
        lines.append("  ".join("-" * w for w in widths))
        for row in cells[1:]:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()


def format_rate(rate: Optional[float]) -> str:
    """A growth rate as a whole percentage; ``n/a`` when undefined."""
    return "n/a" if rate is None else f"{100 * rate:.0f}%"


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "NA"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)
