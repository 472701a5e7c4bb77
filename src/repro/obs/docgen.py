"""Regenerate the EXPERIMENTS.md paper-vs-measured tables from the registry.

The three comparison tables (Tables / Figures / Section estimates) live
between ``<!-- BEGIN FIDELITY:<key> -->`` / ``<!-- END FIDELITY:<key> -->``
marker pairs and are owned by this module: ``repro fidelity --write-doc``
rewrites them from the :mod:`~repro.obs.reference` registry plus a freshly
scored :class:`~repro.obs.fidelity.FidelityReport`, so the document can
never disagree with the code. Everything outside the markers (reading
guide, known deviations, reproduction notes) stays hand-written.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Union

from repro.errors import ReproError
from repro.obs.fidelity import FidelityRecord, FidelityReport
from repro.obs.reference import (
    VERDICT_FAIL,
    VERDICT_PASS,
    VERDICT_SKIP,
    VERDICT_WARN,
)

__all__ = ["fidelity_tables", "rewrite_experiments_doc", "DOC_SECTIONS"]

#: Marker key -> experiment-id prefix owning that table.
DOC_SECTIONS = {"tables": "table", "figures": "fig", "sections": "sec"}

_VERDICT_MARK = {
    VERDICT_PASS: "\u2713",       # check mark
    VERDICT_WARN: "~",
    VERDICT_FAIL: "\u2717",       # ballot x
    VERDICT_SKIP: "\u2013",       # en dash
}


def _cell(text: str) -> str:
    return text.replace("|", "\\|").replace("\n", " ")


def _verdict_cell(rec: FidelityRecord) -> str:
    mark = _VERDICT_MARK[rec.verdict]
    if rec.verdict == VERDICT_SKIP:
        return f"{mark} skip"
    if rec.divergence is None:
        return mark
    return f"{mark} {rec.verdict} (div {rec.divergence:.2f})"


def _measured_cell(rec: FidelityRecord) -> str:
    if rec.verdict == VERDICT_SKIP:
        return f"skipped: {rec.note}" if rec.note else "skipped"
    text = rec.measured_text
    if not rec.scale_free:
        text += " (scale-dependent)"
    return text


def fidelity_tables(report: FidelityReport) -> Dict[str, str]:
    """Marker key -> generated markdown table for one scored report."""
    by_key: Dict[str, List[FidelityRecord]] = {k: [] for k in DOC_SECTIONS}
    for rec in report.records:
        for key, prefix in DOC_SECTIONS.items():
            if rec.experiment_id.startswith(prefix):
                by_key[key].append(rec)
                break
        else:
            raise ReproError(
                f"check {rec.check_id} has unmapped experiment id "
                f"{rec.experiment_id!r}"
            )
    tables: Dict[str, str] = {}
    source = (f"scale {report.scale:g}" if report.data is None
              else f"data {report.data}")
    for key, records in by_key.items():
        lines = [
            f"| Item | Quantity | Paper | Measured ({source}) | Verdict |",
            "|---|---|---|---|---|",
        ]
        records.sort(key=lambda r: (r.experiment_id, r.check_id))
        for rec in records:
            lines.append(
                f"| {_cell(rec.paper_item)} | {_cell(rec.quantity)} "
                f"| {_cell(rec.paper)} | {_cell(_measured_cell(rec))} "
                f"| {_cell(_verdict_cell(rec))} |"
            )
        tables[key] = "\n".join(lines)
    return tables


def _marker_pattern(key: str) -> re.Pattern:
    # The body group tolerates an empty block (BEGIN immediately followed
    # by END on the next line).
    return re.compile(
        rf"(<!-- BEGIN FIDELITY:{key} -->).*?(<!-- END FIDELITY:{key} -->)",
        re.DOTALL,
    )


def rewrite_experiments_doc(
    path: Union[str, Path], report: FidelityReport
) -> bool:
    """Replace the marker blocks in ``path``; True when the text changed."""
    path = Path(path)
    try:
        original = path.read_text()
    except OSError as exc:
        raise ReproError(f"cannot read {path}: {exc}") from None
    text = original
    for key, table in fidelity_tables(report).items():
        pattern = _marker_pattern(key)
        if not pattern.search(text):
            raise ReproError(
                f"{path} has no '<!-- BEGIN FIDELITY:{key} -->' marker block"
            )
        text = pattern.sub(
            lambda m, t=table: m.group(1) + "\n" + t + "\n" + m.group(2),
            text, count=1,
        )
    if text != original:
        path.write_text(text)
        return True
    return False
