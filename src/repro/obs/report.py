"""The self-contained HTML run report.

:func:`render_run_report` folds one run's artifacts — the
:class:`~repro.obs.manifest.RunManifest` folded from its events file, its
counters and per-stage timings, the span-tree timeline (rendered inline
by :func:`repro.reporting.svg.span_timeline_svg`), and for a ``fidelity``
run the scoreboard and history trends — into a single HTML page with
zero external assets: every style and SVG is inline, so the file can be
uploaded as a CI artifact and opened anywhere. ``repro events PATH
--report OUT`` writes it after the run.

Like :mod:`repro.obs.bench`, this module reaches up into the reporting
layer and is therefore deliberately **not** imported by
``repro.obs.__init__``.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Optional, Union

from repro.obs.manifest import RunManifest

__all__ = ["render_run_report", "write_run_report"]

_STYLE = """
body { font-family: system-ui, sans-serif; margin: 2rem auto;
       max-width: 64rem; color: #1a1a1a; }
h1 { font-size: 1.5rem; } h2 { font-size: 1.15rem; margin-top: 2rem;
     border-bottom: 1px solid #ddd; padding-bottom: .25rem; }
table { border-collapse: collapse; margin: .75rem 0; font-size: .85rem; }
th, td { border: 1px solid #ddd; padding: .3rem .6rem; text-align: left; }
th { background: #f5f5f5; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.verdict-pass { color: #0a7a33; font-weight: 600; }
.verdict-warn { color: #b07500; font-weight: 600; }
.verdict-fail { color: #c0232c; font-weight: 600; }
.verdict-skip { color: #777; }
.pill { display: inline-block; padding: .1rem .55rem; border-radius: 1rem;
        background: #eef; margin-right: .4rem; font-size: .8rem; }
.muted { color: #777; font-size: .85rem; }
svg { max-width: 100%; height: auto; }
"""


def _esc(value: object) -> str:
    return html.escape(str(value))


def _kv_table(pairs) -> str:
    rows = "".join(
        f"<tr><th>{_esc(k)}</th><td>{_esc(v)}</td></tr>" for k, v in pairs
    )
    return f"<table>{rows}</table>"


def _manifest_section(manifest: RunManifest) -> str:
    shards = ", ".join(
        f"{s.get('year')}: {s.get('n_shards')}x ({s.get('n_devices')} dev)"
        for s in manifest.shards
    ) or "-"
    env = manifest.environment or {}
    return "<h2>Run manifest</h2>" + _kv_table([
        ("command", manifest.command),
        ("config hash", manifest.config_hash or "-"),
        ("seed", manifest.seed),
        ("scale", manifest.scale),
        ("years", ", ".join(str(y) for y in manifest.years) or "-"),
        ("executor", f"{manifest.executor} (jobs={manifest.n_jobs})"),
        ("shards", shards),
        ("python / numpy",
         f"{env.get('python', '?')} / {env.get('numpy', '?')}"),
    ])


def _metrics_section(manifest: RunManifest) -> str:
    parts = ["<h2>Metrics</h2>"]
    if manifest.counters:
        rows = "".join(
            f"<tr><td>{_esc(name)}</td><td class='num'>{_esc(value)}</td></tr>"
            for name, value in sorted(manifest.counters.items())
        )
        parts.append(
            "<table><tr><th>counter</th><th>value</th></tr>"
            f"{rows}</table>"
        )
    else:
        parts.append("<p class='muted'>No counters recorded.</p>")
    if manifest.stages:
        rows = "".join(
            "<tr><td>{0}</td><td class='num'>{1:.4f}</td>"
            "<td class='num'>{2:.4f}</td><td class='num'>{3}</td></tr>".format(
                _esc(stage),
                float(data.get("wall_s", 0.0)),
                float(data.get("cpu_s", 0.0)),
                int(data.get("count", 0)),
            )
            for stage, data in sorted(manifest.stages.items())
        )
        parts.append(
            "<table><tr><th>stage</th><th>wall s</th><th>cpu s</th>"
            f"<th>count</th></tr>{rows}</table>"
        )
    return "".join(parts)


def _timeline_section(manifest: RunManifest) -> str:
    if not manifest.spans:
        return ("<h2>Timeline</h2><p class='muted'>No span tree "
                "recorded.</p>")
    from repro.reporting.svg import span_timeline_svg

    svg = span_timeline_svg(
        manifest.spans, title=f"{manifest.command} timeline"
    )
    return f"<h2>Timeline</h2>{svg}"


def _fidelity_section(data: Optional[dict]) -> str:
    if data is None:
        return ""
    pills = "".join(
        f"<span class='pill verdict-{kind}'>{data.get('n_' + kind, 0)} "
        f"{kind}</span>"
        for kind in ("pass", "warn", "fail", "skip")
    )
    rows = []
    for rec in data.get("records", ()):
        verdict = rec.get("verdict", "skip")
        div = rec.get("divergence")
        rows.append(
            "<tr><td>{0}</td><td>{1}</td><td>{2}</td><td>{3}</td>"
            "<td class='num'>{4}</td>"
            "<td class='verdict-{5}'>{5}</td></tr>".format(
                _esc(rec.get("check_id", "?")),
                _esc(rec.get("paper_item", "?")),
                _esc(rec.get("paper", "")),
                _esc(rec.get("measured_text", "-")),
                "-" if div is None else f"{float(div):.3f}",
                _esc(verdict),
            )
        )
    return (
        "<h2>Fidelity scoreboard</h2>"
        f"<p>{pills}<span class='muted'>scored at scale "
        f"{data.get('scale', '?')}, seed {data.get('seed', '?')}"
        "</span></p>"
        "<table><tr><th>check</th><th>paper item</th><th>paper</th>"
        "<th>measured</th><th>divergence</th><th>verdict</th></tr>"
        + "".join(rows) + "</table>"
    )


def _history_section(history: Optional[dict]) -> str:
    """Sparkline trend tables from BENCH/FIDELITY history records.

    ``history`` maps a label (``"bench"``/``"fidelity"``) to the list of
    records :func:`repro.obs.history.load_history` returns; each metric
    gets an inline SVG sparkline plus first/last values, and the latest
    rolling-window drift warnings are surfaced above the table.
    """
    if not history or not any(history.values()):
        return ""
    from repro.obs.history import (
        drift_warnings,
        record_metrics,
        sparkline_svg,
    )

    parts = ["<h2>Run history</h2>"]
    for label, records in history.items():
        if not records:
            continue
        parts.append(
            f"<h3>{_esc(label)} ({len(records)} runs)</h3>"
        )
        warnings = drift_warnings(records)
        for warning in warnings:
            parts.append(f"<p class='verdict-warn'>{_esc(warning)}</p>")
        metric_names = sorted({
            name
            for record in records
            for name, value in record.get("metrics", {}).items()
            if isinstance(value, (int, float))
        })
        rows = []
        for name in metric_names:
            series = record_metrics(records, name)
            if not series:
                continue
            spark = sparkline_svg(series) or "<span class='muted'>-</span>"
            rows.append(
                "<tr><td>{0}</td><td>{1}</td><td class='num'>{2:g}</td>"
                "<td class='num'>{3:g}</td></tr>".format(
                    _esc(name), spark, series[0], series[-1],
                )
            )
        parts.append(
            "<table><tr><th>metric</th><th>trend</th><th>first</th>"
            f"<th>latest</th></tr>{''.join(rows)}</table>"
        )
    return "".join(parts)


def render_run_report(
    manifest: RunManifest,
    fidelity: Optional[dict] = None,
    title: str = "repro run report",
    history: Optional[dict] = None,
) -> str:
    """One self-contained HTML page for a run (no external assets).

    ``fidelity`` is a FidelityReport in its JSON form.
    """
    body = "".join([
        f"<h1>{_esc(title)}</h1>",
        _manifest_section(manifest),
        _fidelity_section(fidelity),
        _timeline_section(manifest),
        _metrics_section(manifest),
        _history_section(history),
    ])
    return (
        "<!DOCTYPE html>\n<html lang=\"en\"><head>"
        "<meta charset=\"utf-8\">"
        f"<title>{_esc(title)}</title>"
        f"<style>{_STYLE}</style></head>"
        f"<body>{body}</body></html>\n"
    )


def write_run_report(path: Union[str, Path], manifest: RunManifest) -> Path:
    """Write the run report for a manifest folded from an events file.

    The fidelity report JSON and history that a ``fidelity`` run names in
    ``manifest.artifacts`` are folded in when they can still be read.
    """
    from repro.obs.history import load_history

    fidelity = history = None
    report_path = manifest.artifacts.get("fidelity_report")
    if report_path and Path(report_path).is_file():
        from repro.obs.fidelity import load_fidelity_report

        fidelity = load_fidelity_report(report_path)
    history_path = manifest.artifacts.get("fidelity_history")
    if history_path:
        history = {"fidelity": load_history(history_path)}
    title = (f"repro {manifest.command} (scale {manifest.scale:g}, "
             f"seed {manifest.seed})")
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(render_run_report(manifest, fidelity, title=title,
                                     history=history))
    return out
