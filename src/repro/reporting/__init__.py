"""Reporting: text tables, figure series, external context, experiments."""

from repro.reporting.tables import Table
from repro.reporting.figures import FigureSeries, Figure, render_ascii_series
from repro.reporting.svg import SvgChart, Axis, figure_to_svg
from repro.reporting.context import national_traffic_growth, NationalTraffic
from repro.reporting.collection import (
    collection_summary_table,
    completeness_cdf_table,
    render_collection_report,
)
from repro.reporting.experiments import (
    Experiment,
    EXPERIMENTS,
    AnalysisContext,
    run_experiment,
    list_experiments,
)

__all__ = [
    "Table",
    "FigureSeries",
    "Figure",
    "render_ascii_series",
    "SvgChart",
    "Axis",
    "figure_to_svg",
    "national_traffic_growth",
    "NationalTraffic",
    "collection_summary_table",
    "completeness_cdf_table",
    "render_collection_report",
    "Experiment",
    "EXPERIMENTS",
    "AnalysisContext",
    "run_experiment",
    "list_experiments",
]
