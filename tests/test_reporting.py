"""Unit tests for tables, figures, context data, and the experiment registry."""

import numpy as np
import pytest

from repro.analysis.context import AnalysisContext
from repro.errors import AnalysisError, ReproError
from repro.reporting.context import (
    cellular_share_of_broadband,
    national_traffic_growth,
)
from repro.reporting.experiments import (
    EXPERIMENTS,
    list_experiments,
    run_experiment,
)
from repro.reporting.figures import Figure, FigureSeries, render_ascii_series
from repro.reporting.tables import Table


class TestTable:
    def test_render_alignment(self):
        table = Table("T", ["a", "bb"], [])
        table.add_row(1, 2.5)
        table.add_row("long-cell", 0.123)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "long-cell" in text
        assert "0.123" in text

    def test_row_width_checked(self):
        table = Table("T", ["a", "b"])
        with pytest.raises(ReproError):
            table.add_row(1)

    def test_nan_rendered_na(self):
        table = Table("T", ["x"])
        table.add_row(float("nan"))
        assert "NA" in table.render()


class TestFigure:
    def test_series_management(self):
        figure = Figure("F", "caption")
        figure.add("s1", [1, 2, 3], [4, 5, 6])
        assert figure.get("s1").y.tolist() == [4.0, 5.0, 6.0]
        with pytest.raises(ReproError):
            figure.get("missing")

    def test_length_mismatch(self):
        with pytest.raises(ReproError):
            FigureSeries("s", np.array([1.0]), np.array([1.0, 2.0]))

    def test_ascii_rendering(self):
        ramp = render_ascii_series(np.arange(100.0), width=20)
        assert len(ramp) == 20
        assert ramp[0] != ramp[-1]
        assert render_ascii_series([]) == "(no data)"
        assert render_ascii_series([5.0, 5.0]) == "▁▁"

    def test_figure_render(self):
        figure = Figure("Figure 2", "test")
        figure.add("wifi", np.arange(10), np.arange(10.0))
        text = figure.render()
        assert "Figure 2" in text and "wifi" in text


class TestContext:
    def test_ten_years(self):
        national = national_traffic_growth()
        assert sorted(national) == list(range(2006, 2016))

    def test_monotone_growth(self):
        national = national_traffic_growth()
        rbb = [national[y].rbb_download_gbps for y in sorted(national)]
        cell = [national[y].cellular_download_gbps for y in sorted(national)]
        assert rbb == sorted(rbb)
        assert cell == sorted(cell)

    def test_cellular_share_about_20pct_2014(self):
        # Figure 1 / §4.1: cellular is ~20% of broadband by end of 2014.
        assert cellular_share_of_broadband(2014) == pytest.approx(0.20, abs=0.02)

    def test_unknown_year(self):
        with pytest.raises(AnalysisError):
            cellular_share_of_broadband(1999)


class TestExperimentRegistry:
    def test_all_paper_artifacts_registered(self):
        ids = set(EXPERIMENTS)
        expected = (
            {f"table{i}" for i in range(1, 10)}
            | {f"fig{i:02d}" for i in range(1, 20)}
            | {"sec35", "sec41"}
        )
        assert ids == expected

    def test_listing_sorted(self):
        ids = [e.experiment_id for e in list_experiments()]
        assert ids == sorted(ids)

    def test_unknown_experiment(self, cache):
        with pytest.raises(AnalysisError):
            run_experiment("fig99", cache)

    def test_cache_requires_run_study(self):
        from repro.simulation.study import Study
        with pytest.raises(AnalysisError):
            AnalysisContext(Study())

    def test_cache_memoizes(self, cache):
        assert cache.classification(2015) is cache.classification(2015)
        assert cache.clean(2015) is cache.clean(2015)
        assert cache.user_classes(2015) is cache.user_classes(2015)


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_every_experiment_runs_and_renders(cache, experiment_id):
    result = run_experiment(experiment_id, cache)
    text = result.render() if hasattr(result, "render") else str(result)
    assert isinstance(text, str) and len(text) > 10
