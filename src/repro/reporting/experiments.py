"""Experiment registry: one entry per paper table/figure.

Each experiment takes an :class:`~repro.analysis.context.AnalysisContext`
(a study plus memoized derived artifacts) and returns a renderable
:class:`~repro.reporting.tables.Table` or
:class:`~repro.reporting.figures.Figure`. The benchmark harness calls these
through :func:`run_experiment`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

import repro.analysis as A
from repro.analysis.app_breakdown import CONTEXTS
from repro.analysis.context import AnalysisContext
from repro.errors import AnalysisError
from repro.population.survey import LOCATIONS, REASONS, tabulate_survey
from repro.reporting.context import national_traffic_growth
from repro.reporting.figures import Figure
from repro.reporting.tables import Table, format_rate


@dataclass(frozen=True)
class Experiment:
    """One reproducible paper artifact."""

    experiment_id: str
    paper_item: str
    title: str
    fn: Callable[[AnalysisContext], object]

    def run(self, cache: AnalysisContext) -> object:
        return self.fn(cache)


EXPERIMENTS: Dict[str, Experiment] = {}


def _register(experiment_id: str, paper_item: str, title: str):
    def decorator(fn):
        EXPERIMENTS[experiment_id] = Experiment(experiment_id, paper_item, title, fn)
        return fn
    return decorator


def list_experiments() -> List[Experiment]:
    return [EXPERIMENTS[k] for k in sorted(EXPERIMENTS)]


def run_experiment(experiment_id: str, cache: AnalysisContext) -> object:
    try:
        experiment = EXPERIMENTS[experiment_id]
    except KeyError:
        raise AnalysisError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {sorted(EXPERIMENTS)}"
        ) from None
    return experiment.run(cache)


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------

@_register("table1", "Table 1", "Overview of datasets")
def table1(cache: AnalysisContext) -> Table:
    table = Table("Table 1: Overview of datasets",
                  ["year", "duration", "#And", "#iOS", "#total", "%LTE"])
    for year in cache.years:
        row = A.campaign_overview(cache.raw_campaign(year))
        table.add_row(
            row.year, f"{row.start}..{row.end}", row.n_android, row.n_ios,
            row.n_total, f"{100 * row.lte_share:.0f}%",
        )
    return table


@_register("table2", "Table 2", "User survey: user demographics")
def table2(cache: AnalysisContext) -> Table:
    tabs = {
        year: tabulate_survey(cache.study.surveys[year], year)
        for year in cache.years
    }
    occupations = sorted({occ for t in tabs.values() for occ in t.occupation_pct})
    table = Table("Table 2: User demographics (%)",
                  ["occupation"] + [str(y) for y in cache.years])
    for occ in occupations:
        table.add_row(occ, *[tabs[y].occupation_pct.get(occ, 0.0) for y in cache.years])
    return table


@_register("table3", "Table 3", "Daily download volume per user and AGR")
def table3(cache: AnalysisContext) -> Table:
    datasets = [cache.campaign(y) for y in cache.years]
    growth = A.volume_growth_table(datasets)
    table = Table(
        "Table 3: Daily download traffic volume per user (MB/day) and AGR",
        ["stat", "kind"] + [str(y) for y in cache.years] + ["AGR"],
    )
    for stat, values, agr in (
        ("median", growth.median, growth.agr_median),
        ("mean", growth.mean, growth.agr_mean),
    ):
        for kind in ("all", "cell", "wifi"):
            table.add_row(
                stat, kind, *[values[kind][y] for y in cache.years],
                format_rate(agr[kind]),
            )
    return table


@_register("table4", "Table 4", "Number of estimated APs")
def table4(cache: AnalysisContext) -> Table:
    table = Table("Table 4: Number of estimated APs",
                  ["type"] + [str(y) for y in cache.years])
    counts = {y: cache.classification(y).counts() for y in cache.years}
    for kind in ("home", "public", "other", "office", "total"):
        label = f"({kind})" if kind == "office" else kind
        table.add_row(label, *[counts[y][kind] for y in cache.years])
    return table


@_register("table5", "Table 5", "Breakdown of associated APs (HPO)")
def table5(cache: AnalysisContext) -> Table:
    table = Table(
        "Table 5: Breakdown of number of associated APs (home/public/other)",
        ["HPO"] + [str(y) for y in cache.years],
    )
    breakdowns = {
        y: A.hpo_breakdown(cache.campaign(y)) for y in cache.years
    }
    combos = sorted(
        {c for b in breakdowns.values() for c in b.combos},
        key=lambda c: (sum(c), c),
    )
    for combo in combos:
        if sum(combo) == 0:
            continue
        label = "".join(str(n) for n in combo)
        table.add_row(label, *[f"{breakdowns[y].pct(*combo):.1f}%" for y in cache.years])
    table.add_row("4+", *[f"{breakdowns[y].four_plus_pct:.1f}%" for y in cache.years])
    return table


def _app_table(cache: AnalysisContext, direction: str, title: str) -> Table:
    table = Table(title, ["year", "context", "rank", "category", "%"])
    for year in cache.years:
        breakdown = cache.app_breakdown(year)
        for context in CONTEXTS:
            for rank, (name, pct) in enumerate(
                breakdown.top(context, n=5, direction=direction), start=1
            ):
                table.add_row(
                    year, breakdown.context_label(context), rank, name,
                    f"{pct:.1f}",
                )
    return table


@_register("table6", "Table 6", "Top app categories by RX volume")
def table6(cache: AnalysisContext) -> Table:
    return _app_table(cache, "rx", "Table 6: Top application categories (RX)")


@_register("table7", "Table 7", "Top app categories by TX volume")
def table7(cache: AnalysisContext) -> Table:
    return _app_table(cache, "tx", "Table 7: Top application categories (TX)")


@_register("table8", "Table 8", "Survey: associated WiFi APs by location")
def table8(cache: AnalysisContext) -> Table:
    table = Table(
        "Table 8: Survey - associated WiFi APs during measurements (%)",
        ["location", "answer"] + [str(y) for y in cache.years],
    )
    tabs = {
        year: tabulate_survey(cache.study.surveys[year], year)
        for year in cache.years
    }
    for loc in LOCATIONS:
        for answer in ("yes", "no", "NA"):
            table.add_row(
                loc, answer,
                *[tabs[y].connected_pct[loc][answer] for y in cache.years],
            )
    return table


@_register("table9", "Table 9", "Survey: reasons for unavailability of WiFi")
def table9(cache: AnalysisContext) -> Table:
    table = Table(
        "Table 9: Survey - reasons for unavailability of WiFi APs (%)",
        ["reason", "location"] + [str(y) for y in cache.years],
    )
    tabs = {
        year: tabulate_survey(cache.study.surveys[year], year)
        for year in cache.years
    }
    for reason in REASONS:
        for loc in LOCATIONS:
            table.add_row(
                reason, loc,
                *[tabs[y].reason_pct[loc][reason] for y in cache.years],
            )
    return table


# ----------------------------------------------------------------------
# Figures
# ----------------------------------------------------------------------

@_register("fig01", "Figure 1", "National RBB vs cellular traffic growth")
def fig01(cache: AnalysisContext) -> Figure:
    figure = Figure("Figure 1", "Growth in residential broadband and cellular traffic")
    national = national_traffic_growth()
    years = sorted(national)
    figure.add("RBB user download", years, [national[y].rbb_download_gbps for y in years])
    figure.add(
        "Cellular user download (3G+LTE)", years,
        [national[y].cellular_download_gbps for y in years],
    )
    return figure


@_register("fig02", "Figure 2", "Aggregated traffic volume")
def fig02(cache: AnalysisContext) -> Figure:
    year = max(cache.years)
    agg = A.aggregate_traffic(cache.campaign(year))
    figure = Figure("Figure 2", f"Aggregated traffic volume, {year} (Mbps, Sat->Sat)")
    hours = np.arange(168)
    for key in ("cellular_tx", "cellular_rx", "wifi_tx", "wifi_rx"):
        figure.add(key, hours, agg.folded_week(key))
    return figure


@_register("fig03", "Figure 3", "CDFs of daily total traffic volume per user")
def fig03(cache: AnalysisContext) -> Figure:
    figure = Figure("Figure 3", "CDFs of daily total traffic per user (MB)")
    for year in cache.years:
        dist = A.daily_volume_distributions(cache.campaign(year))
        figure.add(f"RX {year}", dist.total_rx.values, dist.total_rx.probs)
        figure.add(f"TX {year}", dist.total_tx.values, dist.total_tx.probs)
    return figure


@_register("fig04", "Figure 4", "CDFs of daily traffic volume per type")
def fig04(cache: AnalysisContext) -> Figure:
    year = max(cache.years)
    dist = A.daily_volume_distributions(cache.campaign(year))
    figure = Figure("Figure 4", f"CDFs of daily traffic per type, {year} (MB)")
    for key in ("wifi_rx", "wifi_tx", "cell_rx", "cell_tx"):
        cdf = dist.cdf_by_type[key]
        figure.add(key, cdf.values, cdf.probs)
    return figure


@_register("fig05", "Figure 5", "Daily traffic volume per user (heat map)")
def fig05(cache: AnalysisContext) -> Table:
    table = Table(
        "Figure 5: cellular vs WiFi user types (fractions of device-days)",
        ["year", "cellular-intensive", "wifi-intensive", "mixed", "mixed above diag"],
    )
    for year in cache.years:
        hm = A.wifi_cell_heatmap(cache.campaign(year))
        table.add_row(
            year, hm.cellular_intensive_fraction, hm.wifi_intensive_fraction,
            hm.mixed_fraction, hm.mixed_above_diagonal_fraction,
        )
    return table


@_register("fig06", "Figure 6", "WiFi-traffic ratio and WiFi-user ratio")
def fig06(cache: AnalysisContext) -> Figure:
    figure = Figure("Figure 6", "WiFi-traffic ratio (a) and WiFi-user ratio (b)")
    hours = np.arange(168)
    for year in (min(cache.years), max(cache.years)):
        ratios = cache.wifi_ratios(year)
        figure.add(f"traffic-ratio {year}", hours, ratios.traffic("all").folded_week())
        figure.add(f"user-ratio {year}", hours, ratios.users("all").folded_week())
    return figure


def _subset_ratio_figure(cache: AnalysisContext, which: str, caption: str) -> Figure:
    figure = Figure(caption.split(":")[0], caption)
    hours = np.arange(168)
    for year in (min(cache.years), max(cache.years)):
        ratios = cache.wifi_ratios(year)
        for subset in ("heavy", "light"):
            series = (
                ratios.traffic(subset) if which == "traffic" else ratios.users(subset)
            )
            figure.add(f"{subset} {year}", hours, series.folded_week())
    return figure


@_register("fig07", "Figure 7", "WiFi-traffic ratio of heavy/light users")
def fig07(cache: AnalysisContext) -> Figure:
    return _subset_ratio_figure(
        cache, "traffic", "Figure 7: WiFi-traffic ratio, heavy vs light"
    )


@_register("fig08", "Figure 8", "WiFi-user ratio of heavy/light users")
def fig08(cache: AnalysisContext) -> Figure:
    return _subset_ratio_figure(
        cache, "users", "Figure 8: WiFi-user ratio, heavy vs light"
    )


@_register("fig09", "Figure 9", "Android WiFi interface states and iOS")
def fig09(cache: AnalysisContext) -> Figure:
    figure = Figure(
        "Figure 9", "Ratio of users: Android states (a)(b) and iOS (c)"
    )
    hours = np.arange(168)
    for year in (min(cache.years), max(cache.years)):
        ratios = A.interface_state_ratios(cache.campaign(year))
        for key in ("wifi_user", "wifi_off", "wifi_available"):
            figure.add(f"android {key} {year}", hours, ratios.folded(key))
        figure.add(f"ios wifi_user {year}", hours, ratios.folded("ios"))
    return figure


@_register("fig10", "Figure 10", "Associated AP density per 5km cell")
def fig10(cache: AnalysisContext) -> Table:
    table = Table(
        "Figure 10: associated unique APs per 5km cell",
        ["year", "class", "cells>=1", "cells>=10", "cells with >=100", "max cell"],
    )
    for year in (min(cache.years), max(cache.years)):
        maps = A.association_density_maps(cache.campaign(year))
        for cls in ("home", "public"):
            grid = maps.grid(cls)
            table.add_row(
                year, cls, grid.n_cells_with_at_least(1),
                grid.n_cells_with_at_least(10), grid.n_cells_with_at_least(100),
                grid.max_count(),
            )
    return table


@_register("fig11", "Figure 11", "WiFi traffic volume by location")
def fig11(cache: AnalysisContext) -> Figure:
    figure = Figure("Figure 11", "WiFi traffic by location class (Mbps, Sat->Sat)")
    hours = np.arange(168)
    for year in (min(cache.years), max(cache.years)):
        lt = A.location_traffic(cache.campaign(year))
        for cls in ("home", "public", "office"):
            figure.add(f"{cls} rx {year}", hours, lt.folded_week(f"{cls}_rx"))
    return figure


@_register("fig12", "Figure 12", "Number of associated APs per day")
def fig12(cache: AnalysisContext) -> Table:
    table = Table(
        "Figure 12: associated APs per device-day (%)",
        ["year", "subset", "1", "2", "3", "4+"],
    )
    for year in cache.years:
        result = A.aps_per_day(cache.campaign(year))
        for subset in ("all", "heavy", "light"):
            table.add_row(
                year, subset,
                *[result.pct(subset, n) for n in (1, 2, 3, 4)],
            )
    return table


@_register("fig13", "Figure 13", "CCDFs of WiFi association duration")
def fig13(cache: AnalysisContext) -> Figure:
    figure = Figure("Figure 13", "CCDF of consecutive association time (hours)")
    for year in (min(cache.years), max(cache.years)):
        durations = A.association_durations(cache.campaign(year))
        for cls in ("home", "office", "public"):
            if cls not in durations.ccdf_by_class:
                continue
            dist = durations.ccdf_by_class[cls]
            figure.add(f"{cls} {year}", dist.values, dist.probs)
    return figure


@_register("fig14", "Figure 14", "Fraction of associated unique 5GHz APs")
def fig14(cache: AnalysisContext) -> Table:
    table = Table(
        "Figure 14: fraction of associated unique 5GHz APs",
        ["class"] + [str(y) for y in cache.years],
    )
    fractions = {
        y: A.band_fractions(cache.campaign(y)) for y in cache.years
    }
    for cls in ("home", "office", "public"):
        table.add_row(cls, *[fractions[y].fraction(cls) for y in cache.years])
    return table


@_register("fig15", "Figure 15", "PDFs of WiFi RSSI for associated APs")
def fig15(cache: AnalysisContext) -> Figure:
    year = max(cache.years)
    dist = A.rssi_distributions(cache.campaign(year))
    figure = Figure("Figure 15", f"PDFs of max RSSI per associated AP, {year}")
    for cls in ("home", "public"):
        centers, density = dist.pdf(cls)
        figure.add(cls, centers, density)
    return figure


@_register("fig16", "Figure 16", "Associated 2.4GHz channels")
def fig16(cache: AnalysisContext) -> Figure:
    figure = Figure("Figure 16", "PDF of associated 2.4GHz channels")
    channels = np.arange(1, 14)
    for year in (min(cache.years), max(cache.years)):
        dist = A.channel_distributions(cache.campaign(year))
        for cls in ("home", "public"):
            if cls in dist.pdf:
                figure.add(f"{cls} {year}", channels, dist.pdf[cls])
    return figure


@_register("fig17", "Figure 17", "CCDFs of detected public WiFi networks")
def fig17(cache: AnalysisContext) -> Figure:
    year = max(cache.years)
    availability = A.public_availability(cache.campaign(year))
    figure = Figure(
        "Figure 17",
        f"CCDF of detected public networks per available device/10min, {year}",
    )
    for key in ("24_all", "24_strong", "5_all", "5_strong"):
        dist = availability.ccdf(key)
        figure.add(key, dist.values, dist.probs)
    return figure


@_register("fig18", "Figure 18", "Software update timing")
def fig18(cache: AnalysisContext) -> Figure:
    year = max(cache.years)
    timing = A.update_timing(cache.raw_campaign(year), cache.classification(year))
    figure = Figure("Figure 18", f"iOS update timing, {year}")
    days, frac = timing.cdf_curve()
    figure.add("CDF (all)", days, frac)
    if timing.update_days_no_home.size:
        no_home = np.sort(timing.update_days_no_home)
        figure.add(
            "CDF (no home)", no_home,
            np.arange(1, len(no_home) + 1) / max(len(no_home), 1),
        )
    return figure


@_register("fig19", "Figure 19", "Effect of soft bandwidth cap")
def fig19(cache: AnalysisContext) -> Figure:
    figure = Figure(
        "Figure 19", "CDF of daily cellular RX / previous-3-day mean"
    )
    for year in cache.years:
        if year == min(cache.years):
            continue  # the paper shows 2014 and 2015
        effect = A.cap_effect(cache.campaign(year))
        for label, cdf in ((f"potentially capped {year}",
                            effect.capped_ratio_cdf),
                           (f"others {year}", effect.others_ratio_cdf)):
            # A side without device-days is an empty curve: "(no data)".
            if cdf is None:
                figure.add(label, [], [])
            else:
                figure.add(label, cdf.values, cdf.probs)
    return figure


# ----------------------------------------------------------------------
# Section estimates
# ----------------------------------------------------------------------

@_register("sec35", "Section 3.5", "Offloadable cellular traffic")
def sec35(cache: AnalysisContext) -> Table:
    table = Table(
        "Section 3.5: public-WiFi offload potential for WiFi-available users",
        ["year", "devices w/ opportunity", "offloadable fraction"],
    )
    for year in cache.years:
        estimate = A.offload_estimate(cache.campaign(year))
        table.add_row(
            year, estimate.devices_with_opportunity, estimate.offloadable_fraction
        )
    return table


@_register("sec41", "Section 4.1", "Impact of home WiFi offload")
def sec41(cache: AnalysisContext) -> Table:
    table = Table(
        "Section 4.1: offload impact estimates",
        ["year", "median cell MB", "median wifi MB", "wifi:cell",
         "offload share of broadband", "share of home broadband"],
    )
    for year in cache.years:
        impact = A.offload_impact(cache.campaign(year))
        table.add_row(
            year, impact.median_cell_mb, impact.median_wifi_mb,
            impact.wifi_to_cell_ratio, impact.offload_share_of_broadband,
            impact.smartphone_share_of_home_broadband,
        )
    return table
