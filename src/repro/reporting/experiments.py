"""Experiment registry: one entry per paper table/figure.

Each experiment takes an :class:`~repro.analysis.context.AnalysisContext`
(a study plus memoized derived artifacts) and returns a renderable
:class:`~repro.reporting.tables.Table` or
:class:`~repro.reporting.figures.Figure`. The benchmark harness calls these
through :func:`run_experiment`.

Each result also carries named ``measures``: the paper quantities the
fidelity scorer (:mod:`repro.obs.fidelity`) compares, as zero-argument
callables over the objects the experiment built. They are lazy, so a
render pays nothing for them. A measure the context cannot define (too
few campaign years, no survey responses) raises :class:`AnalysisError`
with the reason, and the scorer records a skip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.analysis as A
from repro.analysis.app_breakdown import CONTEXTS
from repro.analysis.context import AnalysisContext
from repro.errors import AnalysisError
from repro.population.demographics import OCCUPATION_SHARES
from repro.population.survey import (
    LOCATIONS,
    REASONS,
    SurveyTables,
    tabulate_survey,
)
from repro.reporting.context import (
    cellular_share_of_broadband,
    national_traffic_growth,
)
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


def _compared(years: Sequence[int],
              every_campaign: bool = False) -> Sequence[int]:
    """The years a cross-campaign measure compares; undefined with too few."""
    if len(years) < 2:
        raise AnalysisError("needs at least two campaign years")
    if every_campaign and len(years) < 3:
        raise AnalysisError("needs all three campaign years")
    return years


def _ends(years: Sequence[int]) -> Tuple[int, int]:
    """The first and last of the compared years."""
    years = _compared(years)
    return years[0], years[-1]


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------

@_register("table1", "Table 1", "Overview of datasets")
def table1(cache: AnalysisContext) -> Table:
    table = Table("Table 1: Overview of datasets",
                  ["year", "duration", "#And", "#iOS", "#total", "%LTE"])
    rows = {year: A.campaign_overview(cache.raw_campaign(year))
            for year in cache.years}
    for row in rows.values():
        table.add_row(
            row.year, f"{row.start}..{row.end}", row.n_android, row.n_ios,
            row.n_total, f"{100 * row.lte_share:.0f}%",
        )
    table.measures.update(
        panel_size=lambda: [rows[y].n_total for y in _compared(cache.years)],
        lte_share=lambda: [rows[y].lte_share for y in
                           _compared(cache.years, every_campaign=True)],
    )
    return table


def _survey_tables(cache: AnalysisContext) -> Optional[Dict[int, SurveyTables]]:
    """Each year's survey tabulation; None when a campaign has no responses
    (saved datasets carry none), and the survey tables then have no rows."""
    surveys = getattr(cache.study, "surveys", None) or {}
    if not all(surveys.get(y) for y in cache.years):
        return None
    return {y: tabulate_survey(surveys[y], y) for y in cache.years}


def _surveyed(tabs: Optional[Dict[int, SurveyTables]]) -> Dict[int, SurveyTables]:
    if tabs is None:
        raise AnalysisError("no survey responses on this context")
    return tabs


@_register("table2", "Table 2", "User survey: user demographics")
def table2(cache: AnalysisContext) -> Table:
    tabs = _survey_tables(cache)
    table = Table("Table 2: User demographics (%)",
                  ["occupation"] + [str(y) for y in cache.years])

    def occupation_gap() -> float:
        """Largest |surveyed - sampled| occupation share, in points."""
        worst = 0.0
        for year, tab in _surveyed(tabs).items():
            for occupation, share in OCCUPATION_SHARES[year].items():
                measured = tab.occupation_pct.get(occupation.value, 0.0)
                worst = max(worst, abs(measured - share))
        return worst

    table.measures["occupation_gap"] = occupation_gap
    if tabs is None:
        return table
    occupations = sorted({occ for t in tabs.values() for occ in t.occupation_pct})
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
    first, last = cache.years[0], cache.years[-1]

    def median_agr() -> List[float]:
        rates = [growth.agr_median[kind] for kind in ("wifi", "all", "cell")]
        if None in rates:
            # A zero median makes the AGR undefined. NaN would read as "no
            # ordering violation" and pass silently, so leave it undefined.
            raise AnalysisError("median AGR undefined: a year's median is 0 MB")
        return rates

    table.measures.update(
        median_all=lambda: [growth.median["all"][y] for y in
                            _compared(cache.years, every_campaign=True)],
        wifi_cell_medians=lambda: tuple(
            (growth.median[kind][first], growth.median[kind][last])
            for kind in ("wifi", "cell")),
        mean_wifi_cell=lambda: (growth.mean["wifi"][last],
                                growth.mean["cell"][last]),
        median_agr=median_agr,
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

    def growth(kind: str) -> float:
        first, last = _ends(cache.years)
        return counts[last][kind] / max(counts[first][kind], 1)

    table.measures.update(
        public_growth=lambda: growth("public"),
        home_growth=lambda: growth("home"),
        office_growth=lambda: growth("office"),
        home_ap_users=lambda: [
            cache.classification(y).fraction_devices_with_home_ap(
                cache.clean(y).n_devices)
            for y in _compared(cache.years, every_campaign=True)],
    )
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
    table.measures.update(
        home_only=lambda: [breakdowns[y].pct(1, 0, 0)
                           for y in _ends(cache.years)],
        home_other=lambda: [breakdowns[y].pct(1, 0, 1)
                            for y in _ends(cache.years)],
    )
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


def _wifi_home_top(cache: AnalysisContext, n: int, direction: str) -> set:
    """The last campaign's top-``n`` WiFi-home categories."""
    breakdown = cache.app_breakdown(max(cache.years))
    return {name for name, _ in breakdown.top("wifi_home", n=n,
                                              direction=direction)}


@_register("table6", "Table 6", "Top app categories by RX volume")
def table6(cache: AnalysisContext) -> Table:
    table = _app_table(cache, "rx", "Table 6: Top application categories (RX)")
    table.measures["browser_video_lead"] = lambda: (
        1.0 if {"browser", "video"} <= _wifi_home_top(cache, 3, "rx") else 0.0)
    return table


_PRODUCTIVITY = {"productivity", "tools", "communication", "mail",
                 "business", "office"}


@_register("table7", "Table 7", "Top app categories by TX volume")
def table7(cache: AnalysisContext) -> Table:
    table = _app_table(cache, "tx", "Table 7: Top application categories (TX)")
    table.measures["productivity_tx"] = lambda: (
        1.0 if _PRODUCTIVITY & _wifi_home_top(cache, 5, "tx") else 0.0)
    return table


@_register("table8", "Table 8", "Survey: associated WiFi APs by location")
def table8(cache: AnalysisContext) -> Table:
    table = Table(
        "Table 8: Survey - associated WiFi APs during measurements (%)",
        ["location", "answer"] + [str(y) for y in cache.years],
    )
    tabs = _survey_tables(cache)

    def yes_share(loc: str, every_campaign: bool) -> List[float]:
        years = _compared(cache.years, every_campaign)
        return [_surveyed(tabs)[y].connected_pct[loc]["yes"] for y in years]

    table.measures.update(
        home_yes=lambda: yes_share("home", every_campaign=True),
        public_yes=lambda: yes_share("public", every_campaign=False),
    )
    if tabs is None:
        return table
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
    tabs = _survey_tables(cache)
    last = max(cache.years)

    def office_no_aps() -> Tuple[float, float]:
        """'No available APs' against the largest other office reason."""
        office = _surveyed(tabs)[last].reason_pct["office"]
        others = [office[r] for r in REASONS
                  if r != "No available APs" and office[r] == office[r]]
        return (office["No available APs"], max(others))

    table.measures.update(
        office_no_aps=office_no_aps,
        security_public_home=lambda: tuple(
            _surveyed(tabs)[last].reason_pct[loc]["Security issue"]
            for loc in ("public", "home")),
    )
    if tabs is None:
        return table
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
    figure.measures["cellular_share_2014"] = (
        lambda: cellular_share_of_broadband(2014))
    return figure


_EVENING = {20, 21, 22, 23, 0, 1}


@_register("fig02", "Figure 2", "Aggregated traffic volume")
def fig02(cache: AnalysisContext) -> Figure:
    year = max(cache.years)
    view = cache.campaign(year)
    agg = A.aggregate_traffic(view)
    figure = Figure("Figure 2", f"Aggregated traffic volume, {year} (Mbps, Sat->Sat)")
    hours = np.arange(168)
    for key in ("cellular_tx", "cellular_rx", "wifi_tx", "wifi_rx"):
        figure.add(key, hours, agg.folded_week(key))
    figure.measures.update(
        wifi_share=lambda: [
            A.aggregate_traffic(cache.campaign(_ends(cache.years)[0])).wifi_share,
            agg.wifi_share],
        evening_wifi_peak=lambda: (
            1.0 if {int(h) for h in A.diurnal_peaks(view, "wifi")} & _EVENING
            else 0.0),
        weekend_ratios=lambda: tuple(A.weekend_weekday_ratio(view, kind)
                                     for kind in ("wifi", "cell")),
    )
    return figure


@_register("fig03", "Figure 3", "CDFs of daily total traffic volume per user")
def fig03(cache: AnalysisContext) -> Figure:
    figure = Figure("Figure 3", "CDFs of daily total traffic per user (MB)")
    for year in cache.years:
        dist = A.daily_volume_distributions(cache.campaign(year))
        figure.add(f"RX {year}", dist.total_rx.values, dist.total_rx.probs)
        figure.add(f"TX {year}", dist.total_tx.values, dist.total_tx.probs)

    def rx_tx_ratio() -> float:
        last = max(cache.years)
        rx = float(cache.daily_matrix("all", "rx", year=last).sum())
        tx = float(cache.daily_matrix("all", "tx", year=last).sum())
        if tx <= 0:
            raise AnalysisError("no TX volume recorded")
        return rx / tx

    def mean_volume() -> List[float]:
        growth = A.volume_growth_table([cache.campaign(y) for y in cache.years])
        return [growth.mean["all"][y] for y in cache.years]

    figure.measures.update(rx_tx_ratio=rx_tx_ratio, mean_volume=mean_volume)
    return figure


@_register("fig04", "Figure 4", "CDFs of daily traffic volume per type")
def fig04(cache: AnalysisContext) -> Figure:
    year = max(cache.years)
    dist = A.daily_volume_distributions(cache.campaign(year))
    figure = Figure("Figure 4", f"CDFs of daily traffic per type, {year} (MB)")
    for key in ("wifi_rx", "wifi_tx", "cell_rx", "cell_tx"):
        cdf = dist.cdf_by_type[key]
        figure.add(key, cdf.values, cdf.probs)
    figure.measures.update(
        zero_wifi=lambda: dist.zero_fraction("wifi"),
        zero_cell=lambda: dist.zero_fraction("cell"),
    )
    return figure


@_register("fig05", "Figure 5", "Daily traffic volume per user (heat map)")
def fig05(cache: AnalysisContext) -> Table:
    table = Table(
        "Figure 5: cellular vs WiFi user types (fractions of device-days)",
        ["year", "cellular-intensive", "wifi-intensive", "mixed", "mixed above diag"],
    )
    heatmaps = {}
    for year in cache.years:
        hm = heatmaps[year] = A.wifi_cell_heatmap(cache.campaign(year))
        table.add_row(
            year, hm.cellular_intensive_fraction, hm.wifi_intensive_fraction,
            hm.mixed_fraction, hm.mixed_above_diagonal_fraction,
        )
    table.measures.update(
        cell_intensive=lambda: [heatmaps[y].cellular_intensive_fraction
                                for y in _ends(cache.years)],
        wifi_intensive=lambda: (
            heatmaps[max(cache.years)].wifi_intensive_fraction),
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
    figure.measures.update(
        traffic_ratio=lambda: [cache.wifi_ratios(y).traffic("all").mean
                               for y in _ends(cache.years)],
        user_ratio=lambda: [cache.wifi_ratios(y).users("all").mean
                            for y in _ends(cache.years)],
    )
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
    figure = _subset_ratio_figure(
        cache, "traffic", "Figure 7: WiFi-traffic ratio, heavy vs light"
    )
    figure.measures["heavy_light_traffic"] = lambda: tuple(
        cache.wifi_ratios(max(cache.years)).traffic(subset).mean
        for subset in ("heavy", "light"))
    return figure


@_register("fig08", "Figure 8", "WiFi-user ratio of heavy/light users")
def fig08(cache: AnalysisContext) -> Figure:
    figure = _subset_ratio_figure(
        cache, "users", "Figure 8: WiFi-user ratio, heavy vs light"
    )
    figure.measures["heavy_user_ratio"] = lambda: [
        cache.wifi_ratios(y).users("heavy").mean for y in _ends(cache.years)]
    return figure


@_register("fig09", "Figure 9", "Android WiFi interface states and iOS")
def fig09(cache: AnalysisContext) -> Figure:
    figure = Figure(
        "Figure 9", "Ratio of users: Android states (a)(b) and iOS (c)"
    )
    hours = np.arange(168)
    states = {}
    for year in (min(cache.years), max(cache.years)):
        ratios = states[year] = A.interface_state_ratios(cache.campaign(year))
        for key in ("wifi_user", "wifi_off", "wifi_available"):
            figure.add(f"android {key} {year}", hours, ratios.folded(key))
        figure.add(f"ios wifi_user {year}", hours, ratios.folded("ios"))
    figure.measures.update(
        wifi_off=lambda: [states[y].android_means["wifi_off"]
                          for y in _ends(cache.years)],
        ios_android_gap=lambda: A.ios_android_gap(states[max(cache.years)]),
    )
    return figure


@_register("fig10", "Figure 10", "Associated AP density per 5km cell")
def fig10(cache: AnalysisContext) -> Table:
    table = Table(
        "Figure 10: associated unique APs per 5km cell",
        ["year", "class", "cells>=1", "cells>=10", "cells with >=100", "max cell"],
    )
    density = {}
    for year in (min(cache.years), max(cache.years)):
        maps = density[year] = A.association_density_maps(cache.campaign(year))
        for cls in ("home", "public"):
            grid = maps.grid(cls)
            table.add_row(
                year, cls, grid.n_cells_with_at_least(1),
                grid.n_cells_with_at_least(10), grid.n_cells_with_at_least(100),
                grid.max_count(),
            )
    table.measures["public_coverage"] = lambda: [
        density[y].grid("public").n_cells_with_at_least(1)
        for y in _ends(cache.years)]
    return table


@_register("fig11", "Figure 11", "WiFi traffic volume by location")
def fig11(cache: AnalysisContext) -> Figure:
    figure = Figure("Figure 11", "WiFi traffic by location class (Mbps, Sat->Sat)")
    hours = np.arange(168)
    for year in (min(cache.years), max(cache.years)):
        lt = A.location_traffic(cache.campaign(year))
        for cls in ("home", "public", "office"):
            figure.add(f"{cls} rx {year}", hours, lt.folded_week(f"{cls}_rx"))
    # The loop ends on the last year.
    figure.measures["home_volume_share"] = lambda: lt.volume_share["home"]
    return figure


@_register("fig12", "Figure 12", "Number of associated APs per day")
def fig12(cache: AnalysisContext) -> Table:
    table = Table(
        "Figure 12: associated APs per device-day (%)",
        ["year", "subset", "1", "2", "3", "4+"],
    )
    results = {}
    for year in cache.years:
        result = results[year] = A.aps_per_day(cache.campaign(year))
        for subset in ("all", "heavy", "light"):
            table.add_row(
                year, subset,
                *[result.pct(subset, n) for n in (1, 2, 3, 4)],
            )
    table.measures["single_ap"] = lambda: [
        results[y].pct("all", 1) for y in _ends(cache.years)]
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

    def p90_durations() -> List[float]:
        """The last year's p90 hours, home / office / public."""
        p90 = durations.p90_hours
        missing = [cls for cls in ("home", "office", "public") if cls not in p90]
        if missing:
            raise AnalysisError(f"no association durations for {missing}")
        return [p90["home"], p90["office"], p90["public"]]

    figure.measures["p90_durations"] = p90_durations
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
    last = fractions[max(cache.years)]
    table.measures.update(
        public_5ghz=lambda: last.fraction("public"),
        public_home_5ghz=lambda: (last.fraction("public"),
                                  last.fraction("home")),
    )
    return table


@_register("fig15", "Figure 15", "PDFs of WiFi RSSI for associated APs")
def fig15(cache: AnalysisContext) -> Figure:
    year = max(cache.years)
    dist = A.rssi_distributions(cache.campaign(year))
    figure = Figure("Figure 15", f"PDFs of max RSSI per associated AP, {year}")
    for cls in ("home", "public"):
        centers, density = dist.pdf(cls)
        figure.add(cls, centers, density)
    figure.measures.update(
        home_rssi_mean=lambda: dist.mean["home"],
        public_rssi_mean=lambda: dist.mean["public"],
        weak_public_home=lambda: (dist.weak_fraction["public"],
                                  dist.weak_fraction["home"]),
    )
    return figure


@_register("fig16", "Figure 16", "Associated 2.4GHz channels")
def fig16(cache: AnalysisContext) -> Figure:
    figure = Figure("Figure 16", "PDF of associated 2.4GHz channels")
    channels = np.arange(1, 14)
    dists = {}
    for year in (min(cache.years), max(cache.years)):
        dist = dists[year] = A.channel_distributions(cache.campaign(year))
        for cls in ("home", "public"):
            if cls in dist.pdf:
                figure.add(f"{cls} {year}", channels, dist.pdf[cls])
    figure.measures.update(
        public_trio=lambda: dists[max(cache.years)].trio_share("public"),
        home_ch1=lambda: [dists[y].channel_share("home", 1)
                          for y in _ends(cache.years)],
    )
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
    figure.measures.update(
        sparse_public=lambda: 1.0 - availability.fraction_seeing("24_all", 10),
        strong_all=lambda: (availability.fraction_seeing("24_all", 3),
                            availability.fraction_seeing("24_strong", 3)),
    )
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
    figure.measures.update(
        updated=lambda: timing.updated_fraction,
        updated_no_home=lambda: (timing.updated_fraction,
                                 timing.updated_fraction_no_home),
    )
    return figure


@_register("fig19", "Figure 19", "Effect of soft bandwidth cap")
def fig19(cache: AnalysisContext) -> Figure:
    figure = Figure(
        "Figure 19", "CDF of daily cellular RX / previous-3-day mean"
    )
    effects = {}
    for year in cache.years:
        if year == min(cache.years):
            continue  # the paper shows 2014 and 2015
        effect = effects[year] = A.cap_effect(cache.campaign(year))
        for label, cdf in ((f"potentially capped {year}",
                            effect.capped_ratio_cdf),
                           (f"others {year}", effect.others_ratio_cdf)):
            # A side without device-days is an empty curve: "(no data)".
            if cdf is None:
                figure.add(label, [], [])
            else:
                figure.add(label, cdf.values, cdf.probs)

    def effect_of(year: int):
        if year in effects:
            return effects[year]
        return A.cap_effect(cache.campaign(year))

    def median_gaps() -> List[float]:
        """The capped-vs-others median gap of the last two years."""
        last = _compared(cache.years)[-1]
        if (last - 1) not in cache.years:
            raise AnalysisError(f"no campaign for {last - 1}")
        gaps = [effect_of(year).median_gap() for year in (last - 1, last)]
        if None in gaps:
            raise AnalysisError("no capped or no other device-days in a year")
        return gaps

    def below_half() -> Tuple[float, float]:
        last = max(cache.years)
        effect = effect_of(last)
        if effect.median_gap() is None:
            raise AnalysisError(f"no capped or no other device-days in {last}")
        return (effect.capped_below_half, effect.others_below_half)

    figure.measures.update(median_gaps=median_gaps, below_half=below_half)
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
    # The loop ends on the last year.
    table.measures.update(
        opportunity=lambda: estimate.devices_with_opportunity,
        offloadable=lambda: estimate.offloadable_fraction,
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
    # The loop ends on the last year.
    table.measures.update(
        wifi_cell_ratio=lambda: impact.wifi_to_cell_ratio,
        home_share=lambda: impact.smartphone_share_of_home_broadband,
    )
    return table
