"""One-shot study summary: every headline number, paper vs measured.

``study_summary`` runs the headline analyses across all three campaigns and
returns a list of :class:`Finding` rows (claim, paper value, measured value,
direction check). ``render_markdown`` turns them into a report — this is
what ``python -m repro report`` emits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import repro.analysis as A
from repro.errors import AnalysisError
from repro.analysis.context import AnalysisContext
from repro.reporting.tables import format_rate


@dataclass(frozen=True)
class Finding:
    """One headline claim with its paper and measured values."""

    section: str
    claim: str
    paper: str
    measured: str
    holds: Optional[bool]

    @property
    def status(self) -> str:
        if self.holds is None:
            return "info"
        return "ok" if self.holds else "CHECK"


def study_summary(cache: AnalysisContext) -> List[Finding]:
    """Compute every headline finding for a finished study."""
    if len(cache.years) < 2:
        raise AnalysisError("summary needs at least two campaign years")
    first, last = min(cache.years), max(cache.years)
    findings: List[Finding] = []

    def add(section, claim, paper, measured, holds=None):
        findings.append(Finding(section, claim, paper, measured, holds))

    agg = {y: A.aggregate_traffic(cache.campaign(y)) for y in cache.years}
    add(
        "§3.1", "WiFi share of total volume grows", "59% -> 67%",
        f"{agg[first].wifi_share:.0%} -> {agg[last].wifi_share:.0%}",
        agg[last].wifi_share > agg[first].wifi_share,
    )
    add(
        "§3.1", "LTE share of cellular grows", "32% -> 80%",
        f"{agg[first].lte_share_of_cellular:.0%} -> "
        f"{agg[last].lte_share_of_cellular:.0%}",
        agg[last].lte_share_of_cellular > agg[first].lte_share_of_cellular,
    )
    wk_cell = A.weekend_weekday_ratio(cache.campaign(last), "cell")
    wk_wifi = A.weekend_weekday_ratio(cache.campaign(last), "wifi")
    add(
        "§3.1", "Weekends: cellular down, WiFi up",
        "opposite weekend directions",
        f"cell x{wk_cell:.2f}, wifi x{wk_wifi:.2f}",
        wk_wifi > wk_cell,
    )

    growth = A.volume_growth_table([cache.campaign(y) for y in cache.years])
    add(
        "§3.2", "Median WiFi overtakes median cellular",
        "9.2<19.5 (2013) -> 50.7>35.6 (2015)",
        f"{growth.median['wifi'][first]:.1f}"
        f"{'<' if growth.median['wifi'][first] < growth.median['cell'][first] else '>'}"
        f"{growth.median['cell'][first]:.1f} -> "
        f"{growth.median['wifi'][last]:.1f}"
        f"{'>' if growth.median['wifi'][last] > growth.median['cell'][last] else '<'}"
        f"{growth.median['cell'][last]:.1f} MB",
        growth.median["wifi"][first] < growth.median["cell"][first]
        and growth.median["wifi"][last] > growth.median["cell"][last],
    )
    agr_wifi, agr_cell = growth.agr_median["wifi"], growth.agr_median["cell"]
    defined = agr_wifi is not None and agr_cell is not None
    add(
        "§3.2", "WiFi has the highest AGR",
        "134%/yr median WiFi vs 35% cellular",
        f"{format_rate(agr_wifi)} vs {format_rate(agr_cell)}",
        agr_wifi > agr_cell if defined else None,
    )

    heat = {y: A.wifi_cell_heatmap(cache.campaign(y)) for y in (first, last)}
    add(
        "§3.3.1", "Cellular-intensive user-days shrink", "35% -> 22%",
        f"{heat[first].cellular_intensive_fraction:.0%} -> "
        f"{heat[last].cellular_intensive_fraction:.0%}",
        heat[last].cellular_intensive_fraction
        < heat[first].cellular_intensive_fraction,
    )
    add(
        "§3.3.1", "WiFi-intensive users stay a small minority", "~8%",
        f"{heat[first].wifi_intensive_fraction:.0%} / "
        f"{heat[last].wifi_intensive_fraction:.0%}",
        heat[last].wifi_intensive_fraction < 0.2,
    )

    ratios = {y: cache.wifi_ratios(y) for y in (first, last)}
    add(
        "§3.3.2", "Mean WiFi-traffic ratio grows", "0.58 -> 0.71",
        f"{ratios[first].traffic('all').mean:.2f} -> "
        f"{ratios[last].traffic('all').mean:.2f}",
        ratios[last].traffic("all").mean > ratios[first].traffic("all").mean,
    )
    add(
        "§3.3.3", "Heavy hitters offload more than light users",
        "0.89 vs 0.52 (2015)",
        f"{ratios[last].traffic('heavy').mean:.2f} vs "
        f"{ratios[last].traffic('light').mean:.2f}",
        ratios[last].traffic("heavy").mean > ratios[last].traffic("light").mean,
    )

    states = {y: A.interface_state_ratios(cache.campaign(y)) for y in (first, last)}
    add(
        "§3.3.4", "Android WiFi-off share declines", "50% -> 40% (daytime)",
        f"{states[first].android_means['wifi_off']:.0%} -> "
        f"{states[last].android_means['wifi_off']:.0%} (mean)",
        states[last].android_means["wifi_off"]
        < states[first].android_means["wifi_off"],
    )
    add(
        "§3.3.4", "iOS connects more than Android", "+30%",
        f"+{A.ios_android_gap(states[last]):.0%}",
        A.ios_android_gap(states[last]) > 0,
    )

    counts = {y: cache.classification(y).counts() for y in (first, last)}
    add(
        "§3.4.1", "Detected public APs roughly double", "5041 -> 10481",
        f"{counts[first]['public']} -> {counts[last]['public']}",
        counts[last]["public"] > 1.5 * counts[first]["public"],
    )
    home_frac = {
        y: cache.classification(y).fraction_devices_with_home_ap(
            cache.clean(y).n_devices
        )
        for y in (first, last)
    }
    add(
        "§3.4.1", "Users with inferred home AP grow", "66% -> 79%",
        f"{home_frac[first]:.0%} -> {home_frac[last]:.0%}",
        home_frac[last] > home_frac[first],
    )
    location = A.location_traffic(cache.campaign(last))
    add(
        "§3.4.1", "Home carries almost all WiFi volume", "95%",
        f"{location.volume_share['home']:.0%}",
        location.volume_share["home"] > 0.8,
    )

    bands = A.band_fractions(cache.campaign(last))
    add(
        "§3.4.3", "Public 5GHz rollout outpaces home", ">50% vs <20% (2015)",
        f"{bands.fraction('public'):.0%} vs {bands.fraction('home'):.0%}",
        bands.fraction("public") > bands.fraction("home"),
    )
    rssi = A.rssi_distributions(cache.campaign(last))
    add(
        "§3.4.4", "Public RSSI weaker, ~12% below -70 dBm",
        "-60 dBm mean, 12% weak",
        f"{rssi.mean['public']:.0f} dBm, {rssi.weak_fraction['public']:.0%} weak",
        rssi.mean["public"] < rssi.mean["home"],
    )

    estimate = A.offload_estimate(cache.campaign(last))
    add(
        "§3.5", "Offloadable cellular share for available users", "15-20%",
        f"{estimate.offloadable_fraction:.0%}",
        0.05 < estimate.offloadable_fraction < 0.35,
    )

    try:
        timing = A.update_timing(cache.raw(last), cache.classification(last))
        add(
            "§3.7", "iOS update adoption in the window", "58%",
            f"{timing.updated_fraction:.0%}",
            0.3 < timing.updated_fraction < 0.9,
        )
        add(
            "§3.7", "No-home users update less", "14% vs 58%",
            f"{timing.updated_fraction_no_home:.0%} vs "
            f"{timing.updated_fraction:.0%}",
            timing.updated_fraction_no_home < timing.updated_fraction,
        )
    except AnalysisError:
        add("§3.7", "iOS update event", "565MB flash crowd", "not in study", None)

    if first != last and (last - 1) in cache.years:
        try:
            gap_prev = A.cap_effect(cache.campaign(last - 1)).median_gap()
            gap_last = A.cap_effect(cache.campaign(last)).median_gap()
            add(
                "§3.8", "Cap gap narrows after the 2015 relaxation",
                "0.29 -> 0.15",
                f"{gap_prev:.2f} -> {gap_last:.2f}",
                gap_last < gap_prev,
            )
        except AnalysisError:
            add("§3.8", "Soft-cap effect", "gap 0.29 -> 0.15",
                "too few capped device-days at this scale", None)

    impact = A.offload_impact(cache.campaign(last))
    add(
        "§4.1", "One smartphone's share of home broadband", "12%",
        f"{impact.smartphone_share_of_home_broadband:.0%}",
        0.03 < impact.smartphone_share_of_home_broadband < 0.35,
    )
    return findings


def render_markdown(findings: List[Finding], title: str = "Study summary") -> str:
    """Render findings as a markdown table."""
    lines = [
        f"# {title}", "",
        "| Section | Claim | Paper | Measured | Shape |",
        "|---|---|---|---|---|",
    ]
    for f in findings:
        mark = {"ok": "✓", "CHECK": "✗", "info": "–"}[f.status]
        lines.append(
            f"| {f.section} | {f.claim} | {f.paper} | {f.measured} | {mark} |"
        )
    holds = sum(1 for f in findings if f.holds)
    total = sum(1 for f in findings if f.holds is not None)
    lines.extend(["", f"Shape checks passing: {holds}/{total}."])
    return "\n".join(lines)
