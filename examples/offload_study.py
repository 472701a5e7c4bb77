#!/usr/bin/env python3
"""WiFi-offloading deep dive: who offloads, when, and how it evolved.

Reproduces the §3.3 analysis flow on a fresh simulated study: user types
(Figure 5), the WiFi-traffic / WiFi-user ratios for light users and heavy
hitters (Figures 6-8), and the §4.1 impact estimate on home broadband.

Usage::

    python examples/offload_study.py [scale]
"""

import sys

import numpy as np

import repro.analysis as analysis
from repro import AnalysisContext, run_study
from repro.reporting.tables import Table


def peak_and_trough(folded: np.ndarray) -> str:
    finite = np.where(np.isfinite(folded), folded, np.nan)
    peak = int(np.nanargmax(finite))
    trough = int(np.nanargmin(finite))
    days = ["Sat", "Sun", "Mon", "Tue", "Wed", "Thu", "Fri"]
    return (
        f"peak {days[peak // 24]} {peak % 24:02d}:00 "
        f"({np.nanmax(finite):.2f}), trough {days[trough // 24]} "
        f"{trough % 24:02d}:00 ({np.nanmin(finite):.2f})"
    )


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.08
    study = run_study(scale=scale, seed=11)
    context = AnalysisContext(study)

    types = Table(
        "User types per device-day (Figure 5)",
        ["year", "cellular-intensive", "wifi-intensive", "mixed",
         "mixed offloading (above diagonal)"],
    )
    for year in context.years:
        heat = analysis.wifi_cell_heatmap(context.campaign(year))
        types.add_row(
            year, f"{heat.cellular_intensive_fraction:.0%}",
            f"{heat.wifi_intensive_fraction:.0%}",
            f"{heat.mixed_fraction:.0%}",
            f"{heat.mixed_above_diagonal_fraction:.0%}",
        )
    print(types.render())
    print()

    ratios_table = Table(
        "Mean WiFi ratios by subset (Figures 6-8)",
        ["year", "traffic all", "traffic light", "traffic heavy",
         "users all", "users light", "users heavy"],
    )
    for year in context.years:
        ratios = context.wifi_ratios(year)
        ratios_table.add_row(
            year,
            *[f"{ratios.traffic(s).mean:.2f}" for s in ("all", "light", "heavy")],
            *[f"{ratios.users(s).mean:.2f}" for s in ("all", "light", "heavy")],
        )
    print(ratios_table.render())
    print()

    ratios15 = context.wifi_ratios(2015)
    print("2015 WiFi-traffic ratio weekly shape:",
          peak_and_trough(ratios15.traffic("all").folded_week()))
    print("2015 WiFi-user ratio weekly shape:   ",
          peak_and_trough(ratios15.users("all").folded_week()))
    print()

    impact = Table(
        "Offload impact (§4.1)",
        ["year", "median cell MB", "median wifi MB", "wifi:cell",
         "offload share of broadband", "one phone's share of home volume"],
    )
    for year in context.years:
        estimate = analysis.offload_impact(context.campaign(year))
        impact.add_row(
            year, f"{estimate.median_cell_mb:.1f}",
            f"{estimate.median_wifi_mb:.1f}",
            f"{estimate.wifi_to_cell_ratio:.2f}",
            f"{estimate.offload_share_of_broadband:.0%}",
            f"{estimate.smartphone_share_of_home_broadband:.0%}",
        )
    print(impact.render())


if __name__ == "__main__":
    main()
