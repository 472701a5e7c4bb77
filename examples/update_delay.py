#!/usr/bin/env python3
"""Security view of the iOS 8.2 flash crowd (§3.7, Figure 18).

WiFi-only updates mean users without home APs update late or never — a
patching-latency exposure window. This example reproduces the update-timing
analysis and quantifies the delay attributable to missing home WiFi.

Usage::

    python examples/update_delay.py [scale]
"""

import sys

import numpy as np

import repro.analysis as analysis
from repro import AnalysisContext, run_study
from repro.reporting.figures import render_ascii_series


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.08
    study = run_study(scale=scale, seed=31)
    context = AnalysisContext(study)

    timing = analysis.update_timing(context.raw_campaign(2015),
                                     context.classification(2015))
    print("iOS 8.2 rollout (2015 campaign)")
    print(f"  release day: campaign day {timing.release_day}")
    print(f"  updated within the window: {timing.updated_fraction:.0%}"
          " (paper: 58% in two weeks)")
    print(f"  updated on day one:        {timing.first_day_fraction:.0%}"
          " (paper: ~10%)")
    print(f"  median delay (all):        {timing.median_delay_days:.1f} days")
    if not np.isnan(timing.median_delay_days_no_home):
        print(
            f"  median delay (no home AP): "
            f"{timing.median_delay_days_no_home:.1f} days"
            " (paper: +3.5 days vs home users)"
        )
    print(f"  no-home users who updated: {timing.updated_fraction_no_home:.0%}"
          " (paper: 14%)")
    if timing.no_home_update_network:
        print("  networks no-home users updated on:",
              dict(sorted(timing.no_home_update_network.items())))

    days, cdf = timing.cdf_curve()
    horizon = int(days.max()) + 1
    per_day = np.zeros(horizon)
    for d in days:
        per_day[int(d)] += 1
    print()
    print("  updates per day since release (flash crowd + tail):")
    print("  " + render_ascii_series(per_day, width=min(horizon, 60)))
    print(f"  cumulative after 4 days: {cdf[np.searchsorted(days, 4, 'right') - 1]:.0%}"
          " of the iOS panel (paper: half of updaters in the first four days)")

    print()
    print("Exposure reading: every un-updated device carries the un-patched")
    print("vulnerability; the WiFi-gated distribution concentrates that risk")
    print("on exactly the users without home broadband.")


if __name__ == "__main__":
    main()
