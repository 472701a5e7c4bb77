"""Counterfactual scenarios over the simulated study (§4's policy questions).

The paper's implications section asks what operators and policy makers could
change: deploy more public APs (§1/§4.3) or lead WiFi-available users to
existing networks (§3.5/§4.2). The what-if engine re-runs a campaign under a modified configuration and reports
how the headline offloading metrics move against the baseline.

Example::

    from repro.whatif import Scenario, compare, scale_public_deployment

    result = compare(
        year=2015, scale=0.1,
        scenario=Scenario("2x public rollout", scale_public_deployment(2.0)),
    )
    print(result.render())
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional

import repro.analysis as analysis
from repro.errors import AnalysisError, ConfigurationError
from repro.reporting.tables import Table
from repro.simulation.campaign import CampaignConfig, run_campaign
from repro.simulation.study import default_campaign_config
from repro.traces.cleaning import clean_for_main_analysis

ConfigTransform = Callable[[CampaignConfig], CampaignConfig]


@dataclass(frozen=True)
class Scenario:
    """A named configuration transform."""

    name: str
    transform: ConfigTransform


# ----------------------------------------------------------------------
# Ready-made transforms for the §4 policy levers
# ----------------------------------------------------------------------

def scale_public_deployment(factor: float) -> ConfigTransform:
    """Multiply the public AP universe (the pre-Olympics rollout push)."""
    if factor <= 0:
        raise ConfigurationError("factor must be positive")

    def transform(config: CampaignConfig) -> CampaignConfig:
        public = dataclasses.replace(
            config.deployment.public,
            n_aps=max(1, round(config.deployment.public.n_aps * factor)),
        )
        deployment = dataclasses.replace(config.deployment, public=public)
        # The scan model normalizes by deployed-universe size; keep the
        # per-device detection rate proportional to the new universe.
        params = dataclasses.replace(
            config.params, scan_scale=config.params.scan_scale * factor
        )
        return dataclasses.replace(config, deployment=deployment, params=params)

    return transform


def enroll_everyone() -> ConfigTransform:
    """SIM-auth for all: every user holds public-WiFi credentials (§4.2)."""

    def transform(config: CampaignConfig) -> CampaignConfig:
        recruitment = dataclasses.replace(
            config.recruitment, public_enrolled_share=1.0
        )
        return dataclasses.replace(config, recruitment=recruitment)

    return transform


def give_everyone_home_wifi() -> ConfigTransform:
    """Free home routers for all customers (§1's provider strategy)."""

    def transform(config: CampaignConfig) -> CampaignConfig:
        recruitment = dataclasses.replace(config.recruitment, home_ap_share=1.0)
        return dataclasses.replace(config, recruitment=recruitment)

    return transform


# ----------------------------------------------------------------------
# Comparison harness
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioMetrics:
    """Headline offloading metrics of one simulated campaign."""

    wifi_share: float
    median_wifi_mb: float
    median_cell_mb: float
    cellular_intensive: float
    public_volume_share: float
    offloadable_fraction: float

    @classmethod
    def measure(cls, data: "analysis.DatasetOrContext") -> "ScenarioMetrics":
        import numpy as np

        ctx = analysis.AnalysisContext.of(data)
        agg = analysis.aggregate_traffic(ctx)
        heat = analysis.wifi_cell_heatmap(ctx)
        location = analysis.location_traffic(ctx)
        rx_all = ctx.daily_matrix("all", "rx").ravel()
        valid = rx_all >= 0.1e6
        wifi = ctx.daily_matrix("wifi", "rx").ravel()[valid]
        cell = ctx.daily_matrix("cell", "rx").ravel()[valid]
        try:
            offloadable = analysis.offload_estimate(ctx).offloadable_fraction
        except AnalysisError:
            offloadable = float("nan")
        return cls(
            wifi_share=agg.wifi_share,
            median_wifi_mb=float(np.median(wifi)) / 1e6,
            median_cell_mb=float(np.median(cell)) / 1e6,
            cellular_intensive=heat.cellular_intensive_fraction,
            public_volume_share=location.volume_share["public"],
            offloadable_fraction=offloadable,
        )


@dataclass(frozen=True)
class WhatIfResult:
    """Baseline vs scenario metrics."""

    year: int
    scenario_name: str
    baseline: ScenarioMetrics
    scenario: ScenarioMetrics

    def delta(self, metric: str) -> float:
        return getattr(self.scenario, metric) - getattr(self.baseline, metric)

    def render(self) -> str:
        table = Table(
            f"What-if ({self.year}): {self.scenario_name}",
            ["metric", "baseline", "scenario", "delta"],
        )
        for metric in (
            "wifi_share", "median_wifi_mb", "median_cell_mb",
            "cellular_intensive", "public_volume_share", "offloadable_fraction",
        ):
            base = getattr(self.baseline, metric)
            new = getattr(self.scenario, metric)
            table.add_row(metric, base, new, new - base)
        return table.render()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()


def compare(
    year: int,
    scenario: Scenario,
    scale: float = 0.1,
    seed: int = 7,
    baseline_config: Optional[CampaignConfig] = None,
) -> WhatIfResult:
    """Run baseline and scenario campaigns and compare headline metrics."""
    base_config = baseline_config or default_campaign_config(year, scale, seed)
    scenario_config = scenario.transform(base_config)
    if scenario_config.year != base_config.year:
        raise ConfigurationError("scenario must not change the campaign year")

    baseline_ds = clean_for_main_analysis(run_campaign(base_config).dataset)
    scenario_ds = clean_for_main_analysis(run_campaign(scenario_config).dataset)
    return WhatIfResult(
        year=year,
        scenario_name=scenario.name,
        baseline=ScenarioMetrics.measure(baseline_ds),
        scenario=ScenarioMetrics.measure(scenario_ds),
    )
