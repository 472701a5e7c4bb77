"""The three-campaign longitudinal study (2013, 2014, 2015).

``default_campaign_config(year, scale)`` produces calibrated configurations
matching Table 1's panels and windows; :class:`Study` runs all three
campaigns (plus the post-campaign surveys) and is what most analyses and
benchmarks consume. ``scale`` shrinks the panel and AP universe for fast
runs while keeping per-user behaviour identical — scan rates are
automatically compensated so per-device observations stay at full-scale
magnitudes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.collection.faults import FaultPlan
from repro.engine.executor import ExecutionInfo, Executor, resolve_jobs
from repro.errors import ConfigurationError
from repro.network_env.deployment import DeploymentConfig
from repro.obs.recorder import get_recorder
from repro.network_env.home_wifi import HomeWifiConfig
from repro.network_env.public_wifi import PublicWifiConfig
from repro.population.recruitment import RecruitmentConfig
from repro.population.survey import SurveyResponse, run_survey
from repro.engine.resilience import ResilienceConfig, ResilienceReport
from repro.simulation.campaign import (
    CampaignConfig,
    CampaignResult,
    plan_campaign,
    run_plans,
)
from repro.simulation.params import default_params
from repro.traces.store import CampaignStore

YEARS = (2013, 2014, 2015)

#: Table 1: campaign windows and panel sizes.
_PANEL = {
    2013: {"start": date(2013, 3, 7), "n_days": 16, "android": 948, "ios": 807,
           "lte": 0.30},
    2014: {"start": date(2014, 2, 28), "n_days": 23, "android": 887, "ios": 789,
           "lte": 0.70},
    2015: {"start": date(2015, 2, 25), "n_days": 29, "android": 835, "ios": 781,
           "lte": 0.80},
}

#: Users with an inferred home AP: 66% / 73% / 79% (§3.4.1).
_HOME_AP_SHARE = {2013: 0.72, 2014: 0.77, 2015: 0.82}

#: Deployed public universe per year (associated subset matches Table 4).
_PUBLIC_UNIVERSE = {2013: 9000, 2014: 15000, 2015: 19000}

#: 5 GHz fractions by year (Figure 14 targets).
_PUBLIC_5GHZ = {2013: 0.22, 2014: 0.40, 2015: 0.55}
_HOME_5GHZ = {2013: 0.08, 2014: 0.12, 2015: 0.17}
_OFFICE_5GHZ = {2013: 0.08, 2014: 0.12, 2015: 0.16}

#: Home routers still on the default channel 1 (Figure 16).
_HOME_DEFAULT_CH = {2013: 0.38, 2014: 0.25, 2015: 0.15}

#: Public-WiFi enrollment (SIM auth rollout, §4.2).
_PUBLIC_ENROLLED = {2013: 0.38, 2014: 0.50, 2015: 0.60}

#: Unconstrained daily demand medians (MB); calibrated to Table 3.
_APPETITE_MB = {2013: 31.0, 2014: 40.0, 2015: 42.0}


def default_campaign_config(
    year: int,
    scale: float = 1.0,
    seed: int = 7,
    faults: Optional[FaultPlan] = None,
) -> CampaignConfig:
    """Calibrated campaign configuration for ``year`` at panel ``scale``."""
    if year not in _PANEL:
        raise ConfigurationError(f"unknown campaign year {year}")
    if not 0.0 < scale <= 1.0:
        raise ConfigurationError(f"scale must be in (0, 1]: {scale}")
    panel = _PANEL[year]
    recruitment = RecruitmentConfig(
        year=year,
        n_android=max(2, round(panel["android"] * scale)),
        n_ios=max(2, round(panel["ios"] * scale)),
        lte_share=panel["lte"],
        home_ap_share=_HOME_AP_SHARE[year],
        public_enrolled_share=_PUBLIC_ENROLLED[year],
    )
    deployment = DeploymentConfig(
        year=year,
        home=HomeWifiConfig(
            year=year,
            fraction_5ghz=_HOME_5GHZ[year],
            default_channel_share=_HOME_DEFAULT_CH[year],
        ),
        public=PublicWifiConfig(
            year=year,
            n_aps=max(50, round(_PUBLIC_UNIVERSE[year] * scale)),
            fraction_5ghz=_PUBLIC_5GHZ[year],
        ),
        office_fraction_5ghz=_OFFICE_5GHZ[year],
        open_ap_count=max(20, round(400 * scale)),
    )
    params = default_params(year)
    # Smaller deployed universes need proportionally larger scan scaling so
    # per-device scan counts stay at full-scale magnitudes.
    params = dataclasses.replace(params, scan_scale=params.scan_scale / scale)
    return CampaignConfig(
        year=year,
        start=panel["start"],
        n_days=panel["n_days"],
        recruitment=recruitment,
        deployment=deployment,
        params=params,
        appetite_median_mb=_APPETITE_MB[year],
        seed=seed + year,
        faults=faults,
    )


@dataclass
class StudyConfig:
    """Configuration of the full longitudinal study."""

    scale: float = 0.25
    seed: int = 7
    years: tuple = YEARS
    #: Fault plan applied to every campaign's collection pipeline
    #: (None = lossless zero-fault plan).
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.scale <= 1.0:
            raise ConfigurationError(f"scale must be in (0, 1]: {self.scale}")
        unknown = [y for y in self.years if y not in YEARS]
        if unknown:
            raise ConfigurationError(f"unknown study years: {unknown}")


@dataclass
class Study:
    """Runs and holds the three campaigns plus the surveys."""

    config: StudyConfig = field(default_factory=StudyConfig)
    campaigns: Dict[int, CampaignResult] = field(default_factory=dict)
    surveys: Dict[int, List[SurveyResponse]] = field(default_factory=dict)
    #: How the most recent :meth:`run` executed (None before running).
    execution: Optional[ExecutionInfo] = None
    #: Retry/checkpoint accounting for the most recent :meth:`run` (None
    #: when no resilience was configured and nothing went wrong).
    resilience: Optional[ResilienceReport] = None

    def run(
        self,
        n_jobs: Optional[int] = None,
        executor: Optional[Executor] = None,
        resilience: Optional[ResilienceConfig] = None,
        store_dir: Optional[Union[str, Path]] = None,
    ) -> "Study":
        """Simulate every configured campaign year.

        All years' shard work units fan out across one shared executor
        (``n_jobs=None`` consults ``$REPRO_JOBS``, defaulting to serial;
        ``<= 0`` means one worker per CPU), so a process pool is paid for
        once and stays saturated across year boundaries. Results are merged
        per year in canonical shard order — worker count never changes
        results. A caller-supplied ``executor`` is reused and not closed.

        ``resilience`` turns on checkpoint/resume, bounded retries,
        partial results, and chaos injection (see
        :class:`~repro.engine.resilience.ResilienceConfig`); the retry
        policy and partial flag are threaded into executors built here.

        ``store_dir`` makes the run out-of-core: each year's shards spill
        to partitions under ``store_dir/campaign<year>/`` as they are
        accepted, the merge streams them into finalized column files, and
        every result dataset reads its store memory-mapped — the parent
        process never holds a whole campaign's rows. Bit-identical to the
        in-memory path at any ``n_jobs``.
        """
        recorder = get_recorder()
        with recorder.span("study.run", scale=self.config.scale,
                         seed=self.config.seed,
                         years=list(self.config.years)):
            n_jobs = resolve_jobs(n_jobs)
            plans = [
                plan_campaign(
                    default_campaign_config(
                        year, scale=self.config.scale, seed=self.config.seed,
                        faults=self.config.faults,
                    ),
                    n_jobs,
                )
                for year in self.config.years
            ]
            stores = None
            if store_dir is not None:
                stores = [
                    CampaignStore(
                        Path(store_dir) / f"campaign{plan.config.year}",
                        plan.config.year, plan.config.axis,
                    )
                    for plan in plans
                ]
            results, self.resilience, self.execution = run_plans(
                plans, n_jobs, executor=executor, resilience=resilience,
                stores=stores,
            )
            for year, result in zip(self.config.years, results):
                self.campaigns[year] = result
                with recorder.span("survey", year=year):
                    survey_rng = np.random.default_rng(
                        (self.config.seed, year, 99)
                    )
                    self.surveys[year] = run_survey(
                        result.profiles, year, survey_rng
                    )
        return self

    def dataset(self, year: int):
        """The built dataset for ``year`` (must have been run)."""
        try:
            return self.campaigns[year].dataset
        except KeyError:
            raise ConfigurationError(
                f"campaign {year} has not been run; call Study.run() first"
            ) from None

    @property
    def years(self) -> tuple:
        return tuple(sorted(self.campaigns))


def run_study(
    scale: float = 0.25,
    seed: int = 7,
    years: Optional[tuple] = None,
    faults: Optional[FaultPlan] = None,
    n_jobs: Optional[int] = None,
    executor: Optional[Executor] = None,
    resilience: Optional[ResilienceConfig] = None,
    store_dir: Optional[Union[str, Path]] = None,
) -> Study:
    """Convenience: run the full study at ``scale`` and return it."""
    config = StudyConfig(
        scale=scale, seed=seed, years=years or YEARS, faults=faults,
    )
    return Study(config).run(
        n_jobs=n_jobs, executor=executor, resilience=resilience,
        store_dir=store_dir,
    )
