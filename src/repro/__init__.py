"""repro — reproduction of "Tracking the Evolution and Diversity in Network
Usage of Smartphones" (Fukuda, Asai, Nagami; ACM IMC 2015).

The public API has three layers:

1. **Simulation** — :func:`run_study` / :class:`Study` generate the three
   synthetic measurement campaigns (the proprietary panel substitute).
2. **Analysis** — :mod:`repro.analysis` implements every §3/§4 analysis over
   a :class:`CampaignDataset`.
3. **Reporting** — :data:`EXPERIMENTS` regenerates each paper table/figure.

Quickstart::

    from repro import run_study, AnalysisContext, run_experiment
    study = run_study(scale=0.1)
    context = AnalysisContext(study)
    print(run_experiment("table3", context))
"""

from repro.errors import (
    ReproError,
    ConfigurationError,
    SchemaError,
    DatasetError,
    AnalysisError,
    CollectionError,
    EngineError,
)
from repro.engine import (
    ExecutionInfo,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
    resolve_jobs,
)
from repro.simulation.study import (
    Study,
    StudyConfig,
    run_study,
    default_campaign_config,
)
from repro.simulation.campaign import CampaignConfig, CampaignResult, run_campaign
from repro.collection.faults import (
    CollectionReport,
    DeviceCollectionStats,
    FaultPlan,
    OutageWindow,
)
from repro.traces.dataset import CampaignDataset, DatasetBuilder
from repro.traces.store import save_dataset, load_dataset
from repro.traces.cleaning import clean_for_main_analysis
from repro.traces.validate import validate_dataset
from repro.whatif import Scenario, WhatIfResult, compare as whatif_compare
from repro.analysis.context import AnalysisContext, CacheStats
from repro.obs import (
    EventKind,
    FlightRecorder,
    RunManifest,
    Span,
    get_recorder,
    set_recorder,
    use_recorder,
)
from repro.reporting.experiments import (
    EXPERIMENTS,
    Experiment,
    list_experiments,
    run_experiment,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "ConfigurationError",
    "SchemaError",
    "DatasetError",
    "AnalysisError",
    "CollectionError",
    "EngineError",
    "ExecutionInfo",
    "ParallelExecutor",
    "SerialExecutor",
    "make_executor",
    "resolve_jobs",
    "Study",
    "StudyConfig",
    "run_study",
    "default_campaign_config",
    "CampaignConfig",
    "CampaignResult",
    "run_campaign",
    "CollectionReport",
    "DeviceCollectionStats",
    "FaultPlan",
    "OutageWindow",
    "CampaignDataset",
    "DatasetBuilder",
    "save_dataset",
    "load_dataset",
    "clean_for_main_analysis",
    "validate_dataset",
    "AnalysisContext",
    "CacheStats",
    "EventKind",
    "FlightRecorder",
    "RunManifest",
    "Span",
    "get_recorder",
    "set_recorder",
    "use_recorder",
    "EXPERIMENTS",
    "Experiment",
    "list_experiments",
    "run_experiment",
    "Scenario",
    "WhatIfResult",
    "whatif_compare",
    "__version__",
]
