"""Trace schema, dataset container, I/O, and cleaning.

This package defines the measurement data model shared by the collection
substrate (which produces records), the simulator (which fills datasets), and
the analysis pipeline (which consumes them).
"""

from repro.traces.records import (
    IfaceKind,
    WifiStateCode,
    NetLocation,
    DeviceInfo,
    ApDirectoryEntry,
)
from repro.traces.dataset import CampaignDataset, DatasetBuilder, GroundTruth
from repro.traces.store import save_dataset, load_dataset
from repro.traces.cleaning import (
    drop_update_window,
    CleaningReport,
    clean_for_main_analysis,
)
from repro.traces.validate import validate_dataset

__all__ = [
    "IfaceKind",
    "WifiStateCode",
    "NetLocation",
    "DeviceInfo",
    "ApDirectoryEntry",
    "CampaignDataset",
    "DatasetBuilder",
    "GroundTruth",
    "save_dataset",
    "load_dataset",
    "drop_update_window",
    "CleaningReport",
    "clean_for_main_analysis",
    "validate_dataset",
]
