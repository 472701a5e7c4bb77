"""Measurement-collection substrate: agent, uploader, central server (§2),
plus the fault-injected campaign pipeline that routes simulated devices
through all three."""

from repro.collection.agent import ColumnarRecords, MeasurementAgent
from repro.collection.uploader import (
    Uploader,
    UploadBatch,
    FlakyTransport,
    Transport,
    drain_all,
)
from repro.collection.server import CollectionServer
from repro.collection.faults import (
    FaultPlan,
    OutageWindow,
    FaultedTransport,
    DeviceCollectionStats,
    CollectionReport,
)
from repro.collection.pipeline import CollectionPump

__all__ = [
    "MeasurementAgent",
    "ColumnarRecords",
    "Uploader",
    "UploadBatch",
    "FlakyTransport",
    "Transport",
    "drain_all",
    "CollectionServer",
    "FaultPlan",
    "OutageWindow",
    "FaultedTransport",
    "DeviceCollectionStats",
    "CollectionReport",
    "CollectionPump",
]
