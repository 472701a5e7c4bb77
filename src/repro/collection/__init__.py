"""Measurement-collection substrate (§2): the upload replay with on-device
caching and fault injection, the central server, and the campaign pump that
routes simulated devices through both."""

from repro.collection.uploader import replay_uploads
from repro.collection.server import CollectionServer
from repro.collection.faults import (
    CollectionReport, DeviceCollectionStats, FaultPlan, OutageWindow,
)
from repro.collection.pipeline import CollectionPump

__all__ = [
    "replay_uploads",
    "CollectionServer",
    "FaultPlan",
    "OutageWindow",
    "DeviceCollectionStats",
    "CollectionReport",
    "CollectionPump",
]
