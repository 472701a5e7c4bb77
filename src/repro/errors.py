"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError` so callers can
catch one base class at the API boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A configuration object is inconsistent or out of range."""


class SchemaError(ReproError):
    """A trace record or dataset violates the measurement schema."""


class DatasetError(ReproError):
    """A dataset operation failed (missing table, bad index, empty data)."""


class AnalysisError(ReproError):
    """An analysis was invoked on data that cannot support it."""


class CollectionError(ReproError):
    """The measurement-collection substrate hit an unrecoverable error."""


class EngineError(ReproError):
    """The sharded execution engine produced an invalid or incomplete run.

    Raised when shard outputs cannot be merged (missing/duplicate shards,
    device coverage mismatch) — an engine invariant violation, never a
    recoverable worker failure (those fall back to serial execution).
    """
