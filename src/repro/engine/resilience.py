"""Self-healing campaign execution: resume, retries, loss accounting.

This module is the engine-level analogue of the collection layer's
``FaultPlan`` philosophy: instead of one blanket "anything failed → run it
all serially" fallback, every failure mode gets an explicit state and an
explicit recovery path:

- :class:`ShardFailure` / :class:`ShardAttemptLog` — structured,
  classified records of every failed attempt (``crash`` vs ``timeout`` vs
  ``broken-pool`` vs ``submit``), surfaced through the run manifest's
  ``engine.*`` counters and ``shard_attempts`` instead of a silently
  incremented fallback counter.
- :class:`RetryPolicy` — bounded in-pool retries with exponential backoff
  and *deterministic seeded jitter*, plus a deadline-based per-shard
  timeout measured from the moment a shard actually starts (never from its
  position in the submission queue).
- :class:`ResilienceConfig` ``resume`` — reuse the verified spill
  partitions of a killed ``--store disk`` run, bit-identical to an
  uninterrupted run; partitions of another config, seed or shard layout
  are refused (:meth:`~repro.traces.store.CampaignStore.bind`).
- :class:`ExecutionLosses` — explicit accounting when ``--partial-results``
  drops shards that exhausted every retry, mirroring the collection
  layer's completeness reporting.

Determinism note: nothing here touches RNG streams. Retries re-run the
same pure ``simulate_shard`` work unit, spill partitions byte-preserve
its output, and jitter draws come from a dedicated hash, so the engine's
``n_jobs=1 == n_jobs=k`` bit-identity guarantee survives every recovery
path (pinned by ``tests/test_resilience.py``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "FAILURE_CRASH",
    "FAILURE_TIMEOUT",
    "FAILURE_BROKEN_POOL",
    "FAILURE_SUBMIT",
    "ShardFailure",
    "ShardAttemptLog",
    "RetryPolicy",
    "ExecutionLosses",
    "ResilienceConfig",
    "ResilienceReport",
    "classify_exception",
    "config_key",
]

#: Failure kinds an attempt can be classified as.
FAILURE_CRASH = "crash"          # the work function raised in a worker
FAILURE_TIMEOUT = "timeout"      # the shard blew its start-based deadline
FAILURE_BROKEN_POOL = "broken-pool"  # the process pool itself died
FAILURE_SUBMIT = "submit"        # the pool could not be built or fed


def classify_exception(exc: BaseException) -> str:
    """Map an executor-observed exception to a failure kind."""
    from concurrent.futures import BrokenExecutor, CancelledError, TimeoutError

    if isinstance(exc, BrokenExecutor):
        return FAILURE_BROKEN_POOL
    if isinstance(exc, CancelledError):
        # Futures are only cancelled when their pool is being torn down.
        return FAILURE_BROKEN_POOL
    if isinstance(exc, TimeoutError):
        return FAILURE_TIMEOUT
    return FAILURE_CRASH


def describe_exception(exc: BaseException) -> str:
    """``"TypeName: message"`` for failure records (picklable, bounded)."""
    text = str(exc)
    if len(text) > 200:
        text = text[:197] + "..."
    return f"{type(exc).__name__}: {text}" if text else type(exc).__name__


@dataclass(frozen=True)
class ShardFailure:
    """One classified failed attempt of one work unit."""

    unit_index: int
    #: 1-based attempt number this failure ended.
    attempt: int
    kind: str
    error: str
    elapsed_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "unit": self.unit_index, "attempt": self.attempt,
            "kind": self.kind, "error": self.error,
            "elapsed_s": round(self.elapsed_s, 3),
        }


#: Outcomes a unit's attempt log can end in.
OUTCOME_OK = "ok"             # first pool (or inline) attempt succeeded
OUTCOME_RETRIED = "retried"   # an in-pool retry succeeded
OUTCOME_FALLBACK = "fallback"  # serial re-run in the parent succeeded
OUTCOME_DROPPED = "dropped"   # exhausted every recovery; partial mode
OUTCOME_FAILED = "failed"     # exhausted every recovery; strict mode


@dataclass
class ShardAttemptLog:
    """Per-unit attempt/outcome history for one executor run."""

    unit_index: int
    #: Pool/inline attempts charged against the retry budget.
    attempts: int = 0
    outcome: str = "pending"
    failures: List[ShardFailure] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "unit": self.unit_index, "attempts": self.attempts,
            "outcome": self.outcome,
            "failures": [f.to_dict() for f in self.failures],
        }


def _unit_draw(seed: int, *key: object) -> float:
    """Deterministic uniform draw in ``[0, 1)`` from a hash of ``key``."""
    digest = hashlib.sha256(repr((seed,) + key).encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded in-pool retries with deterministic backoff.

    ``max_attempts`` counts pool executions of a unit (1 disables retry;
    the legacy serial fallback in the parent is *not* an attempt — it is
    the last resort after the budget is spent). Backoff for attempt ``k``
    is ``base * factor**(k-1)`` capped at ``backoff_max_s``, then jittered
    by up to ``±jitter_frac`` using a seeded hash of the unit — the same
    run always sleeps the same amounts, so chaos tests are reproducible.

    ``shard_timeout_s`` is a *deadline measured from the moment the shard
    is observed running*: a shard queued behind slow siblings is never
    charged for its time in the queue, and a run's total stall from hung
    workers is bounded by the deadline itself rather than by
    ``n_shards × timeout`` sequential waits.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 5.0
    jitter_frac: float = 0.25
    seed: int = 0
    shard_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1: {self.max_attempts}"
            )
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ConfigurationError("backoff seconds must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1: {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter_frac < 1.0:
            raise ConfigurationError(
                f"jitter_frac must be in [0, 1): {self.jitter_frac}"
            )
        if self.shard_timeout_s is not None and self.shard_timeout_s <= 0:
            raise ConfigurationError(
                f"shard_timeout_s must be positive: {self.shard_timeout_s}"
            )

    def backoff_s(self, unit_key: object, attempt: int) -> float:
        """Deterministic sleep before retrying ``unit_key``'s ``attempt``."""
        raw = min(
            self.backoff_max_s,
            self.backoff_base_s * self.backoff_factor ** max(0, attempt - 1),
        )
        if raw <= 0.0 or self.jitter_frac == 0.0:
            return raw
        draw = _unit_draw(self.seed, "backoff", unit_key, attempt)
        return raw * (1.0 + self.jitter_frac * (2.0 * draw - 1.0))


def config_key(config: object) -> str:
    """Stable short hash of one campaign config (canonical repr)."""
    return hashlib.sha256(repr(config).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Loss accounting and run-level configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExecutionLosses:
    """Explicit accounting of shards dropped under ``--partial-results``."""

    year: int
    n_shards: int
    dropped_shards: Tuple[int, ...]
    n_devices: int
    dropped_devices: int

    @property
    def shard_completeness(self) -> float:
        if self.n_shards == 0:
            return 1.0
        return 1.0 - len(self.dropped_shards) / self.n_shards

    @property
    def device_completeness(self) -> float:
        if self.n_devices == 0:
            return 1.0
        return 1.0 - self.dropped_devices / self.n_devices

    def describe(self) -> str:
        return (
            f"campaign {self.year}: dropped "
            f"{len(self.dropped_shards)}/{self.n_shards} shards "
            f"({self.dropped_devices}/{self.n_devices} devices; "
            f"device completeness {self.device_completeness:.1%})"
        )

    def to_dict(self) -> dict:
        return {
            "year": self.year, "n_shards": self.n_shards,
            "dropped_shards": list(self.dropped_shards),
            "n_devices": self.n_devices,
            "dropped_devices": self.dropped_devices,
            "device_completeness": round(self.device_completeness, 6),
        }


@dataclass
class ResilienceConfig:
    """How a campaign (or study) should self-heal.

    ``resume`` reuses the verified partitions of every campaign store, so
    it needs a store for each campaign (``--store disk``). ``chaos``
    optionally carries a
    :class:`~repro.engine.chaos.ChaosPlan`; it is typed loosely so this
    module stays importable below the chaos harness.
    """

    resume: bool = False
    policy: Optional[RetryPolicy] = None
    partial: bool = False
    chaos: Optional[object] = None


@dataclass
class ResilienceReport:
    """Aggregated self-healing accounting for one run.

    Rides on :class:`~repro.simulation.campaign.CampaignResult` /
    :class:`~repro.simulation.study.Study` and lands in the run manifest
    (``shard_attempts`` and the ``engine.*``/``checkpoint.*`` counters of
    :func:`~repro.obs.manifest.run_summary`).
    """

    #: Per-shard attempt history: ``{"year", "shard", "attempts",
    #: "outcome", "failures": [...]}`` in canonical unit order.
    shard_attempts: List[dict] = field(default_factory=list)
    retries: int = 0
    fallbacks: int = 0
    dropped_shards: int = 0
    failures_by_kind: Dict[str, int] = field(default_factory=dict)
    #: Spill partitions written, reused on resume and rejected on resume
    #: (damaged, so deleted and simulated again).
    checkpoint_saved: int = 0
    checkpoint_hits: int = 0
    checkpoint_corrupt: int = 0

    @property
    def n_failures(self) -> int:
        return sum(self.failures_by_kind.values())

    def describe(self) -> str:
        parts = [f"{self.retries} retried", f"{self.fallbacks} fell back"]
        if self.dropped_shards:
            parts.append(f"{self.dropped_shards} dropped")
        if self.checkpoint_hits or self.checkpoint_saved:
            parts.append(
                f"checkpoints: {self.checkpoint_hits} reused, "
                f"{self.checkpoint_saved} saved"
                + (f", {self.checkpoint_corrupt} corrupt"
                   if self.checkpoint_corrupt else "")
            )
        kinds = ", ".join(
            f"{kind}={n}" for kind, n in sorted(self.failures_by_kind.items())
        )
        if kinds:
            parts.append(f"failures: {kinds}")
        return "resilience: " + "; ".join(parts)
