"""Sharded campaign execution engine.

Campaign execution is split into three orthogonal pieces:

- :mod:`repro.engine.planner` — deterministic partition of the device panel
  into one contiguous shard per worker (shard membership can never change
  results, because every device keeps its own ``(seed, year, user_id)``
  RNG stream);
- :mod:`repro.engine.executor` — pluggable execution of shard work units,
  serially or as an ordered process-pool map with deadlines, retries and
  serial fallback;
- :mod:`repro.engine.transport` — zero-copy shard-result transport over
  POSIX shared memory, with run-scoped segment names and an orphan
  janitor so failures never leak ``/dev/shm`` segments;
- :mod:`repro.engine.merge` — canonical-order reassembly of shard-local
  dataset chunks and collection accounting;
- :mod:`repro.engine.resilience` — self-healing execution: shard
  checkpoint/resume, bounded retries with deterministic backoff,
  deadline-based timeouts, and explicit partial-results loss accounting;
- :mod:`repro.engine.chaos` — deterministic fault injection (worker
  crashes, hangs, parent-side kills, checkpoint corruption) used to prove
  the recovery paths preserve results.

The hard guarantee: for any valid configuration (including nonzero
``FaultPlan``\\ s), ``n_jobs=1`` and ``n_jobs=k`` produce bit-for-bit
identical ``CampaignDataset``\\ s and equal ``CollectionReport``\\ s — and
so do interrupted-then-resumed runs versus uninterrupted ones.
"""

from repro.engine.chaos import (
    ChaosCrash,
    ChaosKill,
    ChaosMonkey,
    ChaosPlan,
    corrupt_checkpoints,
)
from repro.engine.executor import (
    JOBS_ENV_VAR,
    ExecutionInfo,
    Executor,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
    resolve_jobs,
    shutdown_warm_pools,
)
from repro.engine.merge import (
    ShardOutput,
    merge_reports,
    missing_shards,
    ordered_outputs,
)
from repro.engine.planner import Shard, ShardPlan, plan_units
from repro.engine.transport import (
    ShardPayload,
    run_token,
    segment_names,
    sweep_orphans,
)
from repro.engine.resilience import (
    CheckpointStore,
    ExecutionLosses,
    ResilienceConfig,
    ResilienceReport,
    RetryPolicy,
    ShardAttemptLog,
    ShardFailure,
    config_key,
)

__all__ = [
    "JOBS_ENV_VAR",
    "ExecutionInfo",
    "Executor",
    "ParallelExecutor",
    "SerialExecutor",
    "make_executor",
    "resolve_jobs",
    "shutdown_warm_pools",
    "ShardOutput",
    "merge_reports",
    "missing_shards",
    "ordered_outputs",
    "Shard",
    "ShardPlan",
    "plan_units",
    "ShardPayload",
    "run_token",
    "segment_names",
    "sweep_orphans",
    "CheckpointStore",
    "ExecutionLosses",
    "ResilienceConfig",
    "ResilienceReport",
    "RetryPolicy",
    "ShardAttemptLog",
    "ShardFailure",
    "config_key",
    "ChaosCrash",
    "ChaosKill",
    "ChaosMonkey",
    "ChaosPlan",
    "corrupt_checkpoints",
]
