"""Pluggable shard executors.

An executor runs a picklable work function over a list of work units and
returns the results **in unit order** — determinism lives in the planner and
the merge layer, so the executor is free to schedule however it likes.

Two implementations:

- :class:`SerialExecutor` runs units inline in the calling process.
- :class:`ParallelExecutor` fans units out over a
  :class:`concurrent.futures.ProcessPoolExecutor` with a work-stealing
  scheduler and a warm-pool cache.

**Warm pools.** Spinning up a process pool costs fork + interpreter
warm-up per worker, and a cold worker rebuilds its world cache on the
first shard it touches. ``ParallelExecutor`` therefore draws its pool
from a module-level cache keyed by worker count: :meth:`close` parks a
healthy pool for the next executor (the next campaign, the next study,
the next bench repetition) instead of tearing it down. Workers survive
across runs, and with them the per-process world cache — keyed by config
repr, so reuse is exact, never approximate. Pools that saw a hung or
crashed worker are genuinely discarded and never parked. Call
:func:`shutdown_warm_pools` (or let the ``atexit`` hook) to reap them.

**Work stealing.** Units start on per-worker-slot deques under the same
static contiguous assignment the planner used to bake in, but any slot
that drains its own deque steals the hindmost unit from the richest
sibling. Uneven units — a fat shard, a retried straggler — no longer
serialize the tail; the steal count is surfaced as :attr:`steals` and
lands in run manifests and metrics. Scheduling never affects results:
unit → RNG stream binding is fixed by the planner, results are keyed by
unit index, and the merge layer reassembles canonical order.

Both executors classify every failed attempt into a structured
:class:`~repro.engine.resilience.ShardFailure` (``crash`` vs ``timeout``
vs ``broken-pool`` vs ``submit``) and keep a per-unit
:class:`~repro.engine.resilience.ShardAttemptLog` in :attr:`history`. With
a :class:`~repro.engine.resilience.RetryPolicy`, transient failures retry
(in-pool for the parallel executor) with deterministic backoff before the
last-resort serial fallback in the parent; with ``allow_partial``, units
that exhaust every recovery are **dropped** (their result is ``None``) and
counted instead of aborting the run.

Shard timeouts are *deadlines measured from the observed start of each
shard*, never from its position in the submission queue: a fast shard
queued behind a hung sibling is not charged for the wait, and total stall
time is bounded by the deadline itself rather than by ``n_shards ×
timeout`` sequential waits. When a deadline fires, the (unkillable) hung
worker's pool is discarded and every in-flight sibling restarts on a fresh
pool without being charged an attempt.

``resolve_jobs`` turns a requested worker count into an effective one,
honouring the ``REPRO_JOBS`` environment variable so whole test suites can
be routed through the parallel path without touching call sites.
"""

from __future__ import annotations

import atexit
import dataclasses
import os
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, TypeVar

from repro.engine.resilience import (
    FAILURE_SUBMIT,
    FAILURE_TIMEOUT,
    OUTCOME_DROPPED,
    OUTCOME_FAILED,
    OUTCOME_FALLBACK,
    OUTCOME_OK,
    OUTCOME_RETRIED,
    RetryPolicy,
    ShardAttemptLog,
    ShardFailure,
    classify_exception,
    describe_exception,
)
from repro.errors import ConfigurationError
from repro.obs.recorder import EventKind, get_recorder

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable consulted when no explicit worker count is given.
JOBS_ENV_VAR = "REPRO_JOBS"

#: Drain-loop poll granularity when a deadline or backoff is being watched.
_POLL_S = 0.05

#: Callback invoked as each unit completes: ``on_result(unit_index, result)``.
ResultCallback = Callable[[int, R], None]


@dataclass(frozen=True)
class ExecutionInfo:
    """How a campaign (or study) was executed, for run summaries."""

    executor: str
    n_jobs: int
    n_shards: int
    #: Work units an idle slot took from a sibling's deque.
    steals: int = 0
    #: Bytes of shard output moved through shared-memory segments.
    transport_bytes: int = 0

    def describe(self) -> str:
        jobs = "job" if self.n_jobs == 1 else "jobs"
        shards = "shard" if self.n_shards == 1 else "shards"
        return (f"{self.executor} ({self.n_jobs} {jobs}, "
                f"{self.n_shards} {shards})")


def resolve_jobs(n_jobs: Optional[int] = None, default: int = 1) -> int:
    """Resolve a worker count.

    ``None`` consults ``$REPRO_JOBS`` and falls back to ``default``; any
    value ``<= 0`` (requested, from the environment, or as the default)
    means "auto": one worker per CPU.
    """
    if n_jobs is None:
        raw = os.environ.get(JOBS_ENV_VAR, "").strip()
        if raw:
            try:
                n_jobs = int(raw)
            except ValueError:
                raise ConfigurationError(
                    f"${JOBS_ENV_VAR} must be an integer: {raw!r}"
                ) from None
        else:
            n_jobs = default
    if n_jobs <= 0:
        n_jobs = os.cpu_count() or 1
    return n_jobs


def make_executor(
    n_jobs: int,
    shard_timeout_s: Optional[float] = None,
    policy: Optional[RetryPolicy] = None,
    allow_partial: bool = False,
) -> "Executor":
    """The executor for ``n_jobs`` workers (1 disables the pool)."""
    if n_jobs <= 1:
        return SerialExecutor(policy=policy, allow_partial=allow_partial)
    return ParallelExecutor(
        n_jobs, shard_timeout_s=shard_timeout_s, policy=policy,
        allow_partial=allow_partial,
    )


# ---------------------------------------------------------------------------
# Warm pool cache
# ---------------------------------------------------------------------------

#: Parked healthy pools by (worker count, events file), oldest first.
#: Workers fork under the recorder installed at the time and keep it, so
#: a pool is reused only by a run that records to the same events file.
_WARM_POOLS: Dict[tuple, List[ProcessPoolExecutor]] = {}
#: Keep at most this many idle pools parked across all worker counts.
_WARM_POOL_CAP = 4
_POOL_STATS = {"created": 0, "reused": 0, "discarded": 0}
_OWNER_PID = os.getpid()


def _exit_with_parent(parent: int) -> None:
    """Pool initializer: end this worker once ``parent`` is gone.

    A SIGKILLed parent runs no cleanup, so nothing else would ever stop
    its idle workers; a daemon thread polls for the reparenting instead.
    """
    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, name="repro-parent-watch",
                     daemon=True).start()


def _acquire_pool(n_jobs: int) -> ProcessPoolExecutor:
    """A warm pool for ``n_jobs`` workers, or a fresh one."""
    parked = _WARM_POOLS.get((n_jobs, get_recorder().path))
    if parked:
        _POOL_STATS["reused"] += 1
        return parked.pop()
    _POOL_STATS["created"] += 1
    return ProcessPoolExecutor(max_workers=n_jobs,
                               initializer=_exit_with_parent,
                               initargs=(os.getpid(),))


def _park_pool(n_jobs: int, pool: ProcessPoolExecutor) -> None:
    """Return a healthy, drained pool to the cache for the next run."""
    _WARM_POOLS.setdefault((n_jobs, get_recorder().path), []).append(pool)
    while sum(len(v) for v in _WARM_POOLS.values()) > _WARM_POOL_CAP:
        for parked in _WARM_POOLS.values():
            if parked:
                eldest = parked.pop(0)
                eldest.shutdown(wait=False, cancel_futures=True)
                _POOL_STATS["discarded"] += 1
                break


def warm_pool_stats() -> Dict[str, int]:
    """Lifetime pool churn plus currently-parked count (for tests)."""
    stats = dict(_POOL_STATS)
    stats["parked"] = sum(len(v) for v in _WARM_POOLS.values())
    return stats


#: Process-lifetime scheduling counters, across every executor instance —
#: the resource sampler reads these (an ExecutionInfo only exists once a
#: run finishes, too late for live telemetry).
_LIFETIME = {"steals": 0, "retries": 0, "fallbacks": 0, "dropped": 0}


def lifetime_stats() -> Dict[str, int]:
    """Lifetime steal/retry/drop counters plus warm-pool churn."""
    stats = dict(_LIFETIME)
    for key, value in warm_pool_stats().items():
        stats[f"pool_{key}"] = value
    return stats


def shutdown_warm_pools(wait_for_workers: bool = True) -> int:
    """Tear down every parked pool; returns how many were shut down."""
    n = 0
    for pools in _WARM_POOLS.values():
        for pool in pools:
            pool.shutdown(wait=wait_for_workers, cancel_futures=True)
            n += 1
        pools.clear()
    return n


def _atexit_cleanup() -> None:  # pragma: no cover - interpreter teardown
    # Forked workers inherit this hook; only the owning parent may act
    # (a worker sweeping the shared run token would unlink live segments).
    if os.getpid() != _OWNER_PID:
        return
    shutdown_warm_pools()
    from repro.engine.transport import run_token, sweep_orphans

    sweep_orphans(run_token())


atexit.register(_atexit_cleanup)


class _ResilienceMixin:
    """Shared attempt accounting for both executors."""

    policy: Optional[RetryPolicy]
    allow_partial: bool

    def _init_accounting(self) -> None:
        #: Units re-run serially after a worker failure (lifetime count).
        self.fallbacks = 0
        #: In-pool retry submissions (lifetime count).
        self.retries = 0
        #: Units dropped after exhausting every recovery (partial mode).
        self.dropped = 0
        #: Units an idle slot stole from a sibling's deque (lifetime).
        self.steals = 0
        #: Every classified failed attempt, in observation order.
        self.failures: List[ShardFailure] = []
        #: Per-unit attempt logs, appended in unit order per run() call.
        self.history: List[ShardAttemptLog] = []

    @property
    def max_attempts(self) -> int:
        return self.policy.max_attempts if self.policy is not None else 1

    def _record_failure(
        self, log: ShardAttemptLog, kind: str, exc: Optional[BaseException],
        elapsed_s: float, charge_attempt: bool = True,
    ) -> ShardFailure:
        if charge_attempt:
            log.attempts += 1
        failure = ShardFailure(
            unit_index=log.unit_index, attempt=log.attempts, kind=kind,
            error=(describe_exception(exc) if exc is not None else kind),
            elapsed_s=elapsed_s,
        )
        log.failures.append(failure)
        self.failures.append(failure)
        _LIFETIME["retries"] += 1
        get_recorder().emit(
            EventKind.SHARD_RETRY, unit=log.unit_index, attempt=log.attempts,
            failure=kind, error=failure.error,
            elapsed_s=round(elapsed_s, 3),
        )
        return failure

    def _record_dropped(self, log: ShardAttemptLog) -> None:
        log.outcome = OUTCOME_DROPPED
        self.dropped += 1
        _LIFETIME["dropped"] += 1
        get_recorder().emit(EventKind.SHARD_DROPPED, unit=log.unit_index,
                            attempts=log.attempts)


class SerialExecutor(_ResilienceMixin):
    """Runs every unit inline in the calling process.

    With a :class:`RetryPolicy`, a failing unit is retried (with the same
    deterministic backoff as the pool path) before failing hard — or being
    dropped when ``allow_partial`` is set. Deadlines are not enforced
    inline: a timeout needs a second process to observe it.
    """

    name = "serial"
    n_jobs = 1

    def __init__(self, policy: Optional[RetryPolicy] = None,
                 allow_partial: bool = False) -> None:
        self.policy = policy
        self.allow_partial = allow_partial
        self._init_accounting()

    def run(
        self,
        fn: Callable[[T], R],
        units: Sequence[T],
        on_result: Optional[ResultCallback] = None,
    ) -> List[Optional[R]]:
        results: List[Optional[R]] = []
        for index, unit in enumerate(units):
            results.append(self._run_unit(fn, unit, index, on_result))
        return results

    def _run_unit(self, fn, unit, index, on_result):
        log = ShardAttemptLog(unit_index=index)
        self.history.append(log)
        while True:
            started = time.monotonic()
            try:
                result = fn(unit)
            except Exception as exc:
                self._record_failure(
                    log, classify_exception(exc), exc,
                    time.monotonic() - started,
                )
                if log.attempts < self.max_attempts:
                    self.retries += 1
                    time.sleep(self.policy.backoff_s(index, log.attempts))
                    continue
                if self.allow_partial:
                    self._record_dropped(log)
                    return None
                log.outcome = OUTCOME_FAILED
                raise
            log.attempts += 1
            log.outcome = OUTCOME_OK if log.attempts == 1 else OUTCOME_RETRIED
            if on_result is not None:
                on_result(index, result)
            return result

    def close(self) -> None:
        """Nothing to release."""


class ParallelExecutor(_ResilienceMixin):
    """Work-stealing process-pool executor with deadlines and retry.

    The pool comes from the warm cache on the first :meth:`run` and is
    parked back by :meth:`close` (use the executor as a context manager),
    so consecutive runs — a study's years, repeated campaigns — share
    workers and their per-process world caches. A pool poisoned by a hung
    or crashed worker is replaced transparently and never parked.
    """

    name = "parallel"

    def __init__(
        self,
        n_jobs: int,
        shard_timeout_s: Optional[float] = None,
        policy: Optional[RetryPolicy] = None,
        allow_partial: bool = False,
    ) -> None:
        if n_jobs < 2:
            raise ConfigurationError(
                f"ParallelExecutor needs n_jobs >= 2: {n_jobs}"
            )
        if shard_timeout_s is not None and shard_timeout_s <= 0:
            raise ConfigurationError(
                f"shard_timeout_s must be positive: {shard_timeout_s}"
            )
        self.n_jobs = n_jobs
        self.shard_timeout_s = shard_timeout_s
        self.policy = policy
        self.allow_partial = allow_partial
        self._init_accounting()
        self._pool: Optional[ProcessPoolExecutor] = None

    @property
    def _deadline_s(self) -> Optional[float]:
        if self.policy is not None and self.policy.shard_timeout_s is not None:
            return self.policy.shard_timeout_s
        return self.shard_timeout_s

    def run(
        self,
        fn: Callable[[T], R],
        units: Sequence[T],
        on_result: Optional[ResultCallback] = None,
    ) -> List[Optional[R]]:
        if not units:
            return []
        try:
            return self._run_stealing(fn, units, on_result)
        except BaseException:
            # An escaping exception (a ChaosKill from on_result, a strict-
            # mode failure) must not leave workers running: drain the pool
            # hard so no straggler packs a segment after our sweep, and
            # never park a pool in an unknown state.
            if self._pool is not None:
                self._pool.shutdown(wait=True, cancel_futures=True)
                self._pool = None
                _POOL_STATS["discarded"] += 1
            raise

    def _run_stealing(
        self,
        fn: Callable[[T], R],
        units: Sequence[T],
        on_result: Optional[ResultCallback],
    ) -> List[Optional[R]]:
        n = len(units)
        results: List[Optional[R]] = [None] * n
        logs = [ShardAttemptLog(unit_index=i) for i in range(n)]
        self.history.extend(logs)
        exhausted: List[int] = []  # units needing the serial last resort

        # Static contiguous initial assignment (what the old scheduler
        # baked in), as per-slot deques so idle slots can steal.
        n_slots = self.n_jobs
        queues: List[Deque[int]] = [deque() for _ in range(n_slots)]
        home = [0] * n
        base, extra = divmod(n, n_slots)
        lo = 0
        for slot in range(n_slots):
            hi = lo + base + (1 if slot < extra else 0)
            for index in range(lo, hi):
                queues[slot].append(index)
                home[index] = slot
            lo = hi

        in_flight: Dict[Future, int] = {}
        slot_of: Dict[Future, int] = {}
        busy = [False] * n_slots
        started: Dict[Future, float] = {}
        retry_at: Dict[int, float] = {}
        deadline = self._deadline_s

        def next_unit(slot: int) -> Optional[int]:
            """Own deque front, else steal the richest sibling's back."""
            if queues[slot]:
                return queues[slot].popleft()
            victim = max(
                range(n_slots),
                key=lambda s: (len(queues[s]), -s),
            )
            if not queues[victim]:
                return None
            self.steals += 1
            _LIFETIME["steals"] += 1
            stolen = queues[victim].pop()
            get_recorder().emit(EventKind.SHARD_STOLEN, unit=stolen,
                                slot=slot, victim=victim)
            return stolen

        def submit(slot: int, index: int) -> bool:
            try:
                if self._pool is None:
                    self._pool = _acquire_pool(self.n_jobs)
                future = self._pool.submit(fn, units[index])
            except Exception as exc:
                # The pool could not be built or fed (fork failure,
                # unpicklable work): not retryable in-pool.
                self._record_failure(logs[index], FAILURE_SUBMIT, exc, 0.0)
                self._discard_pool()
                exhausted.append(index)
                return False
            in_flight[future] = index
            slot_of[future] = slot
            busy[slot] = True
            return True

        def release_slot(future: Future) -> None:
            slot = slot_of.pop(future, None)
            if slot is not None:
                busy[slot] = False

        while in_flight or retry_at or any(queues):
            now = time.monotonic()
            # Backoff expiry requeues a unit at the front of its home
            # slot: retries keep locality and run before new work.
            for index in [i for i, at in retry_at.items() if at <= now]:
                del retry_at[index]
                queues[home[index]].appendleft(index)
            for slot in range(n_slots):
                while not busy[slot]:
                    index = next_unit(slot)
                    if index is None:
                        break
                    submit(slot, index)
            if not in_flight:
                if retry_at:
                    time.sleep(
                        min(max(0.0, min(retry_at.values()) - time.monotonic()),
                            _POLL_S)
                    )
                continue
            wait_s = _POLL_S if (deadline is not None or retry_at) else None
            finished, _ = wait(
                set(in_flight), timeout=wait_s, return_when=FIRST_COMPLETED
            )
            now = time.monotonic()
            pool_broken = False
            for future in finished:
                index = in_flight.pop(future)
                release_slot(future)
                start = started.pop(future, None)
                elapsed = (now - start) if start is not None else 0.0
                try:
                    value = future.result()
                except Exception as exc:
                    kind = classify_exception(exc)
                    if kind != "crash":
                        pool_broken = True
                    self._settle_failure(index, logs, retry_at, exhausted,
                                         kind, exc, elapsed)
                else:
                    log = logs[index]
                    log.attempts += 1
                    log.outcome = (OUTCOME_OK if log.attempts == 1
                                   else OUTCOME_RETRIED)
                    results[index] = value
                    if on_result is not None:
                        on_result(index, value)
            if pool_broken:
                # Every sibling future on the broken pool fails alongside
                # (concurrent.futures fails them all), so just drop it.
                self._discard_pool()
            if deadline is not None and in_flight:
                expired: List[Future] = []
                for future, index in in_flight.items():
                    if future not in started and future.running():
                        started[future] = now
                    begun = started.get(future)
                    if begun is not None and now - begun > deadline:
                        expired.append(future)
                if expired:
                    for future in expired:
                        index = in_flight.pop(future)
                        release_slot(future)
                        begun = started.pop(future)
                        future.cancel()
                        self._settle_failure(
                            index, logs, retry_at, exhausted,
                            FAILURE_TIMEOUT,
                            TimeoutError(
                                f"shard exceeded its {deadline:g}s deadline"
                            ),
                            now - begun,
                        )
                    # A hung worker cannot be killed through the pool API;
                    # abandon the whole pool and requeue the unexpired
                    # in-flight units on a fresh one, free of charge.
                    self._discard_pool()
                    for future in list(in_flight):
                        index = in_flight.pop(future)
                        release_slot(future)
                        started.pop(future, None)
                        future.cancel()
                        queues[home[index]].appendleft(index)

        for index in sorted(exhausted):
            self._serial_last_resort(fn, units, index, logs[index],
                                     results, on_result)
        return results

    def _settle_failure(self, index, logs, retry_at, exhausted,
                        kind, exc, elapsed_s) -> None:
        self._record_failure(logs[index], kind, exc, elapsed_s)
        if logs[index].attempts < self.max_attempts:
            self.retries += 1
            retry_at[index] = time.monotonic() + self.policy.backoff_s(
                index, logs[index].attempts
            )
        else:
            exhausted.append(index)

    def _serial_last_resort(self, fn, units, index, log, results, on_result):
        """Re-run an exhausted unit inline, or drop it in partial mode.

        A unit whose last failure was a *timeout* is never re-run inline in
        partial mode — a hung work function would hang the parent, which is
        exactly what ``--partial-results`` exists to avoid.
        """
        timed_out = bool(log.failures) and \
            log.failures[-1].kind == FAILURE_TIMEOUT
        if self.allow_partial and timed_out:
            self._record_dropped(log)
            return
        self.fallbacks += 1
        _LIFETIME["fallbacks"] += 1
        unit = units[index]
        if getattr(unit, "shm_token", None) is not None:
            # The parent never packs into shared memory: a /dev/shm too
            # full for the worker would be too full here as well.
            unit = dataclasses.replace(unit, shm_token=None)
        try:
            value = fn(unit)
        except Exception as exc:
            self._record_failure(log, classify_exception(exc), exc, 0.0,
                                 charge_attempt=False)
            if self.allow_partial:
                self._record_dropped(log)
                return
            log.outcome = OUTCOME_FAILED
            raise
        log.outcome = OUTCOME_FALLBACK
        results[index] = value
        if on_result is not None:
            on_result(index, value)

    def _discard_pool(self) -> None:
        """Abandon a poisoned pool: broken pools are never parked."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            _POOL_STATS["discarded"] += 1

    def close(self) -> None:
        """Park the (healthy, drained) pool for the next executor."""
        if self._pool is not None:
            _park_pool(self.n_jobs, self._pool)
            self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


try:  # pragma: no cover - typing nicety only
    from typing import Protocol

    class Executor(Protocol):
        """Structural contract every executor satisfies."""

        name: str
        n_jobs: int
        fallbacks: int
        retries: int
        dropped: int
        steals: int
        failures: List[ShardFailure]
        history: List[ShardAttemptLog]

        def run(
            self,
            fn: Callable[[T], R],
            units: Sequence[T],
            on_result: Optional[ResultCallback] = None,
        ) -> List[Optional[R]]:
            ...

        def close(self) -> None:
            ...

except ImportError:  # pragma: no cover - Python < 3.8
    Executor = object  # type: ignore[assignment,misc]
