"""Pluggable shard executors.

An executor runs a picklable work function over a list of work units and
returns the results **in unit order** — determinism lives in the planner and
the merge layer, so the executor is free to schedule however it likes.

Two implementations:

- :class:`SerialExecutor` runs units inline in the calling process.
- :class:`ParallelExecutor` maps units over a
  :class:`concurrent.futures.ProcessPoolExecutor` in FIFO order.

**Scheduling.** Units wait in one FIFO queue and at most ``n_jobs`` of
them are in flight, so every submitted future has an idle worker and
``future.running()`` means a worker has started it. The pool is forked
lazily on the first submission, after planning, so workers inherit the
parent's world cache; :meth:`ParallelExecutor.close` shuts it down and
reaps the workers. Scheduling never affects results: unit → RNG stream
binding is fixed by the planner, results are keyed by unit index, and
the merge layer reassembles canonical order.

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
from typing import (
    Callable, Deque, Dict, List, Optional, Protocol, Sequence, TypeVar,
)

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
    policy: Optional[RetryPolicy] = None,
    allow_partial: bool = False,
) -> "Executor":
    """The executor for ``n_jobs`` workers (1 disables the pool)."""
    if n_jobs <= 1:
        return SerialExecutor(policy=policy, allow_partial=allow_partial)
    return ParallelExecutor(n_jobs, policy=policy,
                            allow_partial=allow_partial)


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


#: Process-lifetime recovery counters, across every executor instance —
#: the resource sampler reads these (an ExecutionInfo only exists once a
#: run finishes, too late for live telemetry).
_LIFETIME = {"retries": 0, "fallbacks": 0, "dropped": 0}


def lifetime_stats() -> Dict[str, int]:
    """Lifetime retry/fallback/drop counters."""
    return dict(_LIFETIME)


def shutdown_warm_pools(wait_for_workers: bool = True) -> int:
    """No pools are parked any more; kept for perfbench (ROADMAP item 4)."""
    return 0


def _atexit_cleanup() -> None:  # pragma: no cover - interpreter teardown
    # Forked workers inherit this hook; only the owning parent may act
    # (a worker sweeping the shared run token would unlink live segments).
    if os.getpid() != _OWNER_PID:
        return
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
    """Ordered process-pool map with deadlines, retry and fallback.

    The pool is forked on the first :meth:`run` and shut down by
    :meth:`close` (use the executor as a context manager); consecutive
    runs on one executor share it. A pool poisoned by a hung or crashed
    worker is discarded and replaced transparently.
    """

    name = "parallel"
    #: Read by perfbench/traced.py; goes with ``repro bench`` (ROADMAP item 4).
    steals = 0

    def __init__(
        self,
        n_jobs: int,
        policy: Optional[RetryPolicy] = None,
        allow_partial: bool = False,
    ) -> None:
        if n_jobs < 2:
            raise ConfigurationError(
                f"ParallelExecutor needs n_jobs >= 2: {n_jobs}"
            )
        self.n_jobs = n_jobs
        self.policy = policy
        self.allow_partial = allow_partial
        self._init_accounting()
        self._pool: Optional[ProcessPoolExecutor] = None

    def run(
        self,
        fn: Callable[[T], R],
        units: Sequence[T],
        on_result: Optional[ResultCallback] = None,
    ) -> List[Optional[R]]:
        if not units:
            return []
        try:
            return self._run_pool(fn, units, on_result)
        except BaseException:
            # An escaping exception (a ChaosKill from on_result, a strict-
            # mode failure) must not leave workers running: drain the pool
            # hard so no straggler packs a segment after our sweep.
            if self._pool is not None:
                self._pool.shutdown(wait=True, cancel_futures=True)
                self._pool = None
            raise

    def _run_pool(
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
        queue: Deque[int] = deque(range(n))
        in_flight: Dict[Future, int] = {}
        started: Dict[Future, float] = {}
        retry_at: Dict[int, float] = {}
        deadline = (self.policy.shard_timeout_s
                    if self.policy is not None else None)

        while queue or in_flight or retry_at:
            # Backoff-expired retries run before new work.
            due = sorted(i for i, at in retry_at.items()
                         if at <= time.monotonic())
            for index in due:
                del retry_at[index]
            queue.extendleft(reversed(due))
            while queue and len(in_flight) < self.n_jobs:
                index = queue.popleft()
                try:
                    if self._pool is None:
                        self._pool = ProcessPoolExecutor(
                            max_workers=self.n_jobs,
                            initializer=_exit_with_parent,
                            initargs=(os.getpid(),),
                        )
                    in_flight[self._pool.submit(fn, units[index])] = index
                except Exception as exc:
                    # The pool could not be built or fed (fork failure,
                    # unpicklable work): not retryable in-pool.
                    self._record_failure(logs[index], FAILURE_SUBMIT, exc,
                                         0.0)
                    self._discard_pool()
                    exhausted.append(index)
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
                # Deadlines run from the observed start, not submission.
                for future in in_flight:
                    if future not in started and future.running():
                        started[future] = now
                expired = [f for f, begun in started.items()
                           if now - begun > deadline]
                for future in expired:
                    index = in_flight.pop(future)
                    begun = started.pop(future)
                    future.cancel()
                    self._settle_failure(
                        index, logs, retry_at, exhausted, FAILURE_TIMEOUT,
                        TimeoutError(
                            f"shard exceeded its {deadline:g}s deadline"
                        ),
                        now - begun,
                    )
                if expired:
                    # A hung worker cannot be killed through the pool API;
                    # abandon the whole pool and requeue the unexpired
                    # in-flight units at the front, free of charge.
                    self._discard_pool()
                    for future in in_flight:
                        future.cancel()
                    queue.extendleft(sorted(in_flight.values(), reverse=True))
                    in_flight.clear()
                    started.clear()

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
        """Abandon a poisoned pool without waiting on its workers."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        """Shut the pool down and reap its workers."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Executor(Protocol):
    """Structural contract every executor satisfies."""

    name: str
    n_jobs: int
    fallbacks: int
    retries: int
    dropped: int
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
