"""Deterministic fault injection for the execution engine.

The engine-level analogue of the collection layer's ``FaultPlan``: a
:class:`ChaosPlan` selects shards (by seeded hash or explicitly) and makes
their first ``k`` attempts crash, hang, or — parent-side — kills the whole
campaign after ``n`` completed shards. ``tests/test_resilience.py`` uses it
to prove the ``n_jobs=1 == n_jobs=k`` bit-identity guarantee survives every
injected failure mode; the CI chaos-smoke job drives the same plans
through the CLI.

Attempt counting must agree across *processes* (a retry may land on a
fresh pool worker that has never seen the shard), so attempts are counted
with ``O_EXCL`` marker files under :attr:`ChaosPlan.state_dir` — the
injection schedule is a pure function of ``(seed, unit key, attempt)``
regardless of scheduling, worker count, or which process runs the retry.

:func:`corrupt_checkpoints` deterministically damages checkpoint files
(truncation or a flipped payload byte) to exercise the store's
checksum-and-recompute path.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.errors import ConfigurationError, ReproError
from repro.obs.recorder import EventKind, get_recorder

__all__ = [
    "ChaosCrash",
    "ChaosKill",
    "ChaosPlan",
    "ChaosInjector",
    "ChaosMonkey",
    "corrupt_checkpoints",
    "unit_key_of",
]


class ChaosCrash(RuntimeError):
    """The injected worker-side failure (picklable across the pool)."""


class ChaosKill(ReproError):
    """Parent-side campaign interruption after ``kill_after_shards``."""


def unit_key_of(work: object) -> str:
    """Stable identity of one work unit across processes and runs.

    Shard work units key as ``"<year>:<shard_index>"``; anything else
    (plain test payloads) keys as its ``repr``.
    """
    shard = getattr(work, "shard_index", None)
    config = getattr(work, "config", None)
    if shard is not None and config is not None:
        return f"{getattr(config, 'year', '?')}:{shard}"
    return repr(work)


def _draw(seed: int, salt: str, key: str) -> float:
    """Deterministic uniform draw in ``[0, 1)``."""
    digest = hashlib.sha256(f"{seed}|{salt}|{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class ChaosPlan:
    """What to break, how often, and for how many attempts.

    Rate-based selection (``crash_rate``/``hang_rate``) draws once per
    unit key from a seeded hash; ``crash_units``/``hang_units`` name unit
    keys explicitly (see :func:`unit_key_of`). A selected unit misbehaves
    on its first ``*_attempts`` attempts and then behaves, so retry
    budgets can be tested exactly; set ``*_attempts`` beyond the retry
    budget to model a permanently poisoned shard.

    ``hard`` upgrades crashes from a raised :class:`ChaosCrash` to
    ``os._exit`` — a real worker death that breaks the whole process pool.
    Never combine ``hard`` with serial execution or strict-mode serial
    fallback: the parent process would die.
    """

    crash_rate: float = 0.0
    crash_attempts: int = 1
    crash_units: Tuple[str, ...] = ()
    hang_rate: float = 0.0
    hang_attempts: int = 1
    hang_units: Tuple[str, ...] = ()
    hang_s: float = 1.0
    hard: bool = False
    #: Parent-side: raise :class:`ChaosKill` once this many shards have
    #: completed (checkpoints included) — models a mid-campaign kill.
    kill_after_shards: Optional[int] = None
    #: Upgrade the parent-side kill from a raised :class:`ChaosKill`
    #: (orderly, exit 3) to ``SIGKILL`` on the parent process itself —
    #: the real ``kill -9`` the flight recorder must survive. No cleanup
    #: runs; only the recorder's already-flushed events remain.
    kill_hard: bool = False
    seed: int = 0
    #: Cross-process attempt-marker directory; required whenever worker
    #: faults (crash/hang) are injected.
    state_dir: Optional[Union[str, Path]] = None

    def __post_init__(self) -> None:
        for name in ("crash_rate", "hang_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1]: {rate}")
        if self.crash_attempts < 1 or self.hang_attempts < 1:
            raise ConfigurationError("chaos *_attempts must be >= 1")
        if self.hang_s < 0:
            raise ConfigurationError(f"hang_s must be >= 0: {self.hang_s}")
        if self.kill_after_shards is not None and self.kill_after_shards < 1:
            raise ConfigurationError(
                f"kill_after_shards must be >= 1: {self.kill_after_shards}"
            )
        if self.kill_hard and self.kill_after_shards is None:
            raise ConfigurationError(
                "kill_hard needs kill_after_shards to know when to strike"
            )
        if self.injects_worker_faults and self.state_dir is None:
            raise ConfigurationError(
                "chaos worker faults (crash/hang) need a state_dir for "
                "cross-process attempt counting"
            )

    @property
    def injects_worker_faults(self) -> bool:
        return bool(self.crash_rate or self.hang_rate
                    or self.crash_units or self.hang_units)

    def selects(self, kind: str, key: str) -> bool:
        """Whether this plan injects ``kind`` (crash|hang) for ``key``."""
        explicit = self.crash_units if kind == "crash" else self.hang_units
        if key in explicit:
            return True
        rate = self.crash_rate if kind == "crash" else self.hang_rate
        return rate > 0.0 and _draw(self.seed, kind, key) < rate


class ChaosInjector:
    """Picklable wrapper running a work function under a chaos plan.

    Wraps the engine's work function (``simulate_shard``) transparently:
    the executor retries, times out, and falls back exactly as it would
    for real failures, and a surviving attempt returns the *same* output
    an unchaosed run would — chaos schedules failures, never results.
    """

    def __init__(self, fn, plan: ChaosPlan) -> None:
        if plan.injects_worker_faults and plan.state_dir is None:
            raise ConfigurationError("ChaosInjector needs plan.state_dir")
        self.fn = fn
        self.plan = plan

    def __call__(self, work):
        plan = self.plan
        key = unit_key_of(work)
        attempt = self._next_attempt(key)
        if plan.selects("crash", key) and attempt <= plan.crash_attempts:
            get_recorder().emit(EventKind.CHAOS, fault="crash", shard=key,
                                attempt=attempt, hard=plan.hard)
            if plan.hard:
                os._exit(3)
            raise ChaosCrash(
                f"injected crash: unit {key}, attempt {attempt}"
            )
        if plan.selects("hang", key) and attempt <= plan.hang_attempts:
            # Sleep, then finish normally: the parent's deadline fires and
            # retries while this straggler's late result is ignored.
            get_recorder().emit(EventKind.CHAOS, fault="hang", shard=key,
                                attempt=attempt, hang_s=plan.hang_s)
            time.sleep(plan.hang_s)
        return self.fn(work)

    def _next_attempt(self, key: str) -> int:
        """Cross-process 1-based attempt index for ``key`` (O_EXCL markers)."""
        state = Path(self.plan.state_dir)
        state.mkdir(parents=True, exist_ok=True)
        safe = hashlib.sha256(key.encode()).hexdigest()[:24]
        for attempt in count(1):
            marker = state / f"{safe}.attempt{attempt}"
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(fd)
            return attempt
        raise AssertionError("unreachable")  # pragma: no cover


class ChaosMonkey:
    """Parent-side kill switch counting completed shards."""

    def __init__(self, plan: ChaosPlan) -> None:
        self.plan = plan
        self.completed = 0

    def on_shard_complete(self) -> None:
        self.completed += 1
        kill_after = self.plan.kill_after_shards
        if kill_after is not None and self.completed >= kill_after:
            # Emit before striking: the recorder's O_APPEND write is
            # already durable when the signal lands, so even the hard
            # kill leaves the chaos event in the black box.
            get_recorder().emit(
                EventKind.CHAOS, fault="kill", shard=self.completed,
                hard=self.plan.kill_hard,
            )
            if self.plan.kill_hard:
                # The genuine article: SIGKILL to the parent, no Python
                # cleanup, no atexit sweeps — exactly what the flight
                # recorder's crash-durability contract is tested against.
                os.kill(os.getpid(), signal.SIGKILL)
            raise ChaosKill(
                f"chaos kill: campaign interrupted after "
                f"{self.completed} completed shards "
                f"(checkpoints, if any, were retained)"
            )


def corrupt_checkpoints(
    checkpoint_dir: Union[str, Path],
    rate: float = 1.0,
    seed: int = 0,
    mode: str = "truncate",
) -> List[Path]:
    """Deterministically damage checkpoint files; returns those corrupted.

    ``mode`` is ``"truncate"`` (drop the second half of the file) or
    ``"flip"`` (invert one payload byte) — both defeat the store's
    checksum so the shard is re-simulated on resume.
    """
    if mode not in ("truncate", "flip"):
        raise ConfigurationError(f"unknown corruption mode: {mode!r}")
    if not 0.0 <= rate <= 1.0:
        raise ConfigurationError(f"rate must be in [0, 1]: {rate}")
    corrupted: List[Path] = []
    for path in sorted(Path(checkpoint_dir).glob("ckpt-*.bin")):
        if _draw(seed, "corrupt", path.name) >= rate:
            continue
        data = path.read_bytes()
        if mode == "truncate":
            path.write_bytes(data[: len(data) // 2])
        else:
            middle = len(data) // 2
            path.write_bytes(
                data[:middle] + bytes([data[middle] ^ 0xFF])
                + data[middle + 1:]
            )
        corrupted.append(path)
    return corrupted
