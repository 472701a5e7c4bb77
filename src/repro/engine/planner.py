"""Deterministic shard planning.

:func:`plan_units` partitions a campaign's device panel into contiguous,
balanced shards, one per worker. Shard membership is a pure function of
the device-id list and the worker count — never of scheduling or timing —
so moving a campaign between executors cannot change which RNG stream any
device uses or the canonical order the merge layer reassembles results in.

Every device keeps its existing per-user stream seeded by
``(seed, year, user_id)``; the planner only decides *where* a device is
simulated, not *how*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Shard:
    """One contiguous slice of the device panel."""

    index: int
    device_ids: Tuple[int, ...]

    @property
    def n_devices(self) -> int:
        return len(self.device_ids)


@dataclass(frozen=True)
class ShardPlan:
    """The full, ordered partition of a panel into shards.

    Shards are in canonical order: concatenating their ``device_ids``
    reproduces the input panel order exactly.
    """

    n_devices: int
    shards: Tuple[Shard, ...]

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def device_order(self) -> Tuple[int, ...]:
        """All device ids in canonical (merge) order."""
        return tuple(d for shard in self.shards for d in shard.device_ids)


def plan_units(device_ids: Sequence[int], n_jobs: int) -> ShardPlan:
    """Partition ``device_ids`` into ``min(n_jobs, n)`` balanced shards.

    Serial runs (``n_jobs <= 1``) get one shard; the first ``n % k``
    shards of a ``k``-way split get one extra device.
    """
    ids = tuple(int(d) for d in device_ids)
    if any(b <= a for a, b in zip(ids, ids[1:])):
        raise ConfigurationError(
            "device_ids must be strictly increasing (canonical order)"
        )
    n = len(ids)
    if n == 0:
        return ShardPlan(n_devices=0, shards=())
    k = min(max(1, n_jobs), n)
    base, extra = divmod(n, k)
    shards = []
    lo = 0
    for index in range(k):
        hi = lo + base + (1 if index < extra else 0)
        shards.append(Shard(index=index, device_ids=ids[lo:hi]))
        lo = hi
    return ShardPlan(n_devices=n, shards=tuple(shards))
