"""Deterministic merge of shard-local results.

Workers return :class:`ShardOutput`s — picklable bundles of the
collection server's column chunks plus
:class:`~repro.collection.pipeline.CollectionPump` accounting. The merge
layer reassembles them **in canonical shard order** (shard 0's devices
first, then shard 1's, …), so the rows arrive in canonical (device, t)
order, which both merges check
(:func:`~repro.traces.dataset.canonical_chunks`) and neither sorts: the
frozen dataset is bit-for-bit independent of how many workers produced
the pieces, or in what order they finished.

Merging validates engine invariants hard: every shard present exactly once,
device coverage matching the plan. A violated invariant raises
:class:`~repro.errors.EngineError` — a merge that silently dropped or
reordered a shard would corrupt results while looking healthy.

``allow_missing`` relaxes exactly one invariant — shards may be *absent* —
for ``--partial-results`` runs, where the resilience layer has already
recorded which shards were dropped (see
:class:`~repro.engine.resilience.ExecutionLosses`). Present shards are
still validated hard: no duplicates, no coverage mismatches.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.collection.faults import CollectionReport, DeviceCollectionStats
from repro.engine.planner import Shard, ShardPlan
from repro.engine.transport import ShardPayload
from repro.errors import EngineError
from repro.traces.dataset import ChunkMap

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.traces.store import CampaignStore, PartitionRef


@dataclass
class ShardOutput:
    """Everything one shard's worker sends back to the merge layer.

    The columnar tables travel one of three ways: ``chunks`` carries them
    inline (serial execution), ``payload`` references
    a shared-memory segment packed by a pool worker (see
    :mod:`repro.engine.transport`), and ``partition`` points at a store
    spill partition on disk (``--store disk``; see :meth:`spill`,
    :meth:`from_partition` and :mod:`repro.traces.store`).
    :meth:`chunk_map` hides the difference from the merge layer; exactly
    one of the three is set.
    """

    shard_index: int
    device_ids: Tuple[int, ...]
    chunks: Optional[ChunkMap] = None
    #: Per-device collection accounting, one per device of the shard,
    #: in canonical device order.
    stats: List[DeviceCollectionStats] = field(default_factory=list)
    batches_received: int = 0
    duplicates_dropped: int = 0
    #: Shared-memory transport handle (parallel execution only).
    payload: Optional[ShardPayload] = None
    #: On-disk store partition holding this shard's columns
    #: (``--store disk`` only; set by :meth:`spill`).
    partition: Optional["PartitionRef"] = None
    #: Shared-memory bytes this shard moved before it was spilled to disk
    #: (keeps :attr:`transport_bytes` accounting once ``payload`` is gone).
    spilled_transport_bytes: int = 0

    def chunk_map(self) -> ChunkMap:
        """This shard's column chunks, wherever they live."""
        if self.payload is not None:
            return self.payload.chunk_map()
        if self.partition is not None:
            return self.partition.chunk_map()
        if self.chunks is None:
            raise EngineError(
                f"shard {self.shard_index} carries neither inline chunks, "
                f"a transport payload, nor a store partition"
            )
        return self.chunks

    @property
    def transport_bytes(self) -> int:
        """Bytes this shard moved through shared memory (0 if inline)."""
        if self.payload is not None:
            return self.payload.n_bytes
        return self.spilled_transport_bytes

    def spill(self, store: "CampaignStore", name: str) -> "ShardOutput":
        """Land this shard's columns in a store partition, release RAM.

        Turns this output into a slim partition-backed one, in place and
        returned: the chunk data now lives in ``store/parts/<name>/`` and
        the shared-memory segment (if any) is unmapped. In place, because
        the executor keeps every result it hands out; a copy would leave
        the rows alive there. So accepting a shard costs O(manifest)
        parent memory instead of O(rows). Collection stats stay inline
        and also go into the partition manifest for :meth:`from_partition`.
        """
        ref = store.write_partition(name, self.chunk_map(), collection={
            "stats": [astuple(stats) for stats in self.stats],
            "batches_received": self.batches_received,
            "duplicates_dropped": self.duplicates_dropped,
        })
        self.spilled_transport_bytes = self.transport_bytes
        if self.payload is not None:
            self.payload.release()
        self.chunks, self.payload, self.partition = None, None, ref
        return self

    @classmethod
    def from_partition(cls, shard: Shard,
                       ref: "PartitionRef") -> "ShardOutput":
        """The output of ``shard`` as a verified partition spilled it.

        A reused shard moved nothing through shared memory in this run,
        so its :attr:`transport_bytes` is 0.
        """
        collection = ref.collection
        return cls(
            shard_index=shard.index,
            device_ids=tuple(shard.device_ids),
            stats=[DeviceCollectionStats(*row) for row in collection["stats"]],
            batches_received=collection["batches_received"],
            duplicates_dropped=collection["duplicates_dropped"],
            partition=ref,
        )


def ordered_outputs(
    outputs: Sequence[Optional[ShardOutput]],
    plan: ShardPlan,
    allow_missing: bool = False,
) -> List[ShardOutput]:
    """Outputs sorted into canonical shard order, validated against ``plan``.

    ``None`` entries (dropped shards) are tolerated only with
    ``allow_missing``; present outputs are always validated for unique,
    in-range shard indexes and exact device coverage.
    """
    present = [out for out in outputs if out is not None]
    if not allow_missing and len(present) != plan.n_shards:
        raise EngineError(
            f"expected {plan.n_shards} shard outputs, got {len(present)}"
        )
    by_index = sorted(present, key=lambda out: out.shard_index)
    seen = set()
    for out in by_index:
        if not 0 <= out.shard_index < plan.n_shards:
            raise EngineError(
                f"shard index {out.shard_index} outside plan "
                f"(n_shards={plan.n_shards})"
            )
        if out.shard_index in seen:
            raise EngineError(
                f"missing or duplicate shard: index {out.shard_index} "
                f"appears more than once"
            )
        seen.add(out.shard_index)
        shard = plan.shards[out.shard_index]
        if tuple(out.device_ids) != shard.device_ids:
            raise EngineError(
                f"shard {shard.index} covered devices {out.device_ids}, "
                f"plan expected {shard.device_ids}"
            )
    if not allow_missing and len(by_index) != plan.n_shards:
        raise EngineError(
            f"missing or duplicate shard: expected {plan.n_shards} unique "
            f"shards, got {len(by_index)}"
        )
    return by_index


def missing_shards(
    outputs: Sequence[Optional[ShardOutput]], plan: ShardPlan
) -> Tuple[int, ...]:
    """Plan shard indexes with no output (the dropped shards)."""
    covered = {out.shard_index for out in outputs if out is not None}
    return tuple(
        shard.index for shard in plan.shards if shard.index not in covered
    )


def merge_reports(
    outputs: Sequence[Optional[ShardOutput]],
    plan: ShardPlan,
    n_slots: int,
    allow_missing: bool = False,
) -> CollectionReport:
    """Roll shard-local collection accounting into one campaign report.

    Device stats are concatenated in canonical shard order — identical to
    the order a serial run records them in — and the server-side counters
    are summed. Dropped shards (``allow_missing``) simply contribute
    nothing: their devices are absent from the report, exactly like users
    whose data never reached the server.
    """
    devices: List[DeviceCollectionStats] = []
    batches_received = 0
    duplicates_dropped = 0
    for out in ordered_outputs(outputs, plan, allow_missing=allow_missing):
        if len(out.stats) != len(out.device_ids):
            raise EngineError(
                f"shard {out.shard_index} returned {len(out.stats)} device "
                f"stats for {len(out.device_ids)} devices"
            )
        devices.extend(out.stats)
        batches_received += out.batches_received
        duplicates_dropped += out.duplicates_dropped
    return CollectionReport(
        n_slots=n_slots,
        devices=devices,
        batches_received=batches_received,
        duplicates_dropped=duplicates_dropped,
    )
