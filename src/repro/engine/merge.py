"""Deterministic merge of shard-local results.

Workers return :class:`ShardOutput`s — picklable bundles of
:class:`~repro.traces.dataset.DatasetBuilder` column chunks plus
:class:`~repro.collection.pipeline.CollectionPump` accounting. The merge
layer reassembles them **in canonical shard order** (shard 0's devices
first, then shard 1's, …), which together with the builder's stable
(device, t) sort makes the frozen dataset bit-for-bit independent of how
many workers produced the pieces, or in what order they finished.

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

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.collection.faults import CollectionReport, DeviceCollectionStats
from repro.engine.planner import ShardPlan
from repro.engine.transport import ShardPayload
from repro.errors import EngineError
from repro.traces.dataset import ChunkMap

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.traces.store import CampaignStore, PartitionRef


@dataclass
class ShardOutput:
    """Everything one shard's worker sends back to the merge layer.

    The columnar tables travel one of three ways: ``chunks`` carries them
    inline (serial execution, checkpoint reloads), ``payload`` references
    a shared-memory segment packed by a pool worker (see
    :mod:`repro.engine.transport`), and ``partition`` points at a store
    spill partition on disk (``--store disk``; see
    :meth:`spill` and :mod:`repro.traces.store`). :meth:`chunk_map` hides
    the difference from the merge layer; exactly one of the three is set.
    """

    shard_index: int
    device_ids: Tuple[int, ...]
    chunks: Optional[ChunkMap] = None
    #: Per-device collection accounting in canonical device order
    #: (empty when the campaign bypassed the collection pipeline).
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
        parent memory instead of O(rows). Collection stats stay inline —
        they are small and the merge layer consumes them directly.
        """
        ref = store.write_partition(name, self.chunk_map())
        self.spilled_transport_bytes = self.transport_bytes
        if self.payload is not None:
            self.payload.release()
        self.chunks, self.payload, self.partition = None, None, ref
        return self

    def for_checkpoint(self) -> "ShardOutput":
        """A self-contained copy that pickles safely to a spill file.

        Shared-memory views must be materialised into ordinary arrays —
        the segment is unlinked the moment the shard is accepted, and a
        pickled view would drag the whole mapped buffer along.
        Partition-backed outputs checkpoint as just the
        :class:`~repro.traces.store.PartitionRef` — the checkpoint
        references the store partition instead of re-pickling the rows,
        and resume validates the partition's digest before trusting it.
        """
        if self.payload is None:
            return self
        return replace(self, chunks=self.payload.materialize(),
                       payload=None)


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
