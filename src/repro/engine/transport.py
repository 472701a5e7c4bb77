"""Zero-copy shard transport over POSIX shared memory.

A worker that finishes a shard no longer pickles its columnar
``ChunkMap`` (a few hundred KB to tens of MB of numpy arrays) through the
process-pool result queue. Instead it *packs* every chunk column into one
:mod:`multiprocessing.shared_memory` segment and returns a tiny picklable
:class:`ShardPayload` handle — segment name plus a per-column manifest of
``(table, chunk, column, dtype, shape, offset)``. The parent *attaches*
to the segment and gets numpy views straight over the shared buffer; the
merge layer concatenates from those views without ever materialising
row objects or intermediate copies.

Lifecycle discipline (the part that makes chaos kills safe):

- **Names are run-scoped.** Every segment is named
  ``repro-shm-<token>-<pid>-<seq>`` where ``token`` is the parent run's
  random token (minted by :func:`run_token`, *never* from the simulation
  RNG) handed to workers inside the work unit, ``pid`` is the packing
  worker and ``seq`` a per-process counter. A run can therefore find all
  of its segments by prefix without guessing.
- **Unlink early.** The parent unlinks a segment the moment it attaches:
  POSIX keeps the memory alive while mapped, so the ``/dev/shm`` entry
  only exists for the in-flight window between worker pack and parent
  accept. A clean run leaves nothing behind by construction.
- **Janitor for the rest.** Segments whose result was never accepted —
  a chaos-killed parent loop, a timed-out shard on a discarded pool, a
  straggler worker finishing after shutdown — are reclaimed by
  :func:`sweep_orphans`, which the campaign/study runners call in their
  ``finally`` blocks (scoped to the run token) and which tests and the
  CLI can call unscoped to reap leftovers of killed processes.

Resource-tracker etiquette: :meth:`SharedMemory.unlink` unregisters the
segment itself, so only :meth:`ShardPayload.pack` (the create side, on
success) unregisters manually — the packing worker hands ownership to the
parent and must not let its tracker unlink the segment at exit. Attach
registrations (Python pre-3.13 registers on attach too) are balanced by
the ``unlink()`` every accepted payload receives.

Determinism: this module moves bytes; it never reorders, re-keys, or
draws anything. ``chunk_map()`` reconstructs the exact per-table chunk
lists the worker exported, so merged datasets are bit-identical to the
pickled-``chunks`` transport it replaces (pinned by
``tests/test_transport.py``).
"""

from __future__ import annotations

import os
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import EngineError
from repro.traces.dataset import ChunkMap

__all__ = [
    "SEGMENT_PREFIX",
    "ShardPayload",
    "run_token",
    "segment_names",
    "segment_bytes",
    "sweep_orphans",
]

#: Every repro segment name starts with this; the janitor sweeps by it.
SEGMENT_PREFIX = "repro-shm-"

#: Where POSIX shared memory is visible as files (Linux). On platforms
#: without it the sweep degrades to a no-op — segments still unlink on
#: the accept path, only the orphan janitor loses its by-name scan.
SHM_DIR = Path("/dev/shm")

#: Pack columns at 16-byte boundaries so every view is safely aligned
#: for any dtype numpy emits (the widest here is complex128/16 bytes).
_ALIGN = 16

_token: Optional[str] = None
_seq = 0


def run_token() -> str:
    """This process's transport token (minted once, os-random).

    The token namespaces segment names per run so sweeps cannot touch a
    concurrent process's segments. It comes from :func:`os.urandom`, not
    from any simulation RNG stream — transport must never advance
    simulation draws.
    """
    global _token
    if _token is None:
        _token = os.urandom(6).hex()
    return _token


def _next_name(token: str) -> str:
    global _seq
    _seq += 1
    return f"{SEGMENT_PREFIX}{token}-{os.getpid()}-{_seq}"


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Opt this segment out of the resource tracker's exit-time unlink.

    Called exactly once per segment, by the packing worker after a
    successful pack: ownership moves to the parent, so the worker's
    tracker must forget the name (it would otherwise unlink the live
    segment when the worker exits). Every other lifecycle path goes
    through :meth:`SharedMemory.unlink`, which does its own unregister —
    adding a manual one there would double-unregister and make the
    tracker log KeyErrors. Best-effort: the private name attribute and
    the tracker API are stable across supported versions, but a refusal
    only costs a spurious warning, never correctness.
    """
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals shifted
        pass


# Manifest rows are plain tuples so a payload pickles small and fast:
# (table, chunk index, column, dtype str, shape, byte offset).
_ManifestRow = Tuple[str, int, str, str, Tuple[int, ...], int]

class ShardPayload:
    """Picklable handle to one shard's ``ChunkMap`` in shared memory.

    Workers build one with :meth:`pack`; the parent calls :meth:`attach`
    (implicitly via :meth:`chunk_map`) to get zero-copy numpy views, and
    :meth:`unlink` as soon as the result is accepted. :meth:`materialize`
    deep-copies the views into ordinary arrays for checkpoint spills —
    pickling a view would drag the whole segment buffer along and break
    once the segment is gone.
    """

    def __init__(self, name: str, tables: Tuple[str, ...],
                 manifest: Tuple[_ManifestRow, ...], n_bytes: int) -> None:
        self.name = name
        self.tables = tables
        self.manifest = manifest
        #: Total packed payload size — the bytes that cross the process
        #: boundary via shared memory instead of the pickle queue.
        self.n_bytes = n_bytes
        self._shm: Optional[shared_memory.SharedMemory] = None
        self._chunks: Optional[ChunkMap] = None

    # -- create side (worker) ---------------------------------------------

    @classmethod
    def pack(cls, chunks: ChunkMap, token: str) -> "ShardPayload":
        """Copy every chunk column into one fresh segment.

        Layout: columns in sorted (table, chunk, column) manifest order,
        each aligned to 16 bytes; the manifest carries dtype/shape/offset
        so the attach side rebuilds views without touching the data.
        """
        manifest: List[_ManifestRow] = []
        arrays: List[np.ndarray] = []
        offset = 0
        for table in sorted(chunks):
            for chunk_index, chunk in enumerate(chunks[table]):
                for column in sorted(chunk):
                    arr = np.ascontiguousarray(chunk[column])
                    offset = -(-offset // _ALIGN) * _ALIGN
                    manifest.append((
                        table, chunk_index, column,
                        arr.dtype.str, arr.shape, offset,
                    ))
                    arrays.append(arr)
                    offset += arr.nbytes
        shm = _create_segment(token, max(1, offset))
        try:
            for row, arr in zip(manifest, arrays):
                view = np.ndarray(row[4], dtype=row[3], buffer=shm.buf,
                                  offset=row[5])
                view[...] = arr
                del view
        except BaseException:
            shm.unlink()
            raise
        finally:
            shm.close()
        # Success: the parent owns the segment from here on; stop this
        # process's tracker from unlinking it at worker exit.
        _untrack(shm)
        return cls(shm.name, tuple(sorted(chunks)), tuple(manifest),
                   max(1, offset))

    # -- attach side (parent) ---------------------------------------------

    def attach(self) -> "ShardPayload":
        """Map the segment and build zero-copy views (idempotent)."""
        if self._chunks is not None:
            return self
        try:
            shm = shared_memory.SharedMemory(name=self.name)
        except FileNotFoundError:
            raise EngineError(
                f"shard payload segment {self.name!r} is gone — it was "
                f"unlinked (double accept?) or swept before attach"
            ) from None
        chunks: ChunkMap = {table: [] for table in self.tables}
        for table, chunk_index, column, dtype, shape, offset in self.manifest:
            per_table = chunks[table]
            while len(per_table) <= chunk_index:
                per_table.append({})
            per_table[chunk_index][column] = np.ndarray(
                shape, dtype=dtype, buffer=shm.buf, offset=offset,
            )
        self._shm = shm
        self._chunks = chunks
        return self

    def chunk_map(self) -> ChunkMap:
        """The shard's chunks as views over the shared buffer."""
        return self.attach()._chunks

    def materialize(self) -> ChunkMap:
        """A deep copy with ordinary heap arrays (checkpoint-safe)."""
        return {
            table: [
                {column: np.array(arr, copy=True)
                 for column, arr in chunk.items()}
                for chunk in per_table
            ]
            for table, per_table in self.chunk_map().items()
        }

    # -- lifecycle ---------------------------------------------------------

    def unlink(self) -> bool:
        """Drop the ``/dev/shm`` entry; mapped memory stays valid.

        Call as soon as the payload is accepted: from then on the data
        lives exactly as long as this (attached) handle, and a crash at
        any later point cannot leak the segment. Returns False when the
        entry was already gone (janitor raced, or double unlink).
        """
        if self._shm is not None:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                return False
            return True
        try:
            shm = shared_memory.SharedMemory(name=self.name)
        except FileNotFoundError:
            return False
        try:
            shm.unlink()
        except FileNotFoundError:
            return False
        finally:
            shm.close()
        return True

    def release(self) -> None:
        """Drop views and unmap. Only safe once no view escapes."""
        self._chunks = None
        if self._shm is not None:
            try:
                self._shm.close()
            except BufferError:
                # A view still escapes (e.g. merged arrays not yet
                # concatenated); the mapping lives until they are GC'd.
                pass
            self._shm = None

    # Handles pickle without their attach-side state: a checkpoint or a
    # cross-process hop transports the name + manifest only.
    def __getstate__(self) -> dict:
        return {"name": self.name, "tables": self.tables,
                "manifest": self.manifest, "n_bytes": self.n_bytes}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["name"], state["tables"],
                      state["manifest"], state["n_bytes"])

    def __repr__(self) -> str:  # pragma: no cover - debug nicety
        return (f"ShardPayload({self.name!r}, {len(self.manifest)} columns, "
                f"{self.n_bytes} bytes)")


def _create_segment(token: str, size: int) -> shared_memory.SharedMemory:
    """A fresh named segment with its pages reserved; steps over
    (unlikely) name collisions.

    ``ftruncate`` alone only sizes a tmpfs file: on a full ``/dev/shm``
    the first write into the mapping then dies with SIGBUS. Reserving
    the pages up front turns that into an :class:`EngineError` the
    resilience layer can handle. A free-space check before creating the
    segment would race between workers.
    """
    for _ in range(8):
        name = _next_name(token)
        try:
            shm = shared_memory.SharedMemory(name=name, create=True,
                                             size=size)
        except FileExistsError:  # pragma: no cover - 48-bit token clash
            continue
        try:
            if hasattr(os, "posix_fallocate"):
                os.posix_fallocate(shm._fd, 0, size)
        except OSError as exc:
            shm.close()
            shm.unlink()
            raise EngineError(
                f"cannot reserve {size} bytes of shared memory for "
                f"{name!r}: {exc}"
            ) from None
        return shm
    raise EngineError(  # pragma: no cover - would need 8 clashes
        f"cannot allocate a shared-memory segment under {token!r}"
    )


def segment_names(token: Optional[str] = None) -> List[str]:
    """Live repro segments (optionally scoped to one run token)."""
    if not SHM_DIR.is_dir():  # pragma: no cover - non-Linux
        return []
    prefix = SEGMENT_PREFIX + (f"{token}-" if token else "")
    return sorted(
        entry.name for entry in SHM_DIR.iterdir()
        if entry.name.startswith(prefix)
    )


def segment_bytes(token: Optional[str] = None) -> int:
    """Total bytes of live repro segments (the resource sampler's view).

    Sums ``st_size`` of the ``/dev/shm`` entries; a segment unlinked
    between the scan and the stat simply stops counting. Zero on
    platforms without a visible shm directory.
    """
    total = 0
    for name in segment_names(token):
        try:
            total += (SHM_DIR / name).stat().st_size
        except OSError:  # pragma: no cover - racing unlink
            continue
    return total


def sweep_orphans(token: Optional[str] = None) -> List[str]:
    """Unlink stray repro segments; returns the reclaimed names.

    With ``token`` this reaps exactly one run's leftovers (the campaign
    and study runners call this in ``finally``, after the executor has
    drained, so a chaos-killed or timed-out run cannot leak). Without a
    token it reaps every repro-prefixed segment — for the CLI and tests,
    where no concurrent repro run shares the host namespace.
    """
    removed: List[str] = []
    for name in segment_names(token):
        try:
            shm = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:  # pragma: no cover - racing cleanup
            continue
        except OSError:  # pragma: no cover - permission/foreign segment
            continue
        try:
            shm.unlink()
            removed.append(name)
        except FileNotFoundError:  # pragma: no cover - racing cleanup
            pass
        finally:
            shm.close()
    return removed
