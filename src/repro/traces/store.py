"""Out-of-core columnar campaign storage.

A :class:`CampaignStore` is the disk twin of the in-memory
:class:`~repro.traces.dataset.CampaignDataset`: one directory per campaign
holding every table as canonical-order column files that analyses read
**memory-mapped**, so a campaign never has to fit in RAM. It is the seam
between the engine (which spills each completed shard's columnar chunks
into a *partition* as it arrives, instead of accumulating them in the
parent) and the analysis layer (which maps the finalized columns and pays
only for the pages it touches).

Layout::

    campaign2015/
        store_manifest.json       # format, fingerprint, per-column schema
        meta.json                 # devices, AP directory, ground truth
        tables/traffic__rx.npy    # canonical (device, t)-sorted columns
        tables/...
        parts/shard-0007/         # spill partitions (removed on finalize
            part_manifest.json    # unless checkpoints reference them)
            traffic__rx.npy
            ...

Every (table, column) is one ``.npy`` file, loaded with
``np.load(..., mmap_mode="r")`` — no dependency beyond numpy. Column
projection pushdown is structural — a reader opens only the column files
it asks for — and predicate pushdown reads just the predicate columns
before gathering the projection. The manifest records ``"format": "npy"``;
opening a store whose manifest names any other format is an error.

Determinism: the streaming merge (:meth:`CampaignStore.finalize`)
reproduces ``DatasetBuilder.build`` exactly — partitions are concatenated
in canonical shard order and, only if out of order, permuted by the same
stable ``np.lexsort((t, device))`` — so a store-backed dataset is
bit-for-bit identical to the in-memory path at any ``n_jobs`` (pinned by
``tests/test_store.py``). Peak memory of the merge is bounded by the sort
keys plus the permutation (~16 bytes/row) and one copy block, never by
the full table.

The **fingerprint** is a SHA-256 over the schema and the content digest of
every finalized column; :meth:`AnalysisContext.for_store
<repro.analysis.context.AnalysisContext.for_store>` keys its memo on it,
so rewriting a store invalidates cached artifacts while reopening an
unchanged one reuses them.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import (
    Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple,
    Union,
)

import numpy as np

from repro.errors import ConfigurationError, DatasetError
from repro.obs.recorder import EventKind, get_recorder
from repro.timeutil import TimeAxis
from repro.traces.dataset import (
    CampaignDataset, GroundTruth, _EMPTY_DTYPES, _in_canonical_order, _Table,
)
from repro.traces.io import (
    _ap_from_json,
    _ap_to_json,
    _device_from_json,
    _device_to_json,
    _truth_from_json,
    _truth_to_json,
)
from repro.traces.records import ApDirectoryEntry, DeviceInfo

__all__ = [
    "CampaignStore",
    "PartitionRef",
    "STORE_MANIFEST",
    "is_store_dir",
    "open_store",
    "store_fingerprint",
    "sweep_orphan_partitions",
]

STORE_MANIFEST = "store_manifest.json"
_PART_MANIFEST = "part_manifest.json"
_STORE_VERSION = 1
_STORE_FORMAT = "npy"

#: Rows copied (and hashed) per block during the streaming merge; bounds
#: the merge's transient working set to one block per column.
MERGE_BLOCK_ROWS = 1 << 18

_TABLE_NAMES = tuple(_EMPTY_DTYPES)


@dataclass(frozen=True)
class PartitionRef:
    """Small picklable handle to one spilled shard partition.

    Carries everything the merge and checkpoint layers need without
    touching the data again: per-table row counts, the AP ids the shard
    observed, and a digest of the partition manifest so a checkpoint that
    references a partition can detect a stale or vanished spill and fall
    back to re-simulation.
    """

    root: str
    name: str
    n_rows: Mapping[str, int]
    n_bytes: int
    observed_ap_ids: Tuple[int, ...]
    digest: str

    @property
    def path(self) -> Path:
        return Path(self.root) / "parts" / self.name

    def is_valid(self) -> bool:
        """True when the on-disk partition still matches this handle."""
        manifest_path = self.path / _PART_MANIFEST
        try:
            blob = manifest_path.read_bytes()
        except OSError:
            return False
        return hashlib.sha256(blob).hexdigest() == self.digest

    def chunk_map(self) -> Dict[str, List[Dict[str, np.ndarray]]]:
        """The partition's tables as one builder-compatible chunk each.

        Within a shard the builder concatenates chunks in append order
        (sorting only out-of-order input), so the concatenated per-column
        arrays stored here are interchangeable with the original chunk
        list — merging them produces a bit-identical dataset. Used when a
        checkpointed, partition-backed shard is resumed into a run without
        a store.
        """
        if not self.is_valid():
            raise DatasetError(
                f"store partition {self.path} is missing or stale; "
                f"re-run without --resume to re-simulate the shard"
            )
        chunks: Dict[str, List[Dict[str, np.ndarray]]] = {}
        for table, rows in self.n_rows.items():
            if rows == 0:
                chunks[table] = []
                continue
            columns = {
                column: np.load(
                    self.path / f"{table}__{column}.npy", mmap_mode="r"
                )
                for column, _ in _EMPTY_DTYPES[table]
            }
            chunks[table] = [columns]
        return chunks


class CampaignStore:
    """One campaign's out-of-core columnar storage directory."""

    def __init__(self, root: Union[str, Path], year: int,
                 axis: TimeAxis) -> None:
        self.root = Path(root)
        self.year = year
        self.axis = axis
        #: Set by :meth:`finalize` / :meth:`_read_manifest`.
        self._manifest: Optional[dict] = None

    # -- opening an existing store ----------------------------------------

    @classmethod
    def open(cls, root: Union[str, Path]) -> "CampaignStore":
        """Open a finalized store for reading."""
        root = Path(root)
        manifest_path = root / STORE_MANIFEST
        if not manifest_path.exists():
            raise DatasetError(f"no campaign store at {root}")
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("store_version") != _STORE_VERSION:
            raise DatasetError(
                f"unsupported store version: {manifest.get('store_version')}"
            )
        if manifest.get("format") != _STORE_FORMAT:
            raise ConfigurationError(
                f"campaign store {root} uses column format "
                f"{manifest.get('format')!r}; only {_STORE_FORMAT!r} stores "
                f"can be read"
            )
        axis = TimeAxis(date.fromisoformat(manifest["start"]),
                        manifest["n_days"])
        store = cls(root, manifest["year"], axis)
        store._manifest = manifest
        return store

    @property
    def parts_dir(self) -> Path:
        return self.root / "parts"

    @property
    def tables_dir(self) -> Path:
        return self.root / "tables"

    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the finalized store (schema + data)."""
        if self._manifest is None:
            self._manifest = self._read_manifest()
        return self._manifest["fingerprint"]

    def _read_manifest(self) -> dict:
        manifest_path = self.root / STORE_MANIFEST
        if not manifest_path.exists():
            raise DatasetError(
                f"campaign store {self.root} has not been finalized"
            )
        return json.loads(manifest_path.read_text())

    # -- shard spill (engine write path) -----------------------------------

    def write_partition(
        self,
        name: str,
        chunks: Mapping[str, Sequence[Mapping[str, np.ndarray]]],
    ) -> PartitionRef:
        """Land one shard's columnar chunks as a spill partition.

        Chunks are concatenated per column in append order (exactly the
        order ``DatasetBuilder.build`` would see), written atomically
        (temp dir + rename), and summarized in a ``part_manifest.json``
        whose digest rides on the returned :class:`PartitionRef`.
        """
        self.parts_dir.mkdir(parents=True, exist_ok=True)
        final_dir = self.parts_dir / name
        tmp_dir = self.parts_dir / f".{name}.tmp"
        if tmp_dir.exists():
            shutil.rmtree(tmp_dir)
        tmp_dir.mkdir(parents=True)
        n_rows: Dict[str, int] = {}
        n_bytes = 0
        observed: Set[int] = set()
        for table in _TABLE_NAMES:
            chunk_list = list(chunks.get(table, ()))
            if not chunk_list:
                n_rows[table] = 0
                continue
            names = [column for column, _ in _EMPTY_DTYPES[table]]
            rows = 0
            for column in names:
                arr = (chunk_list[0][column] if len(chunk_list) == 1
                       else np.concatenate(
                           [chunk[column] for chunk in chunk_list]))
                arr = np.ascontiguousarray(arr)
                np.save(tmp_dir / f"{table}__{column}.npy", arr)
                rows = len(arr)
                n_bytes += arr.nbytes
                if column == "ap_id":
                    unique = np.unique(arr)
                    observed.update(int(a) for a in unique if a >= 0)
            n_rows[table] = rows
        manifest = {
            "name": name,
            "year": self.year,
            "n_rows": n_rows,
            "n_bytes": n_bytes,
            "observed_ap_ids": sorted(observed),
        }
        blob = (json.dumps(manifest, sort_keys=True) + "\n").encode()
        (tmp_dir / _PART_MANIFEST).write_bytes(blob)
        if final_dir.exists():
            shutil.rmtree(final_dir)
        tmp_dir.rename(final_dir)
        recorder = get_recorder()
        recorder.count("store_partitions")
        recorder.count("store_spill_bytes", n_bytes)
        recorder.emit(EventKind.SPILL, year=self.year, partition=name,
                      bytes=n_bytes)
        return PartitionRef(
            root=str(self.root), name=name, n_rows=dict(n_rows),
            n_bytes=n_bytes, observed_ap_ids=tuple(sorted(observed)),
            digest=hashlib.sha256(blob).hexdigest(),
        )

    def partition_names(self) -> List[str]:
        """Names of every on-disk spill partition (orphans included)."""
        if not self.parts_dir.is_dir():
            return []
        return sorted(
            entry.name for entry in self.parts_dir.iterdir()
            if entry.is_dir() and not entry.name.startswith(".")
        )

    def sweep_partitions(self, keep: Iterable[str] = ()) -> List[str]:
        """Remove spill partitions not in ``keep``; returns removed names.

        The janitor twin of the engine's shared-memory ``sweep_orphans``:
        a chaos-killed run leaves partitions behind, and the campaign
        runner reclaims them in its ``finally`` unless a checkpoint store
        still references them for resume.
        """
        keep_set = set(keep)
        removed = []
        for name in self.partition_names():
            if name not in keep_set:
                shutil.rmtree(self.parts_dir / name, ignore_errors=True)
                removed.append(name)
        if not keep_set and self.parts_dir.is_dir():
            shutil.rmtree(self.parts_dir, ignore_errors=True)
        return removed

    # -- streaming merge (finalize) ----------------------------------------

    def finalize(
        self,
        devices: Sequence[DeviceInfo],
        ap_directory: Mapping[int, ApDirectoryEntry],
        ground_truth: Optional[GroundTruth],
        partitions: Sequence[PartitionRef],
    ) -> dict:
        """Streaming-merge ``partitions`` (in canonical shard order) into
        the finalized canonical column files, then write the manifests.

        Partitions already in canonical ``(device, t)`` order, each
        starting at or after the previous one's last row (what the kernel
        and the planner produce), stream straight into the column files.
        Otherwise they are copied into append-order staging files (mmap to
        mmap) and the stable ``lexsort((t, device))`` permutation is
        applied block-wise. The written bytes are hashed into the content
        fingerprint as they are written.
        """
        recorder = get_recorder()
        with recorder.span("store_finalize", year=self.year,
                           n_partitions=len(partitions)):
            manifest = self._finalize(devices, ap_directory, ground_truth,
                                      partitions)
        recorder.emit(EventKind.STORE_FINALIZED, year=self.year,
                      n_partitions=len(partitions))
        return manifest

    def _finalize(self, devices, ap_directory, ground_truth, partitions):
        self.tables_dir.mkdir(parents=True, exist_ok=True)
        tables_meta: Dict[str, dict] = {}
        for table in _TABLE_NAMES:
            tables_meta[table] = self._merge_table(table, partitions,
                                                   len(devices))
        fingerprint = hashlib.sha256()
        for table in _TABLE_NAMES:
            for column, _ in _EMPTY_DTYPES[table]:
                meta = tables_meta[table]["columns"][column]
                fingerprint.update(
                    f"{table}.{column}:{meta['dtype']}:{meta['sha256']}"
                    .encode()
                )
        manifest = {
            "store_version": _STORE_VERSION,
            "format": _STORE_FORMAT,
            "year": self.year,
            "start": self.axis.start.isoformat(),
            "n_days": self.axis.n_days,
            "n_partitions": len(partitions),
            "tables": tables_meta,
            "fingerprint": fingerprint.hexdigest(),
        }
        meta = {
            "format_version": 1,
            "year": self.year,
            "start": self.axis.start.isoformat(),
            "n_days": self.axis.n_days,
            "devices": [_device_to_json(d) for d in devices],
            "ap_directory": [_ap_to_json(e) for e in ap_directory.values()],
            "ground_truth": _truth_to_json(ground_truth),
        }
        (self.root / "meta.json").write_text(json.dumps(meta))
        (self.root / STORE_MANIFEST).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        self._manifest = manifest
        return manifest

    def _merge_table(self, table: str, partitions: Sequence[PartitionRef],
                     n_devices: int) -> dict:
        column_specs = _EMPTY_DTYPES[table]
        parts = [ref for ref in partitions if ref.n_rows.get(table, 0)]
        total = sum(ref.n_rows[table] for ref in parts)
        sort_key = "t" if "t" in dict(column_specs) else "day"
        keys = [(_part_column(ref, table, "device"),
                 _part_column(ref, table, sort_key)) for ref in parts]

        # Range validation, mirroring DatasetBuilder._validate_ranges.
        limit = self.axis.n_slots if sort_key == "t" else self.axis.n_days
        if keys and (min(int(d.min()) for d, _ in keys) < 0
                     or max(int(d.max()) for d, _ in keys) >= n_devices):
            raise DatasetError(f"table {table!r} references unknown device")
        if keys and (min(int(k.min()) for _, k in keys) < 0
                     or max(int(k.max()) for _, k in keys) >= limit):
            raise DatasetError(f"table {table!r} has out-of-range {sort_key}")

        in_order = all(_in_canonical_order(d, k) for d, k in keys) and all(
            (int(d0[-1]), int(k0[-1])) <= (int(d1[0]), int(k1[0]))
            for (d0, k0), (d1, k1) in zip(keys, keys[1:])
        )
        del keys

        def appended(column: str) -> Iterator[np.ndarray]:
            return _blocks(_part_column(ref, table, column) for ref in parts)

        stage: Dict[str, Path] = {}
        if not in_order:
            # Stage the partitions in append order, then apply the
            # builder's exact stable sort block-wise.
            for column, dtype in column_specs:
                path = self.tables_dir / f".stage-{table}__{column}.npy"
                _write_npy(path, dtype, total, appended(column))
                stage[column] = path
            staged = {c: np.load(p, mmap_mode="r") for c, p in stage.items()}
            order = np.lexsort((np.asarray(staged[sort_key]),
                                np.asarray(staged["device"])))
        columns_meta = {}
        for column, dtype in column_specs:
            blocks = (appended(column) if in_order else
                      (staged[column][rows] for rows in _blocks([order])))
            path = self.tables_dir / f"{table}__{column}.npy"
            columns_meta[column] = {
                "dtype": np.dtype(dtype).str,
                "sha256": _write_npy(path, dtype, total, blocks),
            }
        if stage:
            del staged  # release the staging maps before unlinking them
            for path in stage.values():
                path.unlink()
        return {"n_rows": int(total), "columns": columns_meta}

    # -- read path ---------------------------------------------------------

    def column(self, table: str, column: str) -> np.ndarray:
        """One finalized column, memory-mapped read-only where possible."""
        manifest = self._manifest or self._read_manifest()
        self._manifest = manifest
        table_meta = manifest["tables"].get(table)
        if table_meta is None or column not in table_meta["columns"]:
            raise DatasetError(
                f"store {self.root} has no column {table}.{column}"
            )
        path = self.tables_dir / f"{table}__{column}.npy"
        rows = table_meta["n_rows"]
        values = np.load(path, mmap_mode="r" if rows else None)
        if len(values) != rows:
            raise DatasetError(f"store column {table}.{column} has "
                               f"{len(values)} rows, manifest says {rows}")
        return values

    def table(self, name: str,
              columns: Optional[Sequence[str]] = None) -> _Table:
        """A table over ``columns``, each mapped on first access
        (projection pushdown)."""
        wanted = ([c for c, _ in _EMPTY_DTYPES[name]]
                  if columns is None else list(columns))
        return _Table(_MappedColumns(self, name, wanted))

    def select(
        self,
        table: str,
        columns: Optional[Sequence[str]] = None,
        where: Optional[Mapping[str, object]] = None,
    ) -> Dict[str, np.ndarray]:
        """Projected, filtered rows with predicate pushdown.

        ``where`` maps column names to either a scalar (equality) or a
        ``(lo, hi)`` half-open range. Only predicate columns are read to
        build the row mask; projected columns are then gathered through
        it — the rest of the table's bytes never leave disk.
        """
        mask: Optional[np.ndarray] = None
        for column, predicate in (where or {}).items():
            values = self.column(table, column)
            if isinstance(predicate, tuple):
                lo, hi = predicate
                hit = (values >= lo) & (values < hi)
            else:
                hit = values == predicate
            mask = hit if mask is None else (mask & hit)
        wanted = ([c for c, _ in _EMPTY_DTYPES[table]]
                  if columns is None else list(columns))
        out = {}
        for column in wanted:
            values = self.column(table, column)
            out[column] = np.asarray(values if mask is None
                                     else values[mask])
        return out

    def load_dataset(self) -> CampaignDataset:
        """The finalized campaign as a dataset over memory-mapped columns.

        Bit-identical to the in-memory build; each column file is mapped
        on first access and paged lazily, so analyses touch only the
        columns and bytes they use.
        """
        meta_path = self.root / "meta.json"
        if not meta_path.exists():
            raise DatasetError(
                f"campaign store {self.root} has not been finalized"
            )
        meta = json.loads(meta_path.read_text())
        tables = {name: self.table(name) for name in _TABLE_NAMES}
        return CampaignDataset(
            year=meta["year"],
            axis=TimeAxis(date.fromisoformat(meta["start"]), meta["n_days"]),
            devices=[_device_from_json(d) for d in meta["devices"]],
            ap_directory={
                e["ap_id"]: _ap_from_json(e) for e in meta["ap_directory"]
            },
            ground_truth=_truth_from_json(meta.get("ground_truth")),
            **tables,
        )


class _MappedColumns(Mapping):
    """A store table's columns, each memory-mapped on first access, so a
    store-backed dataset adds to the address space only the columns
    something reads."""

    def __init__(self, store: CampaignStore, table: str,
                 names: Sequence[str]) -> None:
        self._store = store
        self._table = table
        self._mapped: Dict[str, Optional[np.ndarray]] = dict.fromkeys(names)

    def __getitem__(self, name: str) -> np.ndarray:
        if self._mapped[name] is None:
            self._mapped[name] = self._store.column(self._table, name)
        return self._mapped[name]

    def __iter__(self):
        return iter(self._mapped)

    def __len__(self) -> int:
        return len(self._mapped)


def _blocks(arrays: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """The arrays' rows in order, ``MERGE_BLOCK_ROWS`` at a time."""
    for arr in arrays:
        for lo in range(0, len(arr), MERGE_BLOCK_ROWS):
            yield arr[lo:lo + MERGE_BLOCK_ROWS]


def _write_npy(path: Path, dtype, total: int,
               blocks: Iterable[np.ndarray]) -> str:
    """Write ``total`` rows from ``blocks`` as one ``.npy`` column and
    return the sha256 of the written bytes."""
    out = np.lib.format.open_memmap(path, mode="w+", dtype=np.dtype(dtype),
                                    shape=(total,))
    hasher = hashlib.sha256()
    lo = 0
    for block in blocks:
        block = np.ascontiguousarray(block, dtype=dtype)
        out[lo:lo + len(block)] = block
        hasher.update(block)
        lo += len(block)
    out.flush()
    del out
    return hasher.hexdigest()


def _part_column(ref: PartitionRef, table: str, column: str) -> np.ndarray:
    """One partition column, memory-mapped, checked against its manifest."""
    src = np.load(ref.path / f"{table}__{column}.npy", mmap_mode="r")
    rows = ref.n_rows[table]
    if len(src) != rows:
        raise DatasetError(
            f"partition {ref.name} table {table!r}: column {column!r} has "
            f"{len(src)} rows, manifest says {rows}"
        )
    return src


def is_store_dir(path: Union[str, Path]) -> bool:
    """True when ``path`` holds a finalized campaign store."""
    return (Path(path) / STORE_MANIFEST).exists()


def open_store(path: Union[str, Path]) -> CampaignStore:
    """Open a finalized store for reading (alias of ``CampaignStore.open``)."""
    return CampaignStore.open(path)


def store_fingerprint(path: Union[str, Path]) -> str:
    """The content fingerprint of a finalized store directory."""
    return CampaignStore.open(path).fingerprint


def sweep_orphan_partitions(root: Union[str, Path]) -> List[str]:
    """Reclaim spill partitions under a store (or store-parent) directory.

    The disk analogue of ``repro.engine.transport.sweep_orphans``: a run
    killed between spill and finalize leaves ``parts/`` behind; this
    removes every partition under ``root`` (a single campaign store or a
    ``--store-dir`` holding several) and returns the removed names.
    """
    root = Path(root)
    removed: List[str] = []
    for parts in _orphan_parts_dirs(root):
        for entry in sorted(parts.iterdir()):
            removed.append(entry.name)
        shutil.rmtree(parts, ignore_errors=True)
    return removed


def list_orphan_partitions(root: Union[str, Path]) -> List[str]:
    """What :func:`sweep_orphan_partitions` would remove, without removing.

    Backs ``repro clean --dry-run``.
    """
    names: List[str] = []
    for parts in _orphan_parts_dirs(Path(root)):
        names.extend(sorted(entry.name for entry in parts.iterdir()))
    return names


def _orphan_parts_dirs(root: Path) -> List[Path]:
    candidates = [root] + sorted(
        p for p in root.glob("campaign*") if p.is_dir()
    )
    return [c / "parts" for c in candidates if (c / "parts").is_dir()]
