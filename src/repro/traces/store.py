"""Saved campaigns: the one on-disk campaign layout.

A :class:`CampaignStore` is the disk twin of the in-memory
:class:`~repro.traces.dataset.CampaignDataset`: one directory per campaign
holding every table as canonical-order column files that analyses read
**memory-mapped**, so a campaign never has to fit in RAM. Every saved
campaign has this layout. :func:`save_dataset` writes a built dataset
through :meth:`CampaignStore.finalize`, the same writer the engine streams
spilled shards into (``--store disk``), and :func:`load_dataset` opens
either one.

Layout::

    campaign2015/
        store_manifest.json       # format, fingerprint, per-column schema
        meta.json                 # devices, AP directory, ground truth
        tables/traffic__rx.npy    # canonical (device, t)-sorted columns
        tables/...
        parts/shard-0007/         # spill partitions (removed on finalize;
            part_manifest.json    # a killed run keeps them for --resume)
            traffic__rx.npy
            ...

Every (table, column) is one ``.npy`` file, loaded with
``np.load(..., mmap_mode="r")`` — no dependency beyond numpy — so loaded
columns are read-only. A reader maps only the column files it touches.
The manifest records ``"format": "npy"``; opening a store whose manifest
names any other format is an error.

Determinism: the streaming merge (:meth:`CampaignStore.finalize`)
reproduces ``DatasetBuilder.build`` exactly — chunks are concatenated in
the order given (canonical shard order) and, only if out of order,
permuted by the same stable ``np.lexsort((t, device))`` — so a
store-backed dataset is bit-for-bit identical to the in-memory path at
any ``n_jobs`` (pinned by ``tests/test_store.py``). Peak memory of the
merge is bounded by the sort keys plus the permutation (~16 bytes/row)
and one copy block, never by the full table.

The **fingerprint** is a SHA-256 over the schema and the content digest of
every finalized column: two saved campaigns with the same fingerprint hold
the same bits.

A spill partition is also the one durable form of a finished shard. Its
``part_manifest.json`` records the run identity the store was bound to
(:meth:`CampaignStore.bind`), a SHA-256 of every column, the shard's
collection accounting and a digest of the manifest itself, so a resumed
run reuses exactly the partitions that still hold what was written.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from datetime import date
from functools import partial
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence,
    Union,
)

import numpy as np

from repro.errors import ConfigurationError, DatasetError
from repro.net.accesspoint import APType
from repro.net.cellular import CellularTechnology
from repro.obs.recorder import EventKind, get_recorder
from repro.radio.bands import Band
from repro.timeutil import TimeAxis
from repro.traces.dataset import (
    CampaignDataset, ChunkMap, GroundTruth, _EMPTY_DTYPES,
    _in_canonical_order, _Table, check_ranges,
)
from repro.traces.records import ApDirectoryEntry, DeviceInfo, DeviceOS

__all__ = [
    "CampaignStore",
    "PartitionRef",
    "STORE_MANIFEST",
    "load_dataset",
    "save_dataset",
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

    Carries everything the merge layer needs without touching the data
    again: per-table row counts, the shard's collection accounting as it
    was spilled and a digest of the partition manifest, so a partition
    that vanished or changed since is refused rather than merged.
    """

    root: str
    name: str
    n_rows: Mapping[str, int]
    digest: str
    collection: Mapping[str, object]

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

    def chunk_map(self) -> ChunkMap:
        """The partition's tables as one builder-compatible chunk each.

        Within a shard the builder concatenates chunks in append order
        (sorting only out-of-order input), so the concatenated per-column
        arrays stored here are interchangeable with the original chunk
        list — merging them produces a bit-identical dataset. Each column
        is memory-mapped afresh on every access and checked against the
        manifest's row count; the chunk holds no map, so a streaming
        merge keeps one column of one partition mapped at a time.
        """
        if not self.is_valid():
            raise DatasetError(
                f"store partition {self.path} is missing or stale"
            )
        return {
            table: [_MappedColumns(table, partial(self._column, table),
                                   hold=False)] if rows else []
            for table, rows in self.n_rows.items()
        }

    def _column(self, table: str, column: str) -> np.ndarray:
        values = np.load(self.path / f"{table}__{column}.npy", mmap_mode="r")
        rows = self.n_rows[table]
        if len(values) != rows:
            raise DatasetError(
                f"partition {self.name} table {table!r}: column {column!r} "
                f"has {len(values)} rows, manifest says {rows}"
            )
        return values


class CampaignStore:
    """One campaign's out-of-core columnar storage directory."""

    def __init__(self, root: Union[str, Path], year: int,
                 axis: TimeAxis) -> None:
        self.root = Path(root)
        self.year = year
        self.axis = axis
        #: The run identity spilled partitions record (see :meth:`bind`).
        self.identity: Optional[dict] = None
        #: Set by :meth:`finalize` / :meth:`_read_manifest`.
        self._manifest: Optional[dict] = None

    # -- opening an existing store ----------------------------------------

    @classmethod
    def open(cls, root: Union[str, Path]) -> "CampaignStore":
        """Open a finalized store for reading."""
        root = Path(root)
        manifest_path = root / STORE_MANIFEST
        if not manifest_path.exists():
            if (root / "tables.npz").exists():
                raise DatasetError(
                    f"{root} holds a campaign in the retired tables.npz "
                    f"layout; re-run `repro simulate` to save it again"
                )
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

    def bind(self, identity: Mapping[str, object],
             resume: bool) -> "tuple[List[PartitionRef], List[str]]":
        """Bind this store to one run's identity before any shard spills.

        Every partition written from now on records ``identity``. A fresh
        run purges ``parts/``. A resume keeps each partition that
        :meth:`_verified` accepts and deletes any other; it returns the
        kept partitions and the names of the deleted ones.
        """
        self.identity = dict(identity)
        if not resume:
            self.sweep_partitions()
            return [], []
        kept: List[PartitionRef] = []
        rejected: List[str] = []
        for name in self.partition_names():
            try:
                kept.append(self._verified(name))
            except (DatasetError, OSError, ValueError, KeyError, TypeError):
                shutil.rmtree(self.parts_dir / name, ignore_errors=True)
                rejected.append(name)
        return kept, rejected

    def _verified(self, name: str) -> PartitionRef:
        """Partition ``name``, if its manifest matches its own digest and
        its directory and every column re-hashes to its recorded digest.

        A partition written under another run identity is refused with
        :class:`~repro.errors.ConfigurationError` and left in place.
        """
        blob = (self.parts_dir / name / _PART_MANIFEST).read_bytes()
        manifest = json.loads(blob)
        body = {k: v for k, v in manifest.items() if k != "sha256"}
        if manifest["sha256"] != _json_digest(body) or body["name"] != name:
            raise DatasetError(f"partition {name}: manifest does not match")
        written_by = body["identity"] or {}
        if written_by != self.identity:
            diffs = [key for key in sorted(self.identity)
                     if written_by.get(key) != self.identity[key]]
            raise ConfigurationError(
                f"--resume: partition {self.parts_dir / name} was written "
                f"by a different run (mismatched: {', '.join(diffs)}); "
                f"refusing to merge it. Drop --resume to start fresh, or "
                f"run `repro clean {self.root}` first"
            )
        for table, rows in body["n_rows"].items():
            for column, dtype in _EMPTY_DTYPES[table] if rows else ():
                key = f"{table}__{column}"
                values = np.load(self.parts_dir / name / f"{key}.npy",
                                 mmap_mode="r")
                hasher = hashlib.sha256()
                for block in _blocks([values]):
                    hasher.update(block)
                if (values.dtype != np.dtype(dtype) or len(values) != rows
                        or hasher.hexdigest() != body["columns"][key]):
                    raise DatasetError(f"partition {name}: column {key} "
                                       f"does not match its manifest")
        return self._ref(body, blob)

    def _ref(self, body: dict, blob: bytes) -> PartitionRef:
        return PartitionRef(
            root=str(self.root), name=body["name"], n_rows=body["n_rows"],
            digest=hashlib.sha256(blob).hexdigest(),
            collection=body["collection"],
        )

    def write_partition(
        self,
        name: str,
        chunks: Mapping[str, Sequence[Mapping[str, np.ndarray]]],
        collection: Optional[Mapping[str, object]] = None,
    ) -> PartitionRef:
        """Land one shard's columnar chunks as a spill partition.

        Chunks are written per column in append order (exactly the order
        ``DatasetBuilder.build`` would see), atomically (temp dir +
        rename), and summarized in a ``part_manifest.json`` holding the
        bound run identity, each column's SHA-256, the shard's
        ``collection`` accounting (JSON values) and a digest of the
        manifest itself; the file's digest rides on the returned
        :class:`PartitionRef`.
        """
        self.parts_dir.mkdir(parents=True, exist_ok=True)
        final_dir = self.parts_dir / name
        tmp_dir = self.parts_dir / f".{name}.tmp"
        if tmp_dir.exists():
            shutil.rmtree(tmp_dir)
        tmp_dir.mkdir(parents=True)
        n_rows: Dict[str, int] = {}
        digests: Dict[str, str] = {}
        n_bytes = 0
        for table in _TABLE_NAMES:
            chunk_list = [chunk for chunk in chunks.get(table, ())
                          if len(chunk["device"])]
            rows = sum(len(chunk["device"]) for chunk in chunk_list)
            n_rows[table] = rows
            if not rows:
                continue
            for column, dtype in _EMPTY_DTYPES[table]:
                key = f"{table}__{column}"
                digests[key] = _write_npy(
                    tmp_dir / f"{key}.npy", dtype, rows,
                    _blocks(chunk[column] for chunk in chunk_list),
                )
                n_bytes += rows * np.dtype(dtype).itemsize
        body = {
            "name": name,
            "year": self.year,
            "identity": self.identity,
            "n_rows": n_rows,
            "n_bytes": n_bytes,
            "columns": digests,
            "collection": dict(collection or {}),
        }
        blob = (json.dumps({**body, "sha256": _json_digest(body)},
                           sort_keys=True) + "\n").encode()
        (tmp_dir / _PART_MANIFEST).write_bytes(blob)
        if final_dir.exists():
            shutil.rmtree(final_dir)
        tmp_dir.rename(final_dir)
        recorder = get_recorder()
        recorder.count("store_partitions")
        recorder.count("store_spill_bytes", n_bytes)
        recorder.emit(EventKind.SPILL, year=self.year, partition=name,
                      bytes=n_bytes)
        return self._ref(body, blob)

    def partition_names(self) -> List[str]:
        """Names of every on-disk spill partition (orphans included)."""
        if not self.parts_dir.is_dir():
            return []
        return sorted(
            entry.name for entry in self.parts_dir.iterdir()
            if entry.is_dir() and not entry.name.startswith(".")
        )

    def sweep_partitions(self) -> None:
        """Remove every spill partition: after a finalize, and before a
        fresh run spills (a killed run's stay for ``--resume``)."""
        shutil.rmtree(self.parts_dir, ignore_errors=True)

    # -- streaming merge (finalize) ----------------------------------------

    def finalize(
        self,
        devices: Sequence[DeviceInfo],
        ap_directory: Mapping[int, ApDirectoryEntry],
        ground_truth: Optional[GroundTruth],
        chunk_maps: Sequence[ChunkMap],
    ) -> dict:
        """Streaming-merge ``chunk_maps`` (in canonical shard order) into
        the finalized canonical column files, then write the manifests.

        A chunk map is a partition's :meth:`PartitionRef.chunk_map`, a
        shard's inline chunks or a built dataset's own columns. Chunks
        already in canonical ``(device, t)`` order, each starting at or
        after the previous one's last row (what the kernel and the planner
        produce), stream straight into the column files. Otherwise they
        are copied into append-order staging files (mmap to mmap) and the
        stable ``lexsort((t, device))`` permutation is applied block-wise.
        The written bytes are hashed into the content fingerprint as they
        are written. A store finalized before is replaced: its manifest
        goes first, so a merge that dies midway leaves no store that
        opens.
        """
        recorder = get_recorder()
        with recorder.span("store_finalize", year=self.year,
                           n_partitions=len(chunk_maps)):
            manifest = self._finalize(devices, ap_directory, ground_truth,
                                      chunk_maps)
        recorder.emit(EventKind.STORE_FINALIZED, year=self.year,
                      n_partitions=len(chunk_maps))
        return manifest

    def _finalize(self, devices, ap_directory, ground_truth, chunk_maps):
        (self.root / STORE_MANIFEST).unlink(missing_ok=True)
        # Unlinking keeps any mapped column readable: a dataset loaded from
        # this very store can be saved back over it.
        shutil.rmtree(self.tables_dir, ignore_errors=True)
        self.tables_dir.mkdir(parents=True)
        tables_meta: Dict[str, dict] = {}
        for table in _TABLE_NAMES:
            tables_meta[table] = self._merge_table(table, chunk_maps,
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
            "n_partitions": len(chunk_maps),
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

    def _merge_table(self, table: str, chunk_maps: Sequence[ChunkMap],
                     n_devices: int) -> dict:
        column_specs = _EMPTY_DTYPES[table]
        sort_key = "t" if "t" in dict(column_specs) else "day"
        chunks, keys = [], []
        for chunk_map in chunk_maps:
            for chunk in chunk_map.get(table, ()):
                device = chunk["device"]
                if len(device):
                    chunks.append(chunk)
                    keys.append((device, chunk[sort_key]))
        total = sum(len(device) for device, _ in keys)

        check_ranges(table, chunks, n_devices, self.axis)

        in_order = all(_in_canonical_order(d, k) for d, k in keys) and all(
            (int(d0[-1]), int(k0[-1])) <= (int(d1[0]), int(k1[0]))
            for (d0, k0), (d1, k1) in zip(keys, keys[1:])
        )
        del keys

        def appended(column: str) -> Iterator[np.ndarray]:
            return _blocks(chunk[column] for chunk in chunks)

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
            # On disk before the manifest that names it is written. A
            # spill partition needs no sync: resume re-hashes it.
            with open(path, "rb") as written:
                os.fsync(written.fileno())
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
        try:
            values = np.load(path, mmap_mode="r" if rows else None)
        except OSError as exc:
            raise DatasetError(
                f"store column {table}.{column} cannot be read: {exc}"
            ) from None
        if len(values) != rows:
            raise DatasetError(f"store column {table}.{column} has "
                               f"{len(values)} rows, manifest says {rows}")
        return values

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
        tables = {name: _Table(_MappedColumns(name, partial(self.column, name)))
                  for name in _TABLE_NAMES}
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
    """One table's columns, each memory-mapped by ``load`` on first access.

    A store-backed dataset holds each map once made (``hold``), so it adds
    to the address space only the columns something reads; a partition's
    chunk maps afresh on every access and holds nothing.
    """

    def __init__(self, table: str, load: Callable[[str], np.ndarray],
                 hold: bool = True) -> None:
        self._load = load
        self._hold = hold
        self._mapped: Dict[str, Optional[np.ndarray]] = dict.fromkeys(
            column for column, _ in _EMPTY_DTYPES[table]
        )

    def __getitem__(self, name: str) -> np.ndarray:
        values = self._mapped[name]
        if values is None:
            values = self._load(name)
            if self._hold:
                self._mapped[name] = values
        return values

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
    return the sha256 of the written bytes. Plain sequential writes: no
    file mapping to fault in page by page, and no sync (finalize syncs
    the columns it publishes)."""
    dtype = np.dtype(dtype)
    hasher = hashlib.sha256()
    with open(path, "wb") as out:
        np.lib.format.write_array_header_1_0(out, {
            "descr": np.lib.format.dtype_to_descr(dtype),
            "fortran_order": False, "shape": (total,),
        })
        for block in blocks:
            block = np.ascontiguousarray(block, dtype=dtype)
            out.write(block)
            hasher.update(block)
    return hasher.hexdigest()


def _json_digest(body: Mapping[str, object]) -> str:
    """SHA-256 of ``body``'s canonical JSON."""
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()
    ).hexdigest()


def save_dataset(dataset: CampaignDataset, path: Union[str, Path]) -> Path:
    """Write ``dataset`` to directory ``path`` (created if needed) as a
    finalized campaign store, replacing any campaign saved there."""
    store = CampaignStore(path, dataset.year, dataset.axis)
    # dict() maps every column now: a dataset loaded from ``path`` keeps
    # reading its own bytes while finalize replaces the files.
    columns = {table: [dict(getattr(dataset, table).columns)]
               for table in _TABLE_NAMES}
    store.finalize(dataset.devices, dataset.ap_directory,
                   dataset.ground_truth, [columns])
    return store.root


def load_dataset(path: Union[str, Path]) -> CampaignDataset:
    """Read a campaign saved by :func:`save_dataset` or a ``--store disk``
    run, its columns memory-mapped read-only."""
    return CampaignStore.open(path).load_dataset()


def sweep_orphan_partitions(root: Union[str, Path],
                            dry_run: bool = False) -> List[str]:
    """Reclaim spill partitions under a store (or store-parent) directory.

    The disk analogue of ``repro.engine.transport.sweep_orphans``: a
    ``--store disk`` run that dies before its merge keeps its accepted
    partitions so ``--resume`` can reuse them; this removes every
    partition under ``root`` (a single campaign store or a ``--out``
    directory holding several) and returns the removed names. With
    ``dry_run`` (``repro clean --dry-run``) it only lists them.
    """
    removed: List[str] = []
    for parts in _orphan_parts_dirs(Path(root)):
        removed.extend(sorted(entry.name for entry in parts.iterdir()))
        if not dry_run:
            shutil.rmtree(parts, ignore_errors=True)
    return removed


def _orphan_parts_dirs(root: Path) -> List[Path]:
    candidates = [root] + sorted(
        p for p in root.glob("campaign*") if p.is_dir()
    )
    return [c / "parts" for c in candidates if (c / "parts").is_dir()]


# -- meta.json codecs ------------------------------------------------------

def _device_to_json(d: DeviceInfo) -> dict:
    return {
        "device_id": d.device_id,
        "os": d.os.value,
        "carrier": d.carrier,
        "technology": d.technology.value,
        "recruited": d.recruited,
        "occupation": d.occupation,
    }


def _device_from_json(d: dict) -> DeviceInfo:
    return DeviceInfo(
        device_id=d["device_id"],
        os=DeviceOS(d["os"]),
        carrier=d["carrier"],
        technology=CellularTechnology(d["technology"]),
        recruited=d["recruited"],
        occupation=d["occupation"],
    )


def _ap_to_json(e: ApDirectoryEntry) -> dict:
    return {
        "ap_id": e.ap_id,
        "bssid": e.bssid,
        "essid": e.essid,
        "band": e.band.value,
        "channel": e.channel,
    }


def _ap_from_json(e: dict) -> ApDirectoryEntry:
    return ApDirectoryEntry(
        ap_id=e["ap_id"],
        bssid=e["bssid"],
        essid=e["essid"],
        band=Band(e["band"]),
        channel=e["channel"],
    )


def _truth_to_json(truth: "GroundTruth | None") -> "dict | None":
    if truth is None:
        return None
    return {
        "ap_types": {str(k): v.value for k, v in truth.ap_types.items()},
        "home_ap_of_user": {str(k): v for k, v in truth.home_ap_of_user.items()},
        "office_ap_of_user": {str(k): v for k, v in truth.office_ap_of_user.items()},
        "wifi_policy_of_user": {
            str(k): v for k, v in truth.wifi_policy_of_user.items()
        },
    }


def _truth_from_json(blob: "dict | None") -> "GroundTruth | None":
    if blob is None:
        return None
    return GroundTruth(
        ap_types={int(k): APType(v) for k, v in blob["ap_types"].items()},
        home_ap_of_user={int(k): v for k, v in blob["home_ap_of_user"].items()},
        office_ap_of_user={int(k): v for k, v in blob["office_ap_of_user"].items()},
        wifi_policy_of_user={
            int(k): v for k, v in blob["wifi_policy_of_user"].items()
        },
    )
