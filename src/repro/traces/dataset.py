"""Columnar campaign dataset.

A :class:`CampaignDataset` holds one campaign's records as numpy column
arrays, which is what every analysis operates on. :class:`DatasetBuilder`
accumulates column chunks and freezes them into a dataset.

Ground truth (AP deployment categories, users' true home APs) is carried
separately in :class:`GroundTruth` and is **never read by analyses** — it
exists so tests can score the inference algorithms against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.constants import SAMPLES_PER_DAY, SAMPLES_PER_HOUR
from repro.errors import DatasetError, SchemaError
from repro.net.accesspoint import APType
from repro.timeutil import TimeAxis
from repro.traces.records import (
    MEAN_RX_PACKET_BYTES,
    MEAN_TX_PACKET_BYTES,
    ApDirectoryEntry,
    DeviceInfo,
    DeviceOS,
    IfaceKind,
)


#: table -> list of column chunks, as exported by
#: :meth:`DatasetBuilder.export_chunks` and consumed by the merge layers.
ChunkMap = Dict[str, List[Mapping[str, np.ndarray]]]


@dataclass
class _Table:
    """A named bundle of equal-length numpy columns."""

    columns: Dict[str, np.ndarray]

    def __post_init__(self) -> None:
        if not isinstance(self.columns, dict):
            return  # a store's lazily mapped columns, checked as mapped
        lengths = {name: len(col) for name, col in self.columns.items()}
        if len(set(lengths.values())) > 1:
            raise SchemaError(f"ragged table columns: {lengths}")

    def __len__(self) -> int:
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    def __getattr__(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise AttributeError(name) from None

    def select(self, mask: np.ndarray) -> "_Table":
        """Row-filtered copy."""
        return _Table({name: col[mask] for name, col in self.columns.items()})


@dataclass
class GroundTruth:
    """Simulator-side truth for scoring inference (not used by analyses)."""

    ap_types: Dict[int, APType] = field(default_factory=dict)
    home_ap_of_user: Dict[int, int] = field(default_factory=dict)
    office_ap_of_user: Dict[int, int] = field(default_factory=dict)
    wifi_policy_of_user: Dict[int, str] = field(default_factory=dict)


@dataclass
class CampaignDataset:
    """One measurement campaign as column arrays.

    Tables (all sorted by (device, t) where applicable):

    - ``traffic``: device, t, iface, rx, tx, rx_pkts, tx_pkts — bytes and
      packets per interface per slot.
    - ``wifi``: device, t, state, ap_id, rssi — WiFi interface observations.
    - ``geo``: device, t, col, row — coarse 5 km location.
    - ``scans``: device, t, n24_all, n24_strong, n5_all, n5_strong — public-AP
      scan counts (Android, interface on).
    - ``sightings``: device, t, ap_id, rssi — detailed scan results sampled
      hourly (Android).
    - ``apps``: device, day, category, cellular, ap_id, col, row, rx, tx —
      daily per-category app traffic (Android).
    - ``updates``: device, t, bytes — OS update events.
    - ``battery``: device, t, level, charging — battery status samples.
    """

    year: int
    axis: TimeAxis
    devices: List[DeviceInfo]
    ap_directory: Dict[int, ApDirectoryEntry]
    traffic: _Table
    wifi: _Table
    geo: _Table
    scans: _Table
    sightings: _Table
    apps: _Table
    updates: _Table
    battery: _Table
    ground_truth: Optional[GroundTruth] = None

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------

    @property
    def n_devices(self) -> int:
        return len(self.devices)

    @property
    def n_days(self) -> int:
        return self.axis.n_days

    @property
    def n_slots(self) -> int:
        return self.axis.n_slots

    @property
    def table_names(self) -> Tuple[str, ...]:
        """The eight table attribute names, in canonical order."""
        return tuple(_EMPTY_DTYPES)

    @property
    def n_rows_total(self) -> int:
        """Total rows across every table (throughput denominators)."""
        return sum(len(getattr(self, name)) for name in _EMPTY_DTYPES)

    def device(self, device_id: int) -> DeviceInfo:
        """Look up a device record by id (ids are dense 0..n-1)."""
        if not 0 <= device_id < len(self.devices):
            raise DatasetError(f"unknown device_id {device_id}")
        return self.devices[device_id]

    def device_os(self) -> np.ndarray:
        """Array of OS codes per device (0=Android, 1=iOS)."""
        return np.array(
            [0 if d.os is DeviceOS.ANDROID else 1 for d in self.devices],
            dtype=np.int8,
        )

    def android_ids(self) -> np.ndarray:
        return np.flatnonzero(self.device_os() == 0)

    def ios_ids(self) -> np.ndarray:
        return np.flatnonzero(self.device_os() == 1)

    # ------------------------------------------------------------------
    # Core aggregations shared by many analyses
    # ------------------------------------------------------------------

    def daily_matrix(
        self,
        kind: str = "all",
        direction: str = "rx",
    ) -> np.ndarray:
        """Per-(device, day) byte totals as an (n_devices, n_days) array.

        ``kind`` selects interfaces: ``"all"``, ``"cell"``, ``"wifi"``,
        ``"3g"``, ``"lte"``. ``direction`` is ``"rx"`` or ``"tx"``.
        """
        return pick_kind(self.traffic_fold("day", direction), kind)

    def hourly_series(self, kind: str = "all", direction: str = "rx") -> np.ndarray:
        """Total bytes per hour of the campaign (length ``n_days * 24``)."""
        return pick_kind(self.traffic_fold("hour", direction), kind)

    def traffic_fold(
        self, by: str = "day", direction: str = "rx"
    ) -> Dict[str, np.ndarray]:
        """Byte totals of every interface kind, per (device, day) or per hour.

        ``by="day"`` gives (n_devices, n_days) arrays, ``by="hour"`` arrays
        of length ``n_days * 24``. Three row-order ``bincount`` passes key
        the rows by group, by (group, cellular?) and by (group, interface
        code), so each bin sums exactly its own rows in row order, as a
        masked ``bincount`` of one kind would; no kind sums subtotals.
        """
        if direction not in ("rx", "tx"):
            raise DatasetError(f"unknown direction: {direction!r}")
        traffic = self.traffic
        values = traffic.columns[direction]
        if by == "day":
            key = traffic.device.astype(np.int64) * self.n_days
            key += traffic.t // SAMPLES_PER_DAY
            shape: Tuple[int, ...] = (self.n_devices, self.n_days)
        elif by == "hour":
            key = (traffic.t // SAMPLES_PER_HOUR).astype(np.int64)
            shape = (self.n_days * 24,)
        else:
            raise DatasetError(f"unknown fold grouping: {by!r}")
        iface, n = traffic.iface, int(np.prod(shape))
        if iface.size and not 0 <= iface.min() <= iface.max() < len(IfaceKind):
            raise DatasetError("traffic has interface codes outside IfaceKind")

        def bins(keys: np.ndarray, per_group: int) -> np.ndarray:
            return np.bincount(keys, weights=values, minlength=n * per_group
                               ).reshape(n, per_group).T

        wifi, cell = bins(key * 2 + (iface != int(IfaceKind.WIFI)), 2)
        by_code = bins(key * len(IfaceKind) + iface, len(IfaceKind))
        kinds = {"all": bins(key, 1)[0], "wifi": wifi, "cell": cell,
                 "3g": by_code[IfaceKind.CELL_3G],
                 "lte": by_code[IfaceKind.CELL_LTE]}
        return {kind: np.ascontiguousarray(sums).reshape(shape)
                for kind, sums in kinds.items()}


class DatasetBuilder:
    """Accumulates records and freezes them into a :class:`CampaignDataset`.

    Records arrive as column chunks (:meth:`extend_traffic` etc.). The
    simulation kernel emits them already in canonical (device, t) order,
    which ``build`` checks in one pass and keeps; chunks appended out of
    order are sorted stably by (device, t) instead.
    """

    def __init__(self, year: int, axis: TimeAxis) -> None:
        self.year = year
        self.axis = axis
        self.devices: List[DeviceInfo] = []
        self.ap_directory: Dict[int, ApDirectoryEntry] = {}
        self.ground_truth: Optional[GroundTruth] = None
        self._chunks: Dict[str, List[Dict[str, np.ndarray]]] = {
            name: [] for name in _EMPTY_DTYPES
        }

    # -- registry -------------------------------------------------------

    def add_device(self, info: DeviceInfo) -> None:
        if info.device_id != len(self.devices):
            raise SchemaError(
                f"device ids must be dense: expected {len(self.devices)}, "
                f"got {info.device_id}"
            )
        self.devices.append(info)

    def add_ap(self, entry: ApDirectoryEntry) -> None:
        if entry.ap_id in self.ap_directory:
            raise SchemaError(f"duplicate ap_id {entry.ap_id}")
        self.ap_directory[entry.ap_id] = entry

    # -- column-chunk appends --------------------------------------------

    def extend_traffic(self, device, t, iface, rx, tx,
                       rx_pkts=None, tx_pkts=None) -> None:
        rx_arr = _f64(rx)
        tx_arr = _f64(tx)
        if rx_pkts is None:
            rx_pkts = np.ceil(rx_arr / MEAN_RX_PACKET_BYTES)
        if tx_pkts is None:
            tx_pkts = np.ceil(tx_arr / MEAN_TX_PACKET_BYTES)
        self._extend("traffic", device=_i32(device), t=_i32(t),
                     iface=_i8(iface), rx=rx_arr, tx=tx_arr,
                     rx_pkts=_i64(rx_pkts), tx_pkts=_i64(tx_pkts))

    def extend_wifi(self, device, t, state, ap_id, rssi) -> None:
        self._extend("wifi", device=_i32(device), t=_i32(t), state=_i8(state),
                     ap_id=_i32(ap_id), rssi=_f32(rssi))

    def extend_geo(self, device, t, col, row) -> None:
        self._extend("geo", device=_i32(device), t=_i32(t),
                     col=_i16(col), row=_i16(row))

    def extend_scans(self, device, t, n24_all, n24_strong, n5_all, n5_strong) -> None:
        self._extend("scans", device=_i32(device), t=_i32(t),
                     n24_all=_i16(n24_all), n24_strong=_i16(n24_strong),
                     n5_all=_i16(n5_all), n5_strong=_i16(n5_strong))

    def extend_sightings(self, device, t, ap_id, rssi) -> None:
        self._extend("sightings", device=_i32(device), t=_i32(t),
                     ap_id=_i32(ap_id), rssi=_f32(rssi))

    def extend_apps(self, device, day, category, cellular, ap_id, col, row, rx, tx) -> None:
        self._extend("apps", device=_i32(device), day=_i16(day),
                     category=_i8(category), cellular=_i8(cellular),
                     ap_id=_i32(ap_id), col=_i16(col), row=_i16(row),
                     rx=_f64(rx), tx=_f64(tx))

    def extend_updates(self, device, t, bytes) -> None:
        self._extend("updates", device=_i32(device), t=_i32(t), bytes=_f64(bytes))

    def extend_battery(self, device, t, level, charging) -> None:
        self._extend("battery", device=_i32(device), t=_i32(t),
                     level=_f32(level), charging=_i8(charging))

    def _extend(self, table: str, **columns: np.ndarray) -> None:
        lengths = {len(c) for c in columns.values()}
        if len(lengths) > 1:
            raise SchemaError(f"ragged chunk for table {table!r}")
        self._chunks[table].append(columns)

    # -- chunk introspection & merge (engine merge layer) -----------------

    def table_names(self) -> Tuple[str, ...]:
        """Names of every table this builder accumulates."""
        return tuple(self._chunks)

    def export_chunks(self) -> Dict[str, List[Dict[str, np.ndarray]]]:
        """Snapshot every table's chunks (picklable; arrays not copied)."""
        return {
            table: [dict(chunk) for chunk in chunks]
            for table, chunks in self._chunks.items()
        }

    def merge_chunks(
        self, chunks: Mapping[str, Sequence[Mapping[str, np.ndarray]]]
    ) -> None:
        """Append another builder's exported chunks, table by table.

        Chunk order is preserved, so merging shard-local builders in
        canonical shard order reproduces the row order a single builder
        would have seen.

        Zero-copy: the column arrays are adopted by reference, not
        copied — callers may pass read-only views over attached
        shared-memory transport segments and the builder holds those
        views until :meth:`build` concatenates them into owned arrays.
        Shards merged in canonical order keep canonical row order, so
        ``build`` needs no sort.
        """
        for table, chunk_list in chunks.items():
            if table not in self._chunks:
                raise SchemaError(f"unknown table {table!r}")
            for chunk in chunk_list:
                self._extend(table, **chunk)

    # -- freeze -----------------------------------------------------------

    def build(self) -> CampaignDataset:
        """Freeze into an immutable, (device, t)-sorted dataset."""
        tables = {}
        for name, chunks in self._chunks.items():
            tables[name] = self._concat(name, chunks)
        for name, table in tables.items():
            check_ranges(name, [table.columns], len(self.devices), self.axis)
        return CampaignDataset(
            year=self.year,
            axis=self.axis,
            devices=list(self.devices),
            ap_directory=dict(self.ap_directory),
            traffic=tables["traffic"],
            wifi=tables["wifi"],
            geo=tables["geo"],
            scans=tables["scans"],
            sightings=tables["sightings"],
            apps=tables["apps"],
            updates=tables["updates"],
            battery=tables["battery"],
            ground_truth=self.ground_truth,
        )

    def _concat(self, name: str, chunks: List[Dict[str, np.ndarray]]) -> _Table:
        if not chunks:
            return _Table({col: np.array([], dtype=dt) for col, dt in _EMPTY_DTYPES[name]})
        # Column order may differ between chunks (a shared-memory payload
        # lists its columns sorted); the column set may not.
        names = list(chunks[0])
        for chunk in chunks:
            if chunk.keys() != chunks[0].keys():
                raise SchemaError(f"inconsistent columns in table {name!r}")
        if len(chunks) == 1 and all(
            col.flags.owndata and col.flags.writeable
            for col in chunks[0].values()
        ):
            # One chunk that owns its memory: adopt it. Views over shared
            # memory and memmaps are copied out below.
            columns = dict(chunks[0])
        else:
            columns = {
                col: np.concatenate([chunk[col] for chunk in chunks])
                for col in names
            }
        table = _Table(columns)
        sort_key = "t" if "t" in columns else "day"
        if _in_canonical_order(table.device, table.columns[sort_key]):
            return table
        order = np.lexsort((table.columns[sort_key], table.columns["device"]))
        return table.select(order)


def check_ranges(table: str, chunks: Sequence[Mapping[str, np.ndarray]],
                 n_devices: int, axis: TimeAxis) -> None:
    """Raise :class:`SchemaError` unless every row of ``table``'s
    ``chunks`` names a known device and a slot (or day) on ``axis``.

    The one range check of both merges: :meth:`DatasetBuilder.build` and
    :meth:`repro.traces.store.CampaignStore.finalize`.
    """
    key = "t" if "t" in dict(_EMPTY_DTYPES[table]) else "day"
    limit = axis.n_slots if key == "t" else axis.n_days
    for column, bound, fault in (
        ("device", n_devices, "references unknown device"),
        (key, limit, f"has out-of-range {key}"),
    ):
        values = [chunk[column] for chunk in chunks if len(chunk[column])]
        if values and (min(int(v.min()) for v in values) < 0
                       or max(int(v.max()) for v in values) >= bound):
            raise SchemaError(f"table {table!r} {fault}")


def pick_kind(fold: Mapping[str, np.ndarray], kind: str) -> np.ndarray:
    """One interface kind of a :meth:`CampaignDataset.traffic_fold`."""
    try:
        return fold[kind]
    except KeyError:
        raise DatasetError(f"unknown interface kind: {kind!r}") from None


_EMPTY_DTYPES = {
    "traffic": [("device", np.int32), ("t", np.int32), ("iface", np.int8),
                ("rx", np.float64), ("tx", np.float64),
                ("rx_pkts", np.int64), ("tx_pkts", np.int64)],
    "wifi": [("device", np.int32), ("t", np.int32), ("state", np.int8),
             ("ap_id", np.int32), ("rssi", np.float32)],
    "geo": [("device", np.int32), ("t", np.int32), ("col", np.int16),
            ("row", np.int16)],
    "scans": [("device", np.int32), ("t", np.int32), ("n24_all", np.int16),
              ("n24_strong", np.int16), ("n5_all", np.int16), ("n5_strong", np.int16)],
    "sightings": [("device", np.int32), ("t", np.int32), ("ap_id", np.int32),
                  ("rssi", np.float32)],
    "apps": [("device", np.int32), ("day", np.int16), ("category", np.int8),
             ("cellular", np.int8), ("ap_id", np.int32), ("col", np.int16),
             ("row", np.int16), ("rx", np.float64), ("tx", np.float64)],
    "updates": [("device", np.int32), ("t", np.int32), ("bytes", np.float64)],
    "battery": [("device", np.int32), ("t", np.int32), ("level", np.float32),
                ("charging", np.int8)],
}


def observed_ap_ids(chunk_maps: Sequence[ChunkMap]) -> Set[int]:
    """AP ids observed in any chunk of ``chunk_maps`` (negative = no AP)."""
    observed: Set[int] = set()
    for chunk_map in chunk_maps:
        for chunks in chunk_map.values():
            for chunk in chunks:
                if "ap_id" in chunk:
                    unique = np.unique(np.asarray(chunk["ap_id"]))
                    observed.update(int(a) for a in unique if a >= 0)
    return observed


def _in_canonical_order(device: np.ndarray, key: np.ndarray) -> bool:
    """True when the rows already stand in stable ``lexsort((key, device))``
    order, i.e. ``(device, key)`` never decreases: one O(n) pass."""
    device, key = np.asarray(device), np.asarray(key)
    d0, d1 = device[:-1], device[1:]
    return bool(np.all(d1 >= d0)) and bool(
        np.all((d1 != d0) | (key[1:] >= key[:-1]))
    )


def _i8(x) -> np.ndarray:
    return np.asarray(x, dtype=np.int8)


def _i16(x) -> np.ndarray:
    return np.asarray(x, dtype=np.int16)


def _i32(x) -> np.ndarray:
    return np.asarray(x, dtype=np.int32)


def _f32(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float32)


def _f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _i64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.int64)
