"""The memoized derived-artifact layer every figure/table sits on.

~19 figures and 9 tables all derive from the same handful of per-campaign
intermediates: the cleaned dataset, the traffic folds (handed out per kind
as (device, day) matrices and hourly series), the (device, t) join indexes
of :mod:`repro.traces.query`, the WiFi-available scan mask, user classes,
the AP classification, the app breakdown and the WiFi ratios, each computed
once and handed out cached, with per-artifact instrumentation (hits,
misses, self compute seconds, cached bytes counted once) exposed as a
:class:`CacheStats` report.

One memo serves a context and its views; a view is a focus year plus a
cleaned-or-verbatim flag (verbatim: :meth:`AnalysisContext.raw_campaign`
and ``of(dataset)``). Each artifact keys on the identity of what it reads:
the traffic folds on ``traffic``, ``geo_index`` on ``geo``,
``association_index`` on ``wifi``, ``available_scan_mask`` on ``wifi`` and
``scans``, ``clean`` on the raw dataset and the composites on the dataset
analyzed. Cleaning rewrites only the 2015 ``traffic`` (and ``apps`` when
an update window holds app rows), so a raw view shares every other
artifact with the clean campaign. The memo
holds what it keys, so no id is reused.

Every analysis entry point accepts either a plain
:class:`~repro.traces.dataset.CampaignDataset` or an ``AnalysisContext``
through :meth:`AnalysisContext.of`, so callers that hold a context share
its memo while one-off calls keep working unchanged. Cached numpy arrays
are returned read-only (``setflags(write=False)``): a consumer that tries
to mutate a shared matrix raises instead of silently corrupting every
later reader. Cached artifacts are pure functions of the source dataset,
so the cached and uncached paths are bit-identical (pinned by
``tests/test_analysis_context.py``).

Layering: this module may call :func:`clean_for_main_analysis`,
:func:`classify_user_days` and :func:`classify_aps`; the rest of
``repro.analysis`` must go through the context (enforced by
``tests/test_layering.py``).
"""

from __future__ import annotations

import copy
import sys
import time
from dataclasses import dataclass, fields as _dataclass_fields, is_dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

import numpy as np

from repro.errors import AnalysisError
from repro.obs.recorder import get_recorder
from repro.traces.cleaning import clean_for_main_analysis
from repro.traces.dataset import CampaignDataset, pick_kind
from repro.traces.query import SlotIndex, association_index, geo_cell_index

__all__ = ["AnalysisContext", "ArtifactStats", "CacheStats", "DatasetOrContext"]


# ----------------------------------------------------------------------
# Instrumentation
# ----------------------------------------------------------------------

@dataclass
class ArtifactStats:
    """Counters for one artifact family (e.g. all ``daily_matrix`` keys)."""

    artifact: str
    hits: int = 0
    misses: int = 0
    compute_seconds: float = 0.0
    cached_bytes: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


class CacheStats:
    """Per-artifact cache instrumentation for one :class:`AnalysisContext`."""

    def __init__(self) -> None:
        self._by_artifact: Dict[str, ArtifactStats] = {}
        #: ids of the buffers and records already sized, or owned by the
        #: source datasets: each is counted at most once, the latter never.
        self.held: Set[int] = set()

    def _entry(self, artifact: str) -> ArtifactStats:
        if artifact not in self._by_artifact:
            self._by_artifact[artifact] = ArtifactStats(artifact)
        return self._by_artifact[artifact]

    def record_hit(self, artifact: str) -> None:
        self._entry(artifact).hits += 1

    def record_miss(self, artifact: str, seconds: float, nbytes: int) -> None:
        entry = self._entry(artifact)
        entry.misses += 1
        entry.compute_seconds += seconds
        entry.cached_bytes += nbytes

    def artifact(self, name: str) -> ArtifactStats:
        """Counters for one artifact family (zeros if never requested)."""
        return self._by_artifact.get(name, ArtifactStats(name))

    def per_artifact(self) -> List[ArtifactStats]:
        return [self._by_artifact[k] for k in sorted(self._by_artifact)]

    @property
    def hits(self) -> int:
        return sum(s.hits for s in self._by_artifact.values())

    @property
    def misses(self) -> int:
        return sum(s.misses for s in self._by_artifact.values())

    @property
    def compute_seconds(self) -> float:
        return sum(s.compute_seconds for s in self._by_artifact.values())

    @property
    def cached_bytes(self) -> int:
        return sum(s.cached_bytes for s in self._by_artifact.values())

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        return {
            s.artifact: {
                "hits": s.hits,
                "misses": s.misses,
                "compute_seconds": round(s.compute_seconds, 6),
                "cached_bytes": s.cached_bytes,
            }
            for s in self.per_artifact()
        }

    def render(self) -> str:
        """Aligned plain-text report, one row per artifact family."""
        header = ("artifact", "hits", "misses", "hit%", "compute_s", "cached")
        rows = [
            (s.artifact, str(s.hits), str(s.misses),
             f"{100 * s.hit_rate:.0f}%", f"{s.compute_seconds:.3f}",
             _fmt_bytes(s.cached_bytes))
            for s in self.per_artifact()
        ]
        rows.append(("total", str(self.hits), str(self.misses),
                     f"{100 * self.hits / max(self.hits + self.misses, 1):.0f}%",
                     f"{self.compute_seconds:.3f}",
                     _fmt_bytes(self.cached_bytes)))
        widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
        lines = ["analysis cache", "-" * 14]
        lines.append("  ".join(c.ljust(w) for c, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()


def _fmt_bytes(n: int) -> str:
    if n >= 1 << 20:
        return f"{n / (1 << 20):.1f}MB"
    if n >= 1 << 10:
        return f"{n / (1 << 10):.1f}kB"
    return f"{n}B"


_COLLECTIONS = (list, set, frozenset, dict)


def _cached_nbytes(value: object, held: Set[int]) -> int:
    """Approximate size ``value`` adds beyond what ``held`` already holds.

    Arrays dominate and are sized exactly, by the base array that owns
    their buffer; a buffer, collection or record already in ``held`` adds
    nothing, and every one sized joins it. Collections are taken as
    homogeneous: one whose first element is a flat record of scalars is
    sized as that element times its length, without visiting the rest.
    """
    if isinstance(value, (bool, int, float, str, bytes)):
        return sys.getsizeof(value)
    if isinstance(value, SlotIndex):
        value = value.keys
    while isinstance(value, np.ndarray) and isinstance(value.base, np.ndarray):
        value = value.base
    if not isinstance(value, tuple):  # dict items are fresh tuples
        if id(value) in held:
            return 0
        held.add(id(value))
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, _COLLECTIONS):
        items = value.items() if isinstance(value, dict) else value
        if value and _is_flat(first := next(iter(items))):
            return len(value) * _cached_nbytes(first, held)
        return sum(_cached_nbytes(v, held) for v in items)
    return sum(_cached_nbytes(v, held) for v in _fields(value))


def _fields(value: object) -> tuple:
    """The members of a tuple or dataclass record (empty otherwise)."""
    if is_dataclass(value) and not isinstance(value, type):
        return tuple(getattr(value, f.name, None) for f in _dataclass_fields(value))
    return value if isinstance(value, tuple) else ()


def _is_flat(value: object) -> bool:
    """A scalar (or enum, None, ...), or a record of flat members."""
    if isinstance(value, (np.ndarray, SlotIndex) + _COLLECTIONS):
        return False
    return all(_is_flat(v) for v in _fields(value))


# ----------------------------------------------------------------------
# The memo
# ----------------------------------------------------------------------

DatasetOrContext = Union[CampaignDataset, "AnalysisContext"]


class AnalysisContext:
    """Memoized derived artifacts for one or more campaigns.

    Construct from a :class:`~repro.simulation.study.Study` (or any object
    with ``campaigns`` and ``dataset(year)``) for the multi-campaign
    reporting path — artifacts are then derived from the *cleaned*
    dataset, and :meth:`raw_campaign` analyzes one raw capture through the
    same memo. Construct via :meth:`of` from a single
    :class:`CampaignDataset` for the analysis path — the dataset is
    analyzed verbatim (no implicit cleaning), which keeps ``fn(dataset)``
    and ``fn(AnalysisContext.of(dataset))`` bit-identical.
    """

    def __init__(self, source: object) -> None:
        self.study = None
        self._stats = CacheStats()
        #: key -> (value, the objects the key names by id); every view
        #: shares it, and holding what it keys keeps each id unique.
        self._memo: Dict[tuple, Tuple[object, tuple]] = {}
        self._focus: Optional[int] = None
        #: True: analyze the source datasets as captured; False: clean them.
        self._verbatim = False
        if isinstance(source, CampaignDataset):
            self._raw = {source.year: source}
            self._focus = source.year
            self._verbatim = True
        elif isinstance(source, dict):
            if not source:
                raise AnalysisError("no campaign datasets to analyze")
            self._raw = {int(year): dataset for year, dataset in source.items()}
        elif hasattr(source, "campaigns") and hasattr(source, "dataset"):
            if not source.campaigns:
                raise AnalysisError("study has not been run")
            self.study = source
            self._raw = {year: source.dataset(year)
                         for year in sorted(source.campaigns)}
        else:
            raise AnalysisError(
                f"cannot build an AnalysisContext from "
                f"{type(source).__name__}; expected a Study, a "
                f"CampaignDataset or a {{year: dataset}} mapping"
            )
        for raw in self._raw.values():
            # The source datasets are not cache: whatever an artifact
            # shares with them is not counted.
            _cached_nbytes(raw, self._stats.held)

    @classmethod
    def of(cls, data: DatasetOrContext) -> "AnalysisContext":
        """Coerce an analysis-function argument to a context.

        An existing context is returned as-is (shared memo); a dataset
        gets a fresh single-campaign context over it, verbatim.
        """
        if isinstance(data, AnalysisContext):
            return data
        if isinstance(data, CampaignDataset):
            return cls(data)
        raise AnalysisError(
            f"expected a CampaignDataset or AnalysisContext, "
            f"got {type(data).__name__}"
        )

    # -- campaign selection ------------------------------------------------

    @property
    def years(self) -> tuple:
        return tuple(sorted(self._raw))

    def campaign(self, year: int) -> "AnalysisContext":
        """A view of this context focused on one campaign.

        The view shares the memo and the :class:`CacheStats`, so analysis
        functions handed a view still populate (and benefit from) the
        parent's cache; its year-optional accessors resolve to ``year``.
        """
        view = copy.copy(self)
        view._focus = self._resolve_year(year)
        return view

    def raw_campaign(self, year: int) -> "AnalysisContext":
        """A :meth:`campaign` view that analyzes one raw capture verbatim.

        It shares the memo, which keys each artifact on the tables it
        reads: whatever cleaning left alone (every table of a campaign
        without update events) is read from the clean campaign's entries.
        """
        view = self.campaign(year)
        view._raw = {view._focus: self._raw[view._focus]}
        view._verbatim = True
        return view

    def _resolve_year(self, year: Optional[int]) -> int:
        if year is None:
            if self._focus is not None:
                return self._focus
            if len(self._raw) == 1:
                return next(iter(self._raw))
            raise AnalysisError(
                f"year is required for a multi-campaign context; "
                f"have {list(self.years)} — use .campaign(year)"
            )
        if year not in self._raw:
            raise AnalysisError(
                f"no campaign for year {year}; have {list(self.years)}"
            )
        return year

    # -- memo core ---------------------------------------------------------

    @property
    def stats(self) -> CacheStats:
        return self._stats

    def _artifact(self, key: tuple, reads: tuple,
                  compute: Callable[[], object], view: bool = False) -> object:
        """``compute()`` once per ``key`` and identity of the objects it
        ``reads``; a ``view`` is part of another cached artifact, so its
        bytes are not counted again."""
        full_key = key + tuple(id(source) for source in reads)
        if full_key in self._memo:
            self._stats.record_hit(key[0])
            return self._memo[full_key][0]
        # A memo miss is a run stage: spanned under artifact.<family> so a
        # run manifest shows compute time per artifact next to the
        # engine stages (no-op recorder by default — see repro.obs.recorder).
        # Its self time leaves out the artifacts computed inside it, which
        # record their own, so no second is counted twice.
        recorded = self._stats.compute_seconds
        with get_recorder().span(f"artifact.{key[0]}"):
            start = time.perf_counter()
            value = compute()
            elapsed = time.perf_counter() - start
        nested = self._stats.compute_seconds - recorded
        self._memo[full_key] = (value, reads)
        self._stats.record_miss(
            key[0], elapsed - nested,
            0 if view else _cached_nbytes(value, self._stats.held))
        return value

    # -- artifacts ---------------------------------------------------------

    def raw(self, year: Optional[int] = None) -> CampaignDataset:
        """The source dataset exactly as captured (never cleaned)."""
        return self._raw[self._resolve_year(year)]

    def clean(self, year: Optional[int] = None) -> CampaignDataset:
        """The campaign after §2 cleaning (memoized)."""
        raw = self.raw(year)
        return self._artifact(
            ("clean",), (raw,), lambda: clean_for_main_analysis(raw)
        )

    def dataset(self, year: Optional[int] = None) -> CampaignDataset:
        """The dataset analyses run on.

        For ``of(dataset)`` contexts and :meth:`raw_campaign` views this is
        the source verbatim; for study-backed contexts it is the cleaned
        campaign.
        """
        return self.raw(year) if self._verbatim else self.clean(year)

    def _analyzed(self, year: Optional[int]) -> CampaignDataset:
        """:meth:`dataset` for building a key, which records no hit (a
        compute reads through :meth:`dataset`, like any other reader)."""
        raw = self.raw(year)
        if self._verbatim:
            return raw
        entry = self._memo.get(("clean", id(raw)))
        return entry[0] if entry else self.clean(year)

    def traffic_fold(
        self, by: str = "day", direction: str = "rx",
        year: Optional[int] = None,
    ) -> Dict[str, np.ndarray]:
        """Memoized read-only byte totals of every interface kind, by
        (device, day) or by hour (see :meth:`CampaignDataset.traffic_fold`)."""
        def compute() -> Dict[str, np.ndarray]:
            fold = self.dataset(year).traffic_fold(by, direction)
            for totals in fold.values():
                totals.setflags(write=False)
            return fold
        return self._artifact(("traffic_fold", by, direction),
                              (self._analyzed(year).traffic,), compute)

    def daily_matrix(
        self, kind: str = "all", direction: str = "rx",
        year: Optional[int] = None,
    ) -> np.ndarray:
        """Memoized read-only (n_devices, n_days) byte matrix."""
        return self._fold_kind("daily_matrix", "day", kind, direction, year)

    def hourly_series(
        self, kind: str = "all", direction: str = "rx",
        year: Optional[int] = None,
    ) -> np.ndarray:
        """Memoized read-only per-campaign-hour byte totals."""
        return self._fold_kind("hourly_series", "hour", kind, direction, year)

    def _fold_kind(self, family: str, by: str, kind: str, direction: str,
                   year: Optional[int]) -> np.ndarray:
        def compute() -> np.ndarray:
            return pick_kind(self.traffic_fold(by, direction, year), kind)
        return self._artifact((family, kind, direction),
                              (self._analyzed(year).traffic,), compute,
                              view=True)

    def geo_index(self, year: Optional[int] = None) -> SlotIndex:
        """Memoized (device, t) index over the geolocation table."""
        def compute() -> SlotIndex:
            index = geo_cell_index(self.dataset(year))
            index.keys.setflags(write=False)
            return index
        return self._artifact(("geo_index",), (self._analyzed(year).geo,),
                              compute)

    def association_index(
        self, year: Optional[int] = None
    ) -> Tuple[SlotIndex, np.ndarray]:
        """Memoized (index, ap ids in index order) over associated wifi rows."""
        def compute() -> Tuple[SlotIndex, np.ndarray]:
            index, ap_ids = association_index(self.dataset(year))
            index.keys.setflags(write=False)
            ap_ids.setflags(write=False)
            return index, ap_ids
        return self._artifact(("association_index",),
                              (self._analyzed(year).wifi,), compute)

    def available_scan_mask(self, year: Optional[int] = None) -> np.ndarray:
        """Memoized read-only mask of the scans taken while WiFi-available."""
        from repro.analysis.availability import available_scan_mask

        dataset = self._analyzed(year)

        def compute() -> np.ndarray:
            mask = available_scan_mask(self.dataset(year))
            mask.setflags(write=False)
            return mask
        return self._artifact(("available_scan_mask",),
                              (dataset.wifi, dataset.scans), compute)

    def _composite(self, family: str, year: Optional[int],
                   analysis: Callable[["AnalysisContext"], object]) -> object:
        """``analysis`` of one campaign, keyed on the dataset it analyzes."""
        year = self._resolve_year(year)
        return self._artifact((family,), (self._analyzed(year),),
                              lambda: analysis(self.campaign(year)))

    def user_classes(self, year: Optional[int] = None):
        """Memoized §2 light/heavy per-(device, day) classification."""
        from repro.analysis.users import classify_user_days

        return self._composite("user_classes", year, classify_user_days)

    def classification(self, year: Optional[int] = None):
        """Memoized §3.4.1 AP classification."""
        from repro.analysis.ap_classification import classify_aps

        return self._composite("classification", year, classify_aps)

    def wifi_ratios(self, year: Optional[int] = None):
        """Memoized Figures 6-8 WiFi-traffic and WiFi-user ratios."""
        from repro.analysis.ratios import wifi_ratios

        return self._composite("wifi_ratios", year, wifi_ratios)

    def app_breakdown(self, year: Optional[int] = None):
        """Memoized Tables 6-7 category shares (RX and TX)."""
        from repro.analysis.app_breakdown import app_breakdown

        return self._composite("app_breakdown", year, app_breakdown)
