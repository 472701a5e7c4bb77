"""The fidelity scorer: measured quantities vs the paper-reference registry.

For every :class:`~repro.obs.reference.PaperRef` there is one *extractor*
here — a small function that pulls the comparable quantity out of an
:class:`~repro.analysis.context.AnalysisContext` (sharing its memo with
whatever else the run computed). :func:`score_fidelity` runs any subset of
the registered experiments through their extractors and emits one
:class:`FidelityRecord` per check (measured value, reference, normalized
divergence, ``pass``/``warn``/``fail``/``skip`` verdict), rolled up into a
:class:`FidelityReport` whose JSON is **deterministic**: it contains no
timings or environment data, so ``jobs=1`` and ``jobs=2`` runs of the same
(scale, seed) produce bit-identical reports (pinned by
``tests/test_fidelity.py``).

The committed ``FIDELITY_baseline.json`` is scored at CI scale; the
:func:`fidelity_regressions` gate compares verdicts (not values, which are
noisy across scales) and fails only when a check's verdict *worsens* —
``pass`` -> ``warn``, ``warn`` -> ``fail``, or a previously-scored check
disappearing. ``skip`` never gates in either direction.

Like :mod:`repro.obs.bench`, the analysis layer is imported lazily inside
the extractors so ``repro.obs`` stays importable from every layer.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.errors import ReproError
from repro.obs.reference import (
    REFERENCES,
    VERDICT_FAIL,
    VERDICT_PASS,
    VERDICT_SKIP,
    VERDICT_WARN,
    PaperRef,
    paper_item_of,
    reference_experiment_ids,
    verdict_rank,
)
from repro.obs.recorder import get_recorder

__all__ = [
    "FidelityRecord",
    "FidelityReport",
    "FIDELITY_SCHEMA_VERSION",
    "score_fidelity",
    "resolve_check_ids",
    "fidelity_regressions",
    "load_fidelity_report",
]

FIDELITY_SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# Records and report
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FidelityRecord:
    """One scored check: measured value vs paper reference."""

    check_id: str
    experiment_id: str
    paper_item: str
    quantity: str
    paper: str
    predicate: str
    #: JSON-ready measured value (number / list / list of lists); None
    #: when the quantity could not be extracted (verdict == "skip").
    measured: Optional[object]
    measured_text: str
    divergence: Optional[float]
    verdict: str
    scale_free: bool
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class FidelityReport:
    """All scored checks of one run, JSON-deterministic.

    A run over saved campaigns names their directory in ``data`` and
    leaves ``scale`` and ``seed`` unset: the data does not record them.
    """

    scale: Optional[float]
    seed: Optional[int]
    years: List[int]
    records: List[FidelityRecord] = field(default_factory=list)
    schema_version: int = FIDELITY_SCHEMA_VERSION
    data: Optional[str] = None

    def count(self, verdict: str) -> int:
        return sum(1 for r in self.records if r.verdict == verdict)

    @property
    def n_pass(self) -> int:
        return self.count(VERDICT_PASS)

    @property
    def n_warn(self) -> int:
        return self.count(VERDICT_WARN)

    @property
    def n_fail(self) -> int:
        return self.count(VERDICT_FAIL)

    @property
    def n_skip(self) -> int:
        return self.count(VERDICT_SKIP)

    def record(self, check_id: str) -> FidelityRecord:
        for rec in self.records:
            if rec.check_id == check_id:
                return rec
        raise ReproError(f"no fidelity record for check {check_id!r}")

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "scale": self.scale,
            "seed": self.seed,
            "data": self.data,
            "years": list(self.years),
            "n_checks": len(self.records),
            "n_pass": self.n_pass,
            "n_warn": self.n_warn,
            "n_fail": self.n_fail,
            "n_skip": self.n_skip,
            "records": [r.to_dict() for r in self.records],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "FidelityReport":
        record_fields = set(FidelityRecord.__dataclass_fields__)
        scale, seed = data.get("scale"), data.get("seed")
        return cls(
            scale=None if scale is None else float(scale),
            seed=None if seed is None else int(seed),
            data=data.get("data"),
            years=[int(y) for y in data.get("years", ())],
            records=[
                FidelityRecord(**{k: v for k, v in rec.items()
                                  if k in record_fields})
                for rec in data.get("records", ())
            ],
            schema_version=int(
                data.get("schema_version", FIDELITY_SCHEMA_VERSION)
            ),
        )

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path

    def render(self) -> str:
        """Aligned plain-text scoreboard."""
        mark = {VERDICT_PASS: "ok", VERDICT_WARN: "WARN",
                VERDICT_FAIL: "FAIL", VERDICT_SKIP: "skip"}
        header = ("check", "exp", "verdict", "divergence", "measured")
        rows = [
            (r.check_id, r.experiment_id, mark[r.verdict],
             "-" if r.divergence is None else f"{r.divergence:.3f}",
             r.measured_text)
            for r in self.records
        ]
        widths = [max(len(row[i]) for row in [header] + rows)
                  for i in range(len(header))]
        lines = ["fidelity scoreboard", "-" * 19]
        lines.append("  ".join(c.ljust(w) for c, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        scored = (f"data {self.data}" if self.data is not None
                  else f"scale {self.scale}, seed {self.seed}")
        lines.append(
            f"{len(self.records)} checks: {self.n_pass} pass, "
            f"{self.n_warn} warn, {self.n_fail} fail, {self.n_skip} skip "
            f"({scored})"
        )
        return "\n".join(lines)


def load_fidelity_report(path: Union[str, Path]) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ReproError(f"cannot read fidelity report {path}: {exc}") from None


# ----------------------------------------------------------------------
# Extractors
# ----------------------------------------------------------------------

#: check_id -> function(AnalysisContext) -> measured quantity.
_EXTRACTORS: Dict[str, Callable] = {}


def _extractor(check_id: str):
    def decorator(fn):
        if check_id not in REFERENCES:
            raise ReproError(f"extractor for unregistered check {check_id!r}")
        _EXTRACTORS[check_id] = fn
        return fn
    return decorator


def _last(ctx):
    return max(ctx.years)


def _compared_years(ctx, every_campaign: bool = False):
    """The years a cross-campaign check compares; skips when too few."""
    years = ctx.years
    if len(years) < 2:
        raise _SkipCheck("needs at least two campaign years")
    if every_campaign and len(years) < 3:
        raise _SkipCheck("needs all three campaign years")
    return years


def _first_last(ctx):
    years = _compared_years(ctx)
    return years[0], years[-1]


def _growth(ctx):
    import repro.analysis as A

    years = _compared_years(ctx)
    return A.volume_growth_table([ctx.campaign(y) for y in years])


def _surveys(ctx):
    """Per-year survey tabulations; None when the study has no surveys."""
    from repro.population.survey import tabulate_survey

    study = ctx.study
    if study is None or not getattr(study, "surveys", None):
        return None
    if not all(study.surveys.get(y) for y in ctx.years):
        return None
    return {y: tabulate_survey(study.surveys[y], y) for y in ctx.years}


# -- Tables -------------------------------------------------------------

@_extractor("t1_panel_shrinks")
def _t1_panel(ctx):
    import repro.analysis as A

    years = _compared_years(ctx)
    return [A.campaign_overview(ctx.raw_campaign(y)).n_total for y in years]


@_extractor("t1_lte_share")
def _t1_lte(ctx):
    import repro.analysis as A

    years = _compared_years(ctx, every_campaign=True)
    return [A.campaign_overview(ctx.raw_campaign(y)).lte_share for y in years]


@_extractor("t2_occupation_mix")
def _t2_occupation(ctx):
    from repro.population.demographics import OCCUPATION_SHARES

    tabs = _surveys(ctx)
    if tabs is None:
        raise _SkipCheck("no survey responses on this context")
    worst = 0.0
    for year, tab in tabs.items():
        for occupation, share in OCCUPATION_SHARES[year].items():
            measured = tab.occupation_pct.get(occupation.value, 0.0)
            worst = max(worst, abs(measured - share))
    return worst


@_extractor("t3_median_all")
def _t3_median_all(ctx):
    years = _compared_years(ctx, every_campaign=True)
    growth = _growth(ctx)
    return [growth.median["all"][y] for y in years]


@_extractor("t3_wifi_overtakes_cell")
def _t3_crossover(ctx):
    growth = _growth(ctx)
    first, last = _first_last(ctx)
    return (
        (growth.median["wifi"][first], growth.median["wifi"][last]),
        (growth.median["cell"][first], growth.median["cell"][last]),
    )


@_extractor("t3_mean_wifi_gt_cell")
def _t3_means(ctx):
    growth = _growth(ctx)
    last = _last(ctx)
    return (growth.mean["wifi"][last], growth.mean["cell"][last])


@_extractor("t3_agr_ordering")
def _t3_agr(ctx):
    growth = _growth(ctx)
    rates = [growth.agr_median[kind] for kind in ("wifi", "all", "cell")]
    if None in rates:
        # A zero median makes the AGR undefined. NaN would read as "no
        # ordering violation" and pass silently, so skip instead.
        raise _SkipCheck("median AGR undefined: a year's median is 0 MB")
    return rates


@_extractor("t4_public_ap_growth")
def _t4_public(ctx):
    first, last = _first_last(ctx)
    counts = {y: ctx.classification(y).counts() for y in (first, last)}
    return counts[last]["public"] / max(counts[first]["public"], 1)


@_extractor("t4_home_flat")
def _t4_home(ctx):
    first, last = _first_last(ctx)
    counts = {y: ctx.classification(y).counts() for y in (first, last)}
    return counts[last]["home"] / max(counts[first]["home"], 1)


@_extractor("t4_office_flat")
def _t4_office(ctx):
    first, last = _first_last(ctx)
    counts = {y: ctx.classification(y).counts() for y in (first, last)}
    return counts[last]["office"] / max(counts[first]["office"], 1)


@_extractor("t4_home_ap_users")
def _t4_home_ap_users(ctx):
    years = _compared_years(ctx, every_campaign=True)
    return [ctx.classification(y).fraction_devices_with_home_ap(
                ctx.clean(y).n_devices)
            for y in years]


@_extractor("t5_home_only_declines")
def _t5_home_only(ctx):
    import repro.analysis as A

    first, last = _first_last(ctx)
    return [A.hpo_breakdown(ctx.campaign(y)).pct(1, 0, 0)
            for y in (first, last)]


@_extractor("t5_multi_combo_grows")
def _t5_multi(ctx):
    import repro.analysis as A

    first, last = _first_last(ctx)
    return [A.hpo_breakdown(ctx.campaign(y)).pct(1, 0, 1)
            for y in (first, last)]


@_extractor("t6_browser_video_lead")
def _t6_categories(ctx):
    last = _last(ctx)
    top = [name for name, _ in ctx.app_breakdown(last).top("wifi_home", n=3)]
    return 1.0 if {"browser", "video"} <= set(top) else 0.0


@_extractor("t7_productivity_tx")
def _t7_productivity(ctx):
    last = _last(ctx)
    top = [name for name, _ in
           ctx.app_breakdown(last).top("wifi_home", n=5, direction="tx")]
    productivity = {"productivity", "tools", "communication", "mail",
                    "business", "office"}
    return 1.0 if productivity & set(top) else 0.0


@_extractor("t8_home_yes_grows")
def _t8_home_yes(ctx):
    years = _compared_years(ctx, every_campaign=True)
    tabs = _surveys(ctx)
    if tabs is None:
        raise _SkipCheck("no survey responses on this context")
    return [tabs[y].connected_pct["home"]["yes"] for y in years]


@_extractor("t8_public_optimism")
def _t8_public_yes(ctx):
    years = _compared_years(ctx)
    tabs = _surveys(ctx)
    if tabs is None:
        raise _SkipCheck("no survey responses on this context")
    return [tabs[y].connected_pct["public"]["yes"] for y in years]


@_extractor("t9_no_aps_leads_office")
def _t9_office(ctx):
    from repro.population.survey import REASONS

    tabs = _surveys(ctx)
    if tabs is None:
        raise _SkipCheck("no survey responses on this context")
    last = _last(ctx)
    office = tabs[last].reason_pct["office"]
    leader = office["No available APs"]
    others = [office[r] for r in REASONS
              if r != "No available APs" and office[r] == office[r]]
    return (leader, max(others))


@_extractor("t9_security_public_gt_home")
def _t9_security(ctx):
    tabs = _surveys(ctx)
    if tabs is None:
        raise _SkipCheck("no survey responses on this context")
    last = _last(ctx)
    return (tabs[last].reason_pct["public"]["Security issue"],
            tabs[last].reason_pct["home"]["Security issue"])


# -- Figures ------------------------------------------------------------

@_extractor("f1_cellular_share_2014")
def _f1_share(ctx):
    from repro.reporting.context import cellular_share_of_broadband

    return cellular_share_of_broadband(2014)


@_extractor("f2_wifi_share_grows")
def _f2_wifi_share(ctx):
    import repro.analysis as A

    first, last = _first_last(ctx)
    return [A.aggregate_traffic(ctx.campaign(y)).wifi_share
            for y in (first, last)]


@_extractor("f2_evening_wifi_peak")
def _f2_peaks(ctx):
    import repro.analysis as A

    last = _last(ctx)
    peaks = set(int(h) for h in A.diurnal_peaks(ctx.campaign(last), "wifi"))
    evening = {20, 21, 22, 23, 0, 1}
    return 1.0 if peaks & evening else 0.0


@_extractor("f2_weekend_wifi_gt_cell")
def _f2_weekend(ctx):
    import repro.analysis as A

    view = ctx.campaign(_last(ctx))
    return (A.weekend_weekday_ratio(view, "wifi"),
            A.weekend_weekday_ratio(view, "cell"))


@_extractor("f3_rx_tx_ratio")
def _f3_ratio(ctx):
    last = _last(ctx)
    rx = float(ctx.daily_matrix("all", "rx", year=last).sum())
    tx = float(ctx.daily_matrix("all", "tx", year=last).sum())
    if tx <= 0:
        raise _SkipCheck("no TX volume recorded")
    return rx / tx


@_extractor("f3_volumes_grow")
def _f3_grow(ctx):
    growth = _growth(ctx)
    return [growth.mean["all"][y] for y in _compared_years(ctx)]


@_extractor("f4_zero_wifi")
def _f4_zero_wifi(ctx):
    import repro.analysis as A

    last = _last(ctx)
    return A.daily_volume_distributions(ctx.campaign(last)).zero_fraction("wifi")


@_extractor("f4_zero_cell_small")
def _f4_zero_cell(ctx):
    import repro.analysis as A

    last = _last(ctx)
    return A.daily_volume_distributions(ctx.campaign(last)).zero_fraction("cell")


@_extractor("f5_cell_intensive_declines")
def _f5_cell_intensive(ctx):
    import repro.analysis as A

    first, last = _first_last(ctx)
    return [A.wifi_cell_heatmap(ctx.campaign(y)).cellular_intensive_fraction
            for y in (first, last)]


@_extractor("f5_wifi_intensive_small")
def _f5_wifi_intensive(ctx):
    import repro.analysis as A

    last = _last(ctx)
    return A.wifi_cell_heatmap(ctx.campaign(last)).wifi_intensive_fraction


@_extractor("f6_traffic_ratio")
def _f6_traffic(ctx):
    first, last = _first_last(ctx)
    return [ctx.wifi_ratios(y).traffic("all").mean for y in (first, last)]


@_extractor("f6_user_ratio")
def _f6_users(ctx):
    first, last = _first_last(ctx)
    return [ctx.wifi_ratios(y).users("all").mean for y in (first, last)]


@_extractor("f7_heavy_gt_light")
def _f7_heavy(ctx):
    last = _last(ctx)
    ratios = ctx.wifi_ratios(last)
    return (ratios.traffic("heavy").mean, ratios.traffic("light").mean)


@_extractor("f8_heavy_user_ratio_grows")
def _f8_heavy_users(ctx):
    first, last = _first_last(ctx)
    return [ctx.wifi_ratios(y).users("heavy").mean for y in (first, last)]


@_extractor("f9_wifi_off_declines")
def _f9_wifi_off(ctx):
    import repro.analysis as A

    first, last = _first_last(ctx)
    return [A.interface_state_ratios(ctx.campaign(y)).android_means["wifi_off"]
            for y in (first, last)]


@_extractor("f9_ios_gt_android")
def _f9_ios(ctx):
    import repro.analysis as A

    last = _last(ctx)
    return A.ios_android_gap(A.interface_state_ratios(ctx.campaign(last)))


@_extractor("f10_coverage_grows")
def _f10_coverage(ctx):
    import repro.analysis as A

    first, last = _first_last(ctx)
    return [
        A.association_density_maps(ctx.campaign(y)).grid("public")
        .n_cells_with_at_least(1)
        for y in (first, last)
    ]


@_extractor("f11_home_volume_share")
def _f11_home_share(ctx):
    import repro.analysis as A

    last = _last(ctx)
    return A.location_traffic(ctx.campaign(last)).volume_share["home"]


@_extractor("f12_single_ap_declines")
def _f12_single_ap(ctx):
    import repro.analysis as A

    first, last = _first_last(ctx)
    return [A.aps_per_day(ctx.campaign(y)).pct("all", 1)
            for y in (first, last)]


@_extractor("f13_duration_ordering")
def _f13_durations(ctx):
    import repro.analysis as A

    last = _last(ctx)
    p90 = A.association_durations(ctx.campaign(last)).p90_hours
    missing = [cls for cls in ("home", "office", "public") if cls not in p90]
    if missing:
        raise _SkipCheck(f"no association durations for {missing}")
    return [p90["home"], p90["office"], p90["public"]]


@_extractor("f14_public_5ghz_majority")
def _f14_public_band(ctx):
    import repro.analysis as A

    last = _last(ctx)
    return A.band_fractions(ctx.campaign(last)).fraction("public")


@_extractor("f14_public_outpaces_home")
def _f14_band_gap(ctx):
    import repro.analysis as A

    last = _last(ctx)
    bands = A.band_fractions(ctx.campaign(last))
    return (bands.fraction("public"), bands.fraction("home"))


@_extractor("f15_home_rssi_bell")
def _f15_home_rssi(ctx):
    import repro.analysis as A

    last = _last(ctx)
    return A.rssi_distributions(ctx.campaign(last)).mean["home"]


@_extractor("f15_public_rssi_mean")
def _f15_public_rssi(ctx):
    import repro.analysis as A

    last = _last(ctx)
    return A.rssi_distributions(ctx.campaign(last)).mean["public"]


@_extractor("f15_public_weaker")
def _f15_weak(ctx):
    import repro.analysis as A

    last = _last(ctx)
    dist = A.rssi_distributions(ctx.campaign(last))
    return (dist.weak_fraction["public"], dist.weak_fraction["home"])


@_extractor("f16_public_trio")
def _f16_trio(ctx):
    import repro.analysis as A

    last = _last(ctx)
    return A.channel_distributions(ctx.campaign(last)).trio_share("public")


@_extractor("f16_home_ch1_declines")
def _f16_ch1(ctx):
    import repro.analysis as A

    first, last = _first_last(ctx)
    return [A.channel_distributions(ctx.campaign(y)).channel_share("home", 1)
            for y in (first, last)]


@_extractor("f17_sparse_public")
def _f17_sparse(ctx):
    import repro.analysis as A

    last = _last(ctx)
    availability = A.public_availability(ctx.campaign(last))
    return 1.0 - availability.fraction_seeing("24_all", 10)


@_extractor("f17_strong_lt_all")
def _f17_strong(ctx):
    import repro.analysis as A

    last = _last(ctx)
    availability = A.public_availability(ctx.campaign(last))
    return (availability.fraction_seeing("24_all", 3),
            availability.fraction_seeing("24_strong", 3))


@_extractor("f18_update_adoption")
def _f18_adoption(ctx):
    import repro.analysis as A

    last = _last(ctx)
    timing = A.update_timing(ctx.raw_campaign(last), ctx.classification(last))
    return timing.updated_fraction


@_extractor("f18_no_home_update_less")
def _f18_no_home(ctx):
    import repro.analysis as A

    last = _last(ctx)
    timing = A.update_timing(ctx.raw_campaign(last), ctx.classification(last))
    return (timing.updated_fraction, timing.updated_fraction_no_home)


@_extractor("f19_gap_narrows")
def _f19_gap(ctx):
    import repro.analysis as A

    last = _compared_years(ctx)[-1]
    if (last - 1) not in ctx.years:
        raise _SkipCheck(f"no campaign for {last - 1}")
    gaps = [A.cap_effect(ctx.campaign(year)).median_gap()
            for year in (last - 1, last)]
    if None in gaps:
        raise _SkipCheck("no capped or no other device-days in a year")
    return gaps


@_extractor("f19_capped_below_half")
def _f19_below_half(ctx):
    import repro.analysis as A

    last = _last(ctx)
    effect = A.cap_effect(ctx.campaign(last))
    if effect.median_gap() is None:
        raise _SkipCheck(f"no capped or no other device-days in {last}")
    return (effect.capped_below_half, effect.others_below_half)


# -- Section estimates --------------------------------------------------

@_extractor("s35_opportunity")
def _s35_opportunity(ctx):
    import repro.analysis as A

    last = _last(ctx)
    return A.offload_estimate(ctx.campaign(last)).devices_with_opportunity


@_extractor("s35_offloadable_share")
def _s35_offloadable(ctx):
    import repro.analysis as A

    last = _last(ctx)
    return A.offload_estimate(ctx.campaign(last)).offloadable_fraction


@_extractor("s41_wifi_beats_cell")
def _s41_ratio(ctx):
    import repro.analysis as A

    last = _last(ctx)
    return A.offload_impact(ctx.campaign(last)).wifi_to_cell_ratio


@_extractor("s41_home_share")
def _s41_home(ctx):
    import repro.analysis as A

    last = _last(ctx)
    return A.offload_impact(ctx.campaign(last)).smartphone_share_of_home_broadband


class _SkipCheck(Exception):
    """Raised by an extractor when the quantity is undefined at this scale."""


# ----------------------------------------------------------------------
# Scoring
# ----------------------------------------------------------------------

def resolve_check_ids(names: Optional[Sequence[str]] = None) -> List[str]:
    """Expand experiment ids / check ids / ``all`` to sorted check ids."""
    if not names or list(names) == ["all"]:
        return sorted(REFERENCES)
    by_experiment: Dict[str, List[str]] = {}
    for check_id, ref in REFERENCES.items():
        by_experiment.setdefault(ref.experiment_id, []).append(check_id)
    resolved: List[str] = []
    unknown: List[str] = []
    for name in names:
        if name in REFERENCES:
            resolved.append(name)
        elif name in by_experiment:
            resolved.extend(by_experiment[name])
        else:
            unknown.append(name)
    if unknown:
        raise ReproError(
            f"unknown fidelity checks: {unknown}; valid ids: "
            f"{', '.join(reference_experiment_ids())} (or 'all', or a "
            f"check id)"
        )
    return sorted(set(resolved))


def _round_measured(value, digits: int = 6):
    """Round a measured structure for stable JSON."""
    if isinstance(value, (list, tuple)):
        return [_round_measured(v, digits) for v in value]
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return round(value, digits)
    if isinstance(value, int):
        return value
    return float(value)  # numpy scalars


def _measured_text(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, (list, tuple)):
        if value and isinstance(value[0], (list, tuple)):
            return " vs ".join(_measured_text(v) for v in value)
        return " -> ".join(_measured_text(v) for v in value)
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _context_is_partial(ctx) -> bool:
    """Whether the context's study dropped shards (``--partial-results``).

    Scoring a partial run against full-panel references is meaningless:
    any check may fail or blow up on the holes, so extractor errors are
    downgraded to ``skip`` rather than crashing the scoreboard.
    """
    study = getattr(ctx, "study", None)
    if study is None:
        return False
    return any(
        getattr(result, "losses", None) is not None
        for result in getattr(study, "campaigns", {}).values()
    )


def _score_one(ref: PaperRef, ctx) -> FidelityRecord:
    from repro.errors import AnalysisError

    extractor = _EXTRACTORS[ref.check_id]
    skip_on = ((_SkipCheck, AnalysisError, Exception)
               if _context_is_partial(ctx) else (_SkipCheck, AnalysisError))
    try:
        with get_recorder().span("fidelity.check", check=ref.check_id):
            measured = extractor(ctx)
    except skip_on as exc:
        return FidelityRecord(
            check_id=ref.check_id, experiment_id=ref.experiment_id,
            paper_item=paper_item_of(ref.experiment_id),
            quantity=ref.quantity, paper=ref.paper,
            predicate=ref.predicate.describe(), measured=None,
            measured_text="-", divergence=None, verdict=VERDICT_SKIP,
            scale_free=ref.scale_free,
            note=str(exc) or ref.note,
        )
    verdict, divergence = ref.predicate.verdict(measured, ref.paper_value)
    rounded = _round_measured(measured)
    return FidelityRecord(
        check_id=ref.check_id, experiment_id=ref.experiment_id,
        paper_item=paper_item_of(ref.experiment_id),
        quantity=ref.quantity, paper=ref.paper,
        predicate=ref.predicate.describe(), measured=rounded,
        measured_text=_measured_text(rounded),
        divergence=round(float(divergence), 6), verdict=verdict,
        scale_free=ref.scale_free, note=ref.note,
    )


def score_fidelity(
    context,
    checks: Optional[Sequence[str]] = None,
    scale: Optional[float] = None,
    seed: Optional[int] = None,
    data: Optional[str] = None,
) -> FidelityReport:
    """Score (a subset of) the registry against one analysis context.

    ``context`` is an :class:`~repro.analysis.context.AnalysisContext`
    (study-backed for the survey checks; dataset-backed contexts skip
    them). ``checks`` accepts experiment ids, check ids or ``all``.
    ``scale`` and ``seed`` label a simulated study, ``data`` the
    directory of saved campaigns.
    """
    check_ids = resolve_check_ids(checks)
    report = FidelityReport(scale=scale, seed=seed, data=data,
                            years=[int(y) for y in context.years])
    with get_recorder().span("fidelity.score", n_checks=len(check_ids)):
        for check_id in check_ids:
            report.records.append(_score_one(REFERENCES[check_id], context))
    return report


def registered_checks() -> List[PaperRef]:
    """Every reference with an extractor, in check-id order (sanity API)."""
    return [REFERENCES[k] for k in sorted(REFERENCES) if k in _EXTRACTORS]


def missing_extractors() -> List[str]:
    """Registered checks with no extractor (must stay empty)."""
    return sorted(set(REFERENCES) - set(_EXTRACTORS))


# ----------------------------------------------------------------------
# The regression gate
# ----------------------------------------------------------------------

def fidelity_regressions(
    current: Union[FidelityReport, dict],
    baseline: dict,
    baseline_name: str = "baseline",
) -> List[str]:
    """Verdict regressions of ``current`` vs a committed baseline.

    A regression is a check whose verdict worsened (pass -> warn,
    anything -> fail) or that the baseline scored but the current report
    no longer contains. ``skip`` on either side exempts the check: a
    quantity that is undefined at one scale cannot gate.
    """
    if isinstance(current, FidelityReport):
        current = current.to_dict()
    current_by_id = {r["check_id"]: r for r in current.get("records", ())}
    failures: List[str] = []
    for base in baseline.get("records", ()):
        check_id = base["check_id"]
        base_verdict = base["verdict"]
        if base_verdict == VERDICT_SKIP:
            continue
        now = current_by_id.get(check_id)
        if now is None:
            failures.append(
                f"{baseline_name}: check {check_id} disappeared "
                f"(was {base_verdict})"
            )
            continue
        now_verdict = now["verdict"]
        if now_verdict == VERDICT_SKIP:
            continue
        if verdict_rank(now_verdict) > verdict_rank(base_verdict):
            failures.append(
                f"{baseline_name}: {check_id} regressed "
                f"{base_verdict} -> {now_verdict} "
                f"(divergence {base.get('divergence')} -> "
                f"{now.get('divergence')}, measured {now.get('measured_text')})"
            )
    return failures
