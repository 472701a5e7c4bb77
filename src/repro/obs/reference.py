"""The machine-readable paper-reference registry.

``EXPERIMENTS.md`` states, in prose, what "shape agreement" means for every
reproduced table and figure: a relative-error bound here, an ordering or a
crossover there, a growth direction elsewhere. This module encodes those
same criteria as data — one :class:`PaperRef` per checkable claim, each
carrying the paper's reported value, a display string, and a
:class:`Predicate` that turns a measured quantity into a normalized
divergence and a ``pass``/``warn``/``fail`` verdict.

The registry is *pure data plus arithmetic*: it is stdlib-only and imports
nothing from the analysis layer. Each reference names the experiment
(:mod:`repro.reporting.experiments`) and the one named measure of its
result that it reads; :mod:`repro.obs.fidelity` runs the experiment and
scores the measure. Keeping the two apart means the reference values (and
the doc generator that rewrites ``EXPERIMENTS.md`` from them) can be
inspected without paying any numpy/simulation import.

Divergence is normalized uniformly across predicate kinds so verdicts have
one semantics everywhere:

- ``divergence <= 1.0`` — **pass**: the claim holds within tolerance;
- ``1.0 < divergence <= warn_factor`` — **warn**: outside tolerance but
  within the warn band (default 2x);
- ``divergence > warn_factor`` — **fail**: the reproduction has drifted.

A fourth verdict, ``skip``, is produced by the scorer (not by predicates)
when the experiment leaves its measure undefined at the current scale —
e.g. too few potentially-capped device-days for Figure 19 on a tiny panel
— or when the context holds too few campaign years for a check that
compares them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "VERDICT_PASS",
    "VERDICT_WARN",
    "VERDICT_FAIL",
    "VERDICT_SKIP",
    "verdict_rank",
    "Predicate",
    "RelTol",
    "Range",
    "Ordering",
    "Crossover",
    "Greater",
    "Holds",
    "PaperRef",
    "REFERENCES",
    "reference_experiment_ids",
    "paper_item_of",
]

VERDICT_PASS = "pass"
VERDICT_WARN = "warn"
VERDICT_FAIL = "fail"
VERDICT_SKIP = "skip"

#: Severity order for the regression gate ("skip" never gates).
_VERDICT_RANK = {VERDICT_PASS: 0, VERDICT_WARN: 1, VERDICT_FAIL: 2}


def verdict_rank(verdict: str) -> int:
    """Severity of a verdict (pass < warn < fail); skip is not ranked."""
    try:
        return _VERDICT_RANK[verdict]
    except KeyError:
        raise ValueError(f"unrankable verdict {verdict!r}") from None


Number = Union[int, float]
#: A measured quantity: a scalar, a sequence, or a pair of sequences.
Measured = Union[Number, Sequence[Number], Tuple[Sequence[Number], ...]]

#: Divergence assigned when a claim fails with no meaningful magnitude
#: (e.g. a qualitative Holds check): far beyond any warn band.
_HARD_FAIL = 100.0


def _rel_err(measured: float, reference: float) -> float:
    """|measured - reference| relative to the reference magnitude."""
    if reference == 0.0:
        return 0.0 if measured == 0.0 else _HARD_FAIL
    return abs(measured - reference) / abs(reference)


@dataclass(frozen=True)
class Predicate:
    """Base predicate: evaluates a measured quantity to a divergence.

    Subclasses implement :meth:`divergence`; verdict banding is shared.
    """

    #: Keyword-only so subclass fields keep positional slots (``Ordering
    #: ("decreasing")`` binds to ``direction``, not the warn band).
    warn_factor: float = field(default=2.0, kw_only=True)

    def divergence(self, measured: Measured,
                   paper_value: Optional[Measured]) -> float:
        raise NotImplementedError

    def verdict(self, measured: Measured,
                paper_value: Optional[Measured] = None) -> Tuple[str, float]:
        """(verdict, divergence) for one measured quantity."""
        div = float(self.divergence(measured, paper_value))
        if math.isnan(div):
            return VERDICT_FAIL, _HARD_FAIL
        if div <= 1.0:
            return VERDICT_PASS, div
        if div <= self.warn_factor:
            return VERDICT_WARN, div
        return VERDICT_FAIL, div

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class RelTol(Predicate):
    """Relative error of a scalar (or element-wise of a sequence) vs the
    paper value, normalized by ``tol``: divergence = max rel. error / tol."""

    tol: float = 0.25

    def divergence(self, measured, paper_value):
        if paper_value is None:
            raise ValueError("RelTol needs a paper_value")
        m = measured if isinstance(measured, (list, tuple)) else (measured,)
        p = (paper_value if isinstance(paper_value, (list, tuple))
             else (paper_value,))
        if len(m) != len(p):
            raise ValueError(
                f"measured has {len(m)} elements, paper value {len(p)}"
            )
        return max(_rel_err(float(a), float(b)) for a, b in zip(m, p)) / self.tol

    def describe(self) -> str:
        return f"relative error <= {self.tol:g}"


@dataclass(frozen=True)
class Range(Predicate):
    """A scalar must land inside ``[lo, hi]``; divergence is the distance
    outside the interval, relative to the interval width."""

    lo: float = 0.0
    hi: float = 1.0

    def divergence(self, measured, paper_value):
        value = float(measured)
        span = self.hi - self.lo
        if span <= 0:
            raise ValueError(f"empty range [{self.lo}, {self.hi}]")
        if value < self.lo:
            return 1.0 + (self.lo - value) / span
        if value > self.hi:
            return 1.0 + (value - self.hi) / span
        return 0.0

    def describe(self) -> str:
        return f"within [{self.lo:g}, {self.hi:g}]"


@dataclass(frozen=True)
class Ordering(Predicate):
    """A sequence must be monotone in ``direction``; divergence is the
    largest relative violation over ``slack_rel`` (default 5%)."""

    direction: str = "increasing"
    slack_rel: float = 0.05

    def divergence(self, measured, paper_value):
        values = [float(v) for v in measured]
        if len(values) < 2:
            raise ValueError("ordering needs at least two values")
        if self.direction not in ("increasing", "decreasing"):
            raise ValueError(f"bad direction {self.direction!r}")
        worst = 0.0
        for earlier, later in zip(values, values[1:]):
            gap = later - earlier
            if self.direction == "decreasing":
                gap = -gap
            if gap < 0:  # violated by |gap|
                denom = max(abs(earlier), abs(later), 1e-12)
                worst = max(worst, -gap / denom)
        return worst / self.slack_rel

    def describe(self) -> str:
        return f"{self.direction} (slack {self.slack_rel:g})"


@dataclass(frozen=True)
class Crossover(Predicate):
    """Series *a* must start below series *b* and end above it.

    Measured is ``((a_first, a_last), (b_first, b_last))``. Divergence is
    the worse of the two endpoint margins, relative over ``slack_rel``.
    """

    slack_rel: float = 0.05

    def divergence(self, measured, paper_value):
        (a_first, a_last), (b_first, b_last) = (
            [float(v) for v in pair] for pair in measured
        )
        start_denom = max(abs(a_first), abs(b_first), 1e-12)
        end_denom = max(abs(a_last), abs(b_last), 1e-12)
        start_violation = max(0.0, (a_first - b_first) / start_denom)
        end_violation = max(0.0, (b_last - a_last) / end_denom)
        return max(start_violation, end_violation) / self.slack_rel

    def describe(self) -> str:
        return "first series overtakes the second"


@dataclass(frozen=True)
class Greater(Predicate):
    """Measured pair ``(a, b)``: require ``a > min_ratio * b``; divergence
    is the relative shortfall over ``slack_rel``."""

    min_ratio: float = 1.0
    slack_rel: float = 0.05

    def divergence(self, measured, paper_value):
        a, b = (float(v) for v in measured)
        target = self.min_ratio * b
        shortfall = target - a
        if shortfall <= 0:
            return 0.0
        denom = max(abs(a), abs(target), 1e-12)
        return (shortfall / denom) / self.slack_rel

    def describe(self) -> str:
        if self.min_ratio == 1.0:
            return "first exceeds second"
        return f"first exceeds {self.min_ratio:g}x second"


@dataclass(frozen=True)
class Holds(Predicate):
    """A qualitative claim: measured is 1.0 (holds) or 0.0 (does not)."""

    def divergence(self, measured, paper_value):
        return 0.0 if float(measured) >= 0.5 else _HARD_FAIL

    def describe(self) -> str:
        return "qualitative claim holds"


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PaperRef:
    """One checkable paper claim: reference value plus shape predicate."""

    check_id: str
    experiment_id: str
    #: The measure of the experiment's result that the check reads.
    measure: str
    #: Human name of the compared quantity ("Median daily RX, all (MB)").
    quantity: str
    #: The paper's reported value as printed ("57.9 / 90.3 / 126.5").
    paper: str
    predicate: Predicate
    #: Machine-comparable paper value when the predicate needs one.
    paper_value: Optional[Measured] = None
    #: False when the quantity depends on panel scale (AP counts, panel
    #: sizes) and only the shape — not the level — is comparable.
    scale_free: bool = True
    note: str = ""


REFERENCES: Dict[str, PaperRef] = {}


def _ref(check_id: str, experiment_id: str, measure: str, quantity: str,
         paper: str, predicate: Predicate,
         paper_value: Optional[Measured] = None, scale_free: bool = True,
         note: str = "") -> None:
    if check_id in REFERENCES:
        raise ValueError(f"duplicate check id {check_id!r}")
    REFERENCES[check_id] = PaperRef(
        check_id=check_id, experiment_id=experiment_id, measure=measure,
        quantity=quantity, paper=paper, predicate=predicate,
        paper_value=paper_value, scale_free=scale_free, note=note,
    )


def reference_experiment_ids() -> List[str]:
    """Every experiment id with at least one registered check, sorted."""
    return sorted({ref.experiment_id for ref in REFERENCES.values()})


def paper_item_of(experiment_id: str) -> str:
    """Display name of the paper artifact ("table3" -> "Table 3")."""
    if experiment_id.startswith("table"):
        return f"Table {int(experiment_id[5:])}"
    if experiment_id.startswith("fig"):
        return f"Figure {int(experiment_id[3:])}"
    if experiment_id.startswith("sec"):
        digits = experiment_id[3:]
        return f"Section {digits[0]}.{digits[1:]}"
    return experiment_id


# -- Tables -------------------------------------------------------------

_ref("t1_panel_shrinks", "table1", "panel_size",
     "Panel size declines across campaigns",
     "948/807 -> 887/789 -> 835/781",
     Ordering("decreasing"), scale_free=False)
_ref("t1_lte_share", "table1", "lte_share",
     "%LTE of cellular traffic",
     "25% -> 70% -> 80%",
     RelTol(tol=0.35), paper_value=(0.25, 0.70, 0.80))
_ref("t2_occupation_mix", "table2", "occupation_gap",
     "Survey occupation mix vs Table 2 (max |diff|, pct points)",
     "sampled from Table 2; within ~3 points",
     Range(lo=0.0, hi=6.0), paper_value=3.0,
     note="survey-backed: skipped on reloaded datasets")
_ref("t3_median_all", "table3", "median_all",
     "Median daily RX, all interfaces (MB)",
     "57.9 / 90.3 / 126.5",
     RelTol(tol=0.55), paper_value=(57.9, 90.3, 126.5))
_ref("t3_wifi_overtakes_cell", "table3", "wifi_cell_medians",
     "Median WiFi crosses median cellular",
     "9.2 < 19.5 (2013) -> 50.7 > 35.6 (2015)",
     Crossover())
_ref("t3_mean_wifi_gt_cell", "table3", "mean_wifi_cell",
     "Mean WiFi exceeds mean cellular (2015)",
     "WiFi mean > cellular mean every year",
     Greater())
_ref("t3_agr_ordering", "table3", "median_agr",
     "AGR ordering (median): WiFi >> all > cell",
     "134% >> 48% > 35%",
     Ordering("decreasing"))
_ref("t4_public_ap_growth", "table4", "public_growth",
     "Public APs grow strongly (last/first)",
     "5041 -> 10481 (~2.1x)",
     Range(lo=1.5, hi=8.0), paper_value=2.1, scale_free=False,
     note="growth steeper than the paper; see Known deviations")
_ref("t4_home_flat", "table4", "home_growth",
     "Home APs roughly flat (last/first)",
     "1139 -> 1289 (~1.1x)",
     Range(lo=0.7, hi=1.6), paper_value=1.13, scale_free=False)
_ref("t4_office_flat", "table4", "office_growth",
     "Office APs stable (last/first)",
     "166 -> 166 (~1.0x)",
     Range(lo=0.6, hi=2.0), paper_value=1.0, scale_free=False)
_ref("t4_home_ap_users", "table4", "home_ap_users",
     "Users with an inferred home AP",
     "66% -> 73% -> 79%",
     RelTol(tol=0.15), paper_value=(0.66, 0.73, 0.79))
_ref("t5_home_only_declines", "table5", "home_only",
     "Home-only (100) share of device-days declines",
     "54.7% -> 46.4%",
     Ordering("decreasing"))
_ref("t5_multi_combo_grows", "table5", "home_other",
     "Home+other (101) combo grows",
     "10.7% -> 16.5%",
     Ordering("increasing"))
_ref("t6_browser_video_lead", "table6", "browser_video_lead",
     "Browser and video lead WiFi-home RX categories",
     "browser/video lead; video & dload grow on WiFi",
     Holds())
_ref("t7_productivity_tx", "table7", "productivity_tx",
     "Productivity categories prominent in WiFi TX top-5",
     "productivity prominent on WiFi",
     Holds())
_ref("t8_home_yes_grows", "table8", "home_yes",
     "Survey: home 'yes' share (%)",
     "70 -> 73 -> 78%",
     RelTol(tol=0.15), paper_value=(70.0, 73.0, 78.0),
     note="survey-backed: skipped on reloaded datasets")
_ref("t8_public_optimism", "table8", "public_yes",
     "Survey: public 'yes' share grows (optimism bias)",
     "45 -> 48 -> 54%",
     Ordering("increasing"),
     note="survey-backed: skipped on reloaded datasets")
_ref("t9_no_aps_leads_office", "table9", "office_no_aps",
     "'No available APs' is the top office reason",
     "46-52%, largest office reason",
     Greater(),
     note="survey-backed: skipped on reloaded datasets")
_ref("t9_security_public_gt_home", "table9", "security_public_home",
     "Security concern strongest in public (2014+)",
     "NA -> 15 -> 35%, public >> home",
     Greater(),
     note="survey-backed: skipped on reloaded datasets")

# -- Figures ------------------------------------------------------------

_ref("f1_cellular_share_2014", "fig01", "cellular_share_2014",
     "Cellular share of broadband by end 2014",
     "~20%",
     RelTol(tol=0.15), paper_value=0.20)
_ref("f2_wifi_share_grows", "fig02", "wifi_share",
     "WiFi share of total volume",
     "59% -> 67%",
     RelTol(tol=0.25), paper_value=(0.59, 0.67))
_ref("f2_evening_wifi_peak", "fig02", "evening_wifi_peak",
     "WiFi peaks in the evening (21:00-01:00)",
     "evening WiFi peak, commute cellular peaks",
     Holds())
_ref("f2_weekend_wifi_gt_cell", "fig02", "weekend_ratios",
     "Weekend/weekday volume ratio: WiFi exceeds cellular (2015)",
     "weekends: cellular down, WiFi up",
     Greater())
_ref("f3_rx_tx_ratio", "fig03", "rx_tx_ratio",
     "Total RX / TX ratio (2015)",
     "RX ~ 5x TX",
     Range(lo=3.0, hi=9.0), paper_value=5.0)
_ref("f3_volumes_grow", "fig03", "mean_volume",
     "Mean daily volume grows yearly (MB)",
     "CDFs shift right every year",
     Ordering("increasing"))
_ref("f4_zero_wifi", "fig04", "zero_wifi",
     "Zero-traffic WiFi interface-days (2015)",
     "~20%",
     Range(lo=0.08, hi=0.35), paper_value=0.20)
_ref("f4_zero_cell_small", "fig04", "zero_cell",
     "Zero-traffic cellular interface-days small (2015)",
     "~8%",
     Range(lo=0.0, hi=0.15), paper_value=0.08)
_ref("f5_cell_intensive_declines", "fig05", "cell_intensive",
     "Cellular-intensive device-day share declines",
     "35% -> 22%",
     Ordering("decreasing"))
_ref("f5_wifi_intensive_small", "fig05", "wifi_intensive",
     "WiFi-intensive share stays a small minority (2015)",
     "~8%",
     Range(lo=0.0, hi=0.20), paper_value=0.08)
_ref("f6_traffic_ratio", "fig06", "traffic_ratio",
     "Mean WiFi-traffic ratio",
     "0.58 -> 0.71",
     RelTol(tol=0.20), paper_value=(0.58, 0.71))
_ref("f6_user_ratio", "fig06", "user_ratio",
     "Mean WiFi-user ratio",
     "0.32 -> 0.48",
     RelTol(tol=0.30), paper_value=(0.32, 0.48))
_ref("f7_heavy_gt_light", "fig07", "heavy_light_traffic",
     "Heavy users offload more than light users (2015)",
     "0.89 vs 0.52",
     Greater())
_ref("f8_heavy_user_ratio_grows", "fig08", "heavy_user_ratio",
     "Heavy-user WiFi-user ratio grows",
     "0.51 -> 0.68",
     Ordering("increasing"))
_ref("f9_wifi_off_declines", "fig09", "wifi_off",
     "Android WiFi-off share declines",
     "~50% -> ~40% daytime",
     Ordering("decreasing"))
_ref("f9_ios_gt_android", "fig09", "ios_android_gap",
     "iOS connects more than Android (gap, 2015)",
     "+30%",
     Range(lo=0.0, hi=1.0), paper_value=0.30)
_ref("f10_coverage_grows", "fig10", "public_coverage",
     "5km cells with >= 1 public AP grow",
     "229 -> 265",
     Ordering("increasing"), scale_free=False)
_ref("f11_home_volume_share", "fig11", "home_volume_share",
     "Home share of WiFi volume (2015)",
     "~95%",
     Range(lo=0.80, hi=1.0), paper_value=0.95)
_ref("f12_single_ap_declines", "fig12", "single_ap",
     "Single-AP device-day share declines",
     "70% -> 60%",
     Ordering("decreasing"))
_ref("f13_duration_ordering", "fig13", "p90_durations",
     "p90 association duration: home > office > public (h)",
     "12h / 8h / 1h",
     Ordering("decreasing"))
_ref("f14_public_5ghz_majority", "fig14", "public_5ghz",
     "Public 5GHz fraction by 2015",
     "> 50%",
     Range(lo=0.35, hi=1.0), paper_value=0.50)
_ref("f14_public_outpaces_home", "fig14", "public_home_5ghz",
     "Public 5GHz rollout outpaces home (2015)",
     "> 50% vs < 20%",
     Greater())
_ref("f15_home_rssi_bell", "fig15", "home_rssi_mean",
     "Home max-RSSI mean (dBm, 2015)",
     "~-54 dBm",
     Range(lo=-60.0, hi=-47.0), paper_value=-54.0)
_ref("f15_public_rssi_mean", "fig15", "public_rssi_mean",
     "Public max-RSSI mean (dBm, 2015)",
     "~-60 dBm",
     Range(lo=-66.0, hi=-53.0), paper_value=-60.0)
_ref("f15_public_weaker", "fig15", "weak_public_home",
     "Public weak-signal fraction exceeds home (2015)",
     "12% vs 3% below -70 dBm",
     Greater())
_ref("f16_public_trio", "fig16", "public_trio",
     "Public 2.4GHz channels on the 1/6/11 trio (2015)",
     "all on 1/6/11",
     Range(lo=0.90, hi=1.0), paper_value=1.0)
_ref("f16_home_ch1_declines", "fig16", "home_ch1",
     "Home channel-1 concentration declines",
     "Ch1 pile-up shrinks",
     Ordering("decreasing"))
_ref("f17_sparse_public", "fig17", "sparse_public",
     "Available samples seeing < 10 public 2.4GHz APs (2015)",
     "~90%",
     Range(lo=0.70, hi=1.0), paper_value=0.90)
_ref("f17_strong_lt_all", "fig17", "strong_all",
     "Strong networks rarer than all detected (2015)",
     "strong << all",
     Greater())
_ref("f18_update_adoption", "fig18", "updated",
     "iOS devices updating in the window (2015)",
     "58%",
     Range(lo=0.30, hi=0.80), paper_value=0.58)
_ref("f18_no_home_update_less", "fig18", "updated_no_home",
     "No-home users update less",
     "14% vs 58%",
     Greater())
_ref("f19_gap_narrows", "fig19", "median_gaps",
     "Capped-vs-others median gap narrows in 2015",
     "0.29 -> 0.15",
     Ordering("decreasing"),
     note="needs capped device-days; skipped at tiny scales")
_ref("f19_capped_below_half", "fig19", "below_half",
     "Capped users more often below half their 3-day mean (2015)",
     "45% vs 30% (2014)",
     Greater(),
     note="needs capped device-days; skipped at tiny scales")

# -- Section estimates --------------------------------------------------

_ref("s35_opportunity", "sec35", "opportunity",
     "Available users with stable public-WiFi opportunity (2015)",
     "~60%",
     Range(lo=0.40, hi=1.0), paper_value=0.60)
_ref("s35_offloadable_share", "sec35", "offloadable",
     "Offloadable share of their cellular download (2015)",
     "15-20%",
     Range(lo=0.05, hi=0.35), paper_value=0.18)
_ref("s41_wifi_beats_cell", "sec41", "wifi_cell_ratio",
     "WiFi:cellular median ratio (2015)",
     "1.4 (WiFi wins)",
     Range(lo=1.0, hi=5.0), paper_value=1.4,
     note="overshoots with the WiFi median; see Known deviations")
_ref("s41_home_share", "sec41", "home_share",
     "One phone's share of home broadband (2015)",
     "~12%",
     Range(lo=0.03, hi=0.35), paper_value=0.12)
