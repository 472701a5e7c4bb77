"""Fidelity observability: registry, predicates, scorer, gate, docgen."""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import ReproError
from repro.obs import fidelity as F
from repro.obs.docgen import fidelity_tables, rewrite_experiments_doc
from repro.obs.fidelity import (
    FidelityReport,
    fidelity_regressions,
    resolve_check_ids,
    score_fidelity,
)
from repro.obs.reference import (
    REFERENCES,
    VERDICT_FAIL,
    VERDICT_PASS,
    VERDICT_SKIP,
    VERDICT_WARN,
    Crossover,
    Greater,
    Holds,
    Ordering,
    Range,
    RelTol,
    paper_item_of,
    refs_for,
    verdict_rank,
)


# ----------------------------------------------------------------------
# Registry invariants
# ----------------------------------------------------------------------

def test_every_reference_has_an_extractor():
    assert F.missing_extractors() == []
    assert set(F._EXTRACTORS) == set(REFERENCES)


def test_registry_covers_every_experiment():
    from repro.reporting.experiments import EXPERIMENTS

    covered = {ref.experiment_id for ref in REFERENCES.values()}
    assert covered == set(EXPERIMENTS)


def test_registry_covers_headline_sections():
    """Every headline claim of §3.1-§4.1 has a registered, extractable
    check; the paper's values live in the registry and nowhere else."""
    by_section = {
        "§3.1": ["f2_wifi_share_grows", "t1_lte_share",
                 "f2_weekend_wifi_gt_cell"],
        "§3.2": ["t3_wifi_overtakes_cell", "t3_agr_ordering"],
        "§3.3.1": ["f5_cell_intensive_declines", "f5_wifi_intensive_small"],
        "§3.3.2": ["f6_traffic_ratio"],
        "§3.3.3": ["f7_heavy_gt_light"],
        "§3.3.4": ["f9_wifi_off_declines", "f9_ios_gt_android"],
        "§3.4.1": ["t4_public_ap_growth", "t4_home_ap_users",
                   "f11_home_volume_share"],
        "§3.4.3": ["f14_public_outpaces_home"],
        "§3.4.4": ["f15_public_rssi_mean", "f15_public_weaker"],
        "§3.5": ["s35_offloadable_share"],
        "§3.7": ["f18_update_adoption", "f18_no_home_update_less"],
        "§3.8": ["f19_gap_narrows"],
        "§4.1": ["s41_home_share"],
    }
    for section, check_ids in by_section.items():
        for check_id in check_ids:
            assert check_id in REFERENCES, (section, check_id)
            assert check_id in F._EXTRACTORS, (section, check_id)


def test_refs_are_well_formed():
    for check_id, ref in REFERENCES.items():
        assert ref.check_id == check_id
        assert ref.quantity and ref.paper
        assert ref.predicate.describe()
        assert paper_item_of(ref.experiment_id)[0].isupper()


def test_refs_for_groups_by_experiment():
    table3 = refs_for("table3")
    assert [r.experiment_id for r in table3] == ["table3"] * len(table3)
    assert len(table3) >= 3


def test_paper_item_of_display_names():
    assert paper_item_of("table3") == "Table 3"
    assert paper_item_of("fig05") == "Figure 5"
    assert paper_item_of("sec35") == "Section 3.5"


def test_verdict_rank_orders_severity():
    assert (verdict_rank(VERDICT_PASS) < verdict_rank(VERDICT_WARN)
            < verdict_rank(VERDICT_FAIL))
    with pytest.raises(ValueError):
        verdict_rank(VERDICT_SKIP)


# ----------------------------------------------------------------------
# Predicates
# ----------------------------------------------------------------------

def test_reltol_bands():
    pred = RelTol(tol=0.10)
    assert pred.verdict(100.0, 100.0) == (VERDICT_PASS, 0.0)
    verdict, div = pred.verdict(108.0, 100.0)   # 8% err / 10% tol
    assert verdict == VERDICT_PASS and div == pytest.approx(0.8)
    verdict, div = pred.verdict(115.0, 100.0)   # 15% err -> warn band
    assert verdict == VERDICT_WARN and div == pytest.approx(1.5)
    verdict, _ = pred.verdict(150.0, 100.0)     # 50% err -> fail
    assert verdict == VERDICT_FAIL


def test_reltol_elementwise_takes_worst():
    pred = RelTol(tol=0.25)
    verdict, div = pred.verdict((1.0, 2.0), (1.0, 1.0))
    assert verdict == VERDICT_FAIL and div == pytest.approx(4.0)
    with pytest.raises(ValueError):
        pred.divergence((1.0, 2.0), (1.0,))


def test_range_inside_and_outside():
    pred = Range(lo=1.0, hi=2.0)
    assert pred.verdict(1.5) == (VERDICT_PASS, 0.0)
    verdict, div = pred.verdict(2.5)            # half a span outside
    assert verdict == VERDICT_WARN and div == pytest.approx(1.5)
    assert pred.verdict(4.0)[0] == VERDICT_FAIL
    assert pred.verdict(0.0)[0] == VERDICT_WARN   # exactly the warn edge
    assert pred.verdict(-0.5)[0] == VERDICT_FAIL


def test_ordering_directions_and_slack():
    down = Ordering("decreasing")
    assert down.verdict([3.0, 2.0, 1.0]) == (VERDICT_PASS, 0.0)
    # A 2% uptick sits inside the 5% slack.
    assert down.verdict([3.0, 2.0, 2.04])[0] == VERDICT_PASS
    assert down.verdict([1.0, 3.0])[0] == VERDICT_FAIL
    up = Ordering("increasing")
    assert up.verdict([1.0, 2.0, 3.0]) == (VERDICT_PASS, 0.0)
    assert up.verdict([3.0, 1.0])[0] == VERDICT_FAIL


def test_crossover_requires_both_endpoints():
    pred = Crossover()
    measured = ((1.0, 10.0), (5.0, 6.0))        # a crosses b
    assert pred.verdict(measured) == (VERDICT_PASS, 0.0)
    never_crosses = ((1.0, 4.0), (5.0, 6.0))
    assert pred.verdict(never_crosses)[0] == VERDICT_FAIL
    started_above = ((6.0, 10.0), (5.0, 6.0))
    assert pred.verdict(started_above)[0] == VERDICT_FAIL


def test_greater_and_holds():
    assert Greater().verdict((2.0, 1.0)) == (VERDICT_PASS, 0.0)
    assert Greater().verdict((1.0, 2.0))[0] == VERDICT_FAIL
    assert Greater(min_ratio=1.5).verdict((1.4, 1.0))[0] != VERDICT_PASS
    assert Holds().verdict(1.0) == (VERDICT_PASS, 0.0)
    assert Holds().verdict(0.0)[0] == VERDICT_FAIL


def test_nan_divergence_fails():
    verdict, div = RelTol(tol=0.1).verdict(float("nan"), 1.0)
    assert verdict == VERDICT_FAIL and not math.isnan(div)


# ----------------------------------------------------------------------
# Check-id resolution
# ----------------------------------------------------------------------

def test_resolve_all_and_subsets():
    assert resolve_check_ids() == sorted(REFERENCES)
    assert resolve_check_ids(["all"]) == sorted(REFERENCES)
    t3 = resolve_check_ids(["table3"])
    assert t3 == [r.check_id for r in refs_for("table3")]
    assert resolve_check_ids(["t3_median_all"]) == ["t3_median_all"]
    # Mixing experiment and check ids dedups.
    mixed = resolve_check_ids(["table3", "t3_median_all"])
    assert mixed == t3


def test_resolve_unknown_raises_config_error():
    with pytest.raises(ReproError, match="unknown fidelity checks"):
        resolve_check_ids(["fig99"])


# ----------------------------------------------------------------------
# Scoring on the shared study fixture
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def scored(cache):
    return score_fidelity(cache, scale=0.045, seed=42)


def test_score_covers_registry(scored):
    assert len(scored.records) == len(REFERENCES)
    assert [r.check_id for r in scored.records] == sorted(REFERENCES)
    assert (scored.n_pass + scored.n_warn + scored.n_fail
            + scored.n_skip) == len(scored.records)


def test_tolerance_check_passes(scored):
    rec = scored.record("t3_median_all")
    assert rec.verdict == VERDICT_PASS
    assert rec.divergence is not None and rec.divergence <= 1.0
    assert len(rec.measured) == 3


def test_shape_checks_pass(scored):
    # Ordering: the Table 3 AGR ranking WiFi >> all > cell.
    assert scored.record("t3_agr_ordering").verdict == VERDICT_PASS
    # Crossover: median WiFi starts below and ends above median cellular.
    assert scored.record("t3_wifi_overtakes_cell").verdict == VERDICT_PASS


def test_most_checks_pass_on_fixture_study(scored):
    # Small-panel noise may push a few checks out of band, but the
    # registry tolerances must hold for the vast majority.
    assert scored.n_pass >= 0.8 * len(scored.records)
    assert scored.n_skip == 0  # every quantity extractable at this scale


def test_fail_verdict_on_perturbed_quantity(cache, monkeypatch):
    # Simulate an analysis regression: home share of WiFi volume collapses.
    monkeypatch.setitem(F._EXTRACTORS, "f11_home_volume_share",
                        lambda ctx: 0.05)
    report = score_fidelity(cache, checks=["f11_home_volume_share"],
                            scale=0.045, seed=42)
    rec = report.record("f11_home_volume_share")
    assert rec.verdict == VERDICT_FAIL
    assert rec.divergence > 1.0


def test_skip_verdict_on_analysis_error(cache, monkeypatch):
    from repro.errors import AnalysisError

    def boom(ctx):
        raise AnalysisError("too few capped device-days")

    monkeypatch.setitem(F._EXTRACTORS, "f19_gap_narrows", boom)
    report = score_fidelity(cache, checks=["f19_gap_narrows"],
                            scale=0.045, seed=42)
    rec = report.record("f19_gap_narrows")
    assert rec.verdict == VERDICT_SKIP
    assert rec.measured is None and rec.divergence is None
    assert "capped" in rec.note


def test_survey_checks_skip_without_study(dataset2015):
    from repro.analysis import AnalysisContext

    ctx = AnalysisContext.of(dataset2015)
    report = score_fidelity(ctx, checks=["table8"])
    assert {r.verdict for r in report.records} == {VERDICT_SKIP}


def test_report_json_round_trip(scored, tmp_path):
    path = scored.write(tmp_path / "fidelity.json")
    loaded = F.load_fidelity_report(path)
    assert FidelityReport.from_dict(loaded).to_dict() == scored.to_dict()
    assert loaded["n_checks"] == len(REFERENCES)


def test_render_scoreboard(scored):
    text = scored.render()
    assert "fidelity scoreboard" in text
    assert "t3_median_all" in text
    assert f"{len(REFERENCES)} checks" in text


# ----------------------------------------------------------------------
# Determinism: jobs=1 vs jobs=2 produce bit-identical reports
# ----------------------------------------------------------------------

def test_report_bit_identical_across_jobs(study):
    from repro import AnalysisContext, run_study

    parallel = run_study(scale=0.045, seed=42, n_jobs=2)
    checks = ["table1", "table3", "fig02", "fig05", "sec41"]
    serial_json = score_fidelity(
        AnalysisContext(study), checks=checks, scale=0.045, seed=42
    ).to_json()
    parallel_json = score_fidelity(
        AnalysisContext(parallel), checks=checks, scale=0.045, seed=42
    ).to_json()
    assert serial_json == parallel_json


# ----------------------------------------------------------------------
# The regression gate
# ----------------------------------------------------------------------

def _report_dict(**verdicts) -> dict:
    return {
        "records": [
            {"check_id": check_id, "verdict": verdict, "divergence": 0.5,
             "measured_text": "x"}
            for check_id, verdict in verdicts.items()
        ]
    }


def test_gate_passes_on_identical_verdicts():
    base = _report_dict(a=VERDICT_PASS, b=VERDICT_WARN, c=VERDICT_FAIL)
    assert fidelity_regressions(base, base) == []


def test_gate_flags_worsened_verdicts():
    base = _report_dict(a=VERDICT_PASS, b=VERDICT_WARN)
    now = _report_dict(a=VERDICT_WARN, b=VERDICT_FAIL)
    failures = fidelity_regressions(now, base, baseline_name="BASE")
    assert len(failures) == 2
    assert any("a regressed pass -> warn" in f for f in failures)
    assert any("b regressed warn -> fail" in f for f in failures)


def test_gate_allows_improvement_and_skip():
    base = _report_dict(a=VERDICT_FAIL, b=VERDICT_SKIP, c=VERDICT_PASS)
    now = _report_dict(a=VERDICT_PASS, b=VERDICT_FAIL, c=VERDICT_SKIP)
    # a improved; b was skip in the baseline; c is skip now: none gate.
    assert fidelity_regressions(now, base) == []


def test_gate_flags_disappeared_check():
    base = _report_dict(a=VERDICT_PASS, b=VERDICT_PASS)
    now = _report_dict(a=VERDICT_PASS)
    failures = fidelity_regressions(now, base)
    assert len(failures) == 1 and "disappeared" in failures[0]


def test_gate_accepts_report_object(scored):
    assert fidelity_regressions(scored, scored.to_dict()) == []


def test_committed_baseline_is_loadable_and_complete():
    baseline = F.load_fidelity_report("FIDELITY_baseline.json")
    assert baseline["schema_version"] == F.FIDELITY_SCHEMA_VERSION
    assert {r["check_id"] for r in baseline["records"]} == set(REFERENCES)
    assert baseline["scale"] == 0.02 and baseline["seed"] == 7


# ----------------------------------------------------------------------
# Doc generation
# ----------------------------------------------------------------------

_DOC = """# doc

## Tables

<!-- BEGIN FIDELITY:tables -->
stale
<!-- END FIDELITY:tables -->

## Figures

<!-- BEGIN FIDELITY:figures -->
<!-- END FIDELITY:figures -->

## Sections

<!-- BEGIN FIDELITY:sections -->
<!-- END FIDELITY:sections -->

hand-written tail
"""


def test_fidelity_tables_group_by_paper_item(scored):
    tables = fidelity_tables(scored)
    assert set(tables) == {"tables", "figures", "sections"}
    assert "Table 3" in tables["tables"]
    assert "Figure 5" in tables["figures"]
    assert "Section 4.1" in tables["sections"]
    assert "Measured (scale 0.045)" in tables["tables"]


def test_rewrite_experiments_doc(tmp_path, scored):
    doc = tmp_path / "EXPERIMENTS.md"
    doc.write_text(_DOC)
    assert rewrite_experiments_doc(doc, scored) is True
    text = doc.read_text()
    assert "stale" not in text
    assert "hand-written tail" in text
    assert text.count("| Item | Quantity | Paper |") == 3
    # Idempotent: a second rewrite with the same report changes nothing.
    assert rewrite_experiments_doc(doc, scored) is False


def test_rewrite_requires_markers(tmp_path, scored):
    doc = tmp_path / "bare.md"
    doc.write_text("# no markers here\n")
    with pytest.raises(ReproError, match="marker"):
        rewrite_experiments_doc(doc, scored)


def test_committed_doc_matches_registry():
    """Every registered check has its row in the committed EXPERIMENTS.md:
    one table row carrying both its quantity and its paper value."""
    text = open("EXPERIMENTS.md").read()
    for key in ("tables", "figures", "sections"):
        assert f"<!-- BEGIN FIDELITY:{key} -->" in text
    rows = [line for line in text.splitlines() if line.startswith("| ")]

    def cell(value):
        return "| " + value.replace("|", "\\|") + " |"  # escaped pipes

    for ref in REFERENCES.values():
        assert any(cell(ref.quantity) in row and cell(ref.paper) in row
                   for row in rows), ref.check_id


def test_undefined_agr_renders_and_skips():
    """Seed 55 at scale 0.06 has a 0.0 MB median WiFi download in 2013,
    so the median AGR is undefined: Table 3 still renders (``n/a``) and
    the AGR-ordering check skips instead of passing on NaN."""
    from repro.analysis.context import AnalysisContext
    from repro.reporting.experiments import run_experiment
    from repro.simulation.study import run_study

    ctx = AnalysisContext(run_study(scale=0.06, seed=55, n_jobs=1))
    table3 = run_experiment("table3", ctx).render()
    (wifi_median,) = [line for line in table3.splitlines()
                      if line.split()[:2] == ["median", "wifi"]]
    assert wifi_median.split()[-1] == "n/a"
    (record,) = score_fidelity(ctx, checks=["t3_agr_ordering"]).records
    assert record.verdict == VERDICT_SKIP
    assert "undefined" in record.note


#: Checks that compare campaign years; every other check reads one year.
_YEAR_COMPARISONS = {
    "t1_panel_shrinks", "t1_lte_share", "t3_median_all",
    "t3_wifi_overtakes_cell", "t3_mean_wifi_gt_cell", "t3_agr_ordering",
    "t4_public_ap_growth", "t4_home_flat", "t4_office_flat",
    "t4_home_ap_users", "t5_home_only_declines", "t5_multi_combo_grows",
    "t8_home_yes_grows", "t8_public_optimism", "f2_wifi_share_grows",
    "f3_volumes_grow", "f5_cell_intensive_declines", "f6_traffic_ratio",
    "f6_user_ratio", "f8_heavy_user_ratio_grows", "f9_wifi_off_declines",
    "f10_coverage_grows", "f12_single_ap_declines", "f16_home_ch1_declines",
    "f19_gap_narrows",
}


@pytest.fixture(scope="module")
def one_year_study():
    from repro.simulation.study import run_study

    return run_study(scale=0.02, seed=3, years=(2015,))


def test_one_year_context_skips_year_comparisons(one_year_study):
    """A single campaign leaves nothing to compare: year-comparison
    checks skip with a note instead of raising or scoring a year against
    itself, and every single-year check still scores."""
    from repro.analysis.context import AnalysisContext

    assert _YEAR_COMPARISONS <= set(REFERENCES)
    report = score_fidelity(AnalysisContext(one_year_study))
    assert len(report.records) == len(REFERENCES)
    for rec in report.records:
        if rec.check_id in _YEAR_COMPARISONS:
            assert rec.verdict == VERDICT_SKIP, rec.check_id
            assert rec.note == "needs at least two campaign years"
        else:
            assert rec.verdict != VERDICT_SKIP, (rec.check_id, rec.note)


def test_two_year_context_skips_per_campaign_values():
    """Paper values with one entry per campaign need all three years;
    the other year comparisons score on the two they have."""
    from repro.analysis.context import AnalysisContext
    from repro.simulation.study import run_study

    study = run_study(scale=0.02, seed=3, years=(2013, 2015))
    report = score_fidelity(AnalysisContext(study))
    per_campaign = {"t1_lte_share", "t3_median_all", "t4_home_ap_users",
                    "t8_home_yes_grows"}
    for check_id in per_campaign:
        rec = report.record(check_id)
        assert rec.verdict == VERDICT_SKIP
        assert rec.note == "needs all three campaign years"
    assert report.record("t1_panel_shrinks").verdict != VERDICT_SKIP
    assert report.record("f2_wifi_share_grows").measured_text != "-"


def test_cli_fidelity_on_one_saved_campaign(one_year_study, tmp_path,
                                             capsys):
    from repro import save_dataset
    from repro.cli import main

    save_dataset(one_year_study.dataset(2015), tmp_path / "campaign2015")
    out = tmp_path / "report.json"
    assert main(["fidelity", "--data", str(tmp_path),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["years"] == [2015]
    # The campaign was simulated at seed 3: the report must not borrow
    # the --scale/--seed defaults; it names the data it scored.
    assert report["scale"] is None and report["seed"] is None
    assert report["data"] == str(tmp_path)
    scoreboard = capsys.readouterr().out
    assert f"(data {tmp_path})" in scoreboard
    assert "seed 7" not in scoreboard and "scale 0.02" not in scoreboard
    skipped = {r["check_id"] for r in report["records"]
               if r["verdict"] == VERDICT_SKIP}
    assert _YEAR_COMPARISONS <= skipped


@pytest.mark.parametrize("command", [["fidelity"], ["analyze", "table1"]])
def test_data_run_telemetry_names_the_data(one_year_study, tmp_path,
                                           command, capsys):
    """A run over saved campaigns records null seed/scale and the data
    path: the seed-3 campaign must not fold to the seed-7 defaults."""
    from repro import save_dataset
    from repro.cli import main

    data = tmp_path / "data"
    save_dataset(one_year_study.dataset(2015), data / "campaign2015")
    events = tmp_path / "events.jsonl"
    extra = (["--out", str(tmp_path / "report.json")]
             if command == ["fidelity"] else [])
    assert main(command + ["--data", str(data), "--events", str(events)]
                + extra) == 0
    assert main(["events", str(events), "--manifest", str(tmp_path / "m.json"),
                 "--report", str(tmp_path / "r.html")]) == 0
    manifest = json.loads((tmp_path / "m.json").read_text())
    assert manifest["seed"] is None and manifest["scale"] is None
    assert manifest["data"] == str(data)
    html = (tmp_path / "r.html").read_text()
    assert f"(data {data})" in html
    assert "seed 7" not in html and "scale 0.02" not in html
    if command == ["fidelity"]:
        assert f"scored on data {data}" in html
    capsys.readouterr()
    assert main(["events", str(events), "--postmortem"]) == 0
    run_line = [line for line in capsys.readouterr().out.splitlines()
                if line.strip().startswith("run:")]
    assert run_line and f"data={data}" in run_line[0]
    assert "seed=7" not in run_line[0]
