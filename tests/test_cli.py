"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out and "fig19" in out and "sec41" in out


def test_analyze_unknown_experiment(capsys):
    assert main(["analyze", "fig99", "--scale", "0.02"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiments" in err
    # The error names the valid id set so the fix is one copy-paste away.
    assert "valid ids" in err and "table1" in err and "fig19" in err


def test_version_flag_exits_zero(capsys):
    from repro import __version__

    assert main(["--version"]) == 0
    assert __version__ in capsys.readouterr().out


def test_missing_command_returns_usage_error(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_bench_list_exits_zero(capsys):
    assert main(["bench", "--list"]) == 0
    out = capsys.readouterr().out
    for name in ("table1", "fig19", "study_serial", "study_sharded",
                 "context_cold_sweep", "context_warm_sweep",
                 "collection_faulty_campaign"):
        assert name in out


def test_bench_unknown_name(capsys):
    assert main(["bench", "not_a_benchmark"]) == 2
    err = capsys.readouterr().err
    assert "unknown benchmarks" in err


def test_bench_run_writes_report_and_manifest(tmp_path, capsys):
    out = tmp_path / "BENCH_all.json"
    events = tmp_path / "events.jsonl"
    manifest = tmp_path / "run_manifest.json"
    assert main(["bench", "table1", "--scale", "0.02", "--seed", "3",
                 "--repeat", "1", "--warmup", "0", "--events", str(events),
                 "--out", str(out)]) == 0
    assert main(["events", str(events), "--manifest", str(manifest)]) == 0
    import json

    report = json.loads(out.read_text())
    assert report["benchmark"] == "all"
    assert report["n_benchmarks"] == 1
    assert report["results"][0]["name"] == "table1"

    from repro.obs.manifest import RunManifest

    run = RunManifest.read(manifest)
    assert run.command == "bench"
    assert run.counters["benchmarks_run"] == 1
    assert "bench.table1" in run.stages
    text = capsys.readouterr().out
    assert "table1" in text and "wrote" in text


def test_bench_check_only_gates_saved_report(tmp_path, capsys):
    import json

    current = tmp_path / "current.json"
    current.write_text(json.dumps({
        "benchmark": "all", "scale": 0.02,
        "results": [{"name": "table1", "group": "experiment",
                     "wall_s": 1.0, "mean_s": 1.0}],
    }))
    good = tmp_path / "baseline_good.json"
    good.write_text(json.dumps({
        "benchmark": "all", "scale": 0.02,
        "results": [{"name": "table1", "wall_s": 0.9}],
    }))
    assert main(["bench", "--check-only", str(current),
                 "--check", str(good)]) == 0
    assert "threshold check passed" in capsys.readouterr().out

    bad = tmp_path / "baseline_bad.json"
    bad.write_text(json.dumps({
        "benchmark": "all", "scale": 0.02,
        "results": [{"name": "table1", "wall_s": 0.1}],
    }))
    assert main(["bench", "--check-only", str(current),
                 "--check", str(bad)]) == 1
    assert "REGRESSION" in capsys.readouterr().err


def test_simulate_telemetry_writes_manifest_and_identical_data(
    tmp_path, capsys
):
    plain_dir = tmp_path / "plain"
    traced_dir = tmp_path / "traced"
    events = tmp_path / "events.jsonl"
    args = ["simulate", "--scale", "0.02", "--seed", "3"]
    assert main(args + ["--out", str(plain_dir)]) == 0
    assert not (plain_dir / "run_manifest.json").exists()
    assert main(args + ["--out", str(traced_dir),
                        "--events", str(events)]) == 0
    assert main(["events", str(events),
                 "--manifest", str(tmp_path / "run_manifest.json")]) == 0
    capsys.readouterr()

    from repro.obs.manifest import RunManifest

    run = RunManifest.read(tmp_path / "run_manifest.json")
    assert run.command == "simulate"
    assert run.seed == 3 and run.scale == 0.02
    assert run.years == [2013, 2014, 2015]
    assert len(run.shards) == 3
    assert run.stage_wall_s("study.run") > 0.0

    # Telemetry must not change the saved datasets: byte-for-byte equal.
    def files(root):
        return {str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    for year in (2013, 2014, 2015):
        plain = files(plain_dir / f"campaign{year}")
        assert "store_manifest.json" in plain
        assert plain == files(traced_dir / f"campaign{year}")


def test_simulate_then_validate_and_analyze(tmp_path, capsys):
    out_dir = tmp_path / "data"
    assert main(["simulate", "--scale", "0.02", "--seed", "3",
                 "--out", str(out_dir)]) == 0
    saved = sorted(p.name for p in out_dir.iterdir())
    assert saved == ["campaign2013", "campaign2014", "campaign2015"]

    assert main(["validate", str(out_dir / "campaign2015")]) == 0
    out = capsys.readouterr().out
    assert "dataset ok" in out

    artifact_dir = tmp_path / "artifacts"
    assert main(["analyze", "table4", "--data", str(out_dir),
                 "--out", str(artifact_dir)]) == 0
    out = capsys.readouterr().out
    assert "Table 4" in out
    assert (artifact_dir / "table4.txt").exists()


def test_analyze_skips_survey_experiments_on_saved_data(tmp_path, capsys):
    out_dir = tmp_path / "data"
    main(["simulate", "--scale", "0.02", "--seed", "3", "--out", str(out_dir)])
    capsys.readouterr()
    assert main(["analyze", "table8", "--data", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "skipping survey experiments" in out


def test_analyze_simulates_when_no_data(capsys):
    assert main(["analyze", "fig01", "--scale", "0.02"]) == 0
    out = capsys.readouterr().out
    assert "Figure 1" in out



def test_analyze_all_on_a_panel_without_capped_days(capsys):
    """Seed 1 at scale 0.02 has no potentially capped device-day in 2014:
    every experiment still renders and the command exits 0."""
    assert main(["analyze", "all", "--scale", "0.02", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "Figure 19" in out and "Section 4.1" in out

def test_analyze_on_missing_data_dir(tmp_path, capsys):
    assert main(["analyze", "table1", "--data", str(tmp_path / "void")]) == 2


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def _option_actions(parser: argparse.ArgumentParser) -> int:
    """Options of ``parser`` and its subcommands, ``--help`` excluded."""
    count = 0
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            count += sum(_option_actions(sub)
                         for sub in set(action.choices.values()))
        elif action.option_strings and not isinstance(
                action, argparse._HelpAction):
            count += 1
    return count


def test_cli_option_count_only_falls():
    # Counted on the built parser, so options registered through helpers
    # or multi-line calls count too. Lower the pin when options go.
    assert _option_actions(build_parser()) <= 64


def test_analyze_all_runs_everything(tmp_path, capsys):
    from repro.cli import main
    artifact_dir = tmp_path / "all"
    assert main(["analyze", "all", "--scale", "0.02", "--seed", "3",
                 "--out", str(artifact_dir)]) == 0
    written = {p.stem for p in artifact_dir.glob("*.txt")}
    from repro.reporting.experiments import EXPERIMENTS
    assert written == set(EXPERIMENTS)

def test_bench_check_unknown_kind_is_config_error(tmp_path, capsys):
    """A typo'd baseline kind must exit 2 (config error), not 1."""
    import json

    current = tmp_path / "current.json"
    current.write_text(json.dumps({
        "benchmark": "all", "scale": 0.02,
        "results": [{"name": "table1", "wall_s": 1.0}],
    }))
    bad = tmp_path / "baseline.json"
    bad.write_text(json.dumps({
        "benchmark": "bogus", "scale": 0.02, "results": [],
    }))
    assert main(["bench", "--check-only", str(current),
                 "--check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "unrecognised baseline benchmark kind" in err


def test_fidelity_full_run_gates_doc_report_and_trace(tmp_path, capsys):
    """One fidelity run: gate vs the committed baseline, rewrite a copy of
    EXPERIMENTS.md, then fold its events file into the HTML run report, the
    manifest and a Chrome trace."""
    import json
    import shutil
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "fidelity_report.json"
    events = tmp_path / "events.jsonl"
    html = tmp_path / "run_report.html"
    trace = tmp_path / "trace.json"
    doc = tmp_path / "EXPERIMENTS.md"
    shutil.copy(root / "EXPERIMENTS.md", doc)

    assert main(["fidelity", "--scale", "0.02", "--seed", "7",
                 "--out", str(out),
                 "--check", str(root / "FIDELITY_baseline.json"),
                 "--events", str(events),
                 "--write-doc", str(doc)]) == 0
    text = capsys.readouterr().out
    assert "fidelity check passed against FIDELITY_baseline.json" in text
    assert main(["events", str(events), "--report", str(html),
                 "--trace", str(trace),
                 "--manifest", str(tmp_path / "run_manifest.json")]) == 0

    from repro.obs.reference import REFERENCES

    report = json.loads(out.read_text())
    assert report["n_checks"] == len(REFERENCES)
    assert {r["check_id"] for r in report["records"]} == set(REFERENCES)

    # The committed doc holds scale-0.2 numbers; a 0.02 run rewrites it.
    assert "rewrote" in text
    assert "Measured (scale 0.02)" in doc.read_text()

    page = html.read_text()
    for needle in ("<svg", "Fidelity scoreboard", "Run manifest",
                   "Timeline", "Metrics", "Run history"):
        assert needle in page, needle

    from repro.obs.manifest import RunManifest

    run = RunManifest.read(tmp_path / "run_manifest.json")
    assert run.command == "fidelity"
    assert run.counters["fidelity_checks"] == len(REFERENCES)

    from repro.obs.span import spans_from_chrome_trace

    rebuilt = spans_from_chrome_trace(json.loads(trace.read_text()))
    assert rebuilt is not None
    assert any(s.name == "fidelity.score" for s in rebuilt.walk())


def test_fidelity_check_flags_disappeared_check(tmp_path, capsys):
    """A baseline check the current run no longer produces must gate."""
    import json
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    baseline = json.loads((root / "FIDELITY_baseline.json").read_text())
    subset = [r for r in baseline["records"]
              if r["experiment_id"] == "table3"]
    assert subset, "committed baseline lost its table3 checks"
    phantom = dict(subset[0], check_id="t3_phantom", verdict="pass")
    doctored = dict(baseline, records=subset + [phantom])
    doctored_path = tmp_path / "baseline.json"
    doctored_path.write_text(json.dumps(doctored))

    assert main(["fidelity", "table3", "--scale", "0.02", "--seed", "7",
                 "--out", str(tmp_path / "report.json"),
                 "--check", str(doctored_path)]) == 1
    err = capsys.readouterr().err
    assert "REGRESSION" in err and "t3_phantom" in err
