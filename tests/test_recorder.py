"""Flight recorder, resource sampler, run history, and the events/clean CLI.

The crash-durability contract is tested for real: a subprocess campaign is
SIGKILLed mid-execute by the chaos harness and ``repro events --postmortem``
must reconstruct the stage it died in, the stages that closed before the
kill, the completed-shard set, and the last resource sample from the
truncated log. A Hypothesis property pins the weaker invariant underneath:
*any* byte prefix of an event log parses to a prefix of its events.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.obs.manifest import build_manifest
from repro.obs.history import (
    append_history,
    bench_record,
    drift_warnings,
    fidelity_record,
    load_history,
    record_metrics,
    sparkline,
    sparkline_svg,
)
from repro.obs.recorder import (
    EVENTS_ENV_VAR,
    NOOP_RECORDER,
    EventKind,
    FlightRecorder,
    NoopRecorder,
    get_recorder,
    load_events,
    parse_events,
    set_recorder,
    use_recorder,
)
from repro.obs.resources import ResourceSampler, rss_bytes

REPO = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# FlightRecorder basics
# ----------------------------------------------------------------------

def test_recorder_appends_one_json_line_per_event(tmp_path):
    log = tmp_path / "events.jsonl"
    recorder = FlightRecorder(log)
    recorder.emit(EventKind.RUN_START, command="test", seed=7)
    recorder.emit(EventKind.SHARD_QUEUED, year=2013, shard=0)
    recorder.close()
    lines = log.read_text().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["kind"] == "run_start"
    assert first["command"] == "test"
    assert first["pid"] == os.getpid()
    assert isinstance(first["ts"], float)


def test_recorder_rejects_unknown_kind(tmp_path):
    recorder = FlightRecorder(tmp_path / "events.jsonl")
    with pytest.raises(AttributeError):
        recorder.emit(EventKind.MADE_UP_KIND)
    with pytest.raises(ValueError, match="not a valid EventKind"):
        recorder.emit("made_up_kind")
    # A declared kind's plain string still works: old logs' kinds parse.
    recorder.emit("spill", year=2013)
    recorder.close()
    assert [e["kind"] for e in load_events(tmp_path / "events.jsonl")] \
        == ["spill"]


def test_recorder_listener_only_and_swallows_listener_errors():
    seen = []

    def listener(event):
        seen.append(event["kind"])
        raise RuntimeError("display code must never kill the run")

    recorder = FlightRecorder(None, listener=listener)
    assert recorder.path is None
    recorder.emit(EventKind.PROGRESS, done=1, total=2)
    recorder.emit(EventKind.PROGRESS, done=2, total=2)
    recorder.close()
    assert seen == ["progress", "progress"]


def test_span_context_emits_paired_events(tmp_path):
    log = tmp_path / "events.jsonl"
    recorder = FlightRecorder(log)
    with recorder.span("execute_shards", shards=4):
        recorder.count("devices", 3)
    with pytest.raises(RuntimeError):
        with recorder.span("merge_campaign"):
            raise RuntimeError("boom")
    recorder.close()
    events = load_events(log)
    kinds = [(e["kind"], e["name"]) for e in events]
    assert kinds == [("span_start", "execute_shards"),
                     ("span_end", "execute_shards"),
                     ("span_start", "merge_campaign"),
                     ("span_end", "merge_campaign")]
    assert events[0]["attrs"] == {"shards": 4}
    assert events[1]["ok"] is True and events[1]["wall_s"] >= 0.0
    assert events[1]["cpu_s"] >= 0.0
    assert events[1]["counters"] == {"devices": 3}
    assert events[3]["ok"] is False


def test_noop_recorder_is_default_and_free(tmp_path):
    set_recorder(None)
    os.environ.pop(EVENTS_ENV_VAR, None)
    try:
        recorder = get_recorder()
        assert isinstance(recorder, NoopRecorder)
        assert not recorder.enabled
        assert recorder.emit(EventKind.RUN_START) is None
        with recorder.span("anything"):
            pass
    finally:
        set_recorder(None)


def test_get_recorder_resolves_env_like_a_spawned_worker(tmp_path):
    log = tmp_path / "worker_events.jsonl"
    set_recorder(None)
    os.environ[EVENTS_ENV_VAR] = str(log)
    try:
        recorder = get_recorder()
        assert isinstance(recorder, FlightRecorder)
        recorder.emit(EventKind.SPILL, year=2013, partition="y2013-s0")
        recorder.close()
    finally:
        os.environ.pop(EVENTS_ENV_VAR, None)
        set_recorder(None)
    (event,) = load_events(log)
    assert event["kind"] == "spill"


def test_use_recorder_restores_previous():
    outer = NoopRecorder()
    set_recorder(outer)
    try:
        with use_recorder(FlightRecorder(None)) as inner:
            assert get_recorder() is inner
            with pytest.raises(RuntimeError):
                with use_recorder(FlightRecorder(None)):
                    raise RuntimeError("boom")
            assert get_recorder() is inner
        assert get_recorder() is outer
    finally:
        assert set_recorder(None) is outer  # returns the one it replaced
    # Reset means unresolved: the next lookup re-checks the environment.
    os.environ.pop(EVENTS_ENV_VAR, None)
    assert get_recorder() is NOOP_RECORDER
    set_recorder(None)


# ----------------------------------------------------------------------
# Truncation-tolerant parsing
# ----------------------------------------------------------------------

def _sample_log_bytes(n_events=6):
    recorder_lines = []
    for i in range(n_events):
        recorder_lines.append(json.dumps(
            {"ts": 1000.0 + i, "pid": 1, "kind": "shard_queued",
             "year": 2013, "shard": i}
        ))
    return ("\n".join(recorder_lines) + "\n").encode()


def test_parse_events_skips_malformed_interior_line():
    data = _sample_log_bytes(3)
    lines = data.split(b"\n")
    lines[1] = b'{"torn": '  # a torn write from a dying process
    events = parse_events(b"\n".join(lines))
    assert [e["shard"] for e in events] == [0, 2]


def test_parse_events_drops_truncated_final_line():
    data = _sample_log_bytes(3)
    assert len(parse_events(data[:-5])) == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=1))
def test_any_byte_prefix_parses_to_an_event_prefix(offset_kind):
    # The kill -9 contract: however many bytes made it to disk, the log
    # parses, and what parses is a prefix of the full event list.
    data = _sample_log_bytes(5)
    full = parse_events(data)
    assert len(full) == 5
    for cut in range(len(data) + offset_kind):
        events = parse_events(data[:cut])
        assert events == full[:len(events)]


@settings(max_examples=30, deadline=None)
@given(st.binary(max_size=200))
def test_parse_events_never_raises_on_garbage(blob):
    events = parse_events(blob)
    assert all(isinstance(e, dict) and "kind" in e for e in events)


# ----------------------------------------------------------------------
# The black box of a run, folded into its manifest
# ----------------------------------------------------------------------

def _event(kind, **fields):
    return {"ts": 0.0, "pid": 1, "kind": kind, **fields}


#: A run killed in execute_shards: no run_end made it to disk.
INTERRUPTED_LOG = [
    _event("run_start", command="simulate", seed=7, scale=0.01),
    _event("span_start", name="plan_campaign"),
    _event("span_end", name="plan_campaign", wall_s=0.1, ok=True),
    _event("span_start", name="execute_shards"),
    # A pool worker's spans interleave in the same file.
    {**_event("span_start", name="simulate_shard"), "pid": 2},
    _event("shard_queued", year=2013, shard=0),
    _event("shard_queued", year=2013, shard=1),
    _event("shard_completed", year=2013, shard=0),
    _event("spill", year=2013, partition="shard-0000", bytes=64),
    _event("shard_retry", failure="crash", unit="2013:1"),
    _event("resource_sample", rss_bytes=1024, cpu_s=0.5),
    _event("chaos", fault="kill", shard=1, hard=True),
]

#: A resumed run that reused one partition and rejected another.
CORRUPT_CHECKPOINT_LOG = [
    _event("run_start", command="simulate", seed=7),
    _event("checkpoint_loaded", year=2013, shard=0),
    _event("checkpoint_loaded", corrupt=True, year=2013,
           partition="shard-0001"),
    _event("run_end", status="ok", exit_code=0),
]

#: A finished gate run with one verdict.
CLEAN_LOG = [
    _event("run_start", command="bench", seed=7),
    _event("verdict", source="bench", gate="pass"),
    _event("run_end", status="ok", exit_code=0),
]

#: (kind, fields) of a short finished run, written through a recorder.
CLI_LOG = [
    ("run_start", {"command": "simulate", "seed": 7, "scale": 0.01}),
    ("shard_queued", {"year": 2013, "shard": 0}),
    ("shard_completed", {"year": 2013, "shard": 0}),
    ("run_end", {"status": "ok", "exit_code": 0}),
]


def test_reconstruct_interrupted_run():
    manifest = build_manifest(INTERRUPTED_LOG)
    assert manifest.status == "interrupted"  # no run_end made it to disk
    assert manifest.exit_code is None and manifest.pid == 1
    assert manifest.open_stages == ["execute_shards"]
    assert manifest.closed_stages == [
        {"name": "plan_campaign", "wall_s": 0.1, "count": 1}]
    assert manifest.queued_shards == [[2013, 0], [2013, 1]]
    assert manifest.completed_shards == [[2013, 0]]
    assert manifest.outstanding_shards == [[2013, 1]]
    assert manifest.partitions_saved == 1
    assert manifest.retries == 1
    assert manifest.failures_by_kind == {"crash": 1}
    assert manifest.last_sample["rss_bytes"] == 1024
    assert manifest.chaos_events[0]["fault"] == "kill"
    assert manifest.n_events == len(INTERRUPTED_LOG)
    assert manifest.event_counts["span_start"] == 3
    text = manifest.render_postmortem()
    assert "died in stage: execute_shards" in text
    assert "plan_campaign" in text
    assert "1/2 completed" in text


def test_open_and_closed_stages_come_from_the_span_tree():
    # A span_end whose span_start never made it to the file closes
    # nothing: the black box and the span tree follow one rule.
    stray = {**_event("span_end", name="lost", wall_s=1.0), "pid": 3}
    manifest = build_manifest(INTERRUPTED_LOG + [stray])
    assert manifest.closed_stages == [
        {"name": "plan_campaign", "wall_s": 0.1, "count": 1}]
    assert manifest.open_stages == ["execute_shards"]
    assert "lost" not in manifest.stages


def test_reconstruct_distinguishes_corrupt_checkpoints():
    manifest = build_manifest(CORRUPT_CHECKPOINT_LOG)
    assert manifest.partitions_reused == 1
    assert manifest.partitions_rejected == 1
    assert "1 loaded, 1 corrupt" in manifest.render_postmortem()


def test_reconstruct_clean_run_and_summary():
    manifest = build_manifest(CLEAN_LOG)
    assert manifest.status == "ok" and manifest.exit_code == 0
    assert manifest.verdicts[0]["gate"] == "pass"
    assert manifest.open_stages == [] and manifest.last_sample is None
    summary = manifest.render_summary()
    assert "3 events" in summary and "verdict" in summary


def test_appended_log_folds_only_the_last_run(tmp_path, capsys):
    # A run killed mid-execute, then its --resume, appended to one events
    # file: every account of the file describes the resumed run alone.
    def at(ts, pid, kind, **fields):
        return {"ts": ts, "pid": pid, "kind": kind, **fields}

    killed = [
        at(1000.0, 10, "run_start", command="simulate", seed=7, scale=0.02),
        at(1000.1, 10, "span_start", name="plan_campaign"),
        at(1000.6, 10, "span_end", name="plan_campaign", wall_s=0.5),
        at(1000.6, 10, "span_start", name="execute_shards"),
        at(1000.7, 10, "shard_queued", year=2013, shard=0),
        at(1000.7, 10, "shard_queued", year=2013, shard=1),
        at(1000.8, 10, "shard_retry", failure="crash", unit="2013:0"),
        at(1000.9, 10, "shard_completed", year=2013, shard=0),
        at(1001.0, 10, "spill", year=2013, partition="shard-0000"),
        at(1001.0, 10, "chaos", fault="kill", shard=1),
    ]
    resumed = [
        at(2000.0, 20, "run_start", command="simulate", seed=7, scale=0.02),
        at(2000.1, 20, "span_start", name="plan_campaign"),
        at(2000.35, 20, "span_end", name="plan_campaign", wall_s=0.25),
        at(2000.4, 20, "span_start", name="execute_shards"),
        at(2000.4, 20, "shard_queued", year=2013, shard=0),
        at(2000.4, 20, "shard_queued", year=2013, shard=1),
        at(2000.5, 20, "checkpoint_loaded", year=2013, shard=0),
        at(2000.5, 20, "shard_completed", year=2013, shard=0),
        at(2001.0, 20, "shard_completed", year=2013, shard=1),
        at(2001.0, 20, "spill", year=2013, partition="shard-0001"),
        at(2001.2, 20, "span_end", name="execute_shards", wall_s=0.8),
        at(2001.5, 20, "run_end", status="ok", exit_code=0),
    ]
    log = tmp_path / "events.jsonl"
    log.write_text("".join(json.dumps(e) + "\n" for e in killed + resumed))

    manifest = build_manifest(load_events(log))
    assert manifest.pid == 20 and manifest.n_events == len(resumed)
    assert manifest.duration_s == pytest.approx(1.5)
    assert manifest.queued_shards == [[2013, 0], [2013, 1]]
    assert manifest.outstanding_shards == []
    assert manifest.retries == 0 and manifest.chaos_events == []
    assert manifest.partitions_saved == 1
    assert manifest.partitions_reused == 1

    assert main(["events", str(log), "--postmortem"]) == 0
    assert capsys.readouterr().out == (
        f"postmortem: ok ({len(resumed)} events, 1.5s)\n"
        "  run: simulate seed=7 scale=0.02 pid=20\n"
        "  exit code: 0\n"
        "  closed stages:\n"
        "    plan_campaign   x1        0.250s\n"
        "    execute_shards  x1        0.800s\n"
        "  shards: 2/2 completed\n"
        "  checkpoints: 1 saved, 1 loaded\n"
    )
    assert main(["events", str(log), "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_events"] == len(resumed)
    assert summary["duration_s"] == 1.5
    assert summary["counts"]["shard_queued"] == 2


# ----------------------------------------------------------------------
# Resource sampler
# ----------------------------------------------------------------------

def test_rss_and_sample_shapes(tmp_path):
    assert rss_bytes() > 0
    log = tmp_path / "events.jsonl"
    recorder = FlightRecorder(log)
    sampler = ResourceSampler(recorder, interval_s=10.0,
                              disk_paths=[tmp_path])
    sample = sampler.sample_once()
    recorder.close()
    assert sample["rss_bytes"] > 0
    assert sample["cpu_s"] >= 0.0
    assert {"shm_bytes", "disk_bytes", "retries"} <= set(sample)
    (event,) = load_events(log)
    assert event["kind"] == "resource_sample"


def test_sampler_thread_start_stop(tmp_path):
    log = tmp_path / "events.jsonl"
    recorder = FlightRecorder(log)
    with ResourceSampler(recorder, interval_s=0.05) as sampler:
        pass
    recorder.close()
    # At least the immediate start sample and the final stop sample.
    assert sampler.n_samples >= 2
    assert all(e["kind"] == "resource_sample" for e in load_events(log))


# ----------------------------------------------------------------------
# Run history: append/load, records, drift, sparklines
# ----------------------------------------------------------------------

def test_history_roundtrip_tolerates_truncation(tmp_path):
    path = tmp_path / "BENCH_history.jsonl"
    append_history(path, {"kind": "bench", "metrics": {"m": 1.0}})
    append_history(path, {"kind": "bench", "metrics": {"m": 2.0}})
    with path.open("ab") as f:
        f.write(b'{"torn')  # a run killed mid-append
    records = load_history(path)
    assert [r["metrics"]["m"] for r in records] == [1.0, 2.0]
    assert all("ts" in r for r in records)


def test_bench_record_extracts_trend_metrics():
    report = {
        "scale": 0.02, "seed": 7, "cpu_count": 4, "n_benchmarks": 2,
        "results": [
            {"name": "study_serial", "group": "engine", "wall_s": 2.0,
             "mean_s": 2.0, "devices": 100},
            {"name": "study_sharded", "group": "engine", "wall_s": 0.5,
             "mean_s": 0.5, "devices": 100},
            {"name": "context_cold_sweep", "group": "context", "wall_s": 1.0,
             "mean_s": 1.0},
            {"name": "context_warm_sweep", "group": "context", "wall_s": 0.1,
             "mean_s": 0.1},
        ],
    }
    record = bench_record(report, gate="pass", baselines=["B.json"])
    metrics = record["metrics"]
    assert metrics["study_serial"] == 2.0
    assert metrics["derived_serial_ms_per_device"] == pytest.approx(20.0)
    assert metrics["derived_parallel_speedup"] == pytest.approx(4.0)
    assert metrics["derived_cache_speedup"] == pytest.approx(10.0)
    assert record["gate"] == "pass" and record["baselines"] == ["B.json"]


def test_fidelity_record_shape():
    report = {
        "scale": 0.02, "seed": 7,
        "records": [{"check_id": "c1", "verdict": "pass"},
                    {"check_id": "c2", "verdict": "pass"},
                    {"check_id": "c3", "verdict": "fail"}],
    }
    record = fidelity_record(report, gate="pass")
    assert record["kind"] == "fidelity"
    assert record["metrics"] == {"n_pass": 2, "n_warn": 0, "n_fail": 1,
                                 "n_skip": 0}
    assert record["verdicts"]["c3"] == "fail"


def _bench_history(values, metric="campaign_serial"):
    return [{"kind": "bench", "metrics": {metric: v}} for v in values]


def test_drift_warns_on_rolling_regression():
    records = _bench_history([1.0, 1.0, 1.0, 1.0, 1.0, 1.6])
    warnings = drift_warnings(records)
    assert len(warnings) == 1
    assert "campaign_serial" in warnings[0]
    # Within tolerance: quiet.
    assert drift_warnings(_bench_history([1.0] * 5 + [1.1])) == []
    # A lone record has nothing to drift from.
    assert drift_warnings(_bench_history([9.0])) == []


def test_drift_window_holds_only_the_latest_scale_and_seed():
    earlier = {"kind": "fidelity", "scale": 0.03, "seed": 5,
               "metrics": {"n_pass": 47, "n_fail": 2}}
    latest = {"kind": "fidelity", "scale": 0.02, "seed": 7,
              "metrics": {"n_pass": 46, "n_fail": 4}}
    assert drift_warnings([earlier, latest]) == []
    same_run = dict(earlier, scale=0.02, seed=7)
    assert len(drift_warnings([same_run, latest])) == 2


def test_drift_direction_flips_for_speedups_and_counts():
    # Bigger is better for speedups: a drop warns, a rise does not.
    slower = _bench_history([4.0] * 5 + [2.0], metric="derived_parallel_speedup")
    faster = _bench_history([4.0] * 5 + [8.0], metric="derived_parallel_speedup")
    assert drift_warnings(slower) and not drift_warnings(faster)
    # Fidelity failures warn on a new high.
    worse = [{"kind": "fidelity", "metrics": {"n_fail": v}}
             for v in [4, 4, 4, 4, 4, 9]]
    assert drift_warnings(worse)


def test_sparklines():
    assert sparkline([]) == ""
    bars = sparkline([0.0, 1.0, 2.0, 3.0])
    assert len(bars) == 4 and bars[0] != bars[-1]
    svg = sparkline_svg([1.0, 2.0, 1.5, 3.0])
    assert svg.startswith("<svg") and "polyline" in svg
    assert sparkline_svg([1.0]) == ""  # no trend from one point


def test_record_metrics_skips_missing():
    records = _bench_history([1.0, 2.0]) + [{"kind": "bench", "metrics": {}}]
    assert record_metrics(records, "campaign_serial") == [1.0, 2.0]


# ----------------------------------------------------------------------
# events / clean subcommands (in-process)
# ----------------------------------------------------------------------

def _write_log(path, events):
    recorder = FlightRecorder(path)
    for kind, fields in events:
        recorder.emit(kind, **fields)
    recorder.close()


def test_events_cli_summary_tail_postmortem(tmp_path, capsys):
    log = tmp_path / "events.jsonl"
    _write_log(log, CLI_LOG)
    assert main(["events", str(log)]) == 0
    out = capsys.readouterr().out
    assert "4 events" in out and "shard_completed" in out

    assert main(["events", str(log), "--tail", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2 and "run_end" in lines[-1]

    assert main(["events", str(log), "--postmortem"]) == 0
    assert "postmortem: ok" in capsys.readouterr().out

    # The JSON postmortem is the run manifest.
    assert main(["events", str(log), "--postmortem", "--json"]) == 0
    post = json.loads(capsys.readouterr().out)
    assert post["status"] == "ok" and post["completed_shards"] == [[2013, 0]]
    assert post == build_manifest(load_events(log)).to_dict()

    assert main(["events", str(log), "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_events"] == 4 and summary["counts"]["shard_queued"] == 1


def test_events_tail_prints_events_the_manifest_cannot_fold(tmp_path,
                                                            capsys):
    # --tail is for looking at damaged logs: it prints any event that
    # parses, even one whose values the manifest fold cannot read.
    log = tmp_path / "events.jsonl"
    log.write_text(json.dumps({"ts": 0.0, "pid": 1, "kind": "run_end",
                               "exit_code": "lost"}) + "\n")
    with pytest.raises(ValueError):
        build_manifest(load_events(log))
    assert main(["events", str(log), "--tail", "1"]) == 0
    assert "exit_code=lost" in capsys.readouterr().out


def test_bench_check_only_never_appends_history(tmp_path, monkeypatch,
                                                capsys):
    # Re-gating a saved report is not a run: no history record, and in
    # particular no BENCH_history.jsonl dropped into the cwd through the
    # --out default.
    report = {"benchmark": "all", "scale": 0.02,
              "results": [{"name": "table1", "wall_s": 1.0, "mean_s": 1.0}]}
    current = tmp_path / "current.json"
    current.write_text(json.dumps(report))
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(
        {"benchmark": "all", "scale": 0.02,
         "results": [{"name": "table1", "wall_s": 0.9}]}
    ))
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "--check-only", str(current),
                 "--check", str(baseline)]) == 0
    capsys.readouterr()
    assert list(tmp_path.rglob("*history*")) == []


def test_events_cli_missing_file(tmp_path, capsys):
    assert main(["events", str(tmp_path / "nope.jsonl")]) == 2
    assert "no event log" in capsys.readouterr().err


def test_clean_cli_dry_run_then_sweep(tmp_path, capsys):
    from multiprocessing import shared_memory

    import repro.engine.transport as transport

    # A real orphan segment, as a killed run leaves behind.
    segment_name = f"{transport.SEGMENT_PREFIX}testclean-0-0"
    segment = shared_memory.SharedMemory(
        name=segment_name, create=True, size=64
    )
    segment.close()
    try:
        store = tmp_path / "store"
        parts = store / "campaign2013" / "parts"
        parts.mkdir(parents=True)
        (parts / "y2013-s0").mkdir()
        stale = store / "events.jsonl"
        stale.write_text("{}\n")
        os.utime(stale, (0, 0))  # ancient
        fresh = store / "run" / "events.jsonl"
        fresh.parent.mkdir()
        fresh.write_text("{}\n")
        history = store / "BENCH_history.jsonl"
        history.write_text("{}\n")

        assert main(["clean", str(store), "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert f"would remove shm segment {segment_name}" in out
        assert "would remove orphan partition y2013-s0" in out
        assert f"would remove stale telemetry file {stale}" in out
        # Dry run removed nothing.
        assert stale.exists() and (parts / "y2013-s0").is_dir()
        assert segment_name in transport.segment_names()

        assert main(["clean", str(store)]) == 0
        out = capsys.readouterr().out
        assert f"removed stale telemetry file {stale}" in out
        assert not stale.exists()
        assert not parts.exists() or not list(parts.iterdir())
        assert segment_name not in transport.segment_names()
        # Fresh telemetry and history files survive.
        assert fresh.exists() and history.exists()
    finally:
        try:
            shared_memory.SharedMemory(name=segment_name).unlink()
        except FileNotFoundError:
            pass


# ----------------------------------------------------------------------
# The black box proves itself: kill -9 mid-campaign, then postmortem
# ----------------------------------------------------------------------

def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get(
        "PYTHONPATH", "")
    return env


def test_hard_kill_leaves_reconstructable_black_box(hard_killed_run):
    tmp_path, log, returncode, orphans = hard_killed_run
    # SIGKILL, not a clean chaos exit: the process had no chance to flush.
    assert returncode == -9

    events = load_events(log)
    post = build_manifest(events)
    assert post.status == "interrupted"  # no run_end was written
    assert post.event_counts["run_start"] == 1
    assert post.command == "simulate" and post.pid is not None
    # Died inside execute with work still in flight.
    assert "execute_shards" in post.open_stages
    assert len(post.completed_shards) >= 1
    assert post.outstanding_shards
    # The completed shard spilled its partition before the kill...
    assert post.partitions_saved >= 1
    # ...and the chaos event itself outlived its sender.
    assert any(e["kind"] == "chaos" and e.get("fault") == "kill"
               and e.get("hard") for e in events)
    # The sampler got at least its immediate start sample out.
    assert post.last_sample is not None and post.last_sample["rss_bytes"] > 0

    # The CLI postmortem agrees.
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "events", str(log), "--postmortem"],
        capture_output=True, text=True, timeout=120, env=_subprocess_env(),
        cwd=str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    assert "postmortem: interrupted" in proc.stdout
    assert "died in stage: execute_shards" in proc.stdout

    # The killed parent's pool workers exited within 10 s of the kill.
    assert orphans == []


def test_hard_kill_postmortem_lists_closed_and_open_stages(hard_killed_run):
    _, log, returncode, _ = hard_killed_run
    assert returncode == -9
    post = build_manifest(load_events(log))
    # The stage the parent died in, with the stages enclosing it.
    assert post.open_stages == ["repro.simulate", "study.run",
                                "execute_shards"]
    # Every stage that closed before the kill, with its wall seconds:
    # the three years' plans, and the shard a worker finished.
    closed = {entry["name"]: entry for entry in post.closed_stages}
    plan = closed["plan_campaign"]
    assert plan["count"] == 3 and plan["wall_s"] > 0.0
    shard = closed["simulate_shard"]
    assert shard["count"] >= 1 and shard["wall_s"] > 0.0
    assert "merge_campaign" not in closed
    assert "execute_shards" not in closed
    text = post.render_postmortem()
    assert "closed stages:" in text and "plan_campaign" in text


def test_hard_kill_folds_to_interrupted_manifest_and_trace(
    hard_killed_run, capsys
):
    # The artifacts of a killed run are folds of its events file, made
    # afterwards exactly as for a finished one.
    tmp_path, log, returncode, _ = hard_killed_run
    assert returncode == -9
    manifest_path = tmp_path / "fold" / "run_manifest.json"
    trace_path = tmp_path / "fold" / "trace.json"
    report_path = tmp_path / "fold" / "run_report.html"
    assert main(["events", str(log), "--manifest", str(manifest_path),
                 "--trace", str(trace_path),
                 "--report", str(report_path)]) == 0
    capsys.readouterr()

    from repro.obs.manifest import RunManifest
    from repro.obs.span import spans_from_chrome_trace

    manifest = RunManifest.read(manifest_path)
    assert manifest.status == "interrupted"
    # The written manifest carries the black box.
    assert manifest.outstanding_shards and manifest.last_sample is not None
    assert manifest == build_manifest(load_events(log))
    assert manifest.command == "simulate"
    assert manifest.seed == 11 and manifest.scale == 0.004
    # plan_campaign closed three times; execute_shards never closed and
    # is timed up to the last event the black box holds.
    assert manifest.stages["plan_campaign"]["count"] == 3
    assert manifest.stage_wall_s("plan_campaign") > 0.0
    assert "merge_campaign" not in manifest.stages
    (study,) = [c for c in manifest.spans["children"]
                if c["name"] == "study.run"]
    (execute,) = [c for c in study["children"]
                  if c["name"] == "execute_shards"]
    assert execute["cpu_s"] == 0.0  # known only at a span_end
    assert execute["wall_s"] > 0.0
    assert all(c["name"] == "simulate_shard"
               for c in execute.get("children", ()))

    rebuilt = spans_from_chrome_trace(json.loads(trace_path.read_text()))
    assert rebuilt.as_dict() == manifest.spans
    page = report_path.read_text()
    assert "Run manifest" in page and "Timeline" in page
    assert "died in stage: execute_shards" in page


@pytest.fixture(scope="module")
def simulated_with_events(tmp_path_factory):
    """The same small study at --jobs 1 and --jobs 2, each with --events:
    ``{jobs: (events, folded manifest)}``."""
    from repro.obs.manifest import build_manifest

    tmp_path = tmp_path_factory.mktemp("jobs_events")
    runs = {}
    for jobs in (1, 2):
        log = tmp_path / f"events_j{jobs}.jsonl"
        assert main(["simulate", "--scale", "0.004", "--seed", "11",
                     "--jobs", str(jobs), "--out", str(tmp_path / str(jobs)),
                     "--events", str(log)]) == 0
        events = load_events(log)
        runs[jobs] = (events, build_manifest(events))
    return runs


def test_run_start_config_hash_is_independent_of_jobs(simulated_with_events):
    hashes = set()
    for events, manifest in simulated_with_events.values():
        (start,) = [e for e in events if e["kind"] == "run_start"]
        assert start["config_hash"] == manifest.config_hash
        assert start["seed"] == 11 and start["scale"] == 0.004
        hashes.add(start["config_hash"])
    assert len(hashes) == 1


def test_jobs_events_file_folds_every_shard_under_execute_shards(
    simulated_with_events,
):
    _, manifest = simulated_with_events[2]
    assert manifest.status == "ok" and manifest.n_jobs == 2
    n_shards = sum(layout["n_shards"] for layout in manifest.shards)

    def walk(node, parent=None):
        yield node, parent
        for child in node.get("children", ()):
            yield from walk(child, node)

    shards = [(node, parent) for node, parent in walk(manifest.spans)
              if node["name"] == "simulate_shard"]
    assert len(shards) == n_shards >= 2
    assert {parent["name"] for _, parent in shards} == {"execute_shards"}
    assert {(s["attrs"]["year"], s["attrs"]["shard"]) for s, _ in shards} \
        == {(layout["year"], i) for layout in manifest.shards
            for i in range(layout["n_shards"])}
    assert all(s["attrs"]["pid"] != os.getpid() for s, _ in shards)
    for shard, _ in shards:
        assert [c["name"] for c in shard["children"]] == [
            "simulate_devices", "flush_buffers", "pack_payload"]
    # The serial run's manifest accounts for the same study.
    _, serial = simulated_with_events[1]
    assert serial.config_hash == manifest.config_hash
    assert serial.counters["engine.shards"] == 3
    assert {k: v for k, v in serial.counters.items()
            if k.startswith("collection.")} == {
        k: v for k, v in manifest.counters.items()
        if k.startswith("collection.")}


def test_hard_kill_run_resumes_bit_identically(tmp_path):
    # The postmortem's sibling guarantee: --resume completes the killed
    # run and matches an uninterrupted reference exactly.
    env = _subprocess_env()
    base = ["--scale", "0.004", "--seed", "11", "--jobs", "2"]
    killed = subprocess.run(
        [sys.executable, "-m", "repro", "simulate", *base,
         "--out", str(tmp_path / "data"), "--store", "disk",
         "--chaos-kill-after", "1", "--chaos-kill-hard"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        timeout=480, env=env, cwd=str(tmp_path),
    )
    assert killed.returncode == -9
    resumed = subprocess.run(
        [sys.executable, "-m", "repro", "simulate", *base,
         "--out", str(tmp_path / "data"), "--store", "disk", "--resume"],
        capture_output=True, text=True, timeout=480, env=env,
        cwd=str(tmp_path),
    )
    assert resumed.returncode == 0, resumed.stderr
    assert "checkpoints: 1 reused" in resumed.stdout
    assert not list((tmp_path / "data").glob("campaign*/parts"))
    reference = subprocess.run(
        [sys.executable, "-m", "repro", "simulate", *base,
         "--out", str(tmp_path / "ref")],
        capture_output=True, text=True, timeout=480, env=env,
        cwd=str(tmp_path),
    )
    assert reference.returncode == 0, reference.stderr

    from repro import load_dataset

    from .test_engine import assert_datasets_identical

    for campaign in sorted((tmp_path / "ref").glob("campaign*")):
        assert_datasets_identical(
            load_dataset(tmp_path / "data" / campaign.name),
            load_dataset(campaign),
        )


# ----------------------------------------------------------------------
# Schema lint: every emit() kind is declared and documented
# ----------------------------------------------------------------------

def test_every_emitted_kind_is_declared_and_documented():
    # Call sites name EventKind members, so an undeclared kind fails
    # where it is written (see test_recorder_rejects_unknown_kind); what
    # is left to check is that every declared kind is documented.
    doc = (REPO / "docs" / "ARCHITECTURE.md").read_text()
    undocumented = [k.value for k in EventKind if f"`{k.value}`" not in doc]
    assert not undocumented, (
        f"event kinds missing from the ARCHITECTURE.md schema table: "
        f"{undocumented}"
    )
    # String values are the on-disk format: they must never change.
    assert EventKind("span_end") is EventKind.SPAN_END
    assert json.dumps({"kind": EventKind.SPILL}) == '{"kind": "spill"}'
