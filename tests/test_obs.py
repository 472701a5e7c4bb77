"""Unit tests for the run-telemetry subsystem (``repro.obs``).

Covers recorder spans and the folds over them (span tree, stage rollup,
Chrome trace), the metrics registry's duck-typed ingestors,
run-manifest round-trips, the unified bench harness (discovery, the
``best_of`` timing primitive, suite runs) and the CI regression gate.
"""

import json
import time

import pytest

from repro.errors import ConfigurationError, ReproError
from repro.obs.manifest import (
    RunManifest,
    build_manifest,
    config_hash_of,
    run_summary,
)
from repro.obs.recorder import (
    EVENTS_ENV_VAR,
    NOOP_RECORDER,
    EventKind,
    FlightRecorder,
    NoopRecorder,
    get_recorder,
    load_events,
    set_recorder,
    use_recorder,
)
from repro.obs.span import (
    Span,
    fold_spans,
    rollup,
    spans_from_chrome_trace,
    to_chrome_trace,
    write_chrome_trace,
)


# ---------------------------------------------------------------------------
# Recorder spans: the span tree folded from span events
# ---------------------------------------------------------------------------

@pytest.fixture
def recorder(tmp_path):
    """A recorder writing ``events.jsonl``; ``fold(recorder)`` reads the
    file back and folds its span forest."""
    recorder = FlightRecorder(tmp_path / "events.jsonl")
    yield recorder
    recorder.close()


def _events(recorder):
    return load_events(recorder.path)


def fold(recorder):
    roots, _, _ = fold_spans(_events(recorder))
    return roots


def test_span_nesting_and_counters(recorder):
    with recorder.span("outer", year=2015):
        recorder.count("ticks", 3)
        with recorder.span("inner"):
            recorder.count("ticks", 2)
    (outer,) = [span.as_dict() for span in fold(recorder)]
    assert outer["name"] == "outer"
    assert outer["attrs"] == {"year": 2015}
    assert outer["counters"] == {"ticks": 3}
    assert outer["wall_s"] >= outer["children"][0]["wall_s"] >= 0.0
    (inner,) = outer["children"]
    assert inner["name"] == "inner"
    assert inner["counters"] == {"ticks": 2}
    # The tree is a fold over the event list, nothing else.
    kinds = [(e["kind"], e["name"]) for e in _events(recorder)]
    assert kinds == [("span_start", "outer"), ("span_start", "inner"),
                     ("span_end", "inner"), ("span_end", "outer")]


def test_span_dict_round_trip(recorder):
    with recorder.span("root", pid=1):
        with recorder.span("a", k="v"):
            recorder.count("n", 7)
    (root,) = fold(recorder)
    exported = root.as_dict()
    rebuilt = Span.from_dict(exported).as_dict()
    assert rebuilt == exported
    # Events must be plain-JSON serialisable (they cross process
    # boundaries and land in events.jsonl); the fold of the JSON round
    # trip is the same tree.
    events = json.loads(json.dumps(_events(recorder)))
    (again,), _, _ = fold_spans(events)
    assert again.as_dict() == exported


def _span_event(kind, name, pid, ts, **fields):
    return {"ts": ts, "pid": pid, "kind": kind, "name": name, **fields}


def test_fold_keeps_one_stack_per_pid():
    # Two workers append to the parent's file while its execute span is
    # open; their events interleave, but each nests on its own stack and
    # hangs under the parent span open at its span_start.
    events = [
        _span_event("span_start", "run", 1, 0.0),
        _span_event("span_start", "execute", 1, 0.1),
        _span_event("span_start", "shard", 2, 0.2, attrs={"shard": 0}),
        _span_event("span_start", "shard", 3, 0.2, attrs={"shard": 1}),
        _span_event("span_start", "work", 2, 0.3),
        _span_event("span_start", "work", 3, 0.3),
        _span_event("span_end", "work", 3, 0.4, wall_s=0.1),
        _span_event("span_end", "work", 2, 0.5, wall_s=0.2),
        _span_event("span_end", "shard", 2, 0.6, wall_s=0.4),
        _span_event("span_end", "shard", 3, 0.6, wall_s=0.4),
        _span_event("span_end", "execute", 1, 0.7, wall_s=0.6),
        _span_event("span_start", "merge", 1, 0.8),
    ]
    (run,), still_open, closed = fold_spans(events)
    execute, merge = run.children
    assert [s.attrs["shard"] for s in execute.children] == [0, 1]
    assert all([c.name for c in s.children] == ["work"]
               for s in execute.children)
    assert [c.wall_s for s in execute.children for c in s.children] \
        == [0.2, 0.1]
    # Spans that never closed are timed up to the last event.
    assert still_open == [run, merge]
    assert run.wall_s == pytest.approx(0.8) and merge.wall_s == 0.0
    # The others in the order they closed, each with its process.
    assert [(s.name, s.pid) for s in closed] == [
        ("work", 3), ("work", 2), ("shard", 2), ("shard", 3),
        ("execute", 1)]


def test_default_recorder_span_is_noop_singleton():
    set_recorder(None)
    try:
        assert get_recorder() is NOOP_RECORDER
        assert isinstance(get_recorder(), NoopRecorder)
        assert not get_recorder().enabled
        # The no-op handle is one shared object: entering a span
        # allocates nothing, which is what keeps telemetry-off runs
        # overhead-free.
        assert get_recorder().span("a") is get_recorder().span("b", k=1)
        with get_recorder().span("works-as-context-manager"):
            get_recorder().count("ignored", 1)
    finally:
        set_recorder(None)


# The process-global span sink is the recorder; these two keep the
# install/restore contract the global tracer used to have.

def test_set_tracer_returns_previous_and_resets(monkeypatch, recorder):
    monkeypatch.delenv(EVENTS_ENV_VAR, raising=False)
    set_recorder(None)
    assert set_recorder(recorder) is None  # unresolved before
    try:
        assert get_recorder() is recorder
        with get_recorder().span("installed"):
            pass
        assert [s.name for s in fold(recorder)] == ["installed"]
    finally:
        assert set_recorder(None) is recorder
    assert get_recorder() is NOOP_RECORDER
    set_recorder(None)


def test_use_tracer_restores_on_exit(monkeypatch):
    monkeypatch.delenv(EVENTS_ENV_VAR, raising=False)
    set_recorder(None)
    recorder = FlightRecorder()
    with use_recorder(recorder):
        assert get_recorder() is recorder
        with pytest.raises(RuntimeError):
            with use_recorder(FlightRecorder()):
                raise RuntimeError("boom")
        assert get_recorder() is recorder
    assert get_recorder() is NOOP_RECORDER
    set_recorder(None)


def test_noop_span_per_op_cost_is_negligible():
    """The telemetry-off span path must stay within noise of a bare call.

    Budget: < 5µs per span enter/exit (a small campaign opens a few
    thousand spans, so this bounds total overhead well under 1%).
    """
    recorder = NOOP_RECORDER
    n = 50_000
    start = time.perf_counter()
    for _ in range(n):
        with recorder.span("x", a=1):
            pass
    per_op = (time.perf_counter() - start) / n
    assert per_op < 5e-6, f"no-op span cost {per_op * 1e6:.2f}µs"


# ---------------------------------------------------------------------------
# Chrome-trace export
# ---------------------------------------------------------------------------

def test_chrome_trace_round_trip(tmp_path, recorder):
    with recorder.span("run", seed=7):
        with recorder.span("outer", year=2015):
            recorder.count("items", 3)
            with recorder.span("fast"):
                pass
            with recorder.span("slow"):
                recorder.count("bytes", 12)
    (root,) = fold(recorder)
    exported = root.as_dict()

    trace = to_chrome_trace(exported)
    meta, *events = trace["traceEvents"]
    assert meta["ph"] == "M" and meta["args"]["name"] == "repro"
    assert all(e["ph"] == "X" and e["dur"] >= 1 for e in events)
    assert [e["name"] for e in events] == ["run", "outer", "fast", "slow"]
    assert [e["args"]["depth"] for e in events] == [0, 1, 2, 2]
    # Siblings lay out sequentially: "slow" starts where "fast" ended.
    fast, slow = events[2], events[3]
    assert slow["ts"] == fast["ts"] + fast["dur"]

    # args carry the exact durations, so the rebuilt tree is identical
    # despite the microsecond rounding of ts/dur.
    assert spans_from_chrome_trace(trace).as_dict() == exported

    out = tmp_path / "trace.json"
    write_chrome_trace(exported, out)
    reloaded = json.loads(out.read_text())
    assert spans_from_chrome_trace(reloaded).as_dict() == exported


def test_chrome_trace_rejects_malformed():
    assert spans_from_chrome_trace({"traceEvents": []}) is None
    xs = [e for e in to_chrome_trace(Span("a").as_dict())["traceEvents"]
          if e["ph"] == "X"]
    with pytest.raises(ValueError, match="more than one root"):
        spans_from_chrome_trace({"traceEvents": xs + xs})
    orphan = {"name": "x", "ph": "X", "ts": 0, "dur": 1,
              "args": {"depth": 2}}
    with pytest.raises(ValueError, match="has no parent"):
        spans_from_chrome_trace({"traceEvents": [orphan]})


# ---------------------------------------------------------------------------
# Stage rollup and the metrics registry
# ---------------------------------------------------------------------------

def test_span_rollup_feeds_stages_and_counters(recorder):
    with recorder.span("run"):
        for _ in range(2):
            with recorder.span("simulate"):
                recorder.count("devices", 4)
                with recorder.span("flush"):
                    pass
    (root,) = fold(recorder)
    stages, counters = rollup(root)
    assert counters == {"span.simulate.devices": 8}
    assert set(stages) == {"run", "simulate", "flush"}
    assert stages["simulate"]["count"] == 2
    assert stages["run"]["wall_s"] >= stages["simulate"]["wall_s"]


def test_metrics_registry_ingests_collection_report():
    from repro.collection.faults import CollectionReport, DeviceCollectionStats

    stats = DeviceCollectionStats(
        device_id=1, ticks=10, churn_slot=None, churned=0,
        uploaded=10, delivered=9, duplicates=1, dropped=1, cached=0,
    )
    report = CollectionReport(
        n_slots=10, devices=[stats], batches_received=9, duplicates_dropped=1
    )
    counters = run_summary(collection_reports={2015: report})["counters"]
    assert counters["collection.2015.delivered"] == 9
    assert counters["collection.2015.dropped"] == 1
    assert 0.0 < counters["collection.2015.completeness"] <= 1.0


# ---------------------------------------------------------------------------
# Run manifest
# ---------------------------------------------------------------------------

def test_config_hash_stable_and_sensitive():
    assert config_hash_of("a", 1) == config_hash_of("a", 1)
    assert config_hash_of("a", 1) != config_hash_of("a", 2)
    assert len(config_hash_of("x")) == 16


def test_manifest_round_trip(tmp_path, recorder):
    recorder.emit(EventKind.RUN_START, command="simulate",
                  config_hash=config_hash_of("cfg"), seed=11, scale=0.01)
    with recorder.span("repro.simulate"):
        with recorder.span("study.run", scale=0.01):
            recorder.count("devices", 12)
        time.sleep(0.01)
        recorder.emit(EventKind.RUN_SUMMARY, **run_summary(
            years=[2013],
            shards=[{"year": 2013, "n_shards": 2, "n_devices": 12}],
            extra_counters={"custom": 1},
        ))
        # A fold of the file while the root is still open: the run is
        # interrupted as far as the log knows.
        manifest = build_manifest(_events(recorder))
    path = tmp_path / "run_manifest.json"
    manifest.write(path)
    loaded = RunManifest.read(path)
    assert loaded == manifest
    assert loaded.command == "simulate"
    assert loaded.seed == 11
    assert loaded.config_hash == config_hash_of("cfg")
    assert loaded.years == [2013] and loaded.shards[0]["n_shards"] == 2
    assert loaded.counters["custom"] == 1
    assert loaded.counters["span.study.run.devices"] == 12
    assert loaded.stage_wall_s("study.run") >= 0.0
    # The root was still open when the manifest was built: it is
    # stamped with its time so far.
    assert loaded.stage_wall_s("repro.simulate") > 0.0
    assert loaded.spans["name"] == "repro.simulate"
    assert loaded.status == "interrupted"
    # The manifest file itself must be valid, plain JSON.
    assert json.loads(path.read_text())["schema_version"] == 2

    recorder.emit(EventKind.RUN_END, status="ok", exit_code=0)
    finished = build_manifest(_events(recorder))
    assert finished.status == "ok"
    assert finished.stage_wall_s("repro.simulate") > 0.0


def test_manifest_folds_the_last_run_in_the_file(recorder):
    for seed in (1, 2):
        recorder.emit(EventKind.RUN_START, command="analyze", seed=seed)
        with recorder.span("repro.analyze"):
            pass
        recorder.emit(EventKind.RUN_END, status="failed", exit_code=2,
                      error="ReproError: boom")
    manifest = build_manifest(_events(recorder))
    assert manifest.seed == 2
    assert manifest.stages["repro.analyze"]["count"] == 1
    assert manifest.status == "failed"
    assert manifest.error == "ReproError: boom"


# ---------------------------------------------------------------------------
# Bench harness
# ---------------------------------------------------------------------------

def test_best_of_repeat_warmup_and_setup():
    from repro.obs.bench import best_of

    calls = []
    setups = []

    def fn(arg=None):
        calls.append(arg)
        return len(calls)

    timing = best_of(fn, repeat=3, warmup=2, setup=lambda: setups.append(0))
    assert len(calls) == 5  # warmups run fn too
    assert len(setups) == 5  # setup runs before every invocation
    assert len(timing.times) == 3  # only timed reps kept
    assert timing.best_result in (3, 4, 5)
    assert timing.best_s <= timing.mean_s

    timing = best_of(lambda x: x, repeat=1, warmup=0, setup=lambda: "ctx")
    assert timing.best_result == "ctx"  # setup's value is passed to fn

    with pytest.raises(ConfigurationError):
        best_of(fn, repeat=0)
    with pytest.raises(ConfigurationError):
        best_of(fn, warmup=-1)


def test_discover_cases_covers_every_experiment():
    from repro.obs.bench import discover_cases
    from repro.reporting.experiments import EXPERIMENTS

    cases = discover_cases()
    names = [case.name for case in cases]
    assert len(names) == len(set(names)), "duplicate benchmark names"
    assert set(EXPERIMENTS) <= set(names)
    groups = {case.group for case in cases}
    assert {"experiment", "engine", "context", "collection"} <= groups


def test_run_suite_rejects_unknown_names():
    from repro.obs.bench import run_suite

    with pytest.raises(ReproError, match="unknown benchmarks"):
        run_suite(only=["not_a_bench"])


def test_run_suite_smoke_single_case(tmp_path):
    from repro.obs.bench import load_report, run_suite, write_report

    report = run_suite(scale=0.004, seed=11, repeat=1, warmup=0,
                       only=["table1"])
    assert report["n_benchmarks"] == 1
    (row,) = report["results"]
    assert row["name"] == "table1"
    assert row["wall_s"] > 0
    path = write_report(report, tmp_path / "BENCH_all.json")
    assert load_report(path) == report


# ---------------------------------------------------------------------------
# CI regression gate
# ---------------------------------------------------------------------------

def _suite_report(**rows):
    return {
        "benchmark": "all",
        "scale": 0.02,
        "results": [dict(name=name, **row) for name, row in rows.items()],
    }


def test_check_regression_context_speedup():
    from repro.obs.bench import check_regression

    baseline = {"benchmark": "context_cold_vs_warm_sweep", "speedup": 2.4}
    healthy = _suite_report(
        context_cold_sweep={"wall_s": 4.8}, context_warm_sweep={"wall_s": 2.0}
    )
    assert check_regression(healthy, baseline) == []
    regressed = _suite_report(
        context_cold_sweep={"wall_s": 2.0}, context_warm_sweep={"wall_s": 2.0}
    )
    failures = check_regression(regressed, baseline)
    assert failures and "speedup regressed" in failures[0]
    # Missing sweep benchmarks must fail loudly, not silently pass.
    assert check_regression(_suite_report(), baseline)


def test_check_regression_engine_per_device_cost():
    from repro.obs.bench import check_regression

    baseline = {
        "benchmark": "engine_serial_vs_parallel",
        "scales": [
            {"scale": 0.02, "serial": {"wall_s": 1.0, "devices": 100}},
            {"scale": 0.08, "serial": {"wall_s": 4.0, "devices": 400}},
        ],
    }
    healthy = _suite_report(study_serial={"wall_s": 1.5, "devices": 100})
    assert check_regression(healthy, baseline) == []
    regressed = _suite_report(study_serial={"wall_s": 2.5, "devices": 100})
    failures = check_regression(regressed, baseline)
    assert failures and "per device" in failures[0]
    assert check_regression(_suite_report(), baseline)


def test_check_regression_engine_speedup_floor():
    """The committed floor arms on current cpu_count alone.

    A single-core baseline records ``speedup: null`` (the relative
    criterion stays dormant) but still carries ``speedup_floor``; any
    multi-core host must clear it outright.
    """
    from repro.obs.bench import check_regression

    baseline = {
        "benchmark": "engine_serial_vs_parallel",
        "cpu_count": 1,
        "scales": [
            {"scale": 0.08, "speedup": None, "speedup_floor": 1.5,
             "serial": {"wall_s": 4.0, "devices": 400}},
        ],
    }
    fast = dict(_suite_report(
        study_serial={"wall_s": 3.0, "devices": 400},
        study_sharded={"wall_s": 1.5, "devices": 400, "n_jobs": 2},
    ), scale=0.08, cpu_count=4)
    assert check_regression(fast, baseline) == []
    slow = dict(_suite_report(
        study_serial={"wall_s": 3.0, "devices": 400},
        study_sharded={"wall_s": 2.5, "devices": 400, "n_jobs": 2,
                       "n_shards": 6, "transport_bytes": 123456},
    ), scale=0.08, cpu_count=4)
    failures = check_regression(slow, baseline)
    assert failures and "floor" in failures[0]
    # A cross-host floor failure must be diagnosable from the message
    # alone: both hosts' core counts and the sharded run's shard and
    # transport counters.
    assert "baseline=1" in failures[0] and "current=4" in failures[0]
    assert "n_shards=6" in failures[0]
    assert "transport_bytes=123456" in failures[0]
    # On a single-core host the same ratio is pool overhead, not a
    # regression: the floor stays dormant.
    assert check_regression(dict(slow, cpu_count=1), baseline) == []


def test_check_regression_store_rss_and_cost():
    """The ``store`` kind gates the disk/memory peak-RSS ratio (relative
    to baseline and against the committed absolute ceiling) plus the disk
    path's per-row merge cost."""
    from repro.obs.bench import check_regression

    baseline = {
        "benchmark": "store",
        "memory": {"peak_rss_kb": 800_000},
        "disk": {"peak_rss_kb": 600_000, "rows": 8_000_000, "wall_s": 6.0},
        "rss_ceiling_ratio": 0.95,
    }
    healthy = {
        "memory": {"peak_rss_kb": 780_000},
        "disk": {"peak_rss_kb": 610_000, "rows": 8_000_000, "wall_s": 7.0},
    }
    assert check_regression(healthy, baseline) == []
    # Above the absolute ceiling: fails even though the relative ratio
    # only doubled (within the default 2x factor).
    bloated = {
        "memory": {"peak_rss_kb": 800_000},
        "disk": {"peak_rss_kb": 790_000, "rows": 8_000_000, "wall_s": 6.0},
    }
    failures = check_regression(bloated, baseline)
    assert failures and "ceiling" in failures[0]
    # Relative ratio regression beyond the factor.
    relative = {
        "memory": {"peak_rss_kb": 3_000_000},
        "disk": {"peak_rss_kb": 2_800_000, "rows": 8_000_000, "wall_s": 6.0},
    }
    assert any("ratio regressed" in f
               for f in check_regression(relative, baseline, factor=1.2))
    # Per-row merge cost regression.
    slow = {
        "memory": {"peak_rss_kb": 800_000},
        "disk": {"peak_rss_kb": 600_000, "rows": 8_000_000, "wall_s": 20.0},
    }
    failures = check_regression(slow, baseline)
    assert failures and "per-row cost" in failures[0]
    # A report without the subprocess measurements fails loudly.
    assert check_regression(_suite_report(), baseline)


def test_check_regression_all_name_by_name():
    from repro.obs.bench import check_regression

    baseline = _suite_report(table1={"wall_s": 0.1}, fig05={"wall_s": 0.2})
    same = _suite_report(table1={"wall_s": 0.15}, fig05={"wall_s": 0.2})
    assert check_regression(same, baseline) == []
    slow = _suite_report(table1={"wall_s": 0.5}, fig05={"wall_s": 0.2})
    failures = check_regression(slow, baseline)
    assert failures and "table1" in failures[0]
    # Wall times are not comparable across scales: the gate skips.
    other_scale = dict(baseline, scale=0.08)
    assert check_regression(slow, other_scale) == []


def test_check_regression_rejects_bad_factor():
    from repro.obs.bench import check_regression

    with pytest.raises(ConfigurationError):
        check_regression({}, {"benchmark": "all"}, factor=1.0)


def test_check_regression_rejects_unknown_kind():
    """A typo'd baseline kind is a misconfiguration, not a regression."""
    from repro.obs.bench import check_regression

    with pytest.raises(ConfigurationError,
                       match="unrecognised baseline benchmark kind"):
        check_regression(_suite_report(), {"benchmark": "nonsense"})


def test_committed_baselines_are_loadable():
    """The repo's committed baselines must stay parseable by the gate."""
    from pathlib import Path

    from repro.obs.bench import check_regression, load_report

    root = Path(__file__).resolve().parents[1]
    context = load_report(root / "BENCH_context.json")
    engine = load_report(root / "BENCH_engine.json")
    store = load_report(root / "BENCH_store.json")
    assert context["benchmark"] == "context_cold_vs_warm_sweep"
    assert engine["benchmark"] == "engine_serial_vs_parallel"
    assert store["benchmark"] == "store"
    assert store["rss_ratio"] < store["rss_ceiling_ratio"]
    # An empty current report fails (loudly) rather than erroring.
    assert check_regression({"benchmark": "all", "results": []}, context)
    assert check_regression({"benchmark": "all", "results": []}, engine)
    assert check_regression({"benchmark": "all", "results": []}, store)
