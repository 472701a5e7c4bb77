"""Telemetry must never change results.

The observability layer's core contract: a run with span recording, flight
recording, or resource sampling on is bit-for-bit identical to the same
run with them off, for any worker count. Telemetry reads outcomes — it
must not touch RNG streams, device ordering, or the collection path.
"""

import os

import pytest

from repro.collection.faults import FaultPlan
from repro.obs.recorder import (
    NOOP_RECORDER,
    FlightRecorder,
    load_events,
    use_recorder,
)
from repro.obs.resources import ResourceSampler
from repro.obs.span import fold_spans
from repro.simulation.campaign import run_campaign
from repro.simulation.study import StudyConfig, Study

from .test_engine import _small_config, assert_datasets_identical


@pytest.fixture
def traced(tmp_path):
    """A recorder writing an events file, installed for one test."""
    recorder = FlightRecorder(tmp_path / "events.jsonl")
    with use_recorder(recorder):
        yield recorder
    recorder.close()


def fold(recorder):
    """The span forest folded from a recorder's events file."""
    roots, _ = fold_spans(load_events(recorder.path))
    return roots


def test_campaign_identical_with_telemetry_on(traced):
    config = _small_config()
    baseline = run_campaign(config)  # runs under the real recorder too,
    # but the reference below is produced with the default no-op one:
    with use_recorder(NOOP_RECORDER):
        untraced = run_campaign(config)
    assert_datasets_identical(untraced.dataset, baseline.dataset)


def test_campaign_identical_across_workers_with_telemetry(traced):
    config = _small_config()
    serial = run_campaign(config, n_jobs=1)
    sharded = run_campaign(config, n_jobs=2)
    assert_datasets_identical(serial.dataset, sharded.dataset)
    # Both runs, their workers' spans included, are in the one file.
    names = [span.name for span in fold(traced)]
    assert names.count("run_campaign") == 2


def test_faulty_campaign_identical_with_telemetry(traced):
    config = _small_config(faults=FaultPlan(
        upload_failure_p=0.1, dropout_p=0.1, duplicate_p=0.05
    ))
    traced_run = run_campaign(config, n_jobs=2)
    with use_recorder(NOOP_RECORDER):
        untraced = run_campaign(config, n_jobs=2)
    assert_datasets_identical(untraced.dataset, traced_run.dataset)
    assert untraced.collection.totals() == traced_run.collection.totals()


def test_study_run_records_span_tree(traced):
    study = Study(StudyConfig(scale=0.004, seed=11, years=(2013,))).run(
        n_jobs=2
    )
    (study_span,) = [
        span.as_dict() for span in fold(traced)
        if span.name == "study.run"
    ]
    names = {name for name, _ in _walk(study_span)}
    # The pipeline's load-bearing stages all appear in the trace.
    assert {"plan_campaign", "execute_shards", "simulate_shard",
            "simulate_devices", "merge_campaign", "survey"} <= names
    # Worker spans carry per-shard attribution.
    shard_spans = [s for name, s in _walk(study_span)
                   if name == "simulate_shard"]
    n_shards = study.campaigns[2013].execution.n_shards
    assert len(shard_spans) == n_shards
    assert {s["attrs"]["shard"] for s in shard_spans} == set(range(n_shards))
    # Device counts in the trace match the simulated panel.
    devices = sum(s["counters"]["devices"] for name, s in _walk(study_span)
                  if name == "simulate_devices")
    assert devices == study.dataset(2013).n_devices


def _walk(span):
    yield span["name"], span
    for child in span.get("children", ()):
        yield from _walk(child)


def test_campaign_identical_with_flight_recorder(tmp_path):
    config = _small_config()
    with use_recorder(FlightRecorder(tmp_path / "events.jsonl")):
        recorded = run_campaign(config, n_jobs=2)
    unrecorded = run_campaign(config, n_jobs=2)
    assert_datasets_identical(unrecorded.dataset, recorded.dataset)
    kinds = {e["kind"] for e in load_events(tmp_path / "events.jsonl")}
    assert {"shard_queued", "shard_completed", "progress",
            "span_start", "span_end"} <= kinds


def test_worker_span_appears_once_with_file_and_memory(tmp_path):
    # Park a warm pool whose workers forked with no recorder: a recorded
    # run must not reuse it, or its workers' spans would miss the file.
    with use_recorder(NOOP_RECORDER):
        run_campaign(_small_config(), n_jobs=2)
    log = tmp_path / "events.jsonl"
    recorder = FlightRecorder(log)
    with use_recorder(recorder):
        result = run_campaign(_small_config(), n_jobs=2)
    recorder.close()
    n_shards = result.execution.n_shards
    assert n_shards >= 2

    def shard_starts(events):
        return sorted(e["attrs"]["shard"] for e in events
                      if e["kind"] == "span_start"
                      and e["name"] == "simulate_shard")

    # Once in the file (written by the worker itself) and once in the
    # fold of it, under the stage that ran the shards.
    assert shard_starts(load_events(log)) == list(range(n_shards))
    (run,) = fold(recorder)
    shards = [s for s in run.walk() if s.name == "simulate_shard"]
    assert len(shards) == n_shards
    assert all(s.attrs["pid"] != os.getpid() for s in shards)
    (execute,) = [s for s in run.children if s.name == "execute_shards"]
    assert execute.children == shards


def test_campaign_identical_with_recorder_and_sampler_across_jobs(tmp_path):
    config = _small_config()
    recorder = FlightRecorder(tmp_path / "events.jsonl")
    with use_recorder(recorder):
        with ResourceSampler(recorder, interval_s=0.05):
            recorded_serial = run_campaign(config, n_jobs=1)
            recorded_parallel = run_campaign(config, n_jobs=2)
    baseline = run_campaign(config, n_jobs=1)
    assert_datasets_identical(baseline.dataset, recorded_serial.dataset)
    assert_datasets_identical(baseline.dataset, recorded_parallel.dataset)
    events = load_events(tmp_path / "events.jsonl")
    assert any(e["kind"] == "resource_sample" for e in events)


def test_faulty_campaign_identical_with_recorder(tmp_path):
    # fault_loss events fire on this path; they must read accounting
    # without perturbing it.
    config = _small_config(faults=FaultPlan(
        upload_failure_p=0.1, dropout_p=0.1, duplicate_p=0.05
    ))
    with use_recorder(FlightRecorder(tmp_path / "events.jsonl")):
        recorded = run_campaign(config, n_jobs=2)
    unrecorded = run_campaign(config, n_jobs=2)
    assert_datasets_identical(unrecorded.dataset, recorded.dataset)
    assert unrecorded.collection.totals() == recorded.collection.totals()
