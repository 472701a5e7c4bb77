"""Traced run: per-layer metrics for one workload.

    python3 perfbench/traced.py --workload simulate --seed 7 --expect <sha256>

Started by ``run.py --trace 1`` in a fresh process. It sets up the workload
as ``workloads.py`` does, runs one checked warm-up and one untraced
reference iteration, then:

1. one **traced iteration** of the workload, made of the same public calls
   ``Study.run`` makes (or the sweep's context accessors, experiments and
   render), each wrapped in a span. The direct child spans of the
   iteration must cover its wall time (``trace.coverage``), so no
   unmeasured layer hides a cost. The layers it runs are reported from
   these spans;
2. the same calls for the path the workload does not run -- a serial
   ``Study.run`` for ``analyze``, the sweep over the study for the others;
3. **probes** of what no workload path isolates, on the same inputs and in
   ``Study.run`` order: kernel and collection called directly, serial and
   two-worker ``execute_plans`` back to back, a cold-pool start,
   shared-memory pack/attach, and the store's spill and finalize.

Every layer is timed exactly once per traced run.

Spans (name, start, end, parent) are kept in memory and written to
``perfbench/.work/trace-<workload>-seed<seed>.json`` at exit. Nothing inside
``src/`` is instrumented. The last stdout line is a JSON report that
``run.py`` turns into the per-layer metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import resource
import shutil
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    WORK_DIR,
    WORKLOADS,
    committed_digest,
    dataset_digest,
    make_runner,
    release_freed_memory,
    render,
    render_digest,
    timed_iteration,
)

from repro import (  # noqa: E402
    EXPERIMENTS,
    AnalysisContext,
    Study,
    StudyConfig,
    default_campaign_config,
    run_experiment,
)
from repro.collection import CollectionPump, CollectionServer  # noqa: E402
from repro.engine import (  # noqa: E402
    ParallelExecutor,
    ShardPayload,
    make_executor,
    run_token,
    shutdown_warm_pools,
    sweep_orphans,
)
from repro.population.survey import run_survey  # noqa: E402
from repro.simulation.campaign import (  # noqa: E402
    clear_world_cache,
    execute_plans,
    merge_campaign,
    plan_campaign,
)
from repro.simulation.kernel import simulate_devices  # noqa: E402
from repro.simulation.study import YEARS  # noqa: E402
from repro.traces.store import CampaignStore  # noqa: E402

#: The AnalysisContext accessors timed one by one on a fresh context.
ACCESSORS = ("clean", "daily_matrix", "hourly_series", "geo_index",
             "association_index", "user_classes", "classification")
PARALLEL_JOBS = 2


class Spans:
    """In-memory span recorder: name, start, end and parent span id."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @staticmethod
    def duration(record: dict) -> float:
        return record["end"] - record["start"]

    def total(self, name: str) -> float:
        return sum(self.duration(s) for s in self.spans if s["name"] == name)

    def children_total(self, record: dict) -> float:
        return sum(self.duration(s) for s in self.spans
                   if s["parent"] == record["id"])

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))


class Report:
    """Per-layer metrics with units, the bases of ratios, and checks."""

    def __init__(self) -> None:
        self.metrics: dict = {}
        self.units: dict = {}
        self.bases: dict = {}
        self.checks: list = []

    def put(self, name: str, value: float, unit: str, base: str = "") -> None:
        self.metrics[name] = float(value)
        self.units[name] = unit
        if base:
            self.bases[name] = base

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))


def _rusage_cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _rows(study) -> int:
    return sum(len(getattr(study.dataset(y), t))
               for y in study.campaigns
               for t in study.dataset(y).table_names)


def _plans(w, seed: int, n_jobs: int) -> list:
    return [plan_campaign(default_campaign_config(y, scale=w.scale,
                                                  seed=seed), n_jobs)
            for y in YEARS]


def _survey(study: Study, seed: int) -> None:
    for year, result in study.campaigns.items():
        study.surveys[year] = run_survey(
            result.profiles, year, np.random.default_rng((seed, year, 99)))


# ---------------------------------------------------------------------------
# Layer calls: Study.run's calls and the sweep's, one span per call. Each
# serves as the workload's traced iteration where the workload runs that
# path, and as a probe everywhere else, so every layer is timed once.
# ---------------------------------------------------------------------------

def study_calls(w, seed: int, rec: Spans) -> Study:
    """A serial ``Study.run``'s public calls, each in its own span."""
    study = Study(StudyConfig(scale=w.scale, seed=seed))
    with rec.span("world.plan"):
        plans = _plans(w, seed, 1)
    executor = make_executor(1)
    with rec.span("engine.execute"):
        try:
            outputs, _ = execute_plans(plans, executor)
        finally:
            executor.close()
            sweep_orphans(run_token())
    for plan, outs in zip(plans, outputs):
        year = plan.config.year
        with rec.span("merge.merge", year=year):
            study.campaigns[year] = merge_campaign(plan, outs)
    with rec.span("population.survey"):
        _survey(study, seed)
    return study


def sweep_calls(context, rec: Spans) -> list:
    """Every accessor on ``context``, then the experiments, then the render."""
    for name in ACCESSORS:
        with rec.span(f"context.{name}"):
            for year in context.years:
                getattr(context, name)(year=year)
    results = []
    for eid in EXPERIMENTS:
        with rec.span(f"exp.{eid}"):
            results.append(run_experiment(eid, context))
    with rec.span("render"):
        return [render(r) for r in results]


def put_study_metrics(study, rec: Spans, out: Report) -> None:
    out.put("world.plan_s", rec.total("world.plan"), "s")
    out.put("engine.execute_s", rec.total("engine.execute"), "s")
    merge_s = rec.total("merge.merge")
    rows = _rows(study)
    out.put("merge.merge_s", merge_s, "s")
    out.put("merge.rows", rows, "count")
    out.put("merge.rows_per_s", rows / merge_s, "1/s",
            f"merge.rows / merge.merge_s = {rows} / {merge_s:.4f}")
    out.put("population.survey_s", rec.total("population.survey"), "s")


def put_sweep_metrics(context, rec: Spans, out: Report) -> None:
    for name in ACCESSORS:
        out.put(f"context.{name}_s", rec.total(f"context.{name}"), "s")
    for eid in EXPERIMENTS:
        out.put(f"exp.{eid}_s", rec.total(f"exp.{eid}"), "s")
    out.put("render_s", rec.total("render"), "s")
    stats = context.stats
    out.put("context.hits", stats.hits, "count")
    out.put("context.misses", stats.misses, "count")
    out.put("context.cached_mb", stats.cached_bytes / 2**20, "MB")


# ---------------------------------------------------------------------------
# Probes of the layers no workload path isolates
# ---------------------------------------------------------------------------

def probe_engine(w, seed: int, rec: Spans, out: Report, work: Path,
                 study_digest: str) -> None:
    """Kernel and collection called directly, the serial vs two-worker
    engine pair, a cold pool start, the transport round trip and the store.
    """
    plans = _plans(w, seed, 1)

    # Kernel and collection called directly, serially, in this process.
    devices = 0
    cpu0 = time.process_time()
    with rec.span("probe.kernel_collection"):
        for plan in plans:
            cfg, world = plan.config, plan.world
            server = CollectionServer(cfg.year, cfg.axis)
            for info in world.infos:
                server.register_device(info)
            pump = CollectionPump(server, cfg.fault_plan,
                                  n_slots=cfg.axis.n_slots, seed=cfg.seed,
                                  year=cfg.year)
            results = simulate_devices(
                world.profiles, cfg.axis, world.deployment, world.demand,
                cfg.params, seed=cfg.seed, year=cfg.year)
            while True:
                with rec.span("kernel.simulate_devices"):
                    result = next(results, None)
                if result is None:
                    break
                with rec.span("collection.transmit_bulk"):
                    pump.transmit_bulk(world.infos[result.device_id],
                                       result.tables)
                devices += 1
            with rec.span("collection.flush_buffers"):
                server.flush_buffers()
    serial_cpu = time.process_time() - cpu0
    kernel_s = rec.total("kernel.simulate_devices")
    out.put("kernel.simulate_s", kernel_s, "s")
    out.put("kernel.devices", devices, "count")
    out.put("kernel.ms_per_device", 1e3 * kernel_s / devices, "ms",
            f"kernel.simulate_s / kernel.devices = {kernel_s:.4f} s / "
            f"{devices}")
    out.put("collection.transmit_s", rec.total("collection.transmit_bulk"),
            "s")
    out.put("collection.flush_s", rec.total("collection.flush_buffers"), "s")
    out.put("engine.serial_cpu_s", serial_cpu, "s")

    # Engine, serial then two workers on a cold pool, back to back.
    with rec.span("probe.engine.serial") as s:
        serial_out, _ = execute_plans(plans, make_executor(1))
    serial_s = Spans.duration(s)
    out.put("engine.serial_execute_s", serial_s, "s")

    shutdown_warm_pools()
    with rec.span("probe.engine.pool_start") as s:
        executor = ParallelExecutor(PARALLEL_JOBS)
        executor.run(abs, [0])
        executor.close()
    out.put("engine.pool_start_s", Spans.duration(s), "s")
    shutdown_warm_pools()

    plans2 = _plans(w, seed, PARALLEL_JOBS)
    units = sum(len(p.work) for p in plans2)
    self0 = _rusage_cpu(resource.RUSAGE_SELF)
    kids0 = _rusage_cpu(resource.RUSAGE_CHILDREN)
    executor = make_executor(PARALLEL_JOBS)
    par_bytes = 0
    with rec.span("probe.engine.parallel") as s:
        try:
            # One year at a time, releasing its segments before the next:
            # the whole study's transport need not fit in /dev/shm.
            for plan in plans2:
                (outs,), _ = execute_plans([plan], executor)
                par_bytes += sum(o.transport_bytes for o in outs)
                for o in outs:
                    if o.payload is not None:
                        o.payload.release()
                del outs
        finally:
            executor.close()
            sweep_orphans(run_token())
    par_s = Spans.duration(s)
    parent_cpu = _rusage_cpu(resource.RUSAGE_SELF) - self0
    shutdown_warm_pools()  # reaps the workers, so their CPU is counted
    worker_cpu = _rusage_cpu(resource.RUSAGE_CHILDREN) - kids0
    out.put("engine.parallel_execute_s", par_s, "s")
    out.put("engine.parent_cpu_s", parent_cpu, "s")
    out.put("engine.worker_cpu_s", worker_cpu, "s")
    out.put("engine.busy_frac", worker_cpu / (PARALLEL_JOBS * par_s), "ratio",
            f"engine.worker_cpu_s / ({PARALLEL_JOBS} x "
            f"engine.parallel_execute_s) = {worker_cpu:.3f} / "
            f"({PARALLEL_JOBS} x {par_s:.3f})")
    out.put("engine.worker_cpu_inflation", worker_cpu / serial_cpu, "ratio",
            f"engine.worker_cpu_s / engine.serial_cpu_s = "
            f"{worker_cpu:.3f} / {serial_cpu:.3f}")
    out.put("engine.speedup_vs_serial", serial_s / par_s, "ratio",
            f"engine.serial_execute_s / engine.parallel_execute_s = "
            f"{serial_s:.3f} / {par_s:.3f}")
    out.put("engine.units", units, "count")
    out.put("engine.steals", executor.steals, "count")
    out.put("engine.parallel_transport_bytes", par_bytes, "bytes")

    # Shared-memory transport of the same shard outputs, in-process.
    token = run_token()
    nbytes = 0
    roundtrip_ok = True
    for outs in serial_out:
        for o in outs:
            chunks = o.chunk_map()
            with rec.span("transport.pack"):
                payload = ShardPayload.pack(chunks, token)
            with rec.span("transport.attach"):
                payload.attach()
            nbytes += payload.n_bytes
            back = payload.materialize()
            roundtrip_ok &= all(
                np.array_equal(a[col], b[col])
                for table in chunks
                for a, b in zip(chunks[table], back[table])
                for col in a
            )
            payload.unlink()
            payload.release()
    sweep_orphans(token)
    out.check("transport round trip", roundtrip_ok)
    out.put("transport.bytes", nbytes, "bytes")
    out.put("transport.bytes_per_device", nbytes / devices, "bytes",
            f"transport.bytes / kernel.devices = {nbytes} / {devices}")
    out.put("transport.pack_s", rec.total("transport.pack"), "s")
    out.put("transport.attach_s", rec.total("transport.attach"), "s")

    # The store's spill and streaming finalize of the serial outputs.
    stored = Study(StudyConfig(scale=w.scale, seed=seed))
    written = partitions = 0
    for plan, outs in zip(plans, serial_out):
        year = plan.config.year
        store = CampaignStore(work / f"probe-store/campaign{year}", year,
                              plan.config.axis)
        with rec.span("store.spill"):
            spilled = [o.spill(store, f"shard-{o.shard_index:04d}")
                       for o in outs]
        written += _dir_bytes(store.root)
        partitions += len(spilled)
        with rec.span("store.finalize"):
            stored.campaigns[year] = merge_campaign(plan, spilled, store=store)
        written += _dir_bytes(store.root)
    out.check("store == memory", dataset_digest(stored) == study_digest)
    out.put("store.spill_s", rec.total("store.spill"), "s")
    out.put("store.finalize_s", rec.total("store.finalize"), "s")
    out.put("store.bytes_written", written, "bytes")
    out.put("store.partitions", partitions, "count")
    del stored, serial_out
    gc.collect()
    shutil.rmtree(work / "probe-store", ignore_errors=True)


def trace(w, seed: int, expected: str) -> dict:
    """The traced run of workload ``w``; returns the JSON report."""
    rec = Spans()
    out = Report()
    work = WORK_DIR / f"trace-{w.name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = make_runner(w, seed)
        for label in ("warm-up", "untraced"):
            it = timed_iteration(runner, expected)
            out.check(f"{label} iteration", it["ok"])
            if "wall_s" not in it:
                raise RuntimeError(it["error"])
        untraced_s = it["wall_s"]

        # The traced iteration: the workload's own calls, one span each.
        runner.prepare()
        if w.kind == "study":
            with rec.span("iteration") as root:
                study = runner.study = study_calls(w, seed, rec)
            digest = dataset_digest(study)
        else:
            study = runner.study
            with rec.span("iteration") as root:
                runner.texts = sweep_calls(runner.context, rec)
            digest = render_digest(runner.texts)
        out.check("traced iteration", digest == expected)
        wall = Spans.duration(root)
        covered = rec.children_total(root)
        out.put("trace.wall_s", wall, "s")
        out.put("trace.untraced_wall_s", untraced_s, "s")
        out.put("trace.overhead_frac", wall / untraced_s - 1, "ratio",
                f"trace.wall_s / trace.untraced_wall_s - 1 = {wall:.3f} / "
                f"{untraced_s:.3f} - 1")
        out.put("trace.coverage", covered / wall, "ratio",
                f"sum of the iteration's layer spans / trace.wall_s = "
                f"{covered:.3f} / {wall:.3f}")
        out.put("dataset.rows", _rows(study), "count")
        out.put("dataset.devices",
                sum(study.dataset(y).n_devices for y in study.campaigns),
                "count")
        study_digest = dataset_digest(study)

        # The path the workload does not run, as a probe on the same inputs.
        if w.kind == "study":
            simulate_s = untraced_s
            put_study_metrics(study, rec, out)
        else:
            simulate_s = runner.simulate_s
            clear_world_cache()
            release_freed_memory()
            with rec.span("probe.study"):
                probe = study_calls(w, seed, rec)
            out.check("probe study == set-up study",
                      dataset_digest(probe) == study_digest)
            put_study_metrics(probe, rec, out)
            del probe
        probe_engine(w, seed, rec, out, work, study_digest)
        if w.kind == "study":
            context = AnalysisContext(study)
            with rec.span("probe.sweep") as s:
                texts = sweep_calls(context, rec)
            sweep_s = Spans.duration(s)
            render_expected = committed_digest(dataclasses.replace(
                WORKLOADS["analyze"], scale=w.scale), seed)
            if render_expected is not None:
                out.check("probe sweep", render_digest(texts) ==
                          render_expected)
        else:
            context = runner.context
            sweep_s = untraced_s
        put_sweep_metrics(context, rec, out)
        out.put("analysis.sweep_s", sweep_s, "s")
        out.put("analysis.simulate_s", simulate_s, "s")
        out.put("analysis.sweep_over_simulate", sweep_s / simulate_s, "ratio",
                f"analysis.sweep_s / analysis.simulate_s = {sweep_s:.3f} / "
                f"{simulate_s:.3f}")
        runner.close()
    finally:
        shutdown_warm_pools()
        shutil.rmtree(work, ignore_errors=True)
        spans_file = WORK_DIR / f"trace-{w.name}-seed{seed}.json"
        rec.write(spans_file)
    return {
        "correct": all(ok for _, ok in out.checks),
        "attempted": len(out.checks),
        "failed": sum(not ok for _, ok in out.checks),
        "checks": out.checks,
        "metrics": out.metrics,
        "units": out.units,
        "bases": out.bases,
        "spans_file": str(spans_file.relative_to(HERE.parent)),
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--expect", required=True)
    args = parser.parse_args(argv)
    print(json.dumps(trace(WORKLOADS[args.workload], args.seed, args.expect)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
