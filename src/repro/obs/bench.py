"""The unified benchmark harness behind ``repro bench``.

One harness drives every benchmark the repo has: the ~30 registered
figure/table experiments, the execution-engine serial/sharded study
timings, the analysis-context cold/warm sweeps, and the faulty collection
pipeline. Each case is timed with the same warmup/repeat protocol
(:func:`best_of`) and the consolidated report lands in one
``BENCH_all.json`` — replacing the copy-pasted timing loops that used to
live in 37 ``benchmarks/bench_*.py`` scripts (those now import
:mod:`benchmarks.harness`, which wraps this module for pytest-benchmark
runs).

The harness also carries the CI regression gate: :func:`check_regression`
compares a fresh ``BENCH_all.json`` against the committed
``BENCH_context.json`` / ``BENCH_engine.json`` baselines using
machine-portable quantities (cache speedup ratio, per-device simulation
cost) and fails on a > ``factor`` (default 2x) regression.

Heavy repro layers are imported lazily inside functions so this module can
be imported from the CLI without paying the simulation import cost, and so
``repro.obs`` stays importable from every layer (``obs/__init__`` must not
import this module — it would cycle through ``simulation.study``).
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError, ReproError
from repro.obs.recorder import get_recorder

__all__ = [
    "BenchCase",
    "BenchEnv",
    "Timing",
    "best_of",
    "discover_cases",
    "measure_store_paths",
    "run_suite",
    "check_regression",
    "load_report",
]

BENCH_SCHEMA_VERSION = 1

#: Engine benchmarks pin this seed so results line up with the committed
#: ``BENCH_engine.json`` trajectory (seed 3); the collection and store
#: cases time this one campaign year.
ENGINE_BENCH_YEAR = 2015
ENGINE_BENCH_SEED = 3


# ----------------------------------------------------------------------
# Timing primitive
# ----------------------------------------------------------------------

@dataclass
class Timing:
    """Wall times (and per-rep return values) of one benchmarked callable."""

    times: List[float]
    results: List[object] = field(default_factory=list)

    @property
    def best_s(self) -> float:
        return min(self.times)

    @property
    def mean_s(self) -> float:
        return sum(self.times) / len(self.times)

    @property
    def best_result(self) -> object:
        """The value returned by the fastest repetition."""
        return self.results[self.times.index(self.best_s)]


def best_of(
    fn: Callable[..., object],
    repeat: int = 3,
    warmup: int = 1,
    setup: Optional[Callable[[], object]] = None,
) -> Timing:
    """Run ``fn`` ``warmup + repeat`` times; keep the ``repeat`` timed reps.

    ``setup`` runs untimed before every invocation (warmups included); when
    it returns a value, that value is passed to ``fn``. This is the one
    timing loop every benchmark shares — warmup policy and best-of
    semantics live here, not in each script.
    """
    if repeat < 1:
        raise ConfigurationError(f"repeat must be >= 1: {repeat}")
    if warmup < 0:
        raise ConfigurationError(f"warmup must be >= 0: {warmup}")
    times: List[float] = []
    results: List[object] = []
    for i in range(warmup + repeat):
        arg = setup() if setup is not None else None
        start = time.perf_counter()
        result = fn(arg) if arg is not None else fn()
        elapsed = time.perf_counter() - start
        if i >= warmup:
            times.append(elapsed)
            results.append(result)
    return Timing(times=times, results=results)


# ----------------------------------------------------------------------
# Case registry
# ----------------------------------------------------------------------

class BenchEnv:
    """Shared lazily-built inputs for one suite run (study, context)."""

    def __init__(self, scale: float, seed: int) -> None:
        self.scale = scale
        self.seed = seed
        self._study = None
        self._context = None

    @property
    def study(self):
        if self._study is None:
            from repro.simulation.study import run_study

            with get_recorder().span("bench.setup_study", scale=self.scale):
                self._study = run_study(scale=self.scale, seed=self.seed)
        return self._study

    @property
    def context(self):
        """One shared (warm) analysis context, the way the CLI uses it."""
        if self._context is None:
            from repro.analysis.context import AnalysisContext

            self._context = AnalysisContext(self.study)
        return self._context


@dataclass(frozen=True)
class BenchCase:
    """One discoverable benchmark: a named, grouped timed callable.

    ``runner(env, repeat, warmup)`` returns the result row (without the
    name/group, which :func:`run_suite` adds).
    """

    name: str
    group: str
    title: str
    runner: Callable[[BenchEnv, int, int], Dict[str, object]]


def _experiment_case(experiment_id: str, title: str) -> BenchCase:
    def runner(env: BenchEnv, repeat: int, warmup: int) -> Dict[str, object]:
        from repro.reporting.experiments import run_experiment

        timing = best_of(
            lambda: run_experiment(experiment_id, env.context),
            repeat=repeat, warmup=warmup,
        )
        return {"wall_s": round(timing.best_s, 6),
                "mean_s": round(timing.mean_s, 6)}

    return BenchCase(experiment_id, "experiment", title, runner)


def _study_case(name: str, n_jobs: int) -> BenchCase:
    def runner(env: BenchEnv, repeat: int, warmup: int) -> Dict[str, object]:
        from repro.simulation.campaign import clear_world_cache
        from repro.simulation.study import run_study

        def timed():
            # Keep only what the row needs, so repetitions never hold
            # more than one study in memory.
            study = run_study(scale=env.scale, seed=ENGINE_BENCH_SEED,
                              n_jobs=n_jobs)
            devices = sum(c.dataset.n_devices
                          for c in study.campaigns.values())
            return devices, study.execution

        timing = best_of(timed, repeat=repeat, warmup=warmup,
                         setup=clear_world_cache)
        devices, info = timing.best_result
        # Transport accounting: total shared-memory payload bytes and the
        # per-shard average (zero on serial runs, which never pack a
        # segment) — auditable from the committed BENCH_all.json.
        return {
            "wall_s": round(timing.best_s, 6),
            "mean_s": round(timing.mean_s, 6),
            "n_jobs": n_jobs,
            "devices": devices,
            "devices_per_s": round(devices / timing.best_s, 2),
            "n_shards": info.n_shards,
            "transport_bytes": info.transport_bytes,
            "payload_bytes_per_shard": (
                round(info.transport_bytes / info.n_shards)
                if info.n_shards else 0
            ),
        }

    title = ("simulate the three-year study, serial executor" if n_jobs == 1
             else f"simulate the three-year study, {n_jobs}-worker pool")
    return BenchCase(name, "engine", title, runner)


def _sweep_case(name: str, shared: bool) -> BenchCase:
    def runner(env: BenchEnv, repeat: int, warmup: int) -> Dict[str, object]:
        from repro.analysis.context import AnalysisContext
        from repro.reporting.experiments import list_experiments, run_experiment

        study = env.study
        experiments = list_experiments()

        def sweep(context=None):
            for experiment in experiments:
                cache = context if shared else AnalysisContext(study)
                run_experiment(experiment.experiment_id, cache)

        # A shared-sweep rep gets a fresh context built untimed, so every
        # timed rep pays the same cold-memo cost the CLI pays once.
        timing = best_of(
            sweep, repeat=repeat, warmup=warmup,
            setup=(lambda: AnalysisContext(study)) if shared else None,
        )
        return {
            "wall_s": round(timing.best_s, 6),
            "mean_s": round(timing.mean_s, 6),
            "n_experiments": len(experiments),
            "shared_context": shared,
        }

    title = ("full experiment sweep, one shared context" if shared else
             "full experiment sweep, fresh context per experiment")
    return BenchCase(name, "context", title, runner)


def _collection_case() -> BenchCase:
    def runner(env: BenchEnv, repeat: int, warmup: int) -> Dict[str, object]:
        from repro.collection.faults import FaultPlan
        from repro.simulation.campaign import clear_world_cache, run_campaign
        from repro.simulation.study import default_campaign_config

        faults = FaultPlan(upload_failure_p=0.05, dropout_p=0.05,
                           duplicate_p=0.02)
        config = default_campaign_config(
            ENGINE_BENCH_YEAR, scale=env.scale, seed=ENGINE_BENCH_SEED,
            faults=faults,
        )
        timing = best_of(lambda: run_campaign(config), repeat=repeat,
                         warmup=warmup, setup=clear_world_cache)
        report = timing.best_result.collection
        totals = report.totals()
        return {
            "wall_s": round(timing.best_s, 6),
            "mean_s": round(timing.mean_s, 6),
            "devices": timing.best_result.dataset.n_devices,
            "completeness": round(
                totals["delivered"] / totals["ticks"], 4
            ) if totals["ticks"] else 1.0,
        }

    return BenchCase(
        "collection_faulty_campaign", "collection",
        "campaign through the lossy collection pipeline", runner,
    )


def _store_case() -> BenchCase:
    def runner(env: BenchEnv, repeat: int, warmup: int) -> Dict[str, object]:
        import tempfile

        from repro.simulation.campaign import clear_world_cache, run_campaign
        from repro.simulation.study import default_campaign_config
        from repro.traces.store import CampaignStore

        config = default_campaign_config(
            ENGINE_BENCH_YEAR, scale=env.scale, seed=ENGINE_BENCH_SEED
        )

        def timed():
            with tempfile.TemporaryDirectory() as tmp:
                store = CampaignStore(
                    Path(tmp) / f"campaign{ENGINE_BENCH_YEAR}",
                    ENGINE_BENCH_YEAR, config.axis,
                )
                return run_campaign(config, store=store).dataset.n_rows_total

        timing = best_of(timed, repeat=repeat, warmup=warmup,
                         setup=clear_world_cache)
        rows = timing.best_result
        return {
            "wall_s": round(timing.best_s, 6),
            "mean_s": round(timing.mean_s, 6),
            "rows": rows,
            "rows_per_s": round(rows / timing.best_s, 1),
        }

    return BenchCase(
        "store_roundtrip", "store",
        "campaign through the out-of-core store (spill, streaming merge, "
        "mmap load)", runner,
    )


def discover_cases() -> List[BenchCase]:
    """Every registered benchmark, in stable report order.

    Covers the full figure/table experiment registry plus the engine,
    context-memo, collection-pipeline and out-of-core-store suites.
    """
    from repro.reporting.experiments import list_experiments

    cases = [
        _experiment_case(e.experiment_id, f"{e.paper_item}: {e.title}")
        for e in list_experiments()
    ]
    cases.append(_study_case("study_serial", 1))
    cases.append(_study_case("study_sharded", 2))
    cases.append(_sweep_case("context_cold_sweep", shared=False))
    cases.append(_sweep_case("context_warm_sweep", shared=True))
    cases.append(_collection_case())
    cases.append(_store_case())
    return cases


# ----------------------------------------------------------------------
# Out-of-core store measurement (subprocess, for honest peak-RSS)
# ----------------------------------------------------------------------

#: Child program for :func:`measure_store_paths`. Runs one campaign
#: simulate+analyze through either path and reports its own peak RSS —
#: a fresh interpreter per measurement, so neither path's allocations
#: pollute the other's high-water mark.
_STORE_CHILD = r"""
import json, resource, sys, time
from pathlib import Path

from repro.analysis.context import AnalysisContext
from repro.simulation.campaign import run_campaign
from repro.simulation.study import default_campaign_config

mode, scale, seed, year, out = (
    sys.argv[1], float(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4]),
    sys.argv[5],
)
config = default_campaign_config(year, scale=scale, seed=seed)
start = time.perf_counter()
if mode == "disk":
    from repro.traces.store import CampaignStore

    store = CampaignStore(Path(out) / f"campaign{year}", year, config.axis)
    result = run_campaign(config, store=store)
else:
    result = run_campaign(config)
dataset = result.dataset
context = AnalysisContext.of(dataset)
context.daily_matrix("all", "rx")
context.daily_matrix("cell", "rx")
context.hourly_series("all", "rx")
wall = time.perf_counter() - start
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # kB on Linux
peak_vm = None  # peak *address space* (what ulimit -v constrains)
try:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmPeak:"):
            peak_vm = int(line.split(":")[1].split()[0])
except OSError:
    pass  # no procfs outside Linux
print(json.dumps({
    "mode": mode,
    "rows": dataset.n_rows_total,
    "devices": dataset.n_devices,
    "wall_s": round(wall, 4),
    "peak_rss_kb": int(rss),
    "peak_vm_kb": peak_vm,
}))
"""


def measure_store_paths(
    scale: float,
    seed: int = ENGINE_BENCH_SEED,
    year: int = ENGINE_BENCH_YEAR,
) -> dict:
    """Peak-RSS and throughput of the in-memory vs disk-store paths.

    Runs one campaign (simulate + representative analysis artifacts)
    twice, each in its own subprocess: once fully in memory, once through
    an out-of-core :class:`~repro.traces.store.CampaignStore`. The
    children report ``ru_maxrss``, so the numbers are true per-path
    high-water marks. Returns ``{"memory": {...}, "disk": {...},
    "rss_ratio": disk/memory}`` — the ratio is the machine-portable
    quantity the ``store`` baseline kind gates on.
    """
    import subprocess
    import sys as _sys
    import tempfile

    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_JOBS", None)  # both paths serial: RSS, not speedup
    measured: Dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for mode in ("memory", "disk"):
            proc = subprocess.run(
                [_sys.executable, "-c", _STORE_CHILD, mode, str(scale),
                 str(seed), str(year), tmp],
                capture_output=True, text=True, env=env,
            )
            if proc.returncode != 0:
                raise ReproError(
                    f"store measurement child ({mode}) failed: "
                    f"{proc.stderr.strip()[-500:]}"
                )
            row = json.loads(proc.stdout.strip().splitlines()[-1])
            row["rows_per_s"] = (
                round(row["rows"] / row["wall_s"], 1) if row["wall_s"] else 0.0
            )
            measured[mode] = row
    return {
        "memory": measured["memory"],
        "disk": measured["disk"],
        "rss_ratio": round(
            measured["disk"]["peak_rss_kb"] / measured["memory"]["peak_rss_kb"],
            4,
        ),
    }


# ----------------------------------------------------------------------
# Suite driver
# ----------------------------------------------------------------------

def run_suite(
    scale: float = 0.02,
    seed: int = 7,
    repeat: int = 3,
    warmup: int = 1,
    only: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> dict:
    """Run (a filtered subset of) the suite and return the report dict.

    ``only`` filters by case name or group name. Each case runs under a
    ``bench.<name>`` span, so an ``--events`` run's manifest carries
    per-benchmark span timings next to the engine/analysis stages.
    """
    cases = discover_cases()
    if only:
        wanted = set(only)
        known = {c.name for c in cases} | {c.group for c in cases}
        unknown = sorted(wanted - known)
        if unknown:
            raise ReproError(
                f"unknown benchmarks: {unknown}; valid names: "
                f"{sorted(c.name for c in cases)} "
                f"(or groups {sorted({c.group for c in cases})})"
            )
        cases = [c for c in cases if c.name in wanted or c.group in wanted]
    recorder = get_recorder()
    env = BenchEnv(scale=scale, seed=seed)
    results: List[Dict[str, object]] = []
    suite_start = time.perf_counter()
    for case in cases:
        if progress is not None:
            progress(f"bench {case.name} ({case.group})")
        with recorder.span(f"bench.{case.name}", group=case.group):
            row: Dict[str, object] = {"name": case.name, "group": case.group}
            row.update(case.runner(env, repeat, warmup))
            results.append(row)
    try:
        import numpy
        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep
        numpy_version = None
    return {
        "benchmark": "all",
        "schema_version": BENCH_SCHEMA_VERSION,
        "scale": scale,
        "seed": seed,
        "repeat": repeat,
        "warmup": warmup,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "n_benchmarks": len(results),
        "total_wall_s": round(time.perf_counter() - suite_start, 4),
        "results": results,
    }


def write_report(report: dict, path: Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


def load_report(path: Path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ReproError(f"cannot read benchmark report {path}: {exc}") from None


def render_results(report: dict) -> str:
    """Aligned per-benchmark summary of a suite report."""
    rows = report.get("results", [])
    if not rows:
        return "no benchmarks ran"
    width = max(len(r["name"]) for r in rows)
    lines = [f"{'benchmark'.ljust(width)}  group       wall_s    mean_s"]
    for row in rows:
        lines.append(
            f"{row['name'].ljust(width)}  {row['group']:<10s}"
            f"{row['wall_s']:9.4f} {row['mean_s']:9.4f}"
        )
    lines.append(
        f"{len(rows)} benchmarks in {report.get('total_wall_s', 0.0)}s "
        f"(scale {report.get('scale')}, repeat {report.get('repeat')}, "
        f"warmup {report.get('warmup')})"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CI regression gate
# ----------------------------------------------------------------------

def _result(report: dict, name: str) -> Optional[dict]:
    for row in report.get("results", ()):
        if row.get("name") == name:
            return row
    return None


def check_regression(
    current: dict, baseline: dict, factor: float = 2.0,
    baseline_name: str = "baseline",
) -> List[str]:
    """Failures where ``current`` regresses > ``factor`` vs ``baseline``.

    Committed baselines are measured on arbitrary developer hardware, so
    comparisons use machine-portable quantities wherever possible:

    - ``context_cold_vs_warm_sweep`` baselines gate the cache *speedup
      ratio* (cold/warm), which is hardware-independent;
    - ``engine_serial_vs_parallel`` baselines gate the serial *per-device
      cost* (wall seconds per simulated device), which is scale-portable;
    - ``store`` baselines (``BENCH_store.json``) gate the disk/memory
      *peak-RSS ratio* — machine-portable, and the committed
      ``rss_ceiling_ratio`` is an absolute ceiling the current host must
      clear outright (the storage twin of ``speedup_floor``) — plus the
      disk path's per-row merge cost;
    - ``all`` baselines (a previous ``BENCH_all.json``) gate per-benchmark
      wall seconds name-by-name, but only when scales match.

    Returns a list of human-readable failure messages (empty = pass).
    Raises :class:`ConfigurationError` for an unrecognised baseline kind —
    a misconfiguration, not a regression.
    """
    if factor <= 1.0:
        raise ConfigurationError(f"regression factor must be > 1: {factor}")
    kind = baseline.get("benchmark")
    failures: List[str] = []
    if kind == "context_cold_vs_warm_sweep":
        cold = _result(current, "context_cold_sweep")
        warm = _result(current, "context_warm_sweep")
        if cold is None or warm is None or not warm.get("wall_s"):
            return [f"{baseline_name}: current report lacks the "
                    f"context_cold_sweep/context_warm_sweep benchmarks"]
        speedup = cold["wall_s"] / warm["wall_s"]
        base_speedup = float(baseline.get("speedup", 0.0))
        if base_speedup and speedup * factor < base_speedup:
            failures.append(
                f"{baseline_name}: context cache speedup regressed "
                f"{base_speedup / speedup:.2f}x "
                f"(baseline {base_speedup:.2f}x, now {speedup:.2f}x)"
            )
    elif kind == "engine_serial_vs_parallel":
        serial = _result(current, "study_serial")
        if serial is None or not serial.get("devices"):
            return [f"{baseline_name}: current report lacks the "
                    f"study_serial benchmark"]
        cost = serial["wall_s"] / serial["devices"]
        cells = baseline.get("scales", [])
        if not cells:
            return []
        cell = min(
            cells,
            key=lambda c: abs(float(c.get("scale", 0.0))
                              - float(current.get("scale", 0.0))),
        )
        base = cell.get("serial", {})
        if base.get("devices"):
            base_cost = base["wall_s"] / base["devices"]
            if cost > factor * base_cost:
                failures.append(
                    f"{baseline_name}: serial study cost regressed "
                    f"{cost / base_cost:.2f}x "
                    f"({1000 * base_cost:.1f}ms -> {1000 * cost:.1f}ms "
                    f"per device)"
                )
        # Parallel-speedup criterion: only meaningful when both the
        # baseline host and the current host actually had cores to spread
        # over — a single-core "speedup" is pool overhead, so the check is
        # skipped (never failed) rather than gating on a bogus ratio.
        sharded = _result(current, "study_sharded")
        base_speedup = cell.get("speedup")
        if (
            sharded is not None
            and sharded.get("wall_s")
            and base_speedup
            and (current.get("cpu_count") or 1) >= 2
            and (baseline.get("cpu_count") or 1) >= 2
        ):
            speedup = serial["wall_s"] / sharded["wall_s"]
            if speedup * factor < float(base_speedup):
                failures.append(
                    f"{baseline_name}: parallel speedup regressed "
                    f"{float(base_speedup) / speedup:.2f}x "
                    f"(baseline {float(base_speedup):.2f}x, "
                    f"now {speedup:.2f}x)"
                )
        # Absolute floor (ROADMAP item 2): the baseline cell may commit a
        # ``speedup_floor`` that the current host must clear outright.
        # Unlike the relative criterion it does not care what the baseline
        # host could measure — a single-core baseline records
        # ``speedup: null`` but still carries the floor, so the gate arms
        # the moment the *current* host has cores to spread over.
        floor = cell.get("speedup_floor")
        if (
            sharded is not None
            and sharded.get("wall_s")
            and floor
            and (current.get("cpu_count") or 1) >= 2
        ):
            speedup = serial["wall_s"] / sharded["wall_s"]
            if speedup < float(floor):
                # The floor was committed on whatever host wrote the
                # baseline; surface both cpu_counts (and the sharded
                # run's shard and transport counters) so a cross-host
                # failure is diagnosable from the message alone.
                failures.append(
                    f"{baseline_name}: parallel speedup {speedup:.2f}x at "
                    f"jobs={sharded.get('n_jobs')} is below the committed "
                    f"{float(floor):.2f}x floor "
                    f"(cpu_count: baseline={baseline.get('cpu_count')}, "
                    f"current={current.get('cpu_count')}; "
                    f"n_shards={sharded.get('n_shards')}, "
                    f"transport_bytes={sharded.get('transport_bytes')})"
                )
    elif kind == "store":
        cur_mem = current.get("memory") or {}
        cur_disk = current.get("disk") or {}
        if not cur_mem.get("peak_rss_kb") or not cur_disk.get("peak_rss_kb"):
            return [f"{baseline_name}: current report lacks memory/disk "
                    f"peak-RSS measurements (run benchmarks/bench_store.py)"]
        ratio = cur_disk["peak_rss_kb"] / cur_mem["peak_rss_kb"]
        base_mem = baseline.get("memory") or {}
        base_disk = baseline.get("disk") or {}
        if base_mem.get("peak_rss_kb") and base_disk.get("peak_rss_kb"):
            base_ratio = base_disk["peak_rss_kb"] / base_mem["peak_rss_kb"]
            if ratio > factor * base_ratio:
                failures.append(
                    f"{baseline_name}: disk/memory peak-RSS ratio regressed "
                    f"{ratio / base_ratio:.2f}x "
                    f"(baseline {base_ratio:.2f}, now {ratio:.2f})"
                )
        # Absolute ceiling (the storage twin of ``speedup_floor``): the
        # out-of-core path must never peak above this fraction of the
        # in-memory path's RSS, regardless of what the baseline host saw.
        ceiling = baseline.get("rss_ceiling_ratio")
        if ceiling and ratio > float(ceiling):
            failures.append(
                f"{baseline_name}: disk-store peak RSS is "
                f"{ratio:.2f}x the in-memory path "
                f"({cur_disk['peak_rss_kb']}kB vs "
                f"{cur_mem['peak_rss_kb']}kB), above the committed "
                f"{float(ceiling):.2f} ceiling"
            )
        if (base_disk.get("rows") and base_disk.get("wall_s")
                and cur_disk.get("rows") and cur_disk.get("wall_s")):
            cost = cur_disk["wall_s"] / cur_disk["rows"]
            base_cost = base_disk["wall_s"] / base_disk["rows"]
            if cost > factor * base_cost:
                failures.append(
                    f"{baseline_name}: disk-store per-row cost regressed "
                    f"{cost / base_cost:.2f}x "
                    f"({1e6 * base_cost:.2f}us -> {1e6 * cost:.2f}us "
                    f"per row)"
                )
    elif kind == "all":
        if baseline.get("scale") != current.get("scale"):
            return []  # wall times are not comparable across scales
        for row in current.get("results", ()):
            base = _result(baseline, row["name"])
            if base is None or not base.get("wall_s"):
                continue
            if row["wall_s"] > factor * base["wall_s"]:
                failures.append(
                    f"{baseline_name}: {row['name']} regressed "
                    f"{row['wall_s'] / base['wall_s']:.2f}x "
                    f"({base['wall_s']:.4f}s -> {row['wall_s']:.4f}s)"
                )
    else:
        # A config error, not a regression: surface as exit code 2 (the
        # unknown-id convention), never as a gate failure.
        raise ConfigurationError(
            f"{baseline_name}: unrecognised baseline benchmark kind "
            f"{kind!r}; valid kinds: context_cold_vs_warm_sweep, "
            f"engine_serial_vs_parallel, store, all"
        )
    return failures
