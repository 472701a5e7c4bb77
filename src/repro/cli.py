"""Command-line interface.

Subcommands::

    python -m repro simulate --scale 0.1 --out data/        # run + save
    python -m repro analyze  --scale 0.1 table3 fig05       # run experiments
    python -m repro analyze  --data data/ table4            # on saved data
    python -m repro bench    --scale 0.02                   # benchmark suite
    python -m repro fidelity --check FIDELITY_baseline.json # paper drift gate
    python -m repro events run/events.jsonl --postmortem    # read black box
    python -m repro events run/events.jsonl --report r.html # HTML run report
    python -m repro clean data/ --dry-run                   # reclaim leftovers
    python -m repro list                                    # experiments
    python -m repro validate data/campaign2015              # check a dataset

``analyze`` accepts experiment ids (``table1``..``table9``, ``fig01``..
``fig19``, ``sec35``, ``sec41``) or ``all``.

``simulate`` self-heals on demand: ``--resume`` needs ``--store disk``;
a killed disk run resumes from its partitions, bit-identically (those of
another config, seed or shard layout are refused with code 2),
``--max-attempts``/``--shard-timeout``/``--retry-backoff-s`` bound
retries, ``--partial-results`` degrades gracefully with explicit loss
accounting, and the ``--chaos-*`` flags drive the deterministic fault
harness (a chaos kill exits with code 3).

``simulate``, ``analyze``, ``bench`` and ``fidelity`` take two telemetry
switches. ``--events PATH`` flight-records the run through one
:class:`~repro.obs.recorder.FlightRecorder`: every event — spans, shard
scheduling, checkpoints, resource samples every second, the command's
accounting — is appended to PATH, crash-durably, and pool workers append
to the same file. ``--progress`` prints live shard/device progress with
an ETA on stderr. Telemetry never changes results: outputs are
bit-identical with it on or off.

Every other artifact is a fold of the events file, made after the run the
same way for finished and killed runs::

    python -m repro events run/events.jsonl --manifest run_manifest.json \
        --trace trace.json --report run_report.html

``--manifest`` writes the :class:`~repro.obs.manifest.RunManifest` JSON
(config hash, seed, shard layout, per-stage wall/CPU seconds, cache hit
rates, fault-loss accounting), ``--trace`` the span tree as Chrome-trace
JSON and ``--report`` the self-contained HTML run report (with the
fidelity scoreboard when the run was ``fidelity``).
``repro clean`` reclaims what killed runs leave behind: /dev/shm
transport segments, the spill partitions a killed disk run keeps for
``--resume``, and stale telemetry files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro import __version__
from repro.collection.faults import FaultPlan, OutageWindow
from repro.engine.chaos import ChaosKill
from repro.engine.executor import resolve_jobs
from repro.errors import ConfigurationError, ReproError
from repro.obs.manifest import (
    build_manifest,
    config_hash_of,
    environment,
    run_summary,
)
from repro.obs.recorder import (
    EVENTS_ENV_VAR,
    EventKind,
    FlightRecorder,
    get_recorder,
    set_recorder,
)
from repro.obs.resources import ResourceSampler
from repro.reporting.collection import (
    execution_losses_table,
    render_collection_report,
)
from repro.analysis.context import AnalysisContext
from repro.reporting.experiments import (
    EXPERIMENTS,
    list_experiments,
    run_experiment,
)
from repro.simulation.study import (
    YEARS,
    Study,
    StudyConfig,
    default_campaign_config,
    run_study,
)
from repro.traces.store import load_dataset, save_dataset
from repro.traces.validate import validate_dataset


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Tracking the Evolution and Diversity in "
                    "Network Usage of Smartphones' (IMC 2015)",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_telemetry_flags(command_parser: argparse.ArgumentParser) -> None:
        command_parser.add_argument(
            "--events", type=Path, default=None, metavar="PATH",
            help="flight-record the run: append one JSON event per line "
                 "(crash-durable; pool workers append to the same file). "
                 "`repro events PATH` folds it into the run manifest, "
                 "Chrome trace, HTML report or a postmortem afterwards")
        command_parser.add_argument(
            "--progress", action="store_true",
            help="print live shard/device progress with rate and ETA to "
                 "stderr (works with or without --events)")

    simulate = sub.add_parser("simulate", help="run the study and save datasets")
    simulate.add_argument("--scale", type=float, default=0.1,
                          help="panel scale relative to the paper (default 0.1)")
    simulate.add_argument("--seed", type=int, default=7)
    simulate.add_argument("--out", type=Path, required=True,
                          help="output directory for campaign datasets")
    simulate.add_argument("--jobs", type=int, default=None, metavar="N",
                          help="worker processes for campaign simulation "
                               "(default: $REPRO_JOBS, else one per CPU; "
                               "1 disables the pool; results are identical "
                               "for any value)")
    simulate.add_argument("--store", choices=["memory", "disk"],
                          default="memory",
                          help="how shards are merged: 'memory' merges in "
                               "RAM (default); 'disk' spills each shard "
                               "under --out as it arrives and streams the "
                               "merge, so a campaign never has to fit in "
                               "RAM, and a killed disk run resumes from "
                               "its spilled shards with --resume. Either "
                               "way each campaign is saved as "
                               "--out/campaign<year>, bit-identical")
    faults = simulate.add_argument_group(
        "fault injection", "route campaigns through a lossy collection "
        "pipeline and report completeness")
    faults.add_argument("--fault-rate", type=float, default=None,
                        help="per-attempt upload failure probability")
    faults.add_argument("--fault-rate-3g", type=float, default=None,
                        help="extra failure probability for 3G devices")
    faults.add_argument("--dropout-p", type=float, default=None,
                        help="per-device mid-campaign dropout probability")
    faults.add_argument("--duplicate-p", type=float, default=None,
                        help="probability a delivered batch arrives twice")
    faults.add_argument("--outage", action="append", default=None,
                        metavar="START:END",
                        help="outage window in slots (repeatable)")
    faults.add_argument("--cache-batches", type=int, default=None,
                        help="on-device cache bound in batches")
    resilience = simulate.add_argument_group(
        "resilience", "self-healing execution: shard resume, "
        "bounded retries with deterministic backoff, graceful degradation. "
        "Recovered or resumed runs are bit-identical to uninterrupted ones")
    resilience.add_argument("--resume", action="store_true",
                            help="needs --store disk: reuse the verified "
                                 "shard partitions a killed disk run left "
                                 "under --out; damaged ones are simulated "
                                 "again (refused, exit 2, when they were "
                                 "written by a different config, seed, or "
                                 "shard layout)")
    resilience.add_argument("--partial-results", action="store_true",
                            help="drop shards that exhaust every retry "
                                 "instead of aborting; losses are reported "
                                 "explicitly and recorded in the events")
    resilience.add_argument("--max-attempts", type=int, default=None,
                            metavar="N",
                            help="pool attempts per shard before the serial "
                                 "last resort (default 1 = no retry)")
    resilience.add_argument("--shard-timeout", type=float, default=None,
                            metavar="SECONDS",
                            help="per-shard deadline measured from the "
                                 "shard's observed start (parallel runs "
                                 "only); an expired shard is retried on a "
                                 "fresh pool")
    resilience.add_argument("--retry-backoff-s", type=float, default=None,
                            metavar="SECONDS",
                            help="base backoff before a retry, doubled per "
                                 "attempt with deterministic seeded jitter "
                                 "(default 0.05)")
    chaos = simulate.add_argument_group(
        "chaos harness", "deterministic fault injection exercising the "
        "resilience paths (testing/CI only; never changes surviving "
        "shards' results)")
    chaos.add_argument("--chaos-crash-rate", type=float, default=None,
                       metavar="P",
                       help="fraction of shards whose first attempts crash")
    chaos.add_argument("--chaos-crash-attempts", type=int, default=None,
                       metavar="K",
                       help="how many attempts of a selected shard crash "
                            "before it behaves (default 1)")
    chaos.add_argument("--chaos-hang-rate", type=float, default=None,
                       metavar="P",
                       help="fraction of shards whose first attempt hangs "
                            "for --chaos-hang-s before completing")
    chaos.add_argument("--chaos-hang-s", type=float, default=None,
                       metavar="SECONDS",
                       help="injected hang duration (default 1.0)")
    chaos.add_argument("--chaos-kill-after", type=int, default=None,
                       metavar="N",
                       help="kill the campaign (exit 3) after N completed "
                            "shards — pair with --store disk and a "
                            "--resume rerun")
    chaos.add_argument("--chaos-kill-hard", action="store_true",
                       help="upgrade --chaos-kill-after from a clean "
                            "in-process kill (exit 3) to SIGKILL — the "
                            "process dies instantly, exercising the "
                            "flight recorder's crash durability")
    chaos.add_argument("--chaos-seed", type=int, default=None,
                       help="seed for chaos shard selection (default 0)")
    chaos.add_argument("--chaos-state-dir", type=Path, default=None,
                       metavar="DIR",
                       help="cross-process attempt-marker directory "
                            "(required for crash/hang injection)")
    add_telemetry_flags(simulate)

    analyze = sub.add_parser("analyze", help="run experiments")
    analyze.add_argument("experiments", nargs="+",
                         help="experiment ids, or 'all'")
    analyze.add_argument("--scale", type=float, default=0.1)
    analyze.add_argument("--seed", type=int, default=7)
    analyze.add_argument("--data", type=Path, default=None,
                         help="directory with saved campaign datasets "
                              "(from `repro simulate`); simulates if absent")
    analyze.add_argument("--out", type=Path, default=None,
                         help="also write rendered artifacts here")
    analyze.add_argument("--cache-stats", action="store_true",
                         help="print per-artifact analysis-cache statistics "
                              "(hits, misses, compute time, cached bytes) "
                              "after the experiments")
    add_telemetry_flags(analyze)

    bench = sub.add_parser(
        "bench",
        help="run the unified benchmark suite and write BENCH_all.json",
        description="Discover and run every registered benchmark (all "
                    "paper figure/table experiments plus the engine, "
                    "analysis-context and collection suites) through one "
                    "warmup/repeat harness.",
    )
    bench.add_argument("benchmarks", nargs="*", metavar="NAME",
                       help="benchmark or group names to run "
                            "(default: the full suite; see --list)")
    bench.add_argument("--scale", type=float, default=0.02,
                       help="panel scale for benchmark inputs (default 0.02)")
    bench.add_argument("--seed", type=int, default=7)
    bench.add_argument("--repeat", type=int, default=3,
                       help="timed repetitions per benchmark, best-of "
                            "(default 3)")
    bench.add_argument("--warmup", type=int, default=1,
                       help="untimed warmup runs per benchmark (default 1)")
    bench.add_argument("--out", type=Path, default=Path("BENCH_all.json"),
                       help="consolidated report path "
                            "(default BENCH_all.json)")
    bench.add_argument("--list", action="store_true", dest="list_benchmarks",
                       help="list discoverable benchmarks and exit")
    bench.add_argument("--check", action="append", type=Path, default=None,
                       metavar="BASELINE",
                       help="committed baseline JSON to gate against "
                            "(repeatable; BENCH_context.json, "
                            "BENCH_engine.json or a previous BENCH_all.json)")
    bench.add_argument("--check-only", type=Path, default=None,
                       metavar="RESULTS",
                       help="skip running; check an existing BENCH_all.json "
                            "against the --check baselines")
    bench.add_argument("--factor", type=float, default=2.0,
                       help="regression threshold factor for --check "
                            "(default 2.0 = fail on >2x regressions)")
    bench.add_argument("--history", type=Path, default=None, metavar="PATH",
                       help="run-history JSONL that --check appends a "
                            "keyed record to, enabling trend sparklines "
                            "and rolling-window drift warnings (default: "
                            "BENCH_history.jsonl next to --out)")
    add_telemetry_flags(bench)

    fidelity = sub.add_parser(
        "fidelity",
        help="score paper fidelity against the paper-reference registry",
        description="Run the registered experiments through the analysis "
                    "context, compare each extracted quantity against the "
                    "paper-reference registry (tolerance and shape "
                    "predicates) and emit a FidelityReport JSON, an "
                    "optional regression verdict against a committed "
                    "baseline, and the regenerated EXPERIMENTS.md tables. "
                    "`repro events PATH --report` folds the report into "
                    "the HTML run report of an --events run.",
    )
    fidelity.add_argument("checks", nargs="*", metavar="CHECK",
                          help="experiment ids or check ids to score "
                               "(default: the full registry)")
    fidelity.add_argument("--scale", type=float, default=0.02,
                          help="panel scale for the scored study "
                               "(default 0.02)")
    fidelity.add_argument("--seed", type=int, default=7)
    fidelity.add_argument("--data", type=Path, default=None,
                          help="directory with saved campaign datasets; "
                               "survey-backed checks are skipped there")
    fidelity.add_argument("--jobs", type=int, default=None, metavar="N",
                          help="worker processes for the study (reports "
                               "are bit-identical for any value)")
    fidelity.add_argument("--out", type=Path,
                          default=Path("fidelity_report.json"),
                          help="FidelityReport JSON output path "
                               "(default fidelity_report.json)")
    fidelity.add_argument("--check", type=Path, default=None,
                          metavar="BASELINE",
                          help="committed FIDELITY_baseline.json to gate "
                               "against: exit 1 when any check's verdict "
                               "regressed (pass->warn, anything->fail)")
    fidelity.add_argument("--write-doc", type=Path, nargs="?",
                          const=Path("EXPERIMENTS.md"), default=None,
                          metavar="DOC",
                          help="regenerate the paper-vs-measured tables "
                               "between the FIDELITY markers of DOC "
                               "(default EXPERIMENTS.md)")
    fidelity.add_argument("--history", type=Path, default=None,
                          metavar="PATH",
                          help="run-history JSONL that --check appends a "
                               "keyed record to; `repro events --report` "
                               "folds its trend sparklines into the HTML "
                               "(default: FIDELITY_history.jsonl next to "
                               "--out)")
    add_telemetry_flags(fidelity)

    events = sub.add_parser(
        "events",
        help="inspect a flight-recorder events.jsonl and fold it into "
             "the run's artifacts",
        description="Read an events.jsonl written by --events (tolerant of "
                    "the truncation a kill -9 leaves) and fold the last "
                    "run in the file into its run manifest. Print its "
                    "per-kind counts, tail the raw events, or render its "
                    "postmortem: which phase the run died in, completed vs "
                    "in-flight shards, retries/drops, checkpoint "
                    "and spill activity, and the last resource sample. "
                    "--manifest, --trace and --report write the "
                    "manifest's artifacts; a killed run folds to "
                    "status 'interrupted'.",
    )
    events.add_argument("path", type=Path,
                        help="events.jsonl written by --events")
    events_mode = events.add_mutually_exclusive_group()
    # Without a mode flag, the command prints per-kind event counts.
    events_mode.add_argument("--tail", type=int, default=None, metavar="N",
                             help="print the last N events, one line each")
    events_mode.add_argument("--postmortem", action="store_true",
                             help="render what happened to the run from "
                                  "the (possibly truncated) log; with "
                                  "--json, print the run manifest")
    events.add_argument("--json", action="store_true",
                        help="machine-readable JSON output")
    events.add_argument("--manifest", type=Path, default=None, metavar="OUT",
                        help="write the run manifest JSON (config hash, "
                             "shard layout, per-stage seconds, counters)")
    events.add_argument("--trace", type=Path, default=None, metavar="OUT",
                        help="write the span tree as Chrome-trace JSON "
                             "(chrome://tracing or Perfetto)")
    events.add_argument("--report", type=Path, default=None, metavar="OUT",
                        help="write the self-contained HTML run report "
                             "(manifest, metrics, span timeline, and the "
                             "fidelity scoreboard of a fidelity run)")

    clean = sub.add_parser(
        "clean",
        help="reclaim leftovers from killed runs",
        description="Sweep what a killed or crashed run leaves behind: "
                    "/dev/shm shard-transport segments, the store spill "
                    "partitions a killed --store disk run keeps for "
                    "--resume under the given directories, and "
                    "stale events files (events*.jsonl) older than "
                    "--max-age-h. Run-history JSONL files are never "
                    "touched.",
    )
    clean.add_argument("paths", nargs="*", type=Path,
                       help="--out or campaign store directories to sweep "
                            "(default: the current directory)")
    clean.add_argument("--dry-run", action="store_true",
                       help="report what would be removed without removing")
    clean.add_argument("--max-age-h", type=float, default=24.0,
                       metavar="HOURS",
                       help="age threshold for stale telemetry files "
                            "(default 24)")

    sub.add_parser("list", help="list available experiments")

    validate = sub.add_parser("validate", help="validate a saved dataset")
    validate.add_argument("path", type=Path)

    return parser


def _load_study_from(data_dir: Path) -> Study:
    """Rebuild a Study-like container from saved campaign directories."""
    study = Study(StudyConfig(scale=1.0))
    found = sorted(data_dir.glob("campaign*"))
    if not found:
        raise ReproError(f"no campaign datasets under {data_dir}")
    from repro.simulation.campaign import CampaignResult

    for path in found:
        dataset = load_dataset(path)
        study.campaigns[dataset.year] = CampaignResult(
            config=None, dataset=dataset, profiles=[], deployment=None,
        )
        study.surveys[dataset.year] = []
    return study


def _resolve_experiments(names: List[str]) -> List[str]:
    if names == ["all"]:
        return sorted(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        raise ReproError(
            f"unknown experiments: {unknown}; "
            f"valid ids: {', '.join(sorted(EXPERIMENTS))} (or 'all')"
        )
    return names


def _progress_listener(event: dict) -> None:
    """Render ``progress`` events to stderr for ``--progress``."""
    if event.get("kind") != EventKind.PROGRESS:
        return
    eta = event.get("eta_s")
    eta_text = f", eta {float(eta):.0f}s" if eta is not None else ""
    print(
        f"progress: {event.get('done')}/{event.get('total')} shards, "
        f"{event.get('devices_done')}/{event.get('devices_total')} devices "
        f"({event.get('rate', 0.0)} dev/s{eta_text})",
        file=sys.stderr, flush=True,
    )


class _Recording:
    """One command's recorder, its root span and its resource sampler."""

    def __init__(self, command: str, recorder: FlightRecorder,
                 sampler: Optional[ResourceSampler],
                 env_before: Optional[str]) -> None:
        self.recorder = recorder
        self.sampler = sampler
        self._env_before = env_before
        self._root = recorder.span(f"repro.{command}").__enter__()

    def finish(self, status: str, exit_code: int,
               error: Optional[BaseException]) -> None:
        """Close the root span, emit ``run_end``, close, and reset the
        global recorder and environment."""
        recorder = self.recorder
        self._root.__exit__(type(error) if error else None, error, None)
        if self.sampler is not None:
            self.sampler.stop()
        fields: dict = {"status": status, "exit_code": exit_code}
        if error is not None:
            fields["error"] = f"{type(error).__name__}: {error}"
        recorder.emit(EventKind.RUN_END, **fields)
        recorder.close()
        set_recorder(None)
        if self.sampler is not None:  # --events exported the file
            if self._env_before is None:
                os.environ.pop(EVENTS_ENV_VAR, None)
            else:
                os.environ[EVENTS_ENV_VAR] = self._env_before


def _config_hash(args: argparse.Namespace) -> str:
    """The run's config hash: of the campaign configs ``simulate`` runs,
    of the study config (or data directory) an analysis reads, or of the
    bench settings."""
    if args.command == "simulate":
        faults = _fault_plan_from_args(args)
        return config_hash_of(*(
            default_campaign_config(year, scale=args.scale, seed=args.seed,
                                    faults=faults)
            for year in YEARS
        ))
    if args.command == "bench":
        return config_hash_of(("bench", args.scale, args.seed, args.repeat,
                               args.warmup))
    if args.data is not None:
        return config_hash_of(str(args.data))
    return config_hash_of(StudyConfig(scale=args.scale, seed=args.seed))


def _start_recording(args: argparse.Namespace) -> Optional[_Recording]:
    """Install the command's flight recorder; None (and no cost) when
    neither ``--events`` nor ``--progress`` asks for one.

    ``--events`` writes the file and samples resources every second,
    ``--progress`` adds the listener. Exporting ``$REPRO_EVENTS`` lets
    spawned pool workers resolve the same event file through
    :func:`repro.obs.recorder.get_recorder` — every event is one O_APPEND
    write, so sharing the file is safe.
    """
    events = getattr(args, "events", None)
    progress = getattr(args, "progress", False)
    if events is None and not progress:
        return None
    try:
        config_hash = _config_hash(args)
    except ReproError:
        config_hash = ""  # the command itself fails on the bad config
    recorder = FlightRecorder(
        events, listener=_progress_listener if progress else None,
    )
    set_recorder(recorder)
    env_before = os.environ.get(EVENTS_ENV_VAR)
    # Saved campaigns do not record the seed and scale that made them:
    # label such a run with its data path, not the option defaults.
    data = getattr(args, "data", None)
    label = (dict(seed=None, scale=None, data=str(data)) if data is not None
             else dict(seed=args.seed, scale=args.scale))
    recorder.emit(
        EventKind.RUN_START, command=args.command, argv=list(sys.argv[1:]),
        config_hash=config_hash, environment=environment(), **label,
    )
    sampler = None
    if events is not None:
        os.environ[EVENTS_ENV_VAR] = str(events)
        out = getattr(args, "out", None)
        sampler = ResourceSampler(
            recorder, disk_paths=[out] if isinstance(out, Path) else [])
        sampler.start()
    return _Recording(args.command, recorder, sampler, env_before)


def _study_shards(study: Study) -> List[dict]:
    """Per-year shard layout for the manifest."""
    shards = []
    for year in study.years:
        info = study.campaigns[year].execution
        shards.append({
            "year": year,
            "n_shards": info.n_shards if info is not None else 1,
            "n_devices": study.dataset(year).n_devices,
        })
    return shards


#: Experiments that need the survey (unavailable on reloaded datasets).
_SURVEY_EXPERIMENTS = frozenset({"table2", "table8", "table9"})


def _fault_plan_from_args(args: argparse.Namespace) -> Optional[FaultPlan]:
    """Build a FaultPlan from CLI flags; None when no fault flag was given."""
    flags = (args.fault_rate, args.fault_rate_3g, args.dropout_p,
             args.duplicate_p, args.outage, args.cache_batches)
    if all(value is None for value in flags):
        return None
    outages = []
    for spec in args.outage or ():
        try:
            start, _, end = spec.partition(":")
            outages.append(OutageWindow(int(start), int(end)))
        except ValueError:
            raise ConfigurationError(
                f"--outage expects START:END in slots, got {spec!r}"
            ) from None
    return FaultPlan(
        upload_failure_p=args.fault_rate or 0.0,
        upload_failure_p_3g_extra=args.fault_rate_3g or 0.0,
        dropout_p=args.dropout_p or 0.0,
        duplicate_p=args.duplicate_p or 0.0,
        outages=tuple(outages),
        max_cache_batches=args.cache_batches or 4096,
    )


def _resilience_from_args(
    args: argparse.Namespace,
) -> Optional["ResilienceConfig"]:
    """Build a ResilienceConfig from CLI flags; None when none were given."""
    from repro.engine.chaos import ChaosPlan
    from repro.engine.resilience import ResilienceConfig, RetryPolicy

    chaos_flags = (args.chaos_crash_rate, args.chaos_crash_attempts,
                   args.chaos_hang_rate, args.chaos_hang_s,
                   args.chaos_kill_after, args.chaos_seed,
                   args.chaos_state_dir)
    chaos = None
    if (any(value is not None for value in chaos_flags)
            or args.chaos_kill_hard):
        chaos = ChaosPlan(
            crash_rate=args.chaos_crash_rate or 0.0,
            crash_attempts=args.chaos_crash_attempts or 1,
            hang_rate=args.chaos_hang_rate or 0.0,
            hang_s=args.chaos_hang_s if args.chaos_hang_s is not None else 1.0,
            kill_after_shards=args.chaos_kill_after,
            kill_hard=args.chaos_kill_hard,
            seed=args.chaos_seed or 0,
            state_dir=args.chaos_state_dir,
        )
    policy = None
    if (args.max_attempts is not None or args.shard_timeout is not None
            or args.retry_backoff_s is not None):
        policy = RetryPolicy(
            max_attempts=args.max_attempts or 1,
            backoff_base_s=(args.retry_backoff_s
                            if args.retry_backoff_s is not None else 0.05),
            seed=args.seed,
            shard_timeout_s=args.shard_timeout,
        )
    # --resume without --store disk is refused by the runner (exit 2).
    if (policy is None and chaos is None and not args.partial_results
            and not args.resume):
        return None
    return ResilienceConfig(
        resume=args.resume, policy=policy,
        partial=args.partial_results, chaos=chaos,
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    faults = _fault_plan_from_args(args)
    resilience = _resilience_from_args(args)
    n_jobs = resolve_jobs(args.jobs, default=0)  # default: auto (CPU count)
    store_dir = args.out if args.store == "disk" else None
    recorder = get_recorder()
    study = run_study(scale=args.scale, seed=args.seed, faults=faults,
                      n_jobs=n_jobs, resilience=resilience,
                      store_dir=store_dir)
    args.out.mkdir(parents=True, exist_ok=True)
    if study.execution is not None:
        print(f"executor: {study.execution.describe()}")
    for year in study.years:
        path = args.out / f"campaign{year}"
        if store_dir is None:  # --store disk finalized it while merging
            with recorder.span("save_dataset", year=year):
                save_dataset(study.dataset(year), path)
        info = study.campaigns[year].execution
        shards = f", {info.n_shards} shards" if info is not None else ""
        print(f"saved {path} "
              f"({study.dataset(year).n_devices} devices{shards})")
        report = study.campaigns[year].collection
        if report is not None and faults is not None:
            print(f"\ncampaign {year} collection:")
            print(render_collection_report(report))
            print()
    losses = [study.campaigns[y].losses for y in study.years
              if study.campaigns[y].losses is not None]
    if losses:
        print()
        print(execution_losses_table(losses).render())
    if study.resilience is not None:
        print(study.resilience.describe())
    recorder.emit(EventKind.RUN_SUMMARY, **run_summary(
        years=list(study.years), execution=study.execution,
        shards=_study_shards(study),
        collection_reports={
            y: study.campaigns[y].collection for y in study.years
        },
        resilience=study.resilience, losses=losses,
    ))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    names = _resolve_experiments(args.experiments)
    recorder = get_recorder()
    if args.data is not None:
        study = _load_study_from(args.data)
        skipped = [n for n in names if n in _SURVEY_EXPERIMENTS]
        if skipped:
            print(f"note: skipping survey experiments on saved data: "
                  f"{skipped}")
            names = [n for n in names if n not in _SURVEY_EXPERIMENTS]
    else:
        study = run_study(scale=args.scale, seed=args.seed)
    cache = AnalysisContext(study)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    for name in names:
        with recorder.span("experiment", experiment=name):
            result = run_experiment(name, cache)
        text = result.render() if hasattr(result, "render") else str(result)
        print(text)
        print()
        if args.out is not None:
            (args.out / f"{name}.txt").write_text(text + "\n")
    if args.cache_stats:
        print(cache.stats.render())
    recorder.emit(EventKind.RUN_SUMMARY, **run_summary(
        years=list(study.years), execution=study.execution,
        shards=_study_shards(study) if study.execution else None,
        cache_stats=cache.stats,
        extra_counters={"experiments_run": len(names)},
    ))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    # Imported lazily: the bench harness pulls in the simulation layer,
    # which `repro list`/`repro validate` should not pay for.
    from repro.obs import bench as bench_harness

    if args.list_benchmarks:
        for case in bench_harness.discover_cases():
            print(f"{case.name:28s} {case.group:12s} {case.title}")
        return 0

    if args.check_only is not None:
        report = bench_harness.load_report(args.check_only)
    else:
        report = bench_harness.run_suite(
            scale=args.scale, seed=args.seed, repeat=args.repeat,
            warmup=args.warmup, only=args.benchmarks or None,
            progress=lambda message: print(f"  {message}", flush=True),
        )
        bench_harness.write_report(report, args.out)
        print(bench_harness.render_results(report))
        print(f"wrote {args.out}")
        get_recorder().emit(EventKind.RUN_SUMMARY, **run_summary(
            extra_counters={"benchmarks_run": report["n_benchmarks"]},
        ))

    failures = []
    for baseline_path in args.check or ():
        baseline = bench_harness.load_report(baseline_path)
        failures.extend(
            bench_harness.check_regression(
                report, baseline, factor=args.factor,
                baseline_name=baseline_path.name,
            )
        )
    if args.check:
        gate = "fail" if failures else "pass"
        baseline_names = [p.name for p in args.check]
        get_recorder().emit(EventKind.VERDICT, source="bench", gate=gate,
                            n_failures=len(failures),
                            baselines=baseline_names)
        # History records one row per fresh benchmark run; re-gating a
        # saved report with --check-only must not append (or silently
        # drop a BENCH_history.jsonl into the cwd via the --out default).
        if args.check_only is None:
            from repro.obs.history import (
                append_history,
                bench_record,
                drift_warnings,
                load_history,
            )

            history_path = (args.history
                            or args.out.parent / "BENCH_history.jsonl")
            append_history(history_path,
                           bench_record(report, gate=gate,
                                        baselines=baseline_names))
            # Drift against the rolling history is advisory (stderr
            # only); the absolute --check gate alone decides the exit
            # code.
            for warning in drift_warnings(load_history(history_path)):
                print(f"warning: {warning}", file=sys.stderr)
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    if args.check:
        print(f"threshold check passed against {len(args.check)} "
              f"baseline(s) at factor {args.factor}x")
    return 0


def cmd_fidelity(args: argparse.Namespace) -> int:
    # Lazy: the scorer reaches up into the analysis layer.
    from repro.obs import fidelity as fidelity_mod

    if args.data is not None:
        study = _load_study_from(args.data)
        label = dict(data=str(args.data))
    else:
        n_jobs = resolve_jobs(args.jobs, default=1)
        study = run_study(scale=args.scale, seed=args.seed, n_jobs=n_jobs)
        label = dict(scale=args.scale, seed=args.seed)
    cache = AnalysisContext(study)
    report = fidelity_mod.score_fidelity(
        cache, checks=args.checks or None, **label,
    )
    print(report.render())
    report.write(args.out)
    print(f"wrote {args.out}")

    if args.write_doc is not None:
        from repro.obs.docgen import rewrite_experiments_doc

        changed = rewrite_experiments_doc(args.write_doc, report)
        print(f"{'rewrote' if changed else 'unchanged:'} "
              f"{args.write_doc}")

    recorder = get_recorder()
    history_path = (args.history
                    or args.out.parent / "FIDELITY_history.jsonl")
    failures = []
    if args.check is not None:
        from repro.obs.history import (
            append_history,
            drift_warnings,
            fidelity_record,
            load_history,
        )

        baseline = fidelity_mod.load_fidelity_report(args.check)
        failures = fidelity_mod.fidelity_regressions(
            report, baseline, baseline_name=args.check.name,
        )
        gate = "fail" if failures else "pass"
        recorder.emit(EventKind.VERDICT, source="fidelity", gate=gate,
                      n_failures=len(failures),
                      baselines=[args.check.name])
        append_history(history_path,
                       fidelity_record(report.to_dict(), gate=gate))
        # Advisory only — the absolute baseline gate decides the code.
        for warning in drift_warnings(load_history(history_path)):
            print(f"warning: {warning}", file=sys.stderr)

    recorder.emit(EventKind.RUN_SUMMARY, **run_summary(
        years=list(study.years), execution=study.execution,
        shards=_study_shards(study) if study.execution else None,
        cache_stats=cache.stats,
        extra_counters={
            "fidelity_checks": len(report.records),
            "fidelity_pass": report.n_pass,
            "fidelity_warn": report.n_warn,
            "fidelity_fail": report.n_fail,
            "fidelity_skip": report.n_skip,
        },
        artifacts={"fidelity_report": str(args.out.resolve()),
                   "fidelity_history": str(history_path.resolve())},
    ))

    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    if args.check is not None:
        print(f"fidelity check passed against {args.check.name} "
              f"({report.n_pass} pass, {report.n_warn} warn, "
              f"{report.n_fail} fail, {report.n_skip} skip)")
    return 0


def cmd_events(args: argparse.Namespace) -> int:
    from repro.obs.recorder import format_event, load_events

    if not args.path.exists():
        raise ReproError(f"no event log at {args.path}")
    events = load_events(args.path)
    manifest = None
    if args.manifest or args.trace or args.report:
        manifest = build_manifest(events)
        if args.manifest is not None:
            manifest.write(args.manifest)
            print(f"wrote run manifest {args.manifest}")
        if args.trace is not None:
            from repro.obs.span import write_chrome_trace

            write_chrome_trace(manifest.spans, args.trace)
            print(f"wrote Chrome trace {args.trace}")
        if args.report is not None:
            from repro.obs.report import write_run_report

            write_run_report(args.report, manifest)
            print(f"wrote run report {args.report}")
        if args.tail is None and not args.postmortem and not args.json:
            return 0
    if args.tail is not None:
        selected = events[-args.tail:] if args.tail > 0 else []
        for event in selected:
            if args.json:
                print(json.dumps(event, separators=(",", ":"),
                                 default=str))
            else:
                print(format_event(event))
        return 0
    # Raw events print as they are; every other output is the manifest.
    if manifest is None:
        manifest = build_manifest(events)
    if args.postmortem:
        if args.json:
            print(manifest.to_json(), end="")
        else:
            print(manifest.render_postmortem())
        return 0
    if args.json:
        print(json.dumps(
            {"n_events": manifest.n_events, "status": manifest.status,
             "duration_s": round(manifest.duration_s, 3),
             "counts": manifest.event_counts},
            indent=2, sort_keys=True,
        ))
        return 0
    print(manifest.render_summary())
    return 0


def cmd_clean(args: argparse.Namespace) -> int:
    from repro.engine import transport
    from repro.traces.store import sweep_orphan_partitions

    verb = "would remove" if args.dry_run else "removed"
    reclaimed = 0
    segments = transport.segment_names()
    if segments and not args.dry_run:
        transport.sweep_orphans()
    for name in segments:
        print(f"{verb} shm segment {name}")
    reclaimed += len(segments)
    cutoff = time.time() - args.max_age_h * 3600.0
    for root in (args.paths or [Path(".")]):
        if not root.exists():
            continue
        partitions = sweep_orphan_partitions(root, dry_run=args.dry_run)
        for name in partitions:
            print(f"{verb} orphan partition {name} under {root}")
        reclaimed += len(partitions)
        # Only the canonical events spelling: history JSONL never matches.
        stale = [found for found in root.rglob("events*.jsonl")
                 if found.is_file()]
        for found in sorted(stale):
            try:
                if found.stat().st_mtime >= cutoff:
                    continue
                if not args.dry_run:
                    found.unlink()
            except OSError:
                continue
            print(f"{verb} stale telemetry file {found}")
            reclaimed += 1
    done_verb = "would reclaim" if args.dry_run else "reclaimed"
    print(f"{done_verb} {reclaimed} item(s)")
    return 0


def cmd_list(_args: argparse.Namespace) -> int:
    for experiment in list_experiments():
        print(f"{experiment.experiment_id:8s} {experiment.paper_item:12s} "
              f"{experiment.title}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.path)
    summary = validate_dataset(dataset)
    print(summary)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits for --version/--help (code 0) and usage errors
        # (code 2); surface those as return codes so embedding callers —
        # and the test suite — get a plain int instead of an exception.
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    handlers = {
        "simulate": cmd_simulate,
        "analyze": cmd_analyze,
        "bench": cmd_bench,
        "fidelity": cmd_fidelity,
        "events": cmd_events,
        "clean": cmd_clean,
        "list": cmd_list,
        "validate": cmd_validate,
    }
    recording = _start_recording(args)
    status, code, error = "failed", 1, None
    try:
        code = handlers[args.command](args)
        status = "ok" if code == 0 else "failed"
        return code
    except ChaosKill as exc:
        # The chaos harness killed the run mid-campaign on purpose;
        # a distinct exit code lets the CI smoke job (and the resume
        # tests) tell "interrupted as planned" from a real error.
        status, code, error = "interrupted", 3, exc
        print(f"interrupted: {exc}", file=sys.stderr)
        return 3
    except ReproError as exc:
        status, code, error = "failed", 2, exc
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        error = exc
        raise
    finally:
        # A SIGKILL (--chaos-kill-hard) never reaches here — by design:
        # the postmortem then reads "interrupted" from the missing
        # run_end and the still-open spans, exactly what the black box
        # is for.
        if recording is not None:
            recording.finish(status, code, error)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
