"""Run one measurement campaign end to end.

``run_campaign`` assembles the year's world (panel, deployment), simulates
every device, and freezes the result into a
:class:`~repro.traces.dataset.CampaignDataset` whose AP directory contains
exactly the APs that were actually observed (associated or sighted) — the
dataset never reveals the full deployed universe, just like the real
measurement.

Every device's records flow through the collection pump (upload replay →
server) under a :class:`~repro.collection.faults.FaultPlan` — zero-fault
unless configured otherwise, in which case nothing is lost. A nonzero plan
loses data exactly the way real campaigns do, and the resulting
:class:`~repro.collection.faults.CollectionReport` rides along on the
:class:`CampaignResult`.

Execution is sharded through :mod:`repro.engine`: ``plan_campaign`` splits
the panel into deterministic work units, an executor (serial or a process
pool, see ``n_jobs``) runs :func:`simulate_shard` over them, and
``merge_campaign`` reassembles the shard outputs in canonical order. Every
device keeps its own ``(seed, year, user_id)`` RNG stream, so ``n_jobs=1``
and ``n_jobs=k`` are bit-for-bit identical.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from datetime import date
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.apps.demand import DemandModel
from repro.collection.faults import CollectionReport, FaultPlan
from repro.collection.pipeline import CollectionPump
from repro.collection.server import CollectionServer
from repro.engine.chaos import ChaosInjector, ChaosMonkey
from repro.engine.executor import (
    ExecutionInfo,
    Executor,
    make_executor,
    resolve_jobs,
)
from repro.engine.merge import (
    ShardOutput,
    merge_reports,
    missing_shards,
    ordered_outputs,
)
from repro.engine.planner import ShardPlan, plan_units
from repro.engine.resilience import (
    ExecutionLosses,
    ResilienceConfig,
    ResilienceReport,
    config_key,
)
from repro.engine.transport import ShardPayload, run_token, sweep_orphans
from repro.errors import ConfigurationError, EngineError
from repro.net.accesspoint import AccessPoint
from repro.obs.recorder import EventKind, StageClock, get_recorder
from repro.network_env.deployment import Deployment, DeploymentConfig, build_deployment
from repro.population.profiles import UserProfile
from repro.population.recruitment import RecruitmentConfig, recruit
from repro.simulation.kernel import simulate_devices
from repro.simulation.params import SimParams
from repro.timeutil import TimeAxis
from repro.traces.dataset import (
    CampaignDataset, GroundTruth, merge_dataset, observed_ap_ids,
)
from repro.traces.records import ApDirectoryEntry, DeviceInfo
from repro.traces.store import CampaignStore


@dataclass
class CampaignConfig:
    """Everything needed to simulate one campaign."""

    year: int
    start: date
    n_days: int
    recruitment: RecruitmentConfig
    deployment: DeploymentConfig
    params: SimParams
    appetite_median_mb: float
    appetite_sigma: float = 0.85
    seed: int = 0
    #: Fault plan for the collection pipeline; None means the lossless
    #: zero-fault plan (the pipeline still runs end to end).
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.n_days <= 0:
            raise ConfigurationError("n_days must be positive")
        if self.recruitment.year != self.year or self.deployment.year != self.year:
            raise ConfigurationError("year mismatch between configs")

    @property
    def fault_plan(self) -> FaultPlan:
        return self.faults if self.faults is not None else FaultPlan.zero()

    @property
    def axis(self) -> TimeAxis:
        return TimeAxis(self.start, self.n_days)


@dataclass
class CampaignResult:
    """A finished campaign: dataset plus simulator-side context."""

    config: CampaignConfig
    dataset: CampaignDataset
    profiles: List[UserProfile]
    deployment: Deployment
    #: Collection accounting (None for campaigns reloaded from disk).
    collection: Optional[CollectionReport] = None
    #: How the campaign was executed (None for reloaded datasets).
    execution: Optional[ExecutionInfo] = None
    #: Shards dropped under ``--partial-results`` (None = complete run).
    losses: Optional[ExecutionLosses] = None
    #: Retry/checkpoint accounting (None when no resilience was configured
    #: and every shard succeeded first try).
    resilience: Optional[ResilienceReport] = None


@dataclass
class _World:
    """The deterministic campaign prelude shared by every shard.

    Everything here is treated as read-only during simulation (the update
    model, which accumulates per-device decisions, is deliberately NOT part
    of the world — each shard builds its own fresh instance).
    """

    demand: DemandModel
    profiles: List[UserProfile]
    deployment: Deployment
    infos: List[DeviceInfo]


@dataclass
class ShardWork:
    """Picklable work unit: one shard of one campaign."""

    config: CampaignConfig
    shard_index: int
    device_ids: tuple
    #: Run token for shared-memory transport: when set (parallel
    #: execution), the worker packs its chunks into a
    #: :class:`~repro.engine.transport.ShardPayload` segment named under
    #: this token instead of returning them inline.
    shm_token: Optional[str] = None


@dataclass
class CampaignPlan:
    """A campaign decomposed into shard work units, ready to execute."""

    config: CampaignConfig
    world: _World = field(repr=False)
    shard_plan: ShardPlan
    work: List[ShardWork]


#: Process-local cache of built worlds, keyed by the config's canonical
#: repr. Workers forked from the parent inherit it, so shards reuse the
#: parent's world instead of rebuilding; spawn-based (or cold) workers
#: rebuild deterministically from the same seed.
_WORLD_CACHE: "OrderedDict[str, _World]" = OrderedDict()
_WORLD_CACHE_MAX = 8


def _build_world(config: CampaignConfig) -> _World:
    """Build the panel and deployment exactly as a serial run would.

    This replays the historical ``run_campaign`` prelude verbatim (same
    root-RNG draw order), so shard workers that rebuild the world get
    bit-identical profiles and deployment.
    """
    root_rng = np.random.default_rng(config.seed)
    demand = DemandModel(
        year_index=config.params.year_index,
        appetite_median_mb=config.appetite_median_mb,
        appetite_sigma=config.appetite_sigma,
        wifi_uplift=config.params.wifi_uplift,
    )
    clock = StageClock()
    profiles = recruit(config.recruitment, demand, root_rng)
    clock.lap("recruit")
    clock.report(get_recorder())
    deployment = build_deployment(profiles, config.deployment, root_rng)
    infos = [
        DeviceInfo(
            device_id=profile.user_id,
            os=profile.os,
            carrier=profile.carrier.name,
            technology=profile.technology,
            recruited=profile.recruited,
            occupation=profile.occupation.value,
        )
        for profile in profiles
    ]
    return _World(
        demand=demand, profiles=profiles, deployment=deployment, infos=infos,
    )


def clear_world_cache() -> None:
    """Drop cached campaign worlds (benchmarks use this for fair timing)."""
    _WORLD_CACHE.clear()


def _world_for(config: CampaignConfig) -> _World:
    key = repr(config)
    world = _WORLD_CACHE.get(key)
    if world is None:
        with get_recorder().span("build_world", year=config.year):
            world = _build_world(config)
        _WORLD_CACHE[key] = world
        while len(_WORLD_CACHE) > _WORLD_CACHE_MAX:
            _WORLD_CACHE.popitem(last=False)
    else:
        _WORLD_CACHE.move_to_end(key)
    return world


def plan_campaign(config: CampaignConfig, n_jobs: int = 1) -> CampaignPlan:
    """Build the world and partition the panel into shard work units."""
    recorder = get_recorder()
    with recorder.span("plan_campaign", year=config.year):
        world = _world_for(config)
        shard_plan = plan_units(
            [info.device_id for info in world.infos], n_jobs
        )
        work = [
            ShardWork(
                config=config, shard_index=shard.index,
                device_ids=shard.device_ids,
            )
            for shard in shard_plan.shards
        ]
        recorder.count("shards", shard_plan.n_shards)
        recorder.count("devices", shard_plan.n_devices)
    return CampaignPlan(
        config=config, world=world, shard_plan=shard_plan, work=work
    )


def simulate_shard(work: ShardWork) -> ShardOutput:
    """Simulate one shard's devices and return their records and accounting.

    Module-level so process-pool workers can import it; reuses the parent's
    cached world when forked, rebuilds it deterministically otherwise.

    Its spans go to the process's recorder: in a pool worker that is the
    recorder the worker forked under (or ``$REPRO_EVENTS``), which appends
    to the run's events file. Telemetry never touches RNG streams, so
    traced and untraced shards are bit-identical.
    """
    with get_recorder().span("simulate_shard", year=work.config.year,
                             shard=work.shard_index, pid=os.getpid()):
        return _simulate_shard_impl(work)


def _simulate_shard_impl(work: ShardWork) -> ShardOutput:
    config = work.config
    world = _world_for(config)
    axis = config.axis

    server = CollectionServer(config.year, axis)
    for info in world.infos:
        server.register_device(info)
    pump = CollectionPump(
        server,
        config.fault_plan,
        n_slots=axis.n_slots,
        seed=config.seed,
        year=config.year,
    )

    recorder = get_recorder()
    stats = []
    for device_id in work.device_ids:
        if world.profiles[device_id].user_id != device_id:
            raise EngineError(
                f"panel is not dense: profile "
                f"{world.profiles[device_id].user_id} at position {device_id}"
            )
    with recorder.span("simulate_devices", n_devices=len(work.device_ids)):
        # Columnar kernel: per-device streams key only on the device
        # id, so any shard layout produces bit-identical output.
        for result in simulate_devices(
            world.profiles, axis, world.deployment, world.demand,
            config.params, seed=config.seed, year=config.year,
            device_ids=work.device_ids,
        ):
            stats.append(pump.transmit_bulk(
                world.infos[result.device_id], result.tables
            ))
            recorder.count("devices")

    with recorder.span("flush_buffers"):
        chunks = server.flush_buffers()
    payload: Optional[ShardPayload] = None
    if work.shm_token is not None:
        with recorder.span("pack_payload", shard=work.shard_index):
            payload = ShardPayload.pack(chunks, work.shm_token)
        chunks = None
    return ShardOutput(
        shard_index=work.shard_index,
        device_ids=tuple(work.device_ids),
        chunks=chunks,
        stats=stats,
        batches_received=server.batches_received,
        duplicates_dropped=server.duplicates_dropped,
        payload=payload,
    )


def identity_of(plan: CampaignPlan) -> dict:
    """What decides whether a spilled shard of ``plan`` may be reused:
    the config hash (every parameter, seed included), the seed (for a
    readable mismatch) and the shard count (``--jobs`` repartitions)."""
    return {
        "config_key": config_key(plan.config),
        "seed": plan.config.seed,
        "n_shards": plan.shard_plan.n_shards,
    }


def execute_plans(
    plans: Sequence[CampaignPlan],
    executor: Executor,
    resilience: Optional[ResilienceConfig] = None,
    stores: Optional[Sequence[Optional[CampaignStore]]] = None,
) -> "tuple[List[List[Optional[ShardOutput]]], Optional[ResilienceReport]]":
    """Run every plan's shards through ``executor``, self-healing as asked.

    The workhorse behind :func:`run_campaign` and ``Study.run``: fans the
    work units across the executor (chaos-wrapped when a plan is
    injected) and aggregates the executor's attempt history into a
    :class:`~repro.engine.resilience.ResilienceReport`.

    ``stores`` (aligned with ``plans``) turns on out-of-core execution: a
    plan's :class:`~repro.traces.store.CampaignStore` is bound to its
    identity before any shard runs, and each accepted shard spills into a
    store partition at once, so the parent never holds more than one
    shard's rows. With ``resilience.resume`` every verified partition is
    reused instead of simulated again.

    Returns one output list per plan, indexed by shard (``None`` marks a
    shard dropped in partial mode), plus the report (None when no
    resilience was configured and nothing went wrong).
    """
    res = resilience
    resume = res is not None and res.resume
    stores = list(stores) if stores is not None else [None] * len(plans)
    if resume and any(store is None for store in stores):
        raise ConfigurationError(
            "--resume needs --store disk: a killed disk run resumes from "
            "its spilled partitions"
        )
    outputs: List[List[Optional[ShardOutput]]] = [
        [None] * plan.shard_plan.n_shards for plan in plans
    ]
    counts = {"saved": 0, "hits": 0, "corrupt": 0}
    recorder = get_recorder()

    with recorder.span("load_checkpoints") if resume else nullcontext():
        for pi, (plan, store) in enumerate(zip(plans, stores)):
            if store is None:
                continue
            year = plan.config.year
            kept, rejected = store.bind(identity_of(plan), resume=resume)
            counts["corrupt"] += len(rejected)
            for name in rejected:
                recorder.emit(EventKind.CHECKPOINT_LOADED, year=year,
                              partition=name, corrupt=True)
            shards = {f"shard-{shard.index:04d}": shard
                      for shard in plan.shard_plan.shards}
            for ref in kept:
                shard = shards.get(ref.name)
                if shard is None:
                    continue
                outputs[pi][shard.index] = ShardOutput.from_partition(
                    shard, ref)
                counts["hits"] += 1
                recorder.emit(EventKind.CHECKPOINT_LOADED, year=year,
                              shard=shard.index)

    # Pool workers ship their chunks through shared-memory segments named
    # under this run's token; serial (in-process) execution keeps them
    # inline — no segment, no attach, bit-identical either way.
    shm_token = run_token() if getattr(executor, "name", "") == "parallel" \
        else None
    pending: List["tuple[int, ShardWork]"] = [
        (pi, replace(work, shm_token=shm_token))
        for pi, plan in enumerate(plans)
        for work in plan.work
        if outputs[pi][work.shard_index] is None
    ]

    chaos = res.chaos if res is not None else None
    fn = simulate_shard
    monkey = None
    if chaos is not None:
        if chaos.injects_worker_faults:
            fn = ChaosInjector(simulate_shard, chaos)
        if chaos.kill_after_shards is not None:
            monkey = ChaosMonkey(chaos)

    # Live progress accounting: per-shard completion feeds a devices/s
    # rate and an ETA over the not-yet-checkpointed work. Guarded by
    # ``recorder.enabled`` so the telemetry-off path stays zero-overhead.
    devices_total = sum(len(work.device_ids) for _, work in pending)
    progress = {"done": 0, "devices_done": 0}
    t0 = time.monotonic()
    if recorder.enabled:
        for unit, (pi, work) in enumerate(pending):
            recorder.emit(EventKind.SHARD_QUEUED, year=work.config.year,
                          shard=work.shard_index, unit=unit,
                          devices=len(work.device_ids))

    def _accept(local_index: int, output: ShardOutput) -> None:
        pi, work = pending[local_index]
        if output.payload is not None:
            # Attach now and unlink immediately: the mapped memory lives
            # as long as the handle, so the /dev/shm entry exists only
            # for the worker→parent in-flight window and a later crash
            # cannot leak it.
            output.payload.attach()
            output.payload.unlink()
        if stores[pi] is not None:
            # Out-of-core: the shard's columns land in a store partition
            # right away and the shared-memory segment is unmapped — the
            # parent keeps only the slim PartitionRef per shard, and the
            # partition is what a resume reuses.
            output = output.spill(
                stores[pi], f"shard-{work.shard_index:04d}"
            )
            counts["saved"] += 1
        outputs[pi][work.shard_index] = output
        if recorder.enabled:
            recorder.emit(
                EventKind.SHARD_COMPLETED, year=work.config.year,
                shard=work.shard_index, unit=local_index,
                devices=len(work.device_ids),
            )
            progress["done"] += 1
            progress["devices_done"] += len(work.device_ids)
            elapsed = time.monotonic() - t0
            rate = (progress["devices_done"] / elapsed
                    if elapsed > 0 else 0.0)
            remaining = devices_total - progress["devices_done"]
            recorder.emit(
                EventKind.PROGRESS, done=progress["done"], total=len(pending),
                devices_done=progress["devices_done"],
                devices_total=devices_total, rate=round(rate, 2),
                eta_s=(round(remaining / rate, 1) if rate > 0 else None),
                elapsed_s=round(elapsed, 2),
            )
        if monkey is not None:
            monkey.on_shard_complete()

    history_before = len(getattr(executor, "history", ()))
    counts_before = {
        name: getattr(executor, name, 0)
        for name in ("retries", "fallbacks", "dropped")
    }
    executor.run(fn, [work for _, work in pending], on_result=_accept)

    report = _resilience_report(
        executor, history_before, counts_before, pending, counts, res
    )
    return outputs, report


def _resilience_report(
    executor: Executor,
    history_before: int,
    counts_before: dict,
    pending: Sequence["tuple[int, ShardWork]"],
    partitions: dict,
    res: Optional[ResilienceConfig],
) -> Optional[ResilienceReport]:
    history = list(getattr(executor, "history", ()))[history_before:]
    failures_by_kind: dict = {}
    shard_attempts = []
    for log in history:
        _, work = pending[log.unit_index]
        entry = log.to_dict()
        entry["year"] = work.config.year
        entry["shard"] = work.shard_index
        shard_attempts.append(entry)
        for failure in log.failures:
            failures_by_kind[failure.kind] = \
                failures_by_kind.get(failure.kind, 0) + 1
    # Spilling alone is not an event: a plain --store disk run reports
    # nothing, exactly like the in-memory one.
    eventful = bool(failures_by_kind or partitions["hits"]
                    or partitions["corrupt"])
    if res is None and not eventful:
        return None
    return ResilienceReport(
        shard_attempts=shard_attempts,
        retries=getattr(executor, "retries", 0) - counts_before["retries"],
        fallbacks=getattr(executor, "fallbacks", 0)
        - counts_before["fallbacks"],
        dropped_shards=getattr(executor, "dropped", 0)
        - counts_before["dropped"],
        failures_by_kind=failures_by_kind,
        checkpoint_saved=partitions["saved"],
        checkpoint_hits=partitions["hits"],
        checkpoint_corrupt=partitions["corrupt"],
    )


def merge_campaign(
    plan: CampaignPlan,
    outputs: Sequence[Optional[ShardOutput]],
    execution: Optional[ExecutionInfo] = None,
    allow_partial: bool = False,
    store: Optional[CampaignStore] = None,
) -> CampaignResult:
    """Reassemble shard outputs into a finished campaign, canonically.

    With ``allow_partial``, shards may be missing (``None`` or absent):
    the merged dataset covers only the surviving shards' records — dropped
    devices keep their roster entries with zero records, like recruited
    users whose data never arrived — and the loss is accounted explicitly
    in :attr:`CampaignResult.losses`. At least one shard must survive.

    With a ``store``, the merge is out-of-core: the shards' chunks (spill
    partitions, mapped one column at a time, or inline ones) are
    streaming-merged into the store's canonical column files (same row
    order as the in-memory :func:`~repro.traces.dataset.merge_dataset`,
    bit-identical at any ``n_jobs``) and the returned dataset reads them
    memory-mapped. Both merges refuse chunks out of ``(device, t)`` order
    with :class:`~repro.errors.SchemaError`. Spill partitions are
    reclaimed after a successful finalize.
    """
    config = plan.config
    world = plan.world
    recorder = get_recorder()
    dropped = missing_shards(outputs, plan.shard_plan)
    losses: Optional[ExecutionLosses] = None
    if dropped:
        if not allow_partial:
            # Fall through to the merge layer's hard validation for the
            # canonical EngineError message.
            pass
        elif len(dropped) == plan.shard_plan.n_shards:
            raise EngineError(
                f"campaign {config.year} lost every shard; nothing to merge "
                f"(partial results need at least one surviving shard)"
            )
        else:
            losses = ExecutionLosses(
                year=config.year,
                n_shards=plan.shard_plan.n_shards,
                dropped_shards=dropped,
                n_devices=plan.shard_plan.n_devices,
                dropped_devices=sum(
                    plan.shard_plan.shards[i].n_devices for i in dropped
                ),
            )
    with recorder.span("merge_campaign", year=config.year,
                       n_shards=plan.shard_plan.n_shards,
                       store=store is not None):
        present = ordered_outputs(outputs, plan.shard_plan,
                                  allow_missing=allow_partial)
        chunk_maps = [out.chunk_map() for out in present]
        report = merge_reports(outputs, plan.shard_plan,
                               config.axis.n_slots,
                               allow_missing=allow_partial)
        ap_directory = _ap_directory(observed_ap_ids(chunk_maps),
                                     world.deployment)
        truth = _ground_truth(world.profiles, world.deployment)
        if store is None:
            dataset = merge_dataset(config.year, config.axis, world.infos,
                                    ap_directory, truth, chunk_maps)
        else:
            store.finalize(world.infos, ap_directory, truth, chunk_maps)
            store.sweep_partitions()
            dataset = store.load_dataset()
    return CampaignResult(
        config=config, dataset=dataset, profiles=world.profiles,
        deployment=world.deployment, collection=report, execution=execution,
        losses=losses,
    )


def run_plans(
    plans: Sequence[CampaignPlan],
    n_jobs: int,
    executor: Optional[Executor] = None,
    resilience: Optional[ResilienceConfig] = None,
    stores: Optional[Sequence[Optional[CampaignStore]]] = None,
) -> "tuple[List[CampaignResult], Optional[ResilienceReport], ExecutionInfo]":
    """Execute ``plans`` on one executor and merge each plan canonically.

    The run lifecycle behind :func:`run_campaign` and ``Study.run``: an
    executor is built (and closed) here unless one is supplied, every
    shard runs under the ``execute_shards`` span, orphaned shared-memory
    segments are swept once the executor has drained, and each plan is
    merged (into its store, when ``stores`` names one). A run that dies
    before its merge keeps its accepted spill partitions: ``--resume``
    reuses them and ``repro clean`` reclaims them.

    Returns the merged results in plan order, the resilience report and
    the whole run's :class:`ExecutionInfo`.
    """
    recorder = get_recorder()
    stores = list(stores) if stores is not None else [None] * len(plans)
    allow_partial = resilience.partial if resilience else False
    own_executor = executor is None
    if executor is None:
        executor = make_executor(
            n_jobs,
            policy=resilience.policy if resilience else None,
            allow_partial=allow_partial,
        )
    try:
        with recorder.span("execute_shards", executor=executor.name,
                           n_jobs=executor.n_jobs):
            outputs, report = execute_plans(
                plans, executor, resilience=resilience, stores=stores,
            )
    finally:
        if own_executor:
            executor.close()
        # The executor has drained, so any segment still named under
        # this run's token is an orphan — a chaos-killed loop or a
        # timed-out straggler on a discarded pool — and is reclaimed.
        sweep_orphans(run_token())
    results = [
        merge_campaign(
            plan, plan_outputs,
            execution=_execution_info(executor, [plan_outputs]),
            allow_partial=allow_partial, store=store,
        )
        for plan, plan_outputs, store in zip(plans, outputs, stores)
    ]
    return results, report, _execution_info(executor, outputs)


def _execution_info(
    executor: Executor,
    outputs: Sequence[Sequence[Optional[ShardOutput]]],
) -> ExecutionInfo:
    """How ``outputs`` (one shard-output list per plan) were executed."""
    return ExecutionInfo(
        executor=executor.name,
        n_jobs=executor.n_jobs,
        n_shards=sum(len(outs) for outs in outputs),
        transport_bytes=sum(
            out.transport_bytes for outs in outputs
            for out in outs if out is not None
        ),
    )


def run_campaign(
    config: CampaignConfig,
    n_jobs: Optional[int] = None,
    executor: Optional[Executor] = None,
    resilience: Optional[ResilienceConfig] = None,
    store: Optional[CampaignStore] = None,
) -> CampaignResult:
    """Simulate one campaign and return its dataset and context.

    ``n_jobs`` selects the executor: ``None`` consults ``$REPRO_JOBS`` and
    defaults to 1 (serial); values ``<= 0`` mean one worker per CPU. A
    caller-supplied ``executor`` is reused as-is (and not closed here).
    ``resilience`` enables checkpoint/resume, retry, partial results, and
    chaos injection; when an executor is built here, the resilience
    policy/partial settings are threaded into it. A ``store`` makes the
    run out-of-core: shards spill to store partitions on accept and the
    result's dataset reads the finalized store memory-mapped.
    """
    with get_recorder().span("run_campaign", year=config.year):
        n_jobs = resolve_jobs(n_jobs)
        (result,), report, _ = run_plans(
            [plan_campaign(config, n_jobs)], n_jobs, executor=executor,
            resilience=resilience, stores=[store],
        )
        result.resilience = report
        return result


def _ap_directory(
    ap_ids: Iterable[int], deployment: Deployment,
) -> Dict[int, ApDirectoryEntry]:
    """Directory entries for the APs the panel actually observed."""
    directory = {}
    for ap_id in sorted(ap_ids):
        ap: AccessPoint = deployment.ap(ap_id)
        directory[ap_id] = ApDirectoryEntry(
            ap_id=ap.ap_id, bssid=ap.bssid, essid=ap.essid,
            band=ap.band, channel=ap.channel,
        )
    return directory


def _ground_truth(profiles: List[UserProfile], deployment: Deployment) -> GroundTruth:
    truth = GroundTruth()
    truth.ap_types = {ap_id: ap.ap_type for ap_id, ap in deployment.aps.items()}
    for profile in profiles:
        if profile.home_ap_id >= 0:
            truth.home_ap_of_user[profile.user_id] = profile.home_ap_id
        if profile.office_ap_id >= 0:
            truth.office_ap_of_user[profile.user_id] = profile.office_ap_id
        truth.wifi_policy_of_user[profile.user_id] = profile.wifi_policy.value
    return truth
