"""The benchmark's workloads and the child process that times them.

Each workload runs in a fresh process started by ``run.py``:

    python3 perfbench/workloads.py --workload simulate --seed 7 \
        --seconds 4 --t0 <parent monotonic clock at spawn> --expect <sha256>

The child builds its inputs, runs one checked warm-up iteration, then timed
iterations until its share of the measuring time is used up, and prints one
JSON report line. Every iteration's output is hashed and compared with the
expected digest; an exception or a mismatch marks that iteration as failed.
A fixed calibration timed around each iteration lets ``run.py`` report
times in reference seconds (see :func:`calibration_s`). Why each workload
exists is written down in ``README.md`` next to this file.

``--reference`` prints the digest a workload must produce, computed through
a different code path than the workload's own (see :func:`reference_digest`);
``--record`` regenerates ``expected.json`` for a range of seeds.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
WORK_DIR = HERE / ".work"
EXPECTED_FILE = HERE / "expected.json"


@dataclass(frozen=True)
class Workload:
    name: str
    #: "study" times ``run_study``; "sweep" times the 30-experiment sweep.
    kind: str
    scale: float


#: The smallest scale at which every experiment has data for every seed
#: tried (fig19 needs capped device-days; 0.05 lacks them for seeds 12
#: and 17), so a 30 s run still measures several iterations.
WORKLOADS = {
    w.name: w for w in (
        Workload("simulate", "study", 0.06),
        Workload("analyze", "sweep", 0.06),
    )
}

#: Environment variables that would change what a workload runs.
UNPINNED_ENV = ("REPRO_JOBS", "REPRO_TELEMETRY", "REPRO_EVENTS")


def child_env(src: Path, tmp: Path) -> dict:
    """The pinned environment every benchmark child runs under."""
    env = {k: v for k, v in os.environ.items() if k not in UNPINNED_ENV}
    env.update(
        PYTHONPATH=str(src),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        TMPDIR=str(tmp),
    )
    return env


def expected_key(workload: Workload, seed: int) -> str:
    """Key of a committed digest: all study workloads share one."""
    return f"{workload.kind}:{workload.scale}:{seed}"


def committed_digest(workload: Workload, seed: int) -> Optional[str]:
    table = json.loads(EXPECTED_FILE.read_text()) \
        if EXPECTED_FILE.exists() else {}
    return table.get(expected_key(workload, seed))


# ---------------------------------------------------------------------------
# Output digests
# ---------------------------------------------------------------------------

def dataset_digest(study) -> str:
    """sha256 over every column of every table of every year."""
    import numpy as np

    h = hashlib.sha256()
    for year in sorted(study.campaigns):
        dataset = study.dataset(year)
        for table in dataset.table_names:
            columns = getattr(dataset, table).columns
            for name in sorted(columns):
                column = np.ascontiguousarray(columns[name])
                h.update(f"{year}.{table}.{name}:{column.dtype.str}:"
                         f"{column.shape}".encode())
                h.update(memoryview(column).cast("B"))
    return h.hexdigest()


def render(result) -> str:
    """An experiment result as the CLI prints it."""
    return result.render() if hasattr(result, "render") else str(result)


def render_digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def run_sweep(context) -> list:
    """Run and render every registered experiment in registry order."""
    from repro import EXPERIMENTS, run_experiment

    return [render(run_experiment(eid, context)) for eid in EXPERIMENTS]


# ---------------------------------------------------------------------------
# Iteration runners: prepare() is untimed, run() is the timed operation
# ---------------------------------------------------------------------------

def _hwm_mb(pid="self") -> float:
    """Peak resident set (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


def _reset_hwm() -> None:
    """Restart this process's VmHWM from its current RSS."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


#: glibc's ``malloc_trim``; None under a C library without it.
_MALLOC_TRIM = getattr(ctypes.CDLL(None), "malloc_trim", None)


def release_freed_memory() -> None:
    """Collect garbage and hand freed heap back to the OS.

    Without the trim, heap that the previous iteration freed stays resident
    in a long-lived benchmark process. ``VmHWM`` restarts from the current
    resident set, so ``peak_rss_mb`` would depend on how much the earlier
    iterations left behind rather than on the iteration itself, which a
    one-shot CLI run never sees.
    """
    gc.collect()
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


class StudyRunner:
    """Times a serial in-memory ``run_study`` at the workload's scale."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.w = workload
        self.seed = seed
        self.study = None

    def prepare(self) -> None:
        from repro.simulation.campaign import clear_world_cache

        # Drop the previous study before the next one exists, so peak RSS
        # never holds two.
        self.study = None
        clear_world_cache()
        release_freed_memory()

    def steps(self) -> list:
        return [self.run]

    def run(self) -> None:
        from repro import run_study

        self.study = run_study(scale=self.w.scale, seed=self.seed, n_jobs=1)

    def digest(self) -> str:
        return dataset_digest(self.study)

    def close(self) -> None:
        self.prepare()


#: Experiments per timed step of the sweep. A sweep takes ~8 s, long
#: enough for the host's speed to change within it, so the calibration
#: is repeated between steps of about a second or two.
SWEEP_STEP = 5


class SweepRunner:
    """Times the shared-context sweep over a study built at set-up."""

    def __init__(self, workload: Workload, seed: int) -> None:
        from repro import run_study

        start = time.perf_counter()
        self.study = run_study(scale=workload.scale, seed=seed, n_jobs=1)
        self.simulate_s = time.perf_counter() - start
        self.context = None
        self.texts = None

    def prepare(self) -> None:
        from repro import AnalysisContext

        self.context = None
        self.texts = []
        # No trim here: no worker is forked, and a trim before each sweep
        # only made the parent's peak vary more (IQR/median 0.043 vs 0.010
        # over ten seeds).
        gc.collect()
        self.context = AnalysisContext(self.study)

    def steps(self) -> list:
        from repro import EXPERIMENTS

        ids = list(EXPERIMENTS)
        return [partial(self._run, ids[i:i + SWEEP_STEP])
                for i in range(0, len(ids), SWEEP_STEP)]

    def _run(self, ids) -> None:
        from repro import run_experiment

        self.texts += [render(run_experiment(eid, self.context))
                       for eid in ids]

    def digest(self) -> str:
        return render_digest(self.texts)

    def close(self) -> None:
        self.context = None
        self.texts = None


def make_runner(workload: Workload, seed: int):
    cls = StudyRunner if workload.kind == "study" else SweepRunner
    return cls(workload, seed)


def reference_digest(workload: Workload, seed: int) -> str:
    """The workload's expected digest, computed through another path.

    The serial study compares with a study simulated by two workers into
    a store, and the sweep with a sweep over such a study, in this
    separate process. The two workers spill to a store because an
    in-memory two-worker study keeps its whole shard transport in
    ``/dev/shm``, which may be smaller than that (see ``README.md``).
    """
    from repro import AnalysisContext, run_study
    from repro.engine.executor import shutdown_warm_pools

    store_dir = WORK_DIR / f"reference-store-{os.getpid()}"
    try:
        study = run_study(scale=workload.scale, seed=seed, n_jobs=2,
                          store_dir=store_dir)
        shutdown_warm_pools()
        if workload.kind == "study":
            return dataset_digest(study)
        return render_digest(run_sweep(AnalysisContext(study)))
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def _cpu_s() -> float:
    """User+sys CPU of this process plus every reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


#: Calibration time of the reference host (2-core Intel Xeon VM, numpy
#: 2.4, Python 3.11). Times are reported in reference seconds:
#: measured seconds x CALIBRATION_REF_S / the calibration measured alongside.
CALIBRATION_REF_S = 0.15


def calibration_s() -> float:
    """Seconds a fixed mix of interpreter and in-cache numpy work takes.

    The mix touches no code of the program under test, so a change to the
    program cannot move it; only the host's speed does. Timing it right
    before and after an iteration tracks how fast the host ran meanwhile.
    """
    import numpy as np

    start = time.perf_counter()
    counts: dict = {}
    total = 0
    for i in range(250_000):
        total += i * i % 7
        counts[i % 997] = counts.get(i % 997, 0) + 1
    values = np.random.default_rng(0).random(100_000)
    for _ in range(20):
        np.sort(values)
        np.cumsum(values)
        np.bincount((values * 1000).astype(np.int64))
    return time.perf_counter() - start


def timed_iteration(runner, expected: str) -> dict:
    """One operation: untimed prepare, timed steps, untimed output check.

    The calibration runs before the first step and after each one; each
    step's time is converted to reference seconds with the mean of the two
    calibrations around it (``wall_ref_s``, ``cpu_ref_s``). A failed
    iteration still reports its calibration, so set-up time can always be
    converted.
    """
    runner.prepare()
    calib = [calibration_s()]
    _reset_hwm()
    wall = cpu = wall_ref = cpu_ref = 0.0
    try:
        for step in runner.steps():
            wall0, cpu0 = time.perf_counter(), _cpu_s()
            step()
            step_wall = time.perf_counter() - wall0
            step_cpu = _cpu_s() - cpu0
            calib.append(calibration_s())
            speed = CALIBRATION_REF_S / ((calib[-2] + calib[-1]) / 2)
            wall += step_wall
            cpu += step_cpu
            wall_ref += step_wall * speed
            cpu_ref += step_cpu * speed
    except Exception as exc:  # a failed operation is reported, not fatal
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}",
                "calib_s": statistics.mean(calib),
                "calib_spent_s": sum(calib)}
    peak_mb = _hwm_mb()
    digest = runner.digest()
    return {"ok": digest == expected, "wall_s": wall, "cpu_s": cpu,
            "wall_ref_s": wall_ref, "cpu_ref_s": cpu_ref,
            "peak_rss_mb": peak_mb, "calib_s": statistics.mean(calib),
            "calib_spent_s": sum(calib), "digest": digest}


def measure(workload: Workload, seed: int, seconds: float, t0: float,
            expected: str) -> dict:
    """Set up, run one checked warm-up, then time iterations for ``seconds``."""
    import numpy as np

    runner = make_runner(workload, seed)
    warm = timed_iteration(runner, expected)
    # Calibration is the benchmark's own overhead, not set-up work.
    setup_s = time.monotonic() - t0 - warm["calib_spent_s"]
    setup_ref_s = setup_s * CALIBRATION_REF_S / warm["calib_s"]
    iterations = []
    spent = 0.0
    while not iterations or spent < seconds:
        it = timed_iteration(runner, expected)
        iterations.append(it)
        if "wall_s" not in it:
            break
        spent += it["wall_s"]
    runner.close()
    return {
        "workload": workload.name,
        "seed": seed,
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "warmup": warm,
        "iterations": iterations,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--t0", type=float, default=None,
                        help="monotonic clock reading at process spawn")
    parser.add_argument("--expect", default=None)
    parser.add_argument("--reference", action="store_true",
                        help="print the reference digest and exit")
    parser.add_argument("--record", metavar="FIRST-LAST",
                        help="write reference digests for these seeds "
                             "into expected.json")
    args = parser.parse_args(argv)
    if args.record:
        first, last = (int(x) for x in args.record.split("-"))
        table = json.loads(EXPECTED_FILE.read_text()) \
            if EXPECTED_FILE.exists() else {}
        for seed in range(first, last + 1):
            for w in WORKLOADS.values():
                key = expected_key(w, seed)
                if key in table:
                    continue
                try:
                    table[key] = reference_digest(w, seed)
                except Exception as exc:
                    # The program fails on this seed: record no digest, so
                    # a run with it fails too instead of passing unchecked.
                    print(key, f"no digest: {type(exc).__name__}: {exc}",
                          flush=True)
                    continue
                print(key, table[key], flush=True)
        EXPECTED_FILE.write_text(json.dumps(table, indent=1, sort_keys=True)
                                 + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    if args.reference:
        print(json.dumps({"digest": reference_digest(workload, args.seed)}))
        return 0
    if args.expect is None:
        parser.error("--expect is required")
    t0 = args.t0 if args.t0 is not None else time.monotonic()
    report = measure(workload, args.seed, args.seconds, t0, args.expect)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
