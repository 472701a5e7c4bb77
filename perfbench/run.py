"""Repository benchmark: simulate a study and regenerate its artifacts.

Run from the repository root:

    python3 perfbench/run.py --workload simulate --seed 7 --seconds 30 --trace 0

``--trace 0`` measures the workload with tracing off in several fresh
processes and prints the end-to-end metrics (``setup_s``, ``wall_s``,
``cpu_s``, ``peak_rss_mb``). ``--trace 1`` runs ``traced.py`` once, which
pushes the same inputs through each layer's public calls and prints the
per-layer metrics. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it record the host and the sample count.

Exits non-zero without a result when a child process fails (for instance
when ``src/`` is missing) or runs out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402  (needs HERE on sys.path)
    WORK_DIR,
    WORKLOADS,
    child_env,
    committed_digest,
)

#: Fresh processes per untraced run; their timed iterations are pooled,
#: so one slow process start cannot move the median by itself.
CHILDREN = 2
#: Every run must end well inside the 180 s a benchmark run may take.
DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    pass


def run_child(args, env, deadline: float) -> dict:
    """Run one child to completion; its last stdout line is JSON."""
    proc = subprocess.Popen(
        [sys.executable, *args], env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        # The child leads its own session: take its pool workers too.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{args[0]} ran out of time") from None
    finally:
        if proc.poll() is None:  # interrupted: never leave it running
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise ChildFailed(
            f"{' '.join(args)} exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _cpu_times() -> list:
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:9]]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _dev_shm_mb() -> dict:
    try:
        st = os.statvfs("/dev/shm")
    except OSError:
        return {}
    return {"size": st.f_blocks * st.f_frsize / 2**20,
            "free": st.f_bavail * st.f_frsize / 2**20}


def host_record(stat0: list, load0: tuple, child: dict) -> dict:
    """What it takes to tell host drift from a regression."""
    stat1 = _cpu_times()
    delta = [b - a for a, b in zip(stat0, stat1)]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": child.get("numpy", "unknown"),
        "loadavg_start": list(load0),
        "loadavg_end": list(os.getloadavg()),
        # user nice system idle iowait irq softirq steal
        "steal_share": delta[7] / sum(delta) if sum(delta) else 0.0,
        # Shard transport lives here; a small /dev/shm limits --jobs runs.
        "dev_shm_mb": _dev_shm_mb(),
    }


def expected_digest(workload, seed: int, env, deadline: float) -> str:
    digest = committed_digest(workload, seed)
    if digest is None:
        digest = run_child(
            [str(HERE / "workloads.py"), "--reference",
             "--workload", workload.name, "--seed", str(seed)],
            env, deadline,
        )["digest"]
    return digest


def untraced(workload, seed: int, seconds: float, env, deadline: float,
             expected: str):
    reports = []
    for _ in range(CHILDREN):
        reports.append(run_child(
            [str(HERE / "workloads.py"), "--workload", workload.name,
             "--seed", str(seed), "--seconds", str(seconds / CHILDREN),
             "--t0", repr(time.monotonic()), "--expect", expected],
            env, deadline,
        ))
    iterations = [it for r in reports for it in r["iterations"]]
    # Warm-ups are checked like timed iterations and count as operations.
    checked = [r["warmup"] for r in reports] + iterations
    timed = [it for it in iterations if "wall_s" in it]
    failed = sum(not it["ok"] for it in checked)
    if not timed:
        raise ChildFailed(f"no iteration completed: {iterations[0]['error']}")
    print(f"samples: {len(timed)} timed iterations in {CHILDREN} processes "
          f"(+{len(reports)} warm-up)")
    print("raw wall_s " + str([round(it["wall_s"], 3) for it in timed]))
    print("calibration_s " + str([round(it["calib_s"], 4) for it in timed]))
    print("raw setup_s " + str([round(r["setup_s"], 3) for r in reports]))
    digests = sorted({it.get("digest") for it in checked})
    print(f"dataset/render digests: {digests}")
    metrics = {
        "setup_s": (statistics.median(r["setup_ref_s"] for r in reports), "s"),
        "wall_s": (statistics.median(it["wall_ref_s"] for it in timed), "s"),
        "cpu_s": (statistics.median(it["cpu_ref_s"] for it in timed), "s"),
        "peak_rss_mb": (
            statistics.median(it["peak_rss_mb"] for it in timed), "MB"),
    }
    return failed == 0, len(checked), failed, metrics, reports[0]


def traced(workload, seed: int, env, deadline: float, expected: str):
    report = run_child(
        [str(HERE / "traced.py"), "--workload", workload.name,
         "--seed", str(seed), "--expect", expected],
        env, deadline,
    )
    print(f"trace spans: {report['spans_file']}")
    for name, base in sorted(report["bases"].items()):
        print(f"base {name}: {base}")
    metrics = {k: (v, report["units"][k]) for k, v in report["metrics"].items()}
    return (report["correct"], report["attempted"], report["failed"],
            metrics, report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    tmp = WORK_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = child_env(src, tmp)
    workload = WORKLOADS[args.workload]
    stat0, load0 = _cpu_times(), os.getloadavg()
    try:
        expected = expected_digest(workload, args.seed, env, deadline)
        run = traced(workload, args.seed, env, deadline, expected) \
            if args.trace else \
            untraced(workload, args.seed, args.seconds, env, deadline,
                     expected)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    correct, attempted, failed, metrics, child = run
    print("host: " + json.dumps(host_record(stat0, load0, child)))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
