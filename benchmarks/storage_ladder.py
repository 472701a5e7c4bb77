"""Storage scale ladder: prove the disk store runs where memory cannot.

The acceptance gate for out-of-core execution, run by the CI
``storage-scale`` job (Linux only — it needs ``RLIMIT_AS`` and procfs):

1. Run ``repro simulate`` once per path unconstrained, recording each
   interpreter's peak address space (``VmPeak``) — the quantity
   ``ulimit -v`` constrains.
2. Derive a hard ceiling halfway between the two peaks. The ceiling is
   only meaningful if the in-memory path actually needs more than the
   disk path; the script fails loudly when the gap closes.
3. Under that ceiling (``RLIMIT_AS``, the programmatic ``ulimit -v``):
   - the in-memory path must FAIL — the ceiling really binds;
   - ``repro simulate --store disk`` must complete at jobs 1 AND jobs 2;
   - ``repro analyze --data <store>`` must complete;
   and every constrained run's dataset digest and rendered analysis
   output must be bit-identical to the unconstrained in-memory reference.

Run standalone::

    PYTHONPATH=src python benchmarks/storage_ladder.py [--scale S] [--out DIR]
"""

from __future__ import annotations

import argparse
import filecmp
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import repro  # noqa: F401  (resolves PYTHONPATH for the children)
from repro import load_dataset

DEFAULT_SCALE = 0.3
DEFAULT_SEED = 3
EXPERIMENTS = ("table1", "fig05", "fig19")

#: Child wrapper: run the CLI in-process, then report this interpreter's
#: peak address space to a side file (stdout belongs to the CLI).
_WRAPPER = r"""
import sys
from pathlib import Path
from repro.cli import main

peak_file = sys.argv[1]
code = main(sys.argv[2:])
for line in Path("/proc/self/status").read_text().splitlines():
    if line.startswith("VmPeak:"):
        Path(peak_file).write_text(line.split(":")[1].split()[0])
sys.exit(code)
"""


def _run_cli(cli_args, peak_file=None, limit_kb=None):
    """Run ``repro <cli_args>`` in a child; return its exit code."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_JOBS", None)

    def _limit():
        if limit_kb is not None:
            import resource

            resource.setrlimit(resource.RLIMIT_AS,
                               (limit_kb * 1024, limit_kb * 1024))

    command = [sys.executable, "-c", _WRAPPER,
               str(peak_file or os.devnull)] + [str(a) for a in cli_args]
    proc = subprocess.run(command, env=env, preexec_fn=_limit,
                          stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0 and limit_kb is None:
        raise SystemExit(
            f"unconstrained run failed ({cli_args}): "
            f"{proc.stderr.strip()[-800:]}"
        )
    return proc.returncode


def _simulate(out, scale, seed, jobs, disk, peak_file=None, limit_kb=None):
    cli = ["simulate", "--scale", scale, "--seed", seed, "--jobs", jobs,
           "--out", out]
    if disk:
        cli += ["--store", "disk"]
    return _run_cli(cli, peak_file=peak_file, limit_kb=limit_kb)


def _digest(root: Path) -> str:
    """SHA-256 over every campaign's sorted column bytes under ``root``."""
    h = hashlib.sha256()
    for campaign in sorted(Path(root).glob("campaign*")):
        dataset = load_dataset(campaign)
        for table in dataset.table_names:
            for name, column in sorted(getattr(dataset, table)
                                       .columns.items()):
                h.update(f"{campaign.name}.{table}.{name}".encode())
                h.update(column.tobytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", type=Path, default=Path("ladder"),
                        help="working directory (default ./ladder)")
    args = parser.parse_args(argv)
    if sys.platform != "linux":
        print("storage ladder needs Linux (RLIMIT_AS + /proc); skipping")
        return 0
    work = args.out
    work.mkdir(parents=True, exist_ok=True)

    # 1. Unconstrained probes: the reference bits and both VmPeaks.
    print(f"[1/4] probing both paths unconstrained at scale {args.scale}")
    mem_peak_file = work / "mem_peak_kb"
    disk_peak_file = work / "disk_peak_kb"
    _simulate(work / "mem", args.scale, args.seed, 1, disk=False,
              peak_file=mem_peak_file)
    _simulate(work / "probe", args.scale, args.seed, 1, disk=True,
              peak_file=disk_peak_file)
    mem_peak = int(mem_peak_file.read_text())
    disk_peak = int(disk_peak_file.read_text())

    # 2. The ceiling must separate the paths, or the ladder proves nothing.
    ceiling = (mem_peak + disk_peak) // 2
    print(f"      VmPeak memory={mem_peak}kB disk={disk_peak}kB "
          f"-> ceiling {ceiling}kB")
    if disk_peak * 105 >= mem_peak * 100:
        raise SystemExit(
            f"no out-of-core headroom: disk VmPeak {disk_peak}kB is within "
            f"5% of memory VmPeak {mem_peak}kB at scale {args.scale} — "
            f"the store is buffering too much; raise --scale or fix the spill"
        )

    # 3. Constrained runs: memory must break, disk must not.
    print(f"[2/4] in-memory path under the {ceiling}kB ceiling (must fail)")
    code = _simulate(work / "mem_capped", args.scale, args.seed, 1,
                     disk=False, limit_kb=ceiling)
    if code == 0:
        raise SystemExit(
            f"in-memory run fit under {ceiling}kB — the ceiling does not "
            f"bind; the ladder scale {args.scale} is too small"
        )
    print(f"[3/4] disk-store path under the same ceiling at jobs 1 and 2")
    for jobs in (1, 2):
        code = _simulate(work / f"disk{jobs}", args.scale, args.seed, jobs,
                         disk=True, limit_kb=ceiling)
        if code != 0:
            raise SystemExit(
                f"disk-store run (jobs {jobs}) died under the {ceiling}kB "
                f"ceiling (exit {code}) — out-of-core regression"
            )

    # 4. Bit-identity: datasets and rendered analyses.
    print("[4/4] digests and analysis outputs vs the in-memory reference")
    reference = _digest(work / "mem")
    for jobs in (1, 2):
        got = _digest(work / f"disk{jobs}")
        if got != reference:
            raise SystemExit(
                f"disk-store dataset (jobs {jobs}) diverged: "
                f"{got[:16]} != {reference[:16]}"
            )
    analyze = ["analyze", *EXPERIMENTS]
    _run_cli(analyze + ["--data", work / "mem", "--out", work / "a_mem"])
    code = _run_cli(
        analyze + ["--data", work / "disk1", "--out", work / "a_disk"],
        limit_kb=ceiling,
    )
    if code != 0:
        raise SystemExit(f"store-backed analyze died under the ceiling "
                         f"(exit {code})")
    for name in EXPERIMENTS:
        if not filecmp.cmp(work / "a_mem" / f"{name}.txt",
                           work / "a_disk" / f"{name}.txt", shallow=False):
            raise SystemExit(f"analysis output {name}.txt diverged between "
                             f"memory and store paths")

    summary = {
        "scale": args.scale,
        "seed": args.seed,
        "mem_peak_vm_kb": mem_peak,
        "disk_peak_vm_kb": disk_peak,
        "ceiling_kb": ceiling,
        "digest": reference,
    }
    (work / "ladder.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"ladder passed: digest {reference[:16]} identical on every rung; "
          f"wrote {work / 'ladder.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
