"""Self-tests of the benchmark, at tiny scale.

Run from the repository root (not part of the tier-1 suite):

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import traced  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    measure,
    reference_digest,
    timed_iteration,
)

SEED = 3
#: Tiny but complete: every experiment still has data at this scale/seed.
SMOKE_SCALE = {"study": 0.01, "sweep": 0.04}


def tiny(name: str):
    w = WORKLOADS[name]
    return dataclasses.replace(w, scale=SMOKE_SCALE[w.kind])


@pytest.fixture(scope="module")
def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def study_digest():
    return reference_digest(tiny("simulate"), SEED)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_smoke(name, study_digest):
    """Each workload sets up, warms up and times checked iterations."""
    w = tiny(name)
    expected = study_digest if w.kind == "study" \
        else reference_digest(w, SEED)
    report = measure(w, SEED, seconds=0.01, t0=0.0, expected=expected)
    iterations = [report["warmup"], *report["iterations"]]
    assert iterations and all(it["ok"] for it in iterations), iterations
    if w.kind == "study":
        # One worker in memory = two workers through the store.
        assert {it["digest"] for it in iterations} == {study_digest}
    assert report["setup_s"] > 0
    assert all(it["peak_rss_mb"] > 0 for it in report["iterations"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_matches_untraced(name, benchmark_spec):
    """Traced outputs equal the untraced digests; every per-layer metric
    of BENCHMARK.json is emitted, with a unit, and the layer spans cover
    the traced iteration."""
    # The analysis probes run in every workload's traced run, so every
    # workload needs the sweep's scale here.
    w = dataclasses.replace(WORKLOADS[name], scale=SMOKE_SCALE["sweep"])
    report = traced.trace(w, SEED, reference_digest(w, SEED))
    assert report["correct"], report["checks"]
    assert report["failed"] == 0
    declared = {m["name"]: m["unit"] for m in benchmark_spec["per_layer"]}
    assert set(report["metrics"]) == set(declared)
    assert report["units"] == declared
    assert 0.9 <= report["metrics"]["trace.coverage"] <= 1.0
    for name in ("engine.busy_frac", "engine.speedup_vs_serial",
                 "analysis.sweep_over_simulate", "trace.overhead_frac"):
        assert name in report["bases"]


def test_failed_iteration_is_reported():
    """A step that raises is a failed operation, not a crash, and still
    reports the calibration that set-up time is converted with."""
    class Failing:
        def prepare(self):
            pass

        def steps(self):
            return [self.fail]

        def fail(self):
            raise RuntimeError("boom")

    it = timed_iteration(Failing(), expected="unused")
    assert not it["ok"] and "boom" in it["error"]
    assert "wall_s" not in it
    assert 0 < it["calib_s"] <= it["calib_spent_s"]


def test_end_to_end_metrics_declared(benchmark_spec):
    names = {m["name"]: m["unit"] for m in benchmark_spec["end_to_end"]}
    assert names == {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                     "peak_rss_mb": "MB"}
    assert [w["name"] for w in benchmark_spec["workloads"]] == \
        list(WORKLOADS)


def test_run_fails_without_program(tmp_path):
    """With only BENCHMARK.json and perfbench/, run.py exits non-zero
    and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
