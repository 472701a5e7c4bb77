"""Shared fixtures: a small end-to-end study plus hand-crafted datasets."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import AnalysisContext, clean_for_main_analysis, run_study


@pytest.fixture(scope="session")
def study():
    """A small but complete three-campaign study (shared, read-only)."""
    return run_study(scale=0.045, seed=42)


@pytest.fixture(scope="session")
def cache(study):
    return AnalysisContext(study)


@pytest.fixture(scope="session")
def dataset2013(study):
    return clean_for_main_analysis(study.dataset(2013))


@pytest.fixture(scope="session")
def dataset2015(study):
    return clean_for_main_analysis(study.dataset(2015))


@pytest.fixture(scope="session")
def raw2015(study):
    return study.dataset(2015)


def _pids_mentioning(text):
    """Live processes whose command line contains ``text``."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        if text.encode() in cmdline:
            found.append(int(entry.name))
    return found


@pytest.fixture(scope="session")
def hard_killed_run(tmp_path_factory):
    """One ``--events`` campaign SIGKILLed mid-execute.

    ``(dir, log, code, orphans)``: ``orphans`` lists the processes of the
    run still alive 10 s after the kill, polled right after it lands so
    the check does not depend on when a test reads it.
    """
    tmp_path = tmp_path_factory.mktemp("hard_kill")
    log = tmp_path / "events.jsonl"
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    # No pipes on the victim: orphaned pool workers inherit them and
    # would keep capture_output waiting long after the SIGKILL lands.
    result = subprocess.run(
        [sys.executable, "-m", "repro", "simulate",
         "--scale", "0.004", "--seed", "11", "--jobs", "2",
         "--out", str(tmp_path / "data"), "--store", "disk",
         "--chaos-kill-after", "1", "--chaos-kill-hard",
         "--events", str(log)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        timeout=480, env=env, cwd=str(tmp_path),
    )
    # The killed parent's pool workers notice and exit: nothing started
    # for this run outlives it by more than a few seconds.
    deadline = time.monotonic() + 10.0
    while _pids_mentioning(str(tmp_path)) and time.monotonic() < deadline:
        time.sleep(0.2)
    return tmp_path, log, result.returncode, _pids_mentioning(str(tmp_path))


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
