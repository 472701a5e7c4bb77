"""Periodic resource telemetry: RSS, CPU, shm, disk, retry counters.

A :class:`ResourceSampler` is a daemon thread that emits one
``resource_sample`` event per interval through the flight recorder
(:mod:`repro.obs.recorder`): parent RSS (``/proc/self/statm``), the summed
RSS of live child processes (pool workers), process CPU seconds
(:func:`os.times`, children included), live ``/dev/shm`` segment bytes
from :func:`repro.engine.transport.segment_bytes`, disk usage of watched
store directories, and the engine's lifetime retry, fallback
and drop counters.

Everything degrades gracefully off Linux: missing ``/proc`` entries read
as zero, never as an error, and the sampling loop swallows all exceptions
— a telemetry thread must not be able to kill a campaign. Sampling reads
state; it never touches RNG streams, so sampled and unsampled runs are
bit-identical.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Iterable, List, Optional, Union

from repro.obs.recorder import EventKind

__all__ = [
    "ResourceSampler",
    "rss_bytes",
    "children_rss_bytes",
    "disk_usage_bytes",
]

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def rss_bytes(pid: Optional[int] = None) -> int:
    """Resident set size of one process (0 where /proc is unavailable)."""
    proc = Path(f"/proc/{pid}" if pid is not None else "/proc/self")
    try:
        fields = (proc / "statm").read_text().split()
        return int(fields[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        return 0


def _child_pids(parent: int) -> List[int]:
    """Direct children of ``parent``, from /proc/<pid>/stat field 4."""
    children: List[int] = []
    proc = Path("/proc")
    try:
        entries = list(proc.iterdir())
    except OSError:
        return children
    for entry in entries:
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # comm (field 2) may contain spaces; it ends at the last ')'.
        after_comm = stat.rpartition(")")[2].split()
        if len(after_comm) >= 2 and after_comm[1] == str(parent):
            children.append(int(entry.name))
    return children


def children_rss_bytes(parent: Optional[int] = None) -> int:
    """Summed RSS of the direct children (the worker pool) of a process."""
    parent = parent if parent is not None else os.getpid()
    return sum(rss_bytes(pid) for pid in _child_pids(parent))


def disk_usage_bytes(paths: Iterable[Union[str, os.PathLike]]) -> int:
    """Total size of all files under the given directories (or files)."""
    total = 0
    for root in paths:
        root = Path(root)
        try:
            if root.is_file():
                total += root.stat().st_size
                continue
            for dirpath, _dirnames, filenames in os.walk(root):
                for name in filenames:
                    try:
                        total += os.stat(os.path.join(dirpath, name)).st_size
                    except OSError:
                        continue
        except OSError:
            continue
    return total


def _sample(shm_token: Optional[str],
            disk_paths: Iterable[Union[str, os.PathLike]]) -> dict:
    """One resource snapshot as flat event fields."""
    from repro.engine.executor import lifetime_stats
    from repro.engine.transport import segment_bytes

    times = os.times()
    sample = {
        "rss_bytes": rss_bytes(),
        "children_rss_bytes": children_rss_bytes(),
        "cpu_s": round(times.user + times.system, 3),
        "children_cpu_s": round(times.children_user
                                + times.children_system, 3),
        "shm_bytes": segment_bytes(shm_token),
        "disk_bytes": disk_usage_bytes(disk_paths),
    }
    sample.update(lifetime_stats())
    return sample


class ResourceSampler:
    """Daemon-thread sampler emitting ``resource_sample`` events.

    One sample is taken immediately on :meth:`start` (so even sub-interval
    runs record at least one) and then every ``interval_s`` until
    :meth:`stop`, which takes a final sample so the log ends with the
    run's peak state.
    """

    def __init__(self, recorder, interval_s: float = 1.0,
                 shm_token: Optional[str] = None,
                 disk_paths: Iterable[Union[str, os.PathLike]] = ()) -> None:
        self.recorder = recorder
        self.interval_s = max(0.05, float(interval_s))
        self.shm_token = shm_token
        self.disk_paths = [Path(p) for p in disk_paths]
        self.n_samples = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def sample_once(self) -> Optional[dict]:
        """Take and emit one sample."""
        try:
            sample = _sample(self.shm_token, self.disk_paths)
            self.recorder.emit(EventKind.RESOURCE_SAMPLE, **sample)
            self.n_samples += 1
            return sample
        except Exception:
            # Telemetry must never take down the run it observes.
            return None

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample_once()

    def start(self) -> "ResourceSampler":
        if self._thread is not None:
            return self
        self.sample_once()
        self._thread = threading.Thread(
            target=self._loop, name="repro-resource-sampler", daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, final_sample: bool = True) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if final_sample:
            self.sample_once()

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
