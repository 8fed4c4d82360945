"""Shared helpers: percentiles, memory, phase accounting, fingerprint."""

from __future__ import annotations

import os
import platform
import resource
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict

import numpy as np


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile; NaN when there are no samples."""
    if len(values) == 0:
        return float("nan")
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return quantile(values, 0.5)


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _child_pids() -> set:
    pids = set()
    for task in Path(f"/proc/{os.getpid()}/task").iterdir():
        pids.update(int(p) for p in (task / "children").read_text().split())
    return pids


def children_peak_rss_mb() -> float:
    """Largest peak resident memory (``VmHWM``) among this process's live
    children — with the worker pool up, the largest worker's."""
    pids = _child_pids()
    peak = 0.0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except FileNotFoundError:  # exited since it was listed
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                peak = max(peak, int(line.split()[1]) / 1024.0)
    return peak


def stop_child_processes() -> None:
    """Stop and reap every process this one started.

    Shard workers are closed by their service; this is the backstop on
    every way out of a run.  Spawning a worker also starts
    ``multiprocessing``'s resource tracker, which lives until its pipe
    closes and is otherwise never waited for, so it is stopped here too.
    Any other child still left over is killed and reaped.
    """
    import multiprocessing as mp
    from multiprocessing import resource_tracker

    for proc in mp.active_children():
        proc.terminate()
        proc.join(5.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


@dataclass
class Phases:
    """Operations attempted and failed, per phase of a run."""

    attempted: Dict[str, int] = field(default_factory=dict)
    failed: Dict[str, int] = field(default_factory=dict)
    reasons: Dict[str, int] = field(default_factory=dict)

    def ok(self, phase: str, n: int = 1) -> None:
        self.attempted[phase] = self.attempted.get(phase, 0) + n
        self.failed.setdefault(phase, 0)

    def fail(self, phase: str, reason: str, n: int = 1) -> None:
        self.ok(phase, n)
        self.failed[phase] += n
        self.reasons[reason] = self.reasons.get(reason, 0) + n

    def verdict(self, phase: str, correct: bool) -> None:
        """One oracle check: a wrong answer is a failed operation."""
        if correct:
            self.ok(phase)
        else:
            self.fail(phase, f"wrong_answer:{phase}")

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())


def cpu_steal_jiffies() -> int:
    """Host steal time so far (``/proc/stat``), 0 where unavailable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0


def host_probe_ms() -> float:
    """Median of 7 timings of a fixed NumPy kernel: the host's speed at
    this moment, so a run on a slowed-down host can be told apart."""
    rng = np.random.default_rng(0)
    a = rng.random((256, 256))
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        for _ in range(8):
            a = np.tanh(a @ a.T / 256.0)
        times.append(time.perf_counter() - t0)
    return 1e3 * median(times)


def fingerprint(machine_json: str = None, decisions: dict = None,
                host: dict = None) -> dict:
    """Where and with what a result was measured."""
    import numpy
    from repro.core.backends import available_backends

    backends = list(available_backends())
    return {
        "host": host or {},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "compute_backends": {
            name: (name in backends)
            for name in ("numpy-ref", "numpy-fused", "numba")
        },
        "machine_model": machine_json,
        "decisions": decisions or {},
    }

