"""Workload ``paper-volumes``: the paper's own job, Table 2 at bench scale.

One sweep computes the density volume of all 21 Table 2 instances with
``STKDE(algorithm="auto", P=nproc, backend="threads").estimate`` — the
strategy choice of ``analysis.model``, the registered algorithms of
``algorithms`` / ``parallel`` and the stamping engine, and nothing of
``serve/``.  Sweeps repeat until the run's seconds are spent (at least
one); every volume is checked at sampled voxels against the oracle.
"""

from __future__ import annotations

import dataclasses
import os
import time

import numpy as np

from . import oracle
from .common import Phases, median, peak_rss_mb, quantile

#: Voxels checked per volume against the oracle.
CHECK_VOXELS = 48
#: Tolerance against the oracle: the gold-standard rtol the repository's
#: equivalence checks pin for volumes computed in a different order.
RTOL = 1e-10
#: Set-up repetitions (the median is reported).
SETUP_REPEATS = 9
#: The tail percentile: the highest with about ten of a run's 63-84
#: per-volume samples beyond it.
TAIL_PCT = 85


def make_inputs(seed: int):
    """The 21 bench-scale instances, point sets drawn from ``seed``."""
    from repro.data.datasets import iter_instances

    out = []
    for i, inst in enumerate(iter_instances("bench")):
        inst = dataclasses.replace(inst, seed=seed * 1000 + i)
        grid = inst.grid()
        pts = inst.points()
        out.append((inst.name, grid, pts))
    return out


def _check(result, grid, pts, rng) -> int:
    d = grid.domain
    vox = np.floor(
        (pts.coords - [d.x0, d.y0, d.t0]) / [d.sres, d.sres, d.tres]
    ).astype(np.int64)
    sample = oracle.sample_voxels(rng, grid.shape, vox, CHECK_VOXELS)
    want = oracle.density(
        pts.coords,
        oracle.voxel_centres((d.x0, d.y0, d.t0), (d.sres, d.tres), sample),
        grid.hs, grid.ht,
    )
    data = result.volume.data
    got = data[sample[:, 0], sample[:, 1], sample[:, 2]]
    return oracle.mismatches(got, want, RTOL)


def run(seed: int, seconds: float, tracer=None) -> dict:
    from repro import STKDE, WorkCounter

    P = os.cpu_count() or 1
    inputs = make_inputs(seed)
    rng = np.random.default_rng(seed)
    phases = Phases()
    counter = WorkCounter() if tracer is not None else None

    def estimate(grid, pts):
        est = STKDE(hs=grid.hs, ht=grid.ht, algorithm="auto", P=P,
                    backend="threads")
        return est.estimate(pts, grid.domain, counter=counter)

    def checked(phase, name, grid, pts, res):
        bad = _check(res, grid, pts, rng)
        if bad:
            print(f"  ORACLE MISMATCH {name}: {bad}/{CHECK_VOXELS} voxels")
        phases.verdict(phase, not bad)

    # Set-up: from building the estimator to its first correct volume.
    setups = []
    name0, grid0, pts0 = inputs[0]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        res = estimate(grid0, pts0)
        setups.append(time.perf_counter() - t0)
        checked("setup", name0, grid0, pts0, res)

    sweeps, per_volume, algorithms = [], [], {}
    t_end = time.perf_counter() + seconds
    busy = 0.0
    while not sweeps or time.perf_counter() < t_end:
        t_sweep = 0.0
        for name, grid, pts in inputs:
            t0 = time.perf_counter()
            res = estimate(grid, pts)
            dt = time.perf_counter() - t0
            t_sweep += dt
            per_volume.append(dt)
            algorithms[res.algorithm] = algorithms.get(res.algorithm, 0) + 1
            checked("sweep", name, grid, pts, res)
        sweeps.append(t_sweep)
        busy += t_sweep

    # Every estimate calibrates its own machine model; record one more,
    # made the same way after the timed phase, as this run's fingerprint.
    from repro.analysis.model import MachineModel

    machine_json = MachineModel.calibrate().to_json()
    lat_ms = [x * 1e3 for x in per_volume]
    return {
        "e2e": {
            "setup_s": (median(setups), len(setups)),
            "latency_p50_ms": (median(lat_ms), len(lat_ms)),
            "latency_tail_ms": (quantile(lat_ms, TAIL_PCT / 100), len(lat_ms)),
            "throughput_per_s": (len(per_volume) / busy, len(per_volume)),
            "peak_rss_mb": (peak_rss_mb(), 1),
        },
        "named": {
            "sweep_s": (median(sweeps), "s", len(sweeps)),
            "setup_s": (median(setups), "s", len(setups)),
            "peak_rss_mb": (peak_rss_mb(), "MB", 1),
        },
        "phases": phases,
        "decisions": {"algorithm_run": algorithms},
        "machine_json": machine_json,
        "counter": counter,
    }
