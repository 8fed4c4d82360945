"""Workload ``sharded-feed``: closed-loop batches on a 2-worker live window.

A live ``ShardedDensityService`` with two shard workers sits behind
``TrafficFrontend``.  :data:`CLIENTS` closed-loop clients (coroutines of
the load process) each send a :data:`BATCH_ROWS`-row batch of scattered
points, wait for the answer and send the next, while the feed slides the
window once a second, as in live-mixed.  A slide takes about 0.9 s from
when it is due until it is applied, so one is nearly always in flight
and the batches are measured beside a steady stream of mutations; with a
slide every two seconds the workers alternate between a busy and an idle
second and the batch rate swung by a third from seed to seed.  This is
the only workload through ``serve.worker``, ``serve.supervisor`` and
``serve.shard`` (pipe -> worker -> gather).
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from . import oracle
from .common import (
    Phases, children_peak_rss_mb, median, peak_rss_mb, quantile,
)
from .traffic import (
    GRID_VOXELS, HS, HT, Records, Scenario, Window, feed_loop, make_grid,
    records_into, region_around, timed,
)

WORKERS = 2
CLIENTS = 2
BATCH_ROWS = 256
SETUP_REPEATS = 3
CHECK_POINTS = 64
#: The tail percentile: about ten of a run's ~950 batches lie beyond it.
TAIL_PCT = 99
#: The sharded gather re-associates the single-process sum; the test
#: suites pin it to the estimator at 1e-12.
RTOL = 1e-12
FEED_PERIOD_S = 1.0
#: Admission budget of the front end, in predicted seconds.  The default
#: (0.25 s) is below one worker-side slide's learned cost, and a deferred
#: request costlier than the budget is admitted only when nothing at all
#: is pending, which closed-loop clients never allow: the feed would
#: starve.  2 s admits a slide beside both clients' batches.
ADMISSION_BUDGET_S = 2.0


def scattered(scenario: Scenario, m: int) -> np.ndarray:
    """``m`` points uniform over the grid's space and window fractions in
    time (placed at send time)."""
    rng = scenario.qrng
    span = np.array(GRID_VOXELS[:2], dtype=np.float64)
    return np.column_stack((rng.random((m, 2)) * span, rng.random(m)))


async def _build(scenario, grid):
    from repro.serve import ShardedDensityService, TrafficFrontend

    svc = ShardedDensityService(None, grid, workers=WORKERS)
    try:
        svc.add(scenario.window)
        fe = TrafficFrontend(svc, max_delay_ms=2.0, max_batch=BATCH_ROWS,
                             max_pending_seconds=ADMISSION_BUDGET_S,
                             overload="defer")
        await fe.start()
        q = scenario.probe()
        first = await fe.query_points(q)
    except BaseException:
        svc.close()
        raise
    return svc, fe, q, float(first[0])


async def closed_loop(fe, scenario, window, seconds):
    records = Records()
    t_origin = time.perf_counter()
    until = t_origin + seconds
    feed = asyncio.ensure_future(feed_loop(
        fe, scenario, window, records, until, t_origin))

    async def client():
        while time.perf_counter() < until:
            q = scenario.place(scattered(scenario, BATCH_ROWS))
            await timed(records, "point", time.perf_counter(),
                        fe.query_points(q))

    await asyncio.gather(*(client() for _ in range(CLIENTS)))
    await feed
    return records, time.perf_counter() - t_origin


def check_final(svc, window: Window, scenario, phases: Phases) -> dict:
    """Voxel-centre points and one small region at the final version."""
    vox = scenario.check_voxels(window.events, CHECK_POINTS)
    q = vox + 0.5
    want = oracle.density(window.events, q, HS, HT)
    report = {"points:sharded": oracle.mismatches(
        svc.query_points(q), want, RTOL) == 0}
    w, rq = region_around(vox[0])
    rwant = oracle.density(window.events, rq, HS, HT)
    report["region:sharded"] = oracle.mismatches(
        svc.query_region(w).data.ravel(), rwant, RTOL) == 0
    for good in report.values():
        phases.verdict("check", good)
    return report


def run(seed: int, seconds: float, tracer=None) -> dict:
    scenario = Scenario(seed, FEED_PERIOD_S)
    grid = make_grid()
    window = Window(scenario.window.copy())
    phases = Phases()

    async def main():
        setups = []
        for i in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            svc, fe, q, first = await _build(scenario, grid)
            setups.append(time.perf_counter() - t0)
            want = oracle.density(window.events, q, HS, HT)
            phases.verdict("setup", not oracle.mismatches([first], want, RTOL))
            if i < SETUP_REPEATS - 1:
                await fe.aclose()
                svc.close()
        try:
            records, wall = await closed_loop(fe, scenario, window, seconds)
            fe_stats = fe.frontend_stats()
            await fe.aclose()
            worker_rss = children_peak_rss_mb()
        except BaseException:
            svc.close()
            raise
        return svc, setups, records, wall, fe_stats, worker_rss

    svc, setups, records, wall, fe_stats, worker_rss = asyncio.run(main())
    try:
        records_into(phases, "steady", records)
        checks = check_final(svc, window, scenario, phases)
        stats = svc.stats()
        machine = svc.planner().model.machine.to_json()
    finally:
        svc.close()

    batches = records.latencies_ms(("point",))
    n_rows = BATCH_ROWS * len(batches)
    fresh = records.latencies_ms(("slide",))
    return {
        "e2e": {
            "setup_s": (median(setups), len(setups)),
            "latency_p50_ms": (median(batches), len(batches)),
            "latency_tail_ms": (quantile(batches, TAIL_PCT / 100), len(batches)),
            "throughput_per_s": (n_rows / wall, len(batches)),
            "peak_rss_mb": (peak_rss_mb(), 1),
        },
        "named": {
            "setup_s": (median(setups), "s", len(setups)),
            "batch_p50_ms": (median(batches), "ms", len(batches)),
            "batch_p99_ms": (quantile(batches, 0.99), "ms", len(batches)),
            "rows_per_s": (n_rows / wall, "1/s", len(batches)),
            "freshness_p50_ms": (median(fresh), "ms", len(fresh)),
            "peak_rss_mb": (peak_rss_mb(), "MB", 1),
            "worker_rss_mb": (worker_rss, "MB", WORKERS),
        },
        "extra": {"checks": checks},
        "phases": phases,
        "decisions": {
            "planner": stats["planner_decisions"],
            "compute": stats["compute"]["chosen"],
        },
        "machine_json": machine,
        "service_stats": stats,
        "frontend_stats": fe_stats,
        "client_requests": records.rows,
        "call_kinds": {"point": ["shard.scatter"], "slide": ["shard.mutate"]},
    }
