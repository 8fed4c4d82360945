"""Workload ``live-mixed``: open-loop mixed traffic on a sliding window.

A single-process ``DensityService(backend="auto")`` over an
``IncrementalSTKDE`` sits behind ``TrafficFrontend``.  Requests arrive
open loop at a constant rate with ``BENCH_traffic``'s mix while the feed
slides the window once a second.  Every block of :data:`MIX_BLOCK`
consecutive requests holds exactly the mix's share of each kind, in an
order drawn from the seed: a bulk request occupies the front end's
executor for up to a third of a second, a phase holds only a handful of
them, and a drawn count or clumping of them would swing every latency
of the phase from seed to seed.  Each request is timed from when it was
due, not from when it was sent.  The reference phase runs at
:data:`REF_RATE`.  The saturation phase then drives single-point
requests from :data:`SAT_CLIENTS` closed-loop clients, with the feed
still sliding, and counts answers per second: the capacity of the
interactive path.  Last, the ladder offers each higher rate of
:data:`LADDER` and stops at the first step that misses
:data:`P99_LIMIT_MS`, fails an operation or lets the backlog grow.

The front end runs with ``overload="defer"``, so load past capacity shows
as latency and a missed ladder step instead of shed requests; a shed,
typed serving error or timeout would still count as a failed operation.
"""

from __future__ import annotations

import asyncio
import time

from . import oracle
from .common import Phases, median, peak_rss_mb, quantile
from .traffic import (
    HS, HT, WINDOW_T, Records, Scenario, Window, feed_loop, make_grid,
    records_into, region_around, timed,
)

MIX = (("point", 0.92), ("points8", 0.03), ("eps", 0.03),
       ("slice", 0.01), ("region", 0.01))
#: Requests per block that holds the mix's proportions exactly.
MIX_BLOCK = 100
EPS = 0.1
FEED_PERIOD_S = 1.0
#: Admission budget of the front end, in predicted seconds (see
#: ``sharded_feed``): wide enough that admission never defers at the
#: reference rate, so the phase measures queueing, not admission.
ADMISSION_BUDGET_S = 2.0
REF_RATE = 25.0
#: Offered rates after the reference phase, requests per second.
LADDER = (50.0, 100.0, 200.0)
#: Point p99 limit for a ladder step to count as sustained.
P99_LIMIT_MS = 150.0
#: A step whose last answer arrives later than this after its last
#: arrival was due has let the backlog grow.
DRAIN_LIMIT_S = 1.0
#: Closed-loop clients of the saturation phase.
SAT_CLIENTS = 32
#: Share of the run's seconds for the reference phase, the saturation
#: phase and each ladder step.
REF_SHARE, SAT_SHARE, STEP_SHARE = 0.62, 0.26, 0.04
SETUP_REPEATS = 3
CHECK_POINTS = 64
#: The tail percentile.  About 3-10% of the reference phase's ~357
#: single-point requests wait behind a slide or a bulk request; the p99
#: (about 3 samples beyond it) lies among them and moves in proportion
#: to what blocked them.  The p97 (about 10 beyond) sits where those
#: requests meet the unblocked ones and jumped with their share: its
#: spread over ten seeds was 0.37 where the p99's was 0.15.
TAIL_PCT = 99
#: Tolerances the test suites pin per path: exact paths agree with the
#: estimator to 1e-12; eps answers meet p95 relative error <= eps.
RTOL_EXACT = 1e-12


def draw(scenario: Scenario, kind: str):
    """The payload of one request of ``kind``."""
    rng = scenario.qrng
    if kind in ("point", "eps"):
        payload = scenario.point_queries(1)
    elif kind == "points8":
        payload = scenario.point_queries(8)
    elif kind == "slice":
        payload = float(rng.random())
    else:
        payload = (int(rng.integers(0, 112)), int(rng.integers(0, 112)),
                   float(rng.random()))
    return payload


def schedule(scenario: Scenario, rate: float, seconds: float):
    """``rate * seconds`` arrivals ``(offset, kind, payload)``, evenly
    spaced; each block of :data:`MIX_BLOCK` holds the mix exactly."""
    block = [kind for kind, w in MIX for _ in range(round(w * MIX_BLOCK))]
    n = int(round(rate * seconds))
    kinds = []
    while len(kinds) < n:
        kinds.extend(str(k) for k in scenario.qrng.permutation(block))
    return [((i + 0.5) / rate, kind, draw(scenario, kind))
            for i, kind in enumerate(kinds[:n])]


def _request(fe, scenario, kind, payload):
    from repro.core.grid import VoxelWindow

    if kind in ("point", "points8"):
        return fe.query_points(scenario.place(payload))
    if kind == "eps":
        return fe.query_points(scenario.place(payload), eps=EPS, seed=7)
    t0, _ = scenario.live_t_range()
    if kind == "slice":
        return fe.query_slice(int(t0 + payload * WINDOW_T))
    x0, y0, frac = payload
    t = int(t0 + frac * (WINDOW_T - 8))
    return fe.query_region(VoxelWindow(x0, x0 + 16, y0, y0 + 16, t, t + 8))


async def open_loop(fe, scenario, window, rate, seconds):
    """One phase: the arrival schedule plus the feed, both open loop."""
    records = Records()
    sched = schedule(scenario, rate, seconds)
    t_origin = time.perf_counter()
    feed = asyncio.ensure_future(feed_loop(
        fe, scenario, window, records, t_origin + seconds, t_origin))
    tasks = []
    for offset, kind, payload in sched:
        due = t_origin + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(timed(
            records, kind, due, _request(fe, scenario, kind, payload))))
    await asyncio.gather(*tasks)
    await feed
    return records, t_origin


async def saturate(fe, scenario, window, seconds):
    """Closed loop: each client sends its next single-point request as
    soon as the last one is answered; the feed keeps sliding."""
    records = Records()
    t_origin = time.perf_counter()
    until = t_origin + seconds
    feed = asyncio.ensure_future(feed_loop(
        fe, scenario, window, records, until, t_origin))

    async def client():
        while time.perf_counter() < until:
            q = scenario.point_queries(1)
            await timed(records, "point", time.perf_counter(),
                        _request(fe, scenario, "point", q))

    await asyncio.gather(*(client() for _ in range(SAT_CLIENTS)))
    wall = time.perf_counter() - t_origin
    await feed
    answered = sum(1 for r in records.rows if r[4] and r[0] != "slide")
    return records, answered / wall


def _step(records: Records, t_origin: float, seconds: float):
    """``(passed, achieved rate, point p99 ms)`` of one ladder step."""
    pts = records.latencies_ms(("point",))
    ok = [r for r in records.rows if r[4] and r[0] != "slide"]
    failed = any(not r[4] for r in records.rows)
    last_due = max((r[1] for r in records.rows), default=t_origin)
    last_done = max((r[3] for r in records.rows), default=t_origin)
    p99 = quantile(pts, 0.99)
    passed = (not failed and p99 <= P99_LIMIT_MS
              and last_done - last_due <= DRAIN_LIMIT_S)
    achieved = len(ok) / max(last_done - t_origin, seconds)
    return passed, achieved, p99


def sustained_rate(outcomes) -> float:
    """The highest ladder rate (the reference rate included) whose step
    passed; ``outcomes`` are ``(rate, passed, achieved, p99)`` in ladder
    order and the ladder stops at its first missed step.  0 when even
    the reference rate missed."""
    passed = [rate for rate, ok, _, _ in outcomes if ok]
    return passed[-1] if passed else 0.0


async def _build(scenario, grid):
    """Estimator, service and started front end over the initial window;
    returns them with the first answer."""
    from repro.core.incremental import IncrementalSTKDE
    from repro.serve import DensityService, TrafficFrontend

    inc = IncrementalSTKDE(grid)
    inc.add(scenario.window)
    svc = DensityService(inc, backend="auto")
    fe = TrafficFrontend(svc, max_delay_ms=2.0, max_batch=256,
                         max_pending_seconds=ADMISSION_BUDGET_S,
                         overload="defer")
    await fe.start()
    first = await fe.query_points(scenario.probe())
    return inc, svc, fe, float(first[0])


def check_final(svc, window: Window, scenario, phases: Phases,
                used_paths) -> dict:
    """Voxel-centre answers at the final version against the oracle,
    through every path the planner used (direct always)."""
    vox = scenario.check_voxels(window.events, CHECK_POINTS)
    q = vox + 0.5
    want = oracle.density(window.events, q, HS, HT)
    report = {}
    for path in sorted(set(used_paths) | {"direct"}):
        if path == "approx":
            dense = want > 0
            got = svc.query_points(q[dense], backend="approx", eps=EPS, seed=3)
            good = oracle.approx_ok(got, want[dense], EPS)
        else:
            got = svc.query_points(q, backend=path)
            good = oracle.mismatches(got, want, RTOL_EXACT) == 0
        report[f"points:{path}"] = good
        phases.verdict("check", good)
    # Bulk: a small region, both region paths.
    w, rq = region_around(vox[0])
    rwant = oracle.density(window.events, rq, HS, HT)
    for path in ("direct", "lookup"):
        got = svc.query_region(w, backend=path).data.ravel()
        good = oracle.mismatches(got, rwant, RTOL_EXACT) == 0
        report[f"region:{path}"] = good
        phases.verdict("check", good)
    return report


def mispicks(svc, batches, limit: int = 12):
    """Re-run sampled point batches on every arm, pinned; a batch is a
    mispick when a rejected arm measured faster than the planner's pick.
    Returns ``(mispicks, batches re-run)``."""
    mis = base = 0
    for q, eps in batches[:limit]:
        plans = []
        svc.cache.clear()
        svc.query_points(q, eps=eps, seed=7, plan_out=plans)
        if not plans:
            continue
        arms = ["direct", "lookup"] + (["approx"] if eps is not None else [])
        times = {}
        for arm in arms:
            runs = []
            for _ in range(3):
                svc.cache.clear()
                t0 = time.perf_counter()
                svc.query_points(q, backend=arm, eps=eps, seed=7)
                runs.append(time.perf_counter() - t0)
            times[arm] = median(runs)
        base += 1
        if min(times, key=times.get) != plans[0].backend:
            mis += 1
    return mis, base


def run(seed: int, seconds: float, tracer=None) -> dict:
    scenario = Scenario(seed, FEED_PERIOD_S)
    grid = make_grid()
    window = Window(scenario.window.copy())
    phases = Phases()

    async def main():
        setups = []
        for i in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inc, svc, fe, first = await _build(scenario, grid)
            setups.append(time.perf_counter() - t0)
            want = oracle.density(window.events, scenario.probe(), HS, HT)
            phases.verdict(
                "setup", not oracle.mismatches([first], want, RTOL_EXACT))
            if i < SETUP_REPEATS - 1:
                await fe.aclose()
        ref_s = REF_SHARE * seconds
        ref, ref_origin = await open_loop(fe, scenario, window, REF_RATE, ref_s)
        steps = [(REF_RATE, ref, ref_origin, ref_s)]
        sat, sat_rate = await saturate(fe, scenario, window,
                                       SAT_SHARE * seconds)
        # Read before the ladder: an overloaded step's backlog is not
        # the steady footprint.
        rss = peak_rss_mb()
        for rate in LADDER:
            if not _step(*steps[-1][1:])[0]:
                break
            step_s = STEP_SHARE * seconds
            rec, origin = await open_loop(fe, scenario, window, rate, step_s)
            steps.append((rate, rec, origin, step_s))
        fe_stats = fe.frontend_stats()
        await fe.aclose()
        return inc, svc, setups, steps, sat, sat_rate, rss, fe_stats

    inc, svc, setups, steps, sat, sat_rate, rss, fe_stats = asyncio.run(main())
    records_into(phases, "saturation", sat)
    for rate, rec, _, _ in steps:
        phase = "reference" if rate == REF_RATE else f"ladder@{int(rate)}"
        records_into(phases, phase, rec)

    ref = steps[0][1]
    stats = svc.stats()
    used = {k.split(":")[1] for k in stats["planner_decisions"]
            if k.startswith("points:")}
    checks = check_final(svc, window, scenario, phases, used)
    mis = mispicks(svc, tracer.batches) if tracer is not None else (0, 0)

    points = ref.latencies_ms(("point",))
    bulk = ref.latencies_ms(("slice", "region"))
    fresh = ref.latencies_ms(("slide",))
    lag = ref.lag_ms()
    outcomes = [(rate,) + _step(rec, o, sec) for rate, rec, o, sec in steps]
    sustained = sustained_rate(outcomes)
    ladder_txt = ", ".join(
        f"{int(r)}:{'ok' if ok else 'miss'}(p99 {p99:.1f} ms, "
        f"{got:.0f}/s served)" for r, ok, got, p99 in outcomes)
    model = svc.planner().model.machine
    return {
        "e2e": {
            "setup_s": (median(setups), len(setups)),
            "latency_p50_ms": (median(points), len(points)),
            "latency_tail_ms": (quantile(points, TAIL_PCT / 100), len(points)),
            "throughput_per_s": (sat_rate, len(sat.rows)),
            "peak_rss_mb": (rss, 1),
        },
        "named": {
            "setup_s": (median(setups), "s", len(setups)),
            "point_p50_ms": (median(points), "ms", len(points)),
            "point_p99_ms": (quantile(points, 0.99), "ms", len(points)),
            "bulk_p50_ms": (median(bulk), "ms", len(bulk)),
            "sustained_rps": (sustained, "1/s", len(steps)),
            "saturation_rps": (sat_rate, "1/s", len(sat.rows)),
            "freshness_p50_ms": (median(fresh), "ms", len(fresh)),
            "generator_lag_ms": (quantile(lag, 0.99), "ms p99", len(lag)),
            "peak_rss_mb": (rss, "MB", 1),
        },
        "extra": {"ladder": ladder_txt, "checks": checks},
        "phases": phases,
        "decisions": {
            "planner": stats["planner_decisions"],
            "compute": stats["compute"]["chosen"],
        },
        "machine_json": model.to_json(),
        "service_stats": stats,
        "inc_counter": inc.counter,
        "service_madds": svc.counter.madds,
        "frontend_stats": fe_stats,
        # The reference phase, whose requests the latency metrics time.
        "client_requests": [
            (("point" if r[0] in ("point", "points8", "eps") else r[0]),) + r[1:]
            for r in ref.rows
        ],
        "call_kinds": {"point": ["service.query_points"],
                       "slide": ["incremental.slide"]},
        "mispick": mis,
    }
