"""Seeded inputs and load generation shared by the live workloads.

The live window is the ``BENCH_query`` geometry: a 128 x 128 x 64 voxel
grid, ``hs = 3``, ``ht = 2``, 100k events in five spatial clusters
(standard deviation 8% of the grid side), spread uniformly over the
first :data:`WINDOW_T` time units.  The feed advances the window by
:data:`FEED_T_PER_S` time units per second of wall time, in one slide
every ``period`` seconds: events older than the new horizon retire and
a fresh slab of events arrives at the leading edge, so the window keeps
its size.  Rates, periods and step sizes are constants: nothing offered
depends on a capacity measured in the same run.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import oracle

GRID_VOXELS = (128, 128, 64)
HS, HT = 3.0, 2.0
N_EVENTS = 100_000
WINDOW_T = 48.0
#: Window time units the feed advances per second of wall time.
FEED_T_PER_S = 0.4
#: The leading edge never passes this time, so slides stay on the grid.
MAX_T = GRID_VOXELS[2] - 2 * HT
#: Cluster centres as fractions of the grid side.  They are fixed, not
#: drawn from the seed: the seed varies the samples, never the shape of
#: the load, so runs with different seeds measure the same workload.
CENTRES = ((0.3, 0.3), (0.7, 0.35), (0.5, 0.6), (0.25, 0.75), (0.75, 0.75))
CLUSTER_SIGMA = 0.08
#: Per-request timeout; an answer later than this is a failed operation.
REQUEST_TIMEOUT_S = 10.0
#: Voxel window the final checks extract and compare in full.
CHECK_REGION = (8, 8, 4)


def make_grid():
    from repro.core.grid import DomainSpec, GridSpec

    return GridSpec(DomainSpec.from_voxels(*GRID_VOXELS), hs=HS, ht=HT)


class Scenario:
    """Every input a live run uses, drawn from one seed."""

    def __init__(self, seed: int, feed_period_s: float) -> None:
        self.feed_period_s = feed_period_s
        self.step_t = FEED_T_PER_S * feed_period_s
        self.rng = np.random.default_rng(seed)
        # Queries draw from their own stream, so the feed's draws never
        # shift them whatever the interleaving.
        self.qrng = np.random.default_rng(seed + 7919)
        self.centres = np.array(CENTRES) * GRID_VOXELS[:2]
        self.window = self.events(N_EVENTS, 0.0, WINDOW_T)
        self.rate_per_t = N_EVENTS / WINDOW_T
        self.slides = 0

    def xy(self, n: int, rng=None) -> np.ndarray:
        """``n`` spatial positions around the cluster centres."""
        rng = self.rng if rng is None else rng
        span = np.array(GRID_VOXELS[:2], dtype=np.float64)
        k = rng.integers(0, len(CENTRES), size=n)
        pts = self.centres[k] + rng.normal(size=(n, 2)) * CLUSTER_SIGMA * span
        return np.clip(pts, 0.0, span * (1 - 1e-9))

    def events(self, n: int, t0: float, t1: float) -> np.ndarray:
        return np.column_stack((self.xy(n), self.rng.uniform(t0, t1, size=n)))

    # ------------------------------------------------------------------
    def horizon(self, k: int) -> float:
        return k * self.step_t

    def next_slide(self) -> Optional[Tuple[np.ndarray, float]]:
        """The next feed batch and horizon, or ``None`` once the leading
        edge would leave the grid."""
        k = self.slides + 1
        lead = WINDOW_T + k * self.step_t
        if lead > MAX_T:
            return None
        n = int(round(self.rate_per_t * self.step_t))
        batch = self.events(n, lead - self.step_t, lead)
        self.slides = k
        return batch, self.horizon(k)

    def live_t_range(self) -> Tuple[float, float]:
        h = self.horizon(self.slides)
        return h, h + WINDOW_T

    # ------------------------------------------------------------------
    def point_queries(self, m: int) -> np.ndarray:
        """Queries where the live window is: clustered in space; time as a
        fraction of the window, placed by :meth:`place` when sent."""
        return np.column_stack(
            (self.xy(m, self.qrng), self.qrng.random(m)))

    def place(self, q: np.ndarray) -> np.ndarray:
        """Map window fractions to absolute times of the current window."""
        t0, _ = self.live_t_range()
        out = q.copy()
        out[:, 2] = t0 + q[:, 2] * WINDOW_T
        return out

    def check_voxels(self, window: np.ndarray, k: int) -> np.ndarray:
        """``k`` voxel indices, half at live events, half anywhere live."""
        vox = np.floor(window).astype(np.int64)
        return oracle.sample_voxels(self.rng, GRID_VOXELS, vox, k)

    def probe(self) -> np.ndarray:
        """The first answer's query: the centre of the voxel at the first
        cluster's centre, mid-window."""
        c = np.floor(np.append(self.centres[0], WINDOW_T / 2)) + 0.5
        return c.reshape(1, 3)


def region_around(voxel, shape=CHECK_REGION):
    """A ``shape`` voxel window near ``voxel``, inside the grid, and the
    centres of its voxels in C order (the oracle's queries)."""
    from repro.core.grid import VoxelWindow

    lo = [int(min(max(voxel[i] - shape[i] // 2, 0), GRID_VOXELS[i] - shape[i]))
          for i in range(3)]
    w = VoxelWindow(lo[0], lo[0] + shape[0], lo[1], lo[1] + shape[1],
                    lo[2], lo[2] + shape[2])
    ii, jj, kk = np.meshgrid(np.arange(w.x0, w.x1), np.arange(w.y0, w.y1),
                             np.arange(w.t0, w.t1), indexing="ij")
    return w, np.column_stack((ii.ravel(), jj.ravel(), kk.ravel())) + 0.5


class Window:
    """The benchmark's own copy of the live events, for the oracle."""

    def __init__(self, events: np.ndarray) -> None:
        self.events = events

    def slide(self, batch: np.ndarray, horizon: float) -> None:
        keep = self.events[self.events[:, 2] >= horizon]
        self.events = np.vstack((keep, batch))


class Records:
    """Per-request outcomes: ``(kind, due, sent, done, ok)``."""

    def __init__(self) -> None:
        self.rows: List[tuple] = []
        self.failures: Dict[str, int] = {}

    def add(self, kind, due, sent, done, ok, reason=None) -> None:
        self.rows.append((kind, due, sent, done, ok))
        if not ok:
            self.failures[reason] = self.failures.get(reason, 0) + 1

    def latencies_ms(self, kinds) -> List[float]:
        return [(r[3] - r[1]) * 1e3 for r in self.rows if r[0] in kinds and r[4]]

    def lag_ms(self) -> List[float]:
        return [(r[2] - r[1]) * 1e3 for r in self.rows]


async def timed(records: Records, kind: str, due: float, coro) -> None:
    """Await one request; every failure type counts against it."""
    from repro.serve import Overloaded, ServeError

    sent = time.perf_counter()
    try:
        await asyncio.wait_for(coro, REQUEST_TIMEOUT_S)
    except Overloaded:
        records.add(kind, due, sent, time.perf_counter(), False, "shed")
    except ServeError as exc:
        records.add(kind, due, sent, time.perf_counter(), False,
                    type(exc).__name__)
    except asyncio.TimeoutError:
        records.add(kind, due, sent, time.perf_counter(), False, "timeout")
    else:
        records.add(kind, due, sent, time.perf_counter(), True)


async def _slide(fe, window: Window, batch, horizon) -> None:
    await fe.slide_window(batch, horizon)
    window.slide(batch, horizon)  # the oracle's copy follows applied slides


async def feed_loop(fe, scenario: Scenario, window: Window, records: Records,
                    until: float, t_origin: float) -> None:
    """Slide every ``scenario.feed_period_s`` until ``until``
    (perf_counter); each slide is issued when due and timed from then."""
    tasks = []
    k = 0
    while True:
        due = t_origin + k * scenario.feed_period_s
        if due >= until:
            break
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        nxt = scenario.next_slide()
        if nxt is None:
            break
        tasks.append(asyncio.ensure_future(
            timed(records, "slide", due, _slide(fe, window, *nxt))))
        k += 1
    await asyncio.gather(*tasks)


def records_into(phases, phase: str, records: Records) -> None:
    """Fold one phase's request outcomes into the run's accounting."""
    for row in records.rows:
        phases.ok(phase)
    for reason, n in records.failures.items():
        phases.failed[phase] += n
        phases.reasons[reason] = phases.reasons.get(reason, 0) + n
