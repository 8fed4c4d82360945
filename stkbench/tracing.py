"""Span recorder and the wrappers that attach it to each layer's entry points.

Nothing under ``src/`` is instrumented: :func:`instrument` swaps public
entry points (module functions, class methods) for timing wrappers and
:meth:`Patches.restore` puts the originals back.  A span is
``(id, name, start, end, parent, request id, thread)``; a span opened
with no open parent on its thread starts a new request id, and its
children inherit it.  Spans stay in memory and are written out once, at
the end of the run.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


#: Spans whose callees are not traced.
LEAF_PREFIXES = ("model.calibrate", "calibrate.")
#: Every how many point batches one is kept for the planner re-runs.
SAMPLE_EVERY = 16


class Tracer:
    """Thread-safe in-memory span and counter store."""

    def __init__(self) -> None:
        self.spans: List[Tuple] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: ``(request id, plan)`` for every plan the planner returned.
        self.plans: List[Tuple[Optional[int], object]] = []
        #: ``(queries, eps)`` of every ``SAMPLE_EVERY``-th point batch a
        #: single-process service answered, for the planner re-runs.
        self.batches: List[Tuple[object, Optional[float]]] = []
        self._batch_calls = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``; returns its result.

        Calibration spans are leaves: the probes they run through the
        engine are calibration time, not engine or stamping work."""
        if self.in_leaf():
            return fn(*args, **kwargs)
        stack = self._stack()
        sid = next(self._ids)
        parent, rid = (stack[-1][:2] if stack else (None, sid))
        stack.append((sid, rid, name.startswith(LEAF_PREFIXES)))
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append(
                (sid, name, t0, t1, parent, rid, threading.get_ident())
            )

    def in_leaf(self) -> bool:
        stack = self._stack()
        return bool(stack) and stack[-1][2]

    def request_id(self) -> Optional[int]:
        """Request id of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    def keep_batch(self, queries, eps=None) -> None:
        """Keep a copy of every ``SAMPLE_EVERY``-th point batch."""
        with self._lock:
            self._batch_calls += 1
            if self._batch_calls % SAMPLE_EVERY == 0:
                self.batches.append((queries.copy(), eps))

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    # ------------------------------------------------------------------
    def by_name(self, name: str) -> List[Tuple]:
        return [s for s in self.spans if s[1] == name]

    def total(self, prefix: str) -> float:
        """Summed duration of spans whose name starts with ``prefix``."""
        return sum(s[3] - s[2] for s in self.spans if s[1].startswith(prefix))

    def self_times(self) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (calls, total s, self s)``; self time is a span's
        duration minus the union of its direct children's intervals."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            if s[4] is not None:
                children[s[4]].append((s[2], s[3]))
        out: Dict[str, List[float]] = {}
        for sid, name, t0, t1, _p, _r, _th in self.spans:
            covered = union_length(children.get(sid, ()))
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += max(0.0, (t1 - t0) - covered)
        return {k: (int(v[0]), v[1], v[2]) for k, v in out.items()}

    def dump(self, path, extra: Optional[dict] = None) -> None:
        """Write every span (and ``extra``) as JSON."""
        base = min((s[2] for s in self.spans), default=0.0)
        payload = {
            "fields": ["id", "name", "start_s", "end_s", "parent",
                       "request_id", "thread"],
            "spans": [
                [sid, name, round(t0 - base, 9), round(t1 - base, 9),
                 parent, rid, th]
                for sid, name, t0, t1, parent, rid, th in self.spans
            ],
            "counts": dict(self.counts),
        }
        if extra:
            payload.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Patches:
    """Attribute swaps that :meth:`restore` undoes in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, original: Callable, wrapper: Callable) -> None:
        """Replace ``original`` in every ``repro`` module that bound it
        by name (``from x import f`` copies the reference)."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self.set(mod, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)


def _span_fn(tracer: Tracer, name: str, fn: Callable,
             on_call: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.in_leaf():
            return fn(*args, **kwargs)
        if on_call is not None:
            on_call(*args, **kwargs)
        return tracer.call(name, fn, *args, **kwargs)

    return wrapper


def instrument(tracer: Tracer) -> Patches:
    """Wrap every layer's public entry points with spans and counters.

    Layers and span names (the module each belongs to in brackets):

    * ``stkde.estimate`` [core.stkde] — one paper-volumes request;
    * ``model.select`` / ``model.calibrate`` [analysis.model];
    * ``parallel.run.<algorithm>`` [algorithms / parallel];
    * ``stamping.stamp_batch`` [core.stamping];
    * ``incremental.add|remove|slide|volume`` [core.incremental];
    * ``index.build`` / ``index.sync`` [serve.index];
    * ``calibrate.serving`` / ``calibrate.ipc`` [serve.calibrate];
    * ``planner.plan_points|plan_region|plan_scatter`` [serve.planner];
    * ``engine.direct|approx|lookup|region|region_view`` [serve.engine];
    * ``service.query_points|query_region|materialize`` [serve.service];
    * ``shard.scatter`` / ``shard.region`` / ``shard.mutate``
      [serve.service sharded facade over serve.supervisor / worker].
    """
    from repro.algorithms import base as alg_base
    from repro.analysis import model as model_mod
    from repro.core import incremental as inc_mod
    from repro.core import stamping, stkde
    from repro.serve import calibrate, engine, index, planner, service

    p = Patches()
    T = tracer

    # analysis.model
    orig_select = model_mod.select_strategy

    def select(*args, **kwargs):
        best, ranked = T.call("model.select", orig_select, *args, **kwargs)
        T.count(f"model.choice.{best.algorithm}")
        return best, ranked

    p.function(orig_select, select)
    orig_cal = model_mod.MachineModel.__dict__["calibrate"].__func__

    def calibrate_machine(cls, *args, **kwargs):
        if not T.in_leaf():
            T.count("model.calibrate_calls")
        return T.call("model.calibrate", orig_cal, cls, *args, **kwargs)

    p.set(model_mod.MachineModel, "calibrate", classmethod(calibrate_machine))

    # core.stkde / algorithms / parallel
    p.set(stkde.STKDE, "estimate",
          _span_fn(T, "stkde.estimate", stkde.STKDE.estimate))
    orig_get = alg_base.get_algorithm

    def get_algorithm(name):
        fn = orig_get(name)
        return _span_fn(T, f"parallel.run.{name}", fn)

    p.set(stkde, "get_algorithm", get_algorithm)

    # core.stamping
    def count_stamp(vol, grid, kernel, coords, *a, **k):
        T.count("stamping.points", int(coords.shape[0]))

    p.function(stamping.stamp_batch,
               _span_fn(T, "stamping.stamp_batch", stamping.stamp_batch,
                        count_stamp))

    # core.incremental
    Inc = inc_mod.IncrementalSTKDE
    p.set(Inc, "add", _span_fn(T, "incremental.add", Inc.add))
    p.set(Inc, "remove", _span_fn(T, "incremental.remove", Inc.remove))
    p.set(Inc, "slide_window",
          _span_fn(T, "incremental.slide", Inc.slide_window))
    p.set(Inc, "volume", _span_fn(
        T, "incremental.volume", Inc.volume,
        lambda *a, **k: T.count("incremental.volume_reads")))

    # serve.index
    BI = index.BucketIndex
    orig_sync = BI.sync

    def sync(self, *args, **kwargs):
        name = "index.build" if self.n == 0 else "index.sync"
        return T.call(name, orig_sync, self, *args, **kwargs)

    p.set(BI, "sync", sync)
    p.set(BI, "__init__", _span_fn(T, "index.build", BI.__init__))

    # serve.calibrate
    p.function(calibrate.calibrate_serving, _span_fn(
        T, "calibrate.serving", calibrate.calibrate_serving))
    p.function(calibrate.calibrate_ipc, _span_fn(
        T, "calibrate.ipc", calibrate.calibrate_ipc))

    # serve.planner: keep each returned plan for the prediction ratios
    QP = planner.QueryPlanner
    for meth in ("plan_points", "plan_region", "plan_scatter"):
        orig = QP.__dict__[meth]

        def plan(self, *args, _orig=orig, _name=meth, **kwargs):
            out = T.call(f"planner.{_name}", _orig, self, *args, **kwargs)
            T.count("planner.calls")
            T.plans.append((T.request_id(), out))
            return out

        p.set(QP, meth, plan)

    # serve.engine
    def rows(path):
        def note(*args, **kwargs):
            q = args[1] if path != "lookup" else args[2]
            T.count(f"engine.rows.{path}", int(q.shape[0]))
        return note

    p.function(engine.direct_sum, _span_fn(
        T, "engine.direct", engine.direct_sum, rows("direct")))
    p.function(engine.approx_sum, _span_fn(
        T, "engine.approx", engine.approx_sum, rows("approx")))
    p.function(engine.sample_volume, _span_fn(
        T, "engine.lookup", engine.sample_volume, rows("lookup")))
    p.function(engine.direct_region, _span_fn(
        T, "engine.region", engine.direct_region))
    p.function(engine.region_view, _span_fn(
        T, "engine.region_view", engine.region_view))

    # serve.service (single process) and the sharded facade
    DS = service.DensityService
    p.set(DS, "query_points", _span_fn(
        T, "service.query_points", DS.query_points,
        lambda self, q, **kw: T.keep_batch(q, kw.get("eps"))))
    p.set(DS, "query_region",
          _span_fn(T, "service.query_region", DS.query_region))
    p.set(DS, "materialize",
          _span_fn(T, "service.materialize", DS.materialize))
    SS = service.ShardedDensityService
    p.set(SS, "query_points", _span_fn(T, "shard.scatter", SS.query_points))
    p.set(SS, "query_region", _span_fn(T, "shard.region", SS.query_region))
    for meth in ("add", "remove", "slide_window"):
        p.set(SS, meth, _span_fn(T, "shard.mutate", SS.__dict__[meth]))
    return p

