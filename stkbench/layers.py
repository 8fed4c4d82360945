"""Per-layer metrics of a traced run, grouped by the module they measure.

Every name in :data:`PER_LAYER` is reported on every workload; a layer
the workload never enters reads 0 (its calls or rows say so).
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Tuple

from .common import quantile
from .tracing import Tracer, union_length

ALGORITHMS = ("pb-sym", "pb-sym-dr", "pb-sym-dd", "pb-sym-pd",
              "pb-sym-pd-sched", "pb-sym-pd-rep")
STRATEGIES = ("pb-sym-threads",) + ALGORITHMS[1:]
DECISIONS = ("points.direct", "points.lookup", "points.approx",
             "region.direct", "region.lookup",
             "scatter.sharded", "scatter.local")
E2E = ("setup_s", "latency_p50_ms", "latency_tail_ms", "throughput_per_s",
       "peak_rss_mb")
E2E_UNITS = {"setup_s": "s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
             "throughput_per_s": "1/s", "peak_rss_mb": "MB"}

#: ``(name, unit, better)`` of every per-layer metric, in report order.
#: Time, work and waste are better lower; answers served and cache hits
#: higher.  Decision tallies have no better side and are marked higher
#: only because the field is required.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    # analysis.model
    ("model.select_s", "s", "lower"),
    ("model.calibrate_s", "s", "lower"),
    ("model.calibrate_calls", "count", "lower"),
    *((f"model.choice.{a}", "count", "higher") for a in STRATEGIES),
    # algorithms / parallel
    *((f"parallel.run_s.{a}", "s", "lower") for a in ALGORITHMS),
    # core.stamping / core.backends
    ("stamping.s", "s", "lower"),
    ("stamping.points", "count", "lower"),
    ("stamping.madds", "count", "lower"),
    ("stamping.init_writes", "count", "lower"),
    # core.incremental
    ("incremental.add_s", "s", "lower"),
    ("incremental.slide_s", "s", "lower"),
    ("incremental.restamp_points", "count", "lower"),
    ("incremental.slabs_retired", "count", "higher"),
    ("incremental.volume_reads", "count", "higher"),
    ("incremental.volume_reads_per_mutation", "ratio", "higher"),
    # serve.index
    ("index.build_s", "s", "lower"),
    ("index.sync_s", "s", "lower"),
    ("index.events_bucketed", "count", "lower"),
    ("index.rows_compacted", "count", "lower"),
    ("index.segments", "count", "lower"),
    # serve.calibrate
    ("calibrate.serving_s", "s", "lower"),
    ("calibrate.ipc_s", "s", "lower"),
    # serve.planner
    ("planner.plan_s", "s", "lower"),
    ("planner.calls", "count", "lower"),
    *((f"planner.decisions.{d}", "count", "higher") for d in DECISIONS),
    ("planner.pred_ratio_p50", "ratio", "lower"),
    ("planner.pred_ratio_p95", "ratio", "lower"),
    ("planner.pred_ratio_n", "count", "higher"),
    ("planner.mispick_frac", "ratio", "lower"),
    ("planner.mispick_base", "count", "higher"),
    # serve.engine
    ("engine.direct_s", "s", "lower"),
    ("engine.approx_s", "s", "lower"),
    ("engine.lookup_s", "s", "lower"),
    ("engine.region_s", "s", "lower"),
    ("engine.rows.direct", "count", "higher"),
    ("engine.rows.approx", "count", "higher"),
    ("engine.rows.lookup", "count", "higher"),
    ("engine.madds", "count", "lower"),
    # serve.service / serve.cache
    ("service.materialize_s", "s", "lower"),
    ("service.volume_builds", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.hits", "count", "higher"),
    ("cache.lookups", "count", "higher"),
    ("cache.evictions", "count", "lower"),
    # serve.frontend
    ("frontend.queue_wait_p50_ms", "ms", "lower"),
    ("frontend.queue_wait_p99_ms", "ms", "lower"),
    ("frontend.service_p50_ms", "ms", "lower"),
    ("frontend.batch_rows_mean", "count", "higher"),
    ("frontend.shed", "count", "lower"),
    ("frontend.deferred", "count", "lower"),
    # serve.supervisor / serve.worker / serve.shard
    ("shard.scatter_s", "s", "lower"),
    ("shard.mutate_s", "s", "lower"),
    ("shard.messages", "count", "lower"),
    ("shard.rows_shipped", "count", "lower"),
    ("shard.restarts", "count", "lower"),
    ("shard.retries", "count", "lower"),
    ("worker.events_bucketed", "count", "lower"),
    ("worker.query_cohorts", "count", "higher"),
    # the trace itself
    ("trace.spans", "count", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
    *((f"trace.overhead.{m}", E2E_UNITS[m], "lower") for m in E2E),
)


def match_requests(requests: List[tuple], calls: List[tuple]) -> List[tuple]:
    """Pair each client request with the service call that answered it.

    ``requests`` are ``(kind, due, sent, done, ok)``; ``calls`` are the
    service-thread spans ``(start, end)`` of the same kind, which run one
    at a time.  The answering call is the last one to end before the
    request completed, provided it started after the request was sent.
    Returns ``(request, call or None)``.
    """
    calls = sorted(calls)
    ends = [c[1] for c in calls]
    out = []
    for req in requests:
        i = bisect.bisect_right(ends, req[3]) - 1
        call = calls[i] if i >= 0 and calls[i][0] >= req[2] else None
        out.append((req, call))
    return out


def unattributed(tracer: Tracer, result: dict) -> float:
    """Share of request wall time that no layer span or measured queue
    covers.  paper-volumes: ``stkde.estimate`` time outside its child
    spans.  Live workloads: from when a request was due to when its
    answer arrived, the time after the answering service call ended."""
    requests = result.get("client_requests")
    if requests is None:
        spans = tracer.by_name("stkde.estimate")
        kids: Dict[int, list] = {}
        for s in tracer.spans:
            if s[4] is not None:
                kids.setdefault(s[4], []).append((s[2], s[3]))
        total = sum(s[3] - s[2] for s in spans)
        covered = sum(union_length(kids.get(s[0], ())) for s in spans)
        return (total - covered) / total if total > 0 else 0.0
    total = miss = 0.0
    for kind, call_names in result["call_kinds"].items():
        calls = [(s[2], s[3]) for n in call_names for s in tracer.by_name(n)]
        reqs = [r for r in requests if r[0] == kind and r[4]]
        for req, call in match_requests(reqs, calls):
            total += req[3] - req[1]
            miss += req[3] - (call[1] if call else req[2])
    return miss / total if total > 0 else 0.0


def per_layer(tracer: Tracer, result: dict) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from a traced workload run."""
    T = tracer
    c = T.counts
    m: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
    m["model.select_s"] = T.total("model.select")
    m["model.calibrate_s"] = T.total("model.calibrate")
    m["model.calibrate_calls"] = c.get("model.calibrate_calls", 0)
    for a in STRATEGIES:
        m[f"model.choice.{a}"] = c.get(f"model.choice.{a}", 0)
    for a in ALGORITHMS:
        m[f"parallel.run_s.{a}"] = sum(
            s[3] - s[2] for s in T.by_name(f"parallel.run.{a}"))
    m["stamping.s"] = T.total("stamping.")
    m["stamping.points"] = c.get("stamping.points", 0)
    work = result.get("counter")  # paper-volumes' estimate counter
    if work is not None:
        m["stamping.madds"] = work.madds
        m["stamping.init_writes"] = work.init_writes

    inc = result.get("inc_counter")
    if inc is not None:
        m["stamping.madds"] = inc.madds
        m["stamping.init_writes"] = inc.init_writes
        m["incremental.restamp_points"] = inc.slab_restamp_points
        m["incremental.slabs_retired"] = inc.slab_buffers_retired
    m["incremental.add_s"] = T.total("incremental.add")
    m["incremental.slide_s"] = T.total("incremental.slide")
    reads = c.get("incremental.volume_reads", 0)
    mutations = len(T.by_name("incremental.add")) + len(
        T.by_name("incremental.slide")) + len(T.by_name("incremental.remove"))
    m["incremental.volume_reads"] = reads
    m["incremental.volume_reads_per_mutation"] = (
        reads / mutations if mutations else 0.0)

    m["index.build_s"] = T.total("index.build")
    m["index.sync_s"] = T.total("index.sync")
    m["calibrate.serving_s"] = T.total("calibrate.serving")
    m["calibrate.ipc_s"] = T.total("calibrate.ipc")
    m["planner.plan_s"] = T.total("planner.")
    m["planner.calls"] = c.get("planner.calls", 0)
    m["engine.direct_s"] = T.total("engine.direct")
    m["engine.approx_s"] = T.total("engine.approx")
    m["engine.lookup_s"] = T.total("engine.lookup")
    m["engine.region_s"] = T.total("engine.region")
    for path in ("direct", "approx", "lookup"):
        m[f"engine.rows.{path}"] = c.get(f"engine.rows.{path}", 0)
    m["service.materialize_s"] = T.total("service.materialize")

    stats = result.get("service_stats")
    if stats is not None:
        w = stats["work"]
        m["index.events_bucketed"] = w["index_events_bucketed"]
        m["index.rows_compacted"] = w["index_rows_compacted"]
        idx = stats.get("index") or {}
        m["index.segments"] = idx.get("segments", 0)
        m["service.volume_builds"] = stats.get("volume_builds", 0)
        cache = stats.get("cache") or {}
        hits = cache.get("hits", 0)
        lookups = hits + cache.get("misses", 0)
        m["cache.hits"] = hits
        m["cache.lookups"] = lookups
        m["cache.hit_ratio"] = hits / lookups if lookups else 0.0
        m["cache.evictions"] = cache.get("evictions", 0)
        for key, n in stats.get("planner_decisions", {}).items():
            name = "planner.decisions." + key.replace(":", ".")
            if name in m:
                m[name] = n
        m["engine.madds"] = result.get("service_madds", w.get("madds", 0))
        m["shard.messages"] = w.get("shard_messages", 0)
        m["shard.rows_shipped"] = w.get("shard_rows_shipped", 0)
        m["shard.restarts"] = w.get("shard_restarts", 0)
        m["shard.retries"] = w.get("requests_retried", 0)
        for ws in stats.get("workers", ()):
            ww = ws.get("work", {})
            m["worker.events_bucketed"] += ww.get("index_events_bucketed", 0)
            m["worker.query_cohorts"] += ww.get("query_cohorts", 0)

    ratios = result.get("pred_ratios", [])
    m["planner.pred_ratio_n"] = len(ratios)
    if ratios:
        m["planner.pred_ratio_p50"] = quantile(ratios, 0.5)
        m["planner.pred_ratio_p95"] = quantile(ratios, 0.95)
    mis, base = result.get("mispick", (0, 0))
    m["planner.mispick_base"] = base
    m["planner.mispick_frac"] = mis / base if base else 0.0

    fe = result.get("frontend_stats")
    if fe is not None:
        m["frontend.batch_rows_mean"] = fe["mean_batch_rows"]
        m["frontend.shed"] = fe["shed"]
        m["frontend.deferred"] = fe["deferred"]
        point_calls = [
            (s[2], s[3]) for n in result["call_kinds"]["point"]
            for s in T.by_name(n)
        ]
        reqs = [r for r in result["client_requests"]
                if r[0] == "point" and r[4]]
        waits, service = [], []
        for req, call in match_requests(reqs, point_calls):
            if call is not None:
                waits.append((call[0] - req[2]) * 1e3)
                service.append((call[1] - call[0]) * 1e3)
        if waits:
            m["frontend.queue_wait_p50_ms"] = quantile(waits, 0.5)
            m["frontend.queue_wait_p99_ms"] = quantile(waits, 0.99)
            m["frontend.service_p50_ms"] = quantile(service, 0.5)

    m["shard.scatter_s"] = T.total("shard.scatter") + T.total("shard.region")
    m["shard.mutate_s"] = T.total("shard.mutate")
    m["trace.spans"] = len(T.spans)
    m["trace.unattributed_frac"] = unattributed(T, result)
    return m


def pred_ratios(tracer: Tracer) -> List[float]:
    """Measured engine seconds over the chosen arm's predicted seconds,
    for every point plan whose request ran exactly one engine call."""
    engine_by_rid: Dict[int, List[tuple]] = {}
    for s in tracer.spans:
        if s[1] in ("engine.direct", "engine.approx", "engine.lookup"):
            engine_by_rid.setdefault(s[5], []).append(s)
    out = []
    for rid, plan in tracer.plans:
        if getattr(plan, "kind", None) != "points" or rid is None:
            continue
        calls = engine_by_rid.get(rid, [])
        if len(calls) != 1 or calls[0][1] != f"engine.{plan.backend}":
            continue
        pred = {"direct": plan.direct_seconds, "lookup": plan.lookup_seconds,
                "approx": plan.approx_seconds}[plan.backend]
        if pred > 0:
            out.append((calls[0][3] - calls[0][2]) / pred)
    return out
