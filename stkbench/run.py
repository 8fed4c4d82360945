"""STKDE repository benchmark: one command, three workloads.

Run from the repository root::

    python3 stkbench/run.py --workload paper-volumes --seed 1 --seconds 20 --trace 0

Workloads (see ``stkbench/NOTES.md`` for why each exists):

* ``paper-volumes`` — the 21 Table 2 instances through ``STKDE.estimate``;
* ``live-mixed`` — an open loop of mixed traffic plus a sliding feed
  through ``TrafficFrontend`` over a single-process ``DensityService``;
* ``sharded-feed`` — closed-loop 256-row batches plus the same feed
  through ``TrafficFrontend`` over a 2-worker ``ShardedDensityService``.

``--trace 0`` measures and prints the end-to-end metrics.  ``--trace 1``
runs the workload untraced, then again with every layer's entry points
wrapped in spans, and prints the per-layer metrics, a self-time table,
the tracing overhead and the share of request time no layer covers;
the spans are written to ``.stkbench_out/``.  Every answer checked
against the oracle that disagrees counts as a failed operation, and any
such failure makes the exit code 1.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

WORKLOADS = ("paper-volumes", "live-mixed", "sharded-feed")
OUT_DIR = Path(".stkbench_out")


def _load_package() -> None:
    """Import the package under test from ``src/`` of the working tree."""
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"stkbench: no package source at {src}/repro; run from the "
            "repository root\n"
        )
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p
    )


def _workload(name: str):
    from . import live_mixed, paper_volumes, sharded_feed

    return {"paper-volumes": paper_volumes, "live-mixed": live_mixed,
            "sharded-feed": sharded_feed}[name]


def _print_e2e(name: str, result: dict, label: str) -> None:
    from .layers import E2E, E2E_UNITS

    print(f"[{name}] end-to-end ({label})")
    for metric in E2E:
        value, n = result["e2e"][metric]
        print(f"  {metric:<28s} {value:>14.4f} {E2E_UNITS[metric]:<6s} n={n}")
    print(f"[{name}] workload metrics")
    for metric, (value, unit, n) in result["named"].items():
        print(f"  {metric:<28s} {value:>14.4f} {unit:<6s} n={n}")
    ph = result["phases"]
    print(f"[{name}] operations per phase (attempted / failed)")
    for phase, att in ph.attempted.items():
        print(f"  {phase:<28s} {att:>8d} / {ph.failed[phase]}")
    if ph.reasons:
        print(f"  failure reasons: {json.dumps(ph.reasons, sort_keys=True)}")
    for key, val in result.get("extra", {}).items():
        print(f"  {key:<28s} {val}")


def _print_self_times(tracer) -> None:
    rows = sorted(tracer.self_times().items(), key=lambda kv: -kv[1][2])
    print("per-layer self time (span name, calls, total s, self s)")
    for name, (calls, total, self_s) in rows:
        print(f"  {name:<30s} {calls:>8d} {total:>10.4f} {self_s:>10.4f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _load_package()
    from .common import stop_child_processes

    # A terminated run unwinds like an interrupted one, so the shard
    # workers it started are stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return _run(args)
    finally:
        stop_child_processes()


def _run(args) -> int:
    from .common import cpu_steal_jiffies, fingerprint, host_probe_ms
    from .layers import E2E, E2E_UNITS, PER_LAYER, per_layer, pred_ratios
    from .tracing import Tracer, instrument

    wl = _workload(args.workload)
    t_start = time.perf_counter()
    steal0 = cpu_steal_jiffies()
    probe_start = host_probe_ms()
    base = wl.run(args.seed, args.seconds, tracer=None)
    _print_e2e(args.workload, base, "untraced")
    results = [base]
    metrics = {
        m: {"value": base["e2e"][m][0], "unit": E2E_UNITS[m]} for m in E2E
    }

    if args.trace:
        tracer = Tracer()
        patches = instrument(tracer)
        try:
            traced = wl.run(args.seed, args.seconds, tracer=tracer)
        finally:
            patches.restore()
        results.append(traced)
        traced["pred_ratios"] = pred_ratios(tracer)
        _print_e2e(args.workload, traced, "traced")
        layer = per_layer(tracer, traced)
        for m in E2E:
            layer[f"trace.overhead.{m}"] = (
                traced["e2e"][m][0] - base["e2e"][m][0])
        _print_self_times(tracer)
        print(f"[{args.workload}] per-layer metrics")
        for name, unit, _ in PER_LAYER:
            print(f"  {name:<40s} {layer[name]:>16.6g} {unit}")
        share = layer["trace.unattributed_frac"]
        verdict = "meets" if share <= 0.10 else "MISSES"
        print(f"[{args.workload}] unattributed share {share:.3f} "
              f"({verdict} the <=10% target)")
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(out, extra={"per_layer": layer})
        print(f"spans written to {out}")
        metrics = {n: {"value": layer[n], "unit": u} for n, u, _ in PER_LAYER}

    wall = time.perf_counter() - t_start
    host = {
        "probe_ms_start": probe_start,
        "probe_ms_end": host_probe_ms(),
        "steal_s": (cpu_steal_jiffies() - steal0)
        / os.sysconf("SC_CLK_TCK"),
        "wall_s": wall,
    }
    fp = fingerprint(results[-1].get("machine_json"),
                     results[-1].get("decisions"), host)
    print("fingerprint " + json.dumps(fp, sort_keys=True, default=str))
    attempted = sum(r["phases"].total_attempted for r in results)
    failed = sum(r["phases"].total_failed for r in results)
    wrong = sum(
        n for r in results for k, n in r["phases"].reasons.items()
        if k.startswith("wrong_answer")
    )
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from stkbench.run import main as _main

    raise SystemExit(_main())
