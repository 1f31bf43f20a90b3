"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload join-clustered-d16 --seed 1 --seconds 40 --trace 0

Runs from the root of a checkout and imports the program from
``src/``. With ``--trace 0`` it measures the end-to-end metrics; with
``--trace 1`` it replays the workload through each layer's public
functions inside the benchmark's own spans and reports per-layer
metrics. Every answer is checked; the last stdout line is one JSON
object (``correct``, ``attempted``, ``failed``, ``metrics``) and the
exit code is 1 when any answer was wrong. A fuller record, spans
included, goes to ``.perfbench_results/`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402  (sets no state on import)

#: End-to-end metrics: (name, unit). ``read_p50_ms``, ``write_p50_ms``
#: and ``error_rate`` are printed and recorded but not in
#: BENCHMARK.json, which may only list metrics every workload reports
#: and that are never zero.
E2E_UNITS = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "read_p50_ms": "ms",
    "write_p50_ms": "ms",
    "max_rate_rps": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "error_rate": "ratio",
}

#: Cold imports per join run whose median is ``setup_s``.
JOIN_COLD_STARTS = 7
#: Fewest timed joins per run, so the tail has ten samples beyond it.
MIN_JOINS = 11


def _seed(seed: int, stream: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def workloads():
    """Name -> definition. Built lazily: numpy must not load before
    the hermetic environment is in place.

    ``serve-mixed`` runs and checks like the others but is not listed
    in BENCHMARK.json: its tail, max-rate and peak-RSS figures spread
    wider across seeds than any bound the file allows (see
    perfbench/README.md). Its serving layers are measured in every
    traced run.
    """
    from repro.datasets import gaussian_clusters, uniform_points
    from serving import TrafficConfig

    return {
        "join-clustered-d16": {
            "kind": "join",
            "why": "kernel-bound: a clustered d=16 self-join where leaf distance checks "
                   "take about 80% of the time",
            "eps": 0.1,
            "inputs": lambda s: (gaussian_clusters(10_000, 16, seed=_seed(s, 0)), None),
            "sizes": "self-join, gaussian_clusters(10_000, 16), L2, eps=0.1",
        },
        "join-twoset-uniform-d8": {
            "kind": "join",
            "why": "traversal-bound: a uniform d=8 two-set join on the cross-join path, "
                   "where adjacent-cell traversal takes about 85% and the kernel little",
            "eps": 0.1,
            "inputs": lambda s: (
                uniform_points(20_000, 8, seed=_seed(s, 0)),
                uniform_points(20_000, 8, seed=_seed(s, 1)),
            ),
            "sizes": "two-set join, 2 x uniform_points(20_000, 8), L2, eps=0.1",
        },
        "serve-mixed": {
            "kind": "serve",
            "why": "open-loop reads beside writes, a compaction per insert and promotion "
                   "on a persisted 100k tenant over repro serve",
            "eps": 0.05,
            "tenant": lambda s: gaussian_clusters(100_000, 8, seed=_seed(s, 0)),
            "traffic": TrafficConfig(eps=0.05, delta_threshold=40),
            "sizes": "persisted tenant gaussian_clusters(100_000, 8), eps=0.05, "
                     "open loop at 25/s, then a range-query ladder at 200-450/s",
        },
    }


# ----------------------------------------------------------------------
# join workloads
# ----------------------------------------------------------------------
def run_join_untraced(wl, seed, seconds, env):
    import joins

    setup = [common.time_cold_import(env) for _ in range(JOIN_COLD_STARTS)]
    points_r, points_s = wl["inputs"](seed)
    joins.timed_facade(points_r, points_s, wl["eps"])  # warm-up
    samples = []
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or len(samples) < MIN_JOINS:
        samples.append(joins.timed_facade(points_r, points_s, wl["eps"]))
    rss = common.peak_rss_mb()
    expect = joins.oracle_pairs(points_r, points_s, wl["eps"])
    wrong = sum(
        not _same(joins.canonical(s["result"].pairs), expect) for s in samples
    )
    lat = [s["seconds"] * 1e3 for s in samples]
    tail = common.tail(lat)
    plans = [s["result"].stats.planned_strategy for s in samples]
    metrics = {
        "latency_p50_ms": common.median(lat),
        "latency_tail_ms": tail["value"],
        "read_p50_ms": None,
        "write_p50_ms": None,
        "max_rate_rps": len(samples) / sum(s["seconds"] for s in samples),
        "setup_s": common.median([c["seconds"] for c in setup]),
        "peak_rss_mb": rss,
        "error_rate": wrong / len(samples),
    }
    return {
        "metrics": metrics,
        "attempted": len(samples),
        "failed": wrong,
        "extra": {
            "tail": tail,
            "setup_samples_s": [c["seconds"] for c in setup],
            "profile_source": setup[0]["profile_source"],
            "plans": plans,
            "plan_changed": len(set(plans)) > 1,
            "pairs": len(expect),
            "latency_samples_ms": lat,
        },
    }


def _same(a, b) -> bool:
    import numpy as np

    return a.shape == b.shape and np.array_equal(a, b)


# ----------------------------------------------------------------------
# serving workload
# ----------------------------------------------------------------------
def run_serve_untraced(wl, seed, seconds, env, workdir):
    import serving

    cfg = wl["traffic"]
    base = wl["tenant"](seed)
    tenant = workdir / "tenant"
    serving.prepare_tenant(tenant, base, cfg)
    builder = serving.ScheduleBuilder(base, cfg, seed)
    run = asyncio.run(serving.serve_run(
        tenant, base, cfg, builder, seconds, env, workdir / "server.log",
    ))
    main = run["main_records"]
    lat = [(r["recv"] - r["due"]) * 1e3 for r in main]
    tail = common.tail(lat)
    plans = sorted(k for k in run["server_stats"]["server"] if k.startswith("serve.plan."))
    metrics = {
        "latency_p50_ms": common.median(lat),
        "latency_tail_ms": tail["value"],
        "read_p50_ms": serving.p50_ms(main, serving.READ_OPS),
        "write_p50_ms": serving.p50_ms(main, serving.WRITE_OPS),
        "max_rate_rps": run["max_rate"]["value"],
        "setup_s": common.median(run["setup_samples"]),
        "peak_rss_mb": run["peak_rss_mb"],
        "error_rate": run["errors"] / run["attempted"],
    }
    return {
        "metrics": metrics,
        "attempted": run["attempted"],
        "failed": run["errors"],
        "extra": {
            "tail": tail,
            "setup_samples_s": run["setup_samples"],
            "attach_mode": run["attach"].get("mode"),
            "plans": plans,
            "plan_changed": len([p for p in plans if p != "serve.plan.snapshot-reuse"]) > 1,
            "rungs": run["rungs"],
            "max_rate": run["max_rate"],
            "tail_limit_ms": serving.TAIL_LIMIT_MS,
            "checks": run["checks"],
            "counts": run["counts"],
            "generator_late_ms_max": run["late_ms_max"],
            "compactions": run["server_stats"]["tenant"]["stats"].get("compactions"),
        },
    }


# ----------------------------------------------------------------------
# traced run: every layer, on this workload's own data
# ----------------------------------------------------------------------
def run_traced(wl, seed, seconds, env, workdir):
    """Per-layer figures. The join layers run on the workload's join
    input (for ``serve-mixed``, a mini-join batch against the tenant);
    the serving layers run on a tenant made of the workload's points
    (for the join workloads, the first input with a short open loop)."""
    import joins
    import layers
    import serving

    rec = common.Recorder()
    if wl["kind"] == "join":
        points_r, points_s = wl["inputs"](seed)
        tenant_points = points_r
        cfg = serving.TrafficConfig(eps=wl["eps"], delta_threshold=100)
        join_seconds, serve_seconds = 0.6 * seconds, 0.2 * seconds
    else:
        tenant_points = wl["tenant"](seed)
        cfg = wl["traffic"]
        points_r = serving.ScheduleBuilder(tenant_points, cfg, seed + 1).near_data(
            serving.MINI_JOIN_BATCH, cfg.eps / 4)
        points_s = tenant_points
        join_seconds, serve_seconds = 0.15 * seconds, 0.6 * seconds
    strategies = None if wl["kind"] == "join" else ("serial", "parallel")

    # Join layers: facade (untraced) and layered (traced) joins alternate.
    joins.timed_facade(points_r, points_s, wl["eps"])
    facade, layered = [], []
    started = time.perf_counter()
    while time.perf_counter() - started < join_seconds or len(layered) < 5:
        facade.append(joins.timed_facade(points_r, points_s, wl["eps"]))
        layered.append(joins.layered_join(rec, points_r, points_s, wl["eps"],
                                          f"join-{len(layered)}", strategies))
    parallel = joins.parallel_probe(points_r, points_s, wl["eps"], reps=3)
    expect = joins.oracle_pairs(points_r, points_s, wl["eps"])
    results = [e["result"] for e in facade + layered + parallel]
    wrong = sum(not _same(joins.canonical(r.pairs), expect) for r in results)
    metrics = joins.join_layer_metrics(rec, layered, facade, parallel)
    plans = [f["result"].stats.planned_strategy for f in facade]

    # Serving layers.
    tenant = workdir / "tenant"
    serving.prepare_tenant(tenant, tenant_points, cfg)
    replay_copy = workdir / "tenant-replay"
    shutil.copytree(tenant, replay_copy)
    builder = serving.ScheduleBuilder(tenant_points, cfg, seed)
    run = asyncio.run(serving.serve_run(
        tenant, tenant_points, cfg, builder, serve_seconds, env, workdir / "server.log",
        traced=True,
    ))
    for r in run["main_records"]:
        rec.add("client.request", r["sent"], r["recv"], trace_id=f"req-{r['index']}",
                op=r["op"], due=r["due"], outcome=r.get("outcome"), traced=r["traced"])
    metrics.update(layers.server_layer_metrics(run))
    metrics.update(layers.storage_and_session_probe(replay_copy, run["main_ops"], rec))
    metrics.update(layers.protocol_probe(run["main_ops"], serving.TENANT))
    metrics["generator.late_ms_max"] = run["late_ms_max"]
    for op, row in run["counts"].items():
        for key, value in row.items():
            metrics[f"ops.{op}.{key}"] = float(value)
    if wl["kind"] == "join":
        untraced = [f["seconds"] * 1e3 for f in facade]
        traced = [e["seconds"] * 1e3 for e in layered]
    else:
        main = run["main_records"]
        untraced = [(r["recv"] - r["due"]) * 1e3 for r in main if not r["traced"]]
        traced = [(r["recv"] - r["due"]) * 1e3 for r in main if r["traced"]]
    metrics["trace.overhead_ms"] = common.median(traced) - common.median(untraced)
    metrics["planner.plan_changes"] = float(len(set(plans)) - 1)
    failed = wrong + run["errors"]
    return {
        "metrics": metrics,
        "attempted": len(results) + run["attempted"],
        "failed": failed,
        "recorder": rec,
        "extra": {
            "plans": plans,
            "plan_changed": len(set(plans)) > 1,
            "self_time_share": _self_time_shares(rec),
            "checks": run["checks"],
            "counts": run["counts"],
            "join_wrong": wrong,
        },
    }


def _self_time_shares(rec):
    """Share of the layered joins' time spent in each layer's own code."""
    selfs = rec.self_times()
    names = ("planner", "build", "traversal", "kernel", "join")
    totals = {n: sum(selfs.get(n, [])) for n in names}
    whole = sum(rec.durations("join")) or 1.0
    return {n: totals[n] / whole for n in names}


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------
def _bench_spec():
    with open(common.ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    common.adopt_orphans()
    try:
        return _main(argv)
    finally:
        common.stop_children()


def _main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file (default: .perfbench_results/...)")
    args = parser.parse_args(argv)

    if not common.program_present():
        print("perfbench: src/repro not found; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    common.apply_hermetic_env()
    import os

    env = dict(os.environ)
    defs = workloads()
    if args.workload not in defs:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(defs)}",
              file=sys.stderr)
        return 2
    wl = defs[args.workload]
    spec = _bench_spec()
    workdir = common.make_workdir(f"{args.workload}-s{args.seed}-t{args.trace}")
    started = time.perf_counter()
    try:
        if args.trace:
            out = run_traced(wl, args.seed, args.seconds, env, workdir)
        elif wl["kind"] == "join":
            out = run_join_untraced(wl, args.seed, args.seconds, env)
        else:
            out = run_serve_untraced(wl, args.seed, args.seconds, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    elapsed = time.perf_counter() - started

    sys.path.insert(0, str(common.ROOT / "benchmarks"))
    from _harness import environment_metadata

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if args.trace:
        shown = {k: (v, units.get(k, "")) for k, v in sorted(out["metrics"].items())}
    else:
        shown = {k: (out["metrics"][k], E2E_UNITS[k]) for k in E2E_UNITS}
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"wall={elapsed:.1f}s")
    print(f"# {wl['sizes']}")
    for name, (value, unit) in shown.items():
        text = "n/a (no such op in this workload)" if value is None else f"{value:.6g} {unit}"
        print(f"{name:34s} {text}")
    extra = out["extra"]
    if "tail" in extra:
        t = extra["tail"]
        print(f"# latency_tail_ms is p{t['percentile']:.1f} of {t['samples']} samples")
    if extra.get("plan_changed"):
        print(f"# WARNING: the planned strategy changed between ops: {extra['plans']}")
    if "self_time_share" in extra:
        print("# self-time share of layered joins: " + ", ".join(
            f"{k} {v:.1%}" for k, v in extra["self_time_share"].items()))
    correct = out["failed"] == 0
    if not correct:
        print(f"# WRONG ANSWERS: {out['failed']} of {out['attempted']} ops failed or were wrong",
              file=sys.stderr)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_seconds": elapsed,
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": out["metrics"],
        "units": {**E2E_UNITS, **units},
        "extra": extra,
        "environment": environment_metadata(),
        "hermetic_env": common.hermetic_env(),
    }
    out_path = Path(args.out) if args.out else common.RESULTS / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w") as handle:
        json.dump(record, handle, indent=1, default=_jsonable)
    if "recorder" in out:
        out["recorder"].write(out_path.with_suffix(".spans.jsonl"))

    bad = [m["name"] for m in declared
           if not isinstance(out["metrics"].get(m["name"]), (int, float))
           or not math.isfinite(out["metrics"][m["name"]])]
    if bad:
        print(f"perfbench: no finite value for {bad}", file=sys.stderr)
        return 3
    result = {
        "correct": correct,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {
            m["name"]: {"value": float(out["metrics"][m["name"]]), "unit": m["unit"]}
            for m in declared
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _jsonable(value):
    import numpy as np

    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    return str(value)


if __name__ == "__main__":
    sys.exit(main())
