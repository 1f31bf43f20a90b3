"""Join workloads: the timed facade loop and the layered, traced replay.

The untraced loop calls ``similarity_join`` exactly as a user would
(L2, ``engine="auto"``) and times each call. The traced replay makes
the same join through each layer's public function in turn —
``plan_execution``, ``FlatEpsilonKdbTree.build`` and the traversal with
the pre-built tree — inside spans recorded by the benchmark. The
kernel's time is read from ``JoinStats.kernel_seconds`` and recorded
as a program-reported child of the traversal span.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from common import Recorder, median
from repro import JoinSpec, similarity_join
from repro.baselines import grid_join, grid_self_join
from repro.core import FlatEpsilonKdbTree, epsilon_kdb_join, epsilon_kdb_self_join
from repro.core import parallel_join, parallel_self_join
from repro.planner import plan_execution

#: Leading dimensions the grid oracle buckets on: the cheapest setting
#: measured for each input shape (more dims multiply neighbour probes).
ORACLE_GRID_DIMS = {16: 4, 8: 3}
PARALLEL_WORKERS = 2


def canonical(pairs: np.ndarray) -> np.ndarray:
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def oracle_pairs(points_r: np.ndarray, points_s: Optional[np.ndarray], eps: float) -> np.ndarray:
    """Exact answer from the epsilon-grid baseline, which shares no
    traversal code with the epsilon-kdB engines."""
    spec = JoinSpec(epsilon=eps)
    grid_dims = ORACLE_GRID_DIMS.get(points_r.shape[1], 3)
    if points_s is None:
        return canonical(grid_self_join(points_r, spec, grid_dims=grid_dims).pairs)
    return canonical(grid_join(points_r, points_s, spec, grid_dims=grid_dims).pairs)


def facade_join(points_r, points_s, eps):
    args = (points_r,) if points_s is None else (points_r, points_s)
    return similarity_join(*args, epsilon=eps, metric="l2", engine="auto", return_result=True)


def timed_facade(points_r, points_s, eps) -> Dict[str, object]:
    started = time.perf_counter()
    result = facade_join(points_r, points_s, eps)
    seconds = time.perf_counter() - started
    return {"seconds": seconds, "result": result}


def layered_join(rec: Recorder, points_r, points_s, eps, trace_id, strategies=None):
    """One join through the layers' public functions, inside spans."""
    spec = JoinSpec(epsilon=eps)
    with rec.span("join", trace_id=trace_id) as root:
        with rec.span("planner"):
            plan = plan_execution(
                spec,
                len(points_r),
                points_r.shape[1],
                n2=None if points_s is None else len(points_s),
                strategies=strategies,
            )
        if points_s is None:
            with rec.span("build"):
                tree = FlatEpsilonKdbTree.build(points_r, spec)
            with rec.span("traversal") as trav:
                result = epsilon_kdb_self_join(points_r, spec, tree=tree)
            kernel_start = trav["start"]
        else:
            # The two-set join builds both trees over a shared grid
            # itself and takes no pre-built tree; its build time is
            # program-reported.
            with rec.span("traversal") as trav:
                result = epsilon_kdb_join(points_r, points_s, spec)
            rec.add("build", trav["start"], trav["start"] + result.build_seconds,
                    parent=trav, program_reported=True)
            kernel_start = trav["start"] + result.build_seconds
        rec.add("kernel", kernel_start, kernel_start + result.stats.kernel_seconds,
                parent=trav, program_reported=True)
    return {"seconds": root["end"] - root["start"], "result": result, "plan": plan}


def parallel_probe(points_r, points_s, eps, reps: int) -> List[Dict[str, object]]:
    spec = JoinSpec(epsilon=eps)
    out = []
    for _ in range(reps):
        started = time.perf_counter()
        if points_s is None:
            result = parallel_self_join(points_r, spec, n_workers=PARALLEL_WORKERS)
        else:
            result = parallel_join(points_r, points_s, spec, n_workers=PARALLEL_WORKERS)
        out.append({"seconds": time.perf_counter() - started, "result": result})
    return out


def join_layer_metrics(
    rec: Recorder,
    layered: List[Dict[str, object]],
    facade: List[Dict[str, object]],
    parallel: List[Dict[str, object]],
) -> Dict[str, float]:
    """Per-layer figures from the traced replay (medians over joins)."""
    selfs = rec.self_times()
    stats = [entry["result"].stats for entry in layered]
    last = stats[-1]
    trav_ms = median(selfs["traversal"]) * 1e3
    kernel_ms = median([s.kernel_seconds for s in stats]) * 1e3
    candidates = last.cascade_candidates or last.distance_computations
    # Rows the cheap per-dimension stages keep for the full distance
    # check (the last stage is that check itself).
    stages = last.cascade_survivors
    survivors = stages[-2] if len(stages) >= 2 else candidates
    roots = rec.durations("join")
    kernel_share = median([s.kernel_seconds / r for s, r in zip(stats, roots)])
    trav_share = median([t / r for t, r in zip(selfs["traversal"], roots)])
    serial_s = median([f["seconds"] for f in facade])
    par = [p["result"].stats for p in parallel]
    imbalance = [
        max(s.worker_seconds) / (sum(s.worker_seconds) / len(s.worker_seconds))
        for s in par if s.worker_seconds
    ]
    return {
        "planner.plan_ms": median(selfs["planner"]) * 1e3,
        "planner.mispredict_ratio": median(
            [f["seconds"] / f["result"].stats.predicted_cost for f in facade
             if f["result"].stats.predicted_cost > 0] or [float("nan")]
        ),
        "build.ms": median(selfs["build"]) * 1e3,
        "build.nodes": float(last.build_nodes),
        "traversal.ms": trav_ms,
        "traversal.node_pairs": float(last.node_pairs_visited),
        "traversal.leaf_joins": float(last.leaf_joins),
        "traversal.us_per_node_pair": trav_ms * 1e3 / max(1, last.node_pairs_visited),
        "traversal.share": trav_share,
        "kernel.ms": kernel_ms,
        "kernel.share": kernel_share,
        "kernel.candidates": float(candidates),
        "kernel.ns_per_candidate": kernel_ms * 1e6 / max(1, candidates),
        "kernel.hit_ratio": last.pairs_emitted / max(1, candidates),
        "kernel.cascade_keep_ratio": survivors / max(1, candidates),
        "kernel.tiles": float(last.kernel_blocks),
        "kernel.bytes_computed": float(last.coordinates_touched * 8),
        "parallel.ms": median([p["seconds"] for p in parallel]) * 1e3,
        "parallel.speedup_vs_serial": serial_s / median([p["seconds"] for p in parallel]),
        "parallel.worker_imbalance": median(imbalance) if imbalance else 1.0,
        "parallel.duplicate_pairs": float(median([s.duplicate_pairs_merged for s in par])),
    }
