"""Compare two sets of benchmark results, or summarise one.

    python3 perfbench/compare.py BASE_DIR NEW_DIR
    python3 perfbench/compare.py RESULTS_DIR

Each argument is a directory of result files written by ``run.py``
(``.perfbench_results/`` by default) or a single such file. For every
workload it prints one row per metric with the median and quartiles of
each set. An end-to-end metric whose new median is worse than the base
median by more than its bound is flagged ``WORSE``; one whose base runs
spread wider than the bound is ``unresolved`` unless every new run beats
every base run. Per-layer metrics (traced runs) are listed with their
deltas. With one set, the spread of each metric (interquartile range
over median) is shown against its bound. Exits 1 when any end-to-end
metric is flagged.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, median, quartiles  # noqa: E402

#: Bounds for the end-to-end metrics that BENCHMARK.json cannot list
#: (not reported by every workload, or zero on a correct run).
EXTRA_BOUNDS = {
    "read_p50_ms": ("lower", 0.25),
    "write_p50_ms": ("lower", 0.25),
    "error_rate": ("lower", 0.0),
}


def load(path: Path) -> List[dict]:
    files = [path] if path.is_file() else sorted(path.glob("*.json"))
    out = []
    for file in files:
        with open(file) as handle:
            record = json.load(handle)
        if "workload" in record and "metrics" in record:
            out.append(record)
    return out


def group(records: List[dict]) -> Dict[tuple, Dict[str, List[float]]]:
    grouped: Dict[tuple, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    for record in records:
        key = (record["workload"], record["trace"])
        for name, value in record["metrics"].items():
            if isinstance(value, (int, float)) and math.isfinite(value):
                grouped[key][name].append(float(value))
    return grouped


def bounds() -> Dict[str, tuple]:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    out = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    out.update(EXTRA_BOUNDS)
    return out


def worse_by(base: float, new: float, better: str) -> float:
    """Relative worsening of ``new`` against ``base`` (positive = worse)."""
    if base == 0:
        return math.inf if (new > 0 if better == "lower" else new < 0) else 0.0
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def fmt(values: List[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:11.4g} [{q1:.4g}, {q3:.4g}]"


def spread(values: List[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def summarise(grouped, limits) -> int:
    for (workload, trace), metrics in sorted(grouped.items()):
        n = max(len(v) for v in metrics.values())
        print(f"\n== {workload} (trace={trace}, {n} runs)")
        print(f"{'metric':34s} {'median [q1, q3]':>34s} {'spread':>8s} {'bound':>6s}")
        for name, values in sorted(metrics.items()):
            limit = limits.get(name, (None, None))[1] if not trace else None
            mark = ""
            if limit:
                s = spread(values)
                mark = "  > bound" if s > limit else ("  > bound/3" if s > limit / 3 else "")
            bound_text = f"{limit:6.2f}" if limit else "     -"
            print(f"{name:34s} {fmt(values):>34s} {spread(values):8.3f} {bound_text}{mark}")
    return 0


def compare(base, new, limits) -> int:
    flagged = 0
    for key in sorted(set(base) | set(new)):
        workload, trace = key
        b, m = base.get(key, {}), new.get(key, {})
        print(f"\n== {workload} (trace={trace})")
        print(f"{'metric':34s} {'base median [q1, q3]':>34s} {'new median [q1, q3]':>34s} "
              f"{'delta':>8s}  verdict")
        for name in sorted(set(b) | set(m)):
            if not b.get(name) or not m.get(name):
                print(f"{name:34s} {'(only in one set)':>34s}")
                continue
            bv, mv = b[name], m[name]
            delta = (median(mv) - median(bv)) / abs(median(bv)) if median(bv) else math.nan
            verdict = ""
            if not trace and name in limits:
                better, limit = limits[name]
                if worse_by(median(bv), median(mv), better) > limit:
                    verdict = "WORSE"
                    flagged += 1
                elif limit and spread(bv) > limit:
                    beats = (max(mv) < min(bv)) if better == "lower" else (min(mv) > max(bv))
                    verdict = "better (every run)" if beats else "unresolved"
                else:
                    verdict = "within bound"
            print(f"{name:34s} {fmt(bv):>34s} {fmt(mv):>34s} {delta:+8.1%}  {verdict}")
    return 1 if flagged else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sets", nargs="+", type=Path, help="BASE [NEW]")
    args = parser.parse_args(argv)
    if len(args.sets) > 2:
        parser.error("give one set to summarise or two to compare")
    limits = bounds()
    groups = [group(load(path)) for path in args.sets]
    if len(groups) == 1:
        return summarise(groups[0], limits)
    return compare(groups[0], groups[1], limits)


if __name__ == "__main__":
    sys.exit(main())
