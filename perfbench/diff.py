#!/usr/bin/env python3
"""Compare two sets of perfbench results, workload by workload.

    python3 perfbench/diff.py BASE CHANGE

BASE and CHANGE are result files written by perfbench/run.py (the
.bench_results/*.json files), or directories holding them. Runs are
grouped by workload and trace mode; for every metric each side shows
its median and quartiles over its runs, and gets one verdict:

  better      every CHANGE run beats every BASE run; or CHANGE wins at
              least 9 in 10 seed-paired runs and the medians differ by
              more than BASE's interquartile range
  worse       the same, the other way round; or, for a metric with a
              bound, CHANGE's median is worse than BASE's by more than
              the bound
  unchanged   within the bound, with both sides' spreads within it
  unresolved  anything else -- in particular a spread wider than the
              bound (per-layer metrics have no bound, so a per-layer
              metric that is not clearly better or worse is unresolved)

Exit status is 1 when any end-to-end metric is worse, else 0.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}
GATED = {m["name"] for m in SPEC["end_to_end"]}


def load(arg):
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = []
    for f in files:
        data = json.loads(f.read_text())
        if "provenance" in data:
            runs.append(data)
    if not runs:
        sys.exit(f"diff: no perfbench result files in {arg}")
    return runs


def summary(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def verdict(base, change, spec):
    """base, change: {seed: value}. Returns (verdict, delta)."""
    lower = spec["better"] == "lower"
    gain = (lambda a, b: a - b) if lower else (lambda a, b: b - a)
    b_vals, c_vals = list(base.values()), list(change.values())
    q1b, medb, q3b = summary(b_vals)
    q1c, medc, q3c = summary(c_vals)
    delta = gain(medb, medc) / medb if medb else 0.0
    if min(gain(b, c) for b in b_vals for c in c_vals) > 0:
        return "better", delta
    if max(gain(b, c) for b in b_vals for c in c_vals) < 0:
        return "worse", delta
    seeds = sorted(set(base) & set(change))
    pairs = [gain(base[s], change[s]) for s in seeds]
    iqr = q3b - q1b
    if pairs and abs(medc - medb) > iqr:
        if sum(p > 0 for p in pairs) >= 0.9 * len(pairs):
            return "better", delta
        if sum(p < 0 for p in pairs) >= 0.9 * len(pairs):
            return "worse", delta
    bound = spec.get("bound")
    if bound is None:
        return "unresolved", delta
    if -delta > bound:
        return "worse", delta
    spread = max(iqr / medb if medb else 0.0,
                 (q3c - q1c) / medc if medc else 0.0)
    return ("unresolved" if spread > bound else "unchanged"), delta


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sides = [load(arg) for arg in sys.argv[1:]]
    groups = {}
    for side, runs in enumerate(sides):
        for run in runs:
            p = run["provenance"]
            key = (p["workload"], p["trace"])
            # Every metric the run measured that BENCHMARK.json names;
            # a traced run's end-to-end numbers are skewed by tracing.
            for name, m in run["run"]["metrics"].items():
                if name not in METRICS or (p["trace"] and name in GATED):
                    continue
                groups.setdefault(key, {}).setdefault(name, ({}, {}))
                groups[key][name][side][p["seed"]] = m["value"]
    any_worse = False
    for (workload, trace), metrics in sorted(groups.items()):
        print(f"\n== {workload} ({'traced, per-layer' if trace else 'end-to-end'})")
        print(f"{'metric':28s} {'unit':9s} {'base median [q1, q3] (n)':34s} "
              f"{'change median [q1, q3] (n)':34s} {'gain':>7s}  verdict")
        for name, (base, change) in metrics.items():
            spec = METRICS[name]
            if not base or not change:
                continue
            cells = []
            for values in (base, change):
                q1, med, q3 = summary(list(values.values()))
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] "
                             f"({len(values)})")
            what, delta = verdict(base, change, spec)
            any_worse |= what == "worse" and "bound" in spec
            print(f"{name:28s} {spec['unit']:9s} {cells[0]:34s} "
                  f"{cells[1]:34s} {delta * 100:+6.1f}%  {what}")
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
