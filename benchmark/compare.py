#!/usr/bin/env python3
"""Summarize benchmark runs, or compare a parent commit's runs with a change's.

    python3 benchmark/compare.py RUNS_DIR            # medians and spreads
    python3 benchmark/compare.py PARENT_DIR CHANGE_DIR

Each file in a directory holds the standard output of
`python3 benchmark/run.py [--workload W] [--seed N] [--trace 1]`. Every
`# distbench workload=W seed=N trace=T` line starts a run, and the run's
result is its last JSON line, so one file may hold all four workloads.
Runs pair up by (workload, seed, trace).

For every workload x metric row the comparison prints both sides' median
and quartiles, the share of seed pairs the change wins (ties count for
neither), and a verdict.

Simulated end-to-end metrics are exact for a given seed and build, so
they are compared seed by seed (mj_per_req to 1e-9 relative, the rest
exactly):
  regression    some seed reads worse;
  unchanged     every seed reads the same;
  gain          no seed reads worse and the change wins >= 9/10 of the
                pairs (an exact count, so the spread between seeds does
                not enter);
  no-regression no seed reads worse, but fewer than 9/10 read better.

Host metrics move from run to run, so they are compared by median:
  gain          the change wins >= 9/10 of the pairs and the medians differ
                by more than the parent's interquartile range;
  regression    the change's median is worse than the parent's by more
                than the metric's bound in BENCHMARK.json;
  unresolved    the parent's own spread is wider than the bound (unless
                every change run beats every parent run);
  no-regression-within-bound   otherwise.
Per-layer metrics carry no bound; they read gain or "-".
"""
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEADER = re.compile(r"# distbench workload=(\S+) seed=(\d+) trace=(\d)")
# Simulated end-to-end metrics and the relative difference that still
# counts as equal; every other end-to-end metric is a host metric.
SIMULATED = {"lat_p50_ms": 0.0, "lat_p99_ms": 0.0, "slo_attainment": 0.0,
             "mj_per_req": 1e-9, "capacity_rps": 0.0, "paper_gap_pct": 0.0}


def load_spec():
    """Metric name -> its BENCHMARK.json entry (unit, better, bound)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def split_runs(lines):
    """(header match, result) for every run in one file's lines."""
    runs, header, result = [], None, None
    for line in lines:
        match = HEADER.match(line)
        if match:
            if header and result:
                runs.append((header, result))
            header, result = match, None
        elif header and line.startswith("{"):
            try:
                result = json.loads(line)
            except ValueError:
                pass
    if header and result:
        runs.append((header, result))
    return runs


def load_runs(directory):
    """{(workload, trace): {seed: metrics}} from every run file in directory."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            found = split_runs(f.read().splitlines())
        if not found:
            print(f"skipping {path}: no distbench run", file=sys.stderr)
        for header, result in found:
            if not result["correct"]:
                print(f"warning: {path} failed its correctness checks", file=sys.stderr)
            key = (header.group(1), int(header.group(3)))
            runs.setdefault(key, {})[int(header.group(2))] = {
                k: v["value"] for k, v in result["metrics"].items()}
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fmt(q):
    return f"{q[1]:.6g} [{q[0]:.4g}, {q[2]:.4g}]"


def summarize(runs, spec):
    print(f"{'workload':14} {'metric':32} {'n':>3} {'median [q1, q3]':>36} "
          f"{'iqr/med':>8} {'bound':>6}")
    for (workload, _), by_seed in sorted(runs.items()):
        names = next(iter(by_seed.values())).keys()
        for metric in names:
            values = [m[metric] for m in by_seed.values()]
            q = quartiles(values)
            spread = (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0
            bound = spec.get(metric, {}).get("bound")
            print(f"{workload:14} {metric:32} {len(values):3d} {fmt(q):>36} "
                  f"{spread:8.2%} {'' if bound is None else f'{bound:.3g}':>6}")


def seed_verdict(parent, change, seeds, better, tolerance):
    """Exact, seed-by-seed verdict for a simulated metric."""
    def same(s):
        return abs(change[s] - parent[s]) <= tolerance * max(abs(parent[s]), 1e-300)
    worse = sum(not same(s) and better(parent[s], change[s]) for s in seeds)
    wins = sum(not same(s) and better(change[s], parent[s]) for s in seeds)
    if worse:
        return f"regression ({worse}/{len(seeds)} seeds worse)"
    if wins == 0:
        return "unchanged"
    if wins >= 0.9 * len(seeds):
        return "gain"
    return f"no-regression ({wins}/{len(seeds)} seeds better)"


def verdict(metric, parent, change, metric_spec):
    lower = metric_spec.get("better", "lower") == "lower"
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    seeds = sorted(set(parent) & set(change))
    wins = sum(better(change[s], parent[s]) for s in seeds)
    pq = quartiles(list(parent.values()))
    cq = quartiles(list(change.values()))
    share = wins / len(seeds) if seeds else 0.0
    if metric in SIMULATED:
        if not seeds:
            return pq, cq, share, "unresolved (no common seeds)"
        return pq, cq, share, seed_verdict(parent, change, seeds, better, SIMULATED[metric])
    if seeds and wins >= 0.9 * len(seeds) and better(cq[1], pq[1]) \
            and abs(cq[1] - pq[1]) > pq[2] - pq[0]:
        return pq, cq, share, "gain"
    bound = metric_spec.get("bound")
    if bound is None:
        return pq, cq, share, "-"
    worse = (cq[1] - pq[1]) if lower else (pq[1] - cq[1])
    if pq[1] and worse / abs(pq[1]) > bound:
        return pq, cq, share, "regression"
    if pq[1] and (pq[2] - pq[0]) / abs(pq[1]) > bound:
        if all(better(c, p) for c in change.values() for p in parent.values()):
            return pq, cq, share, "better (every run)"
        return pq, cq, share, "unresolved"
    return pq, cq, share, "no-regression-within-bound"


def compare(parent_runs, change_runs, spec):
    print(f"{'workload':14} {'metric':32} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'wins':>6}  verdict")
    for key in sorted(set(parent_runs) & set(change_runs)):
        parent, change = parent_runs[key], change_runs[key]
        names = next(iter(parent.values())).keys()
        for metric in names:
            p = {s: m[metric] for s, m in parent.items() if metric in m}
            c = {s: m[metric] for s, m in change.items() if metric in m}
            if not p or not c:
                continue
            pq, cq, share, word = verdict(metric, p, c, spec.get(metric, {}))
            print(f"{key[0]:14} {metric:32} {fmt(pq):>36} {fmt(cq):>36} "
                  f"{share:6.0%}  {word}")


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    spec = load_spec()
    runs = [load_runs(d) for d in sys.argv[1:]]
    if len(runs) == 1:
        summarize(runs[0], spec)
    else:
        compare(runs[0], runs[1], spec)


if __name__ == "__main__":
    main()
