#!/usr/bin/env python3
"""Exact pin of distbench's simulated end-to-end metrics.

    python3 tools/check_sim_pin.py RUN_OUTPUT PIN_JSON

RUN_OUTPUT is the stdout of `benchmark/run.py --workload W --seed S`;
its last line is the workload's JSON result. PIN_JSON names the workload
and seed it pins and, per metric, the expected value and the relative
tolerance (0 means bit-for-bit equal). The simulated metrics are
deterministic per seed, so any difference is a change to the cost model
or the workload: the PR that makes it re-pins and explains it.

Exits nonzero when the run is not the pinned workload, was not correct,
lacks a pinned metric, or differs from a pinned value.
"""
import json
import sys


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: python3 tools/check_sim_pin.py RUN_OUTPUT PIN_JSON")
    with open(sys.argv[1]) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    with open(sys.argv[2]) as f:
        pin = json.load(f)
    header = f"# distbench workload={pin['workload']} seed={pin['seed']} "
    if not lines or not lines[0].startswith(header):
        sys.exit(f"check_sim_pin.py: {sys.argv[1]} is not a run of {header.strip()}")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        sys.exit(f"check_sim_pin.py: {pin['workload']} failed its correctness gate")

    failures = []
    for name, want in pin["metrics"].items():
        got = result["metrics"].get(name, {}).get("value")
        if got is None:
            failures.append(f"{name}: missing from the run")
            continue
        bound = want["rel_tol"] * abs(want["value"])
        ok = got == want["value"] if want["rel_tol"] == 0 else abs(got - want["value"]) <= bound
        print(f"  {name:16} pinned {want['value']!r:24} got {got!r:24} {'ok' if ok else 'DIFFERS'}")
        if not ok:
            failures.append(f"{name}: {got!r} != pinned {want['value']!r}")
    if failures:
        sys.exit("check_sim_pin.py: " + "; ".join(failures))
    print(f"check_sim_pin.py: {len(pin['metrics'])} {pin['workload']} metrics match the pin")


if __name__ == "__main__":
    main()
