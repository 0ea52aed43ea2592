#!/usr/bin/env python3
"""Build distbench and run benchmark workloads, one process at a time.

    python3 benchmark/run.py [--workload NAME] [--seed N] [--trace [0|1]]

Run from the repository root. The benchmark is configured into
build/benchmark/ (Release) on first use and rebuilt incrementally after.
Each workload runs in its own single-threaded distbench process, and its
output is passed through: a `# distbench` header, every metric by name
with its unit, and last the workload's JSON result line. Without
--workload all four workloads run in turn. A traced run (--trace 1)
reports the per-layer metrics and writes a Perfetto-loadable span file
to build/benchmark/traces/<workload>-seed<N>.json.

How much work a run measures is fixed by each workload's request and
pass counts. `--seconds S` is accepted, so that the standard benchmark
command line (--workload, --seed, --seconds, --trace) works, and changes
nothing.

Exits nonzero, without a result line, when the build fails, and nonzero
when any workload fails its correctness checks.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ["llama_decode", "mixed_burst", "fleet_prefix", "paper_sweep"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build", "benchmark")
BINARY = os.path.join(BUILD, "distbench")
RUN_TIMEOUT_S = 170


def build():
    """Configure (first use) and build distbench; build output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "distbench", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def run_workload(workload, seed, trace):
    """Run one workload, pass its output through, and return its exit code."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {workload} did not finish within {RUN_TIMEOUT_S} s")
    print(proc.stdout, end="", flush=True)
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="accepted; changes nothing")
    parser.add_argument("--trace", type=int, choices=[0, 1], nargs="?", const=1,
                        default=0)
    args = parser.parse_args()

    build()
    status = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        status = run_workload(workload, args.seed, args.trace) or status
    sys.exit(status)


if __name__ == "__main__":
    main()
