#!/usr/bin/env python3
"""Paired A/B run of distbench: a parent revision against the working tree.

    python3 tools/ab_distbench.py PARENT_REV [--seeds N] [--workload W ...]

Run from the repository root. PARENT_REV's files are exported with
`git archive` into build/ab/tree-<rev>/ and its distbench is built there
by that tree's own benchmark/run.py; the working tree's distbench is
built by ours. For every seed 1..N (default 10) and every workload
(default all four) the two sides then run back to back, each as its own
`distbench --workload W --seed S` process (the binaries run.py built, so
an edit to the working tree mid-run cannot trigger a rebuild), and the
side that goes first alternates from seed to seed, so drift in the
machine's speed lands on both sides alike. Each run's output is kept in
build/ab/parent/ and build/ab/change/ (one file per workload and seed),
and last `benchmark/compare.py` prints the seed-by-seed verdicts of the
two directories.

Exits nonzero when a build fails, a run fails its correctness checks, or
compare.py fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["llama_decode", "mixed_burst", "fleet_prefix", "paper_sweep"]
AB = os.path.join(ROOT, "build", "ab")


def export_tree(rev):
    """Export `rev` into build/ab/tree-<sha>/ once; return the tree path."""
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", rev], check=True,
                         capture_output=True, text=True).stdout.strip()
    tree = os.path.join(AB, "tree-" + sha)
    if not os.path.isdir(tree):
        os.makedirs(tree + ".tmp", exist_ok=True)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha], stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tree + ".tmp"], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            sys.exit(f"ab_distbench.py: git archive {rev} failed")
        os.rename(tree + ".tmp", tree)
    return tree


def build(tree):
    """Build `tree`'s distbench with its own run.py (a paper_sweep run at seed 1)."""
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "paper_sweep",
                           "--seed", "1"], cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"ab_distbench.py: building distbench in {tree} failed:\n{proc.stderr}")
    return os.path.join(tree, "build", "benchmark", "distbench")


def run(binary, workload, seed, out_dir):
    """One distbench process; its output goes to out_dir/<workload>-seed<seed>.txt."""
    path = os.path.join(out_dir, f"{workload}-seed{seed}.txt")
    with open(path, "w") as out:
        proc = subprocess.run([binary, "--workload", workload, "--seed", str(seed),
                               "--trace", "0"], stdout=out, stderr=subprocess.DEVNULL)
    if proc.returncode != 0:
        sys.exit(f"ab_distbench.py: {workload} seed {seed} failed in {binary} (see {path})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_rev")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    workloads = args.workload or WORKLOADS

    binaries = {"parent": build(export_tree(args.parent_rev)), "change": build(ROOT)}
    for side in binaries:
        shutil.rmtree(os.path.join(AB, side), ignore_errors=True)
        os.makedirs(os.path.join(AB, side))

    for seed in range(1, args.seeds + 1):
        order = ["parent", "change"] if seed % 2 else ["change", "parent"]
        for workload in workloads:
            for side in order:
                run(binaries[side], workload, seed, os.path.join(AB, side))
        print(f"ab_distbench.py: seed {seed} done ({' first, '.join(order)} second)",
              file=sys.stderr, flush=True)

    sys.exit(subprocess.run([sys.executable, os.path.join(ROOT, "benchmark", "compare.py"),
                             os.path.join(AB, "parent"), os.path.join(AB, "change")]).returncode)


if __name__ == "__main__":
    main()
