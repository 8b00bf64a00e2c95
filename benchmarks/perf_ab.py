#!/usr/bin/env python
"""Interleaved A/B runs of the repository benchmark against a base revision.

Exports the committed files of ``--base`` into a temporary directory (``git
archive``, so the repository's checkout and worktree list stay untouched)
and runs ``perfbench/run.py --trace 0`` alternately in that tree and in this
checkout (the change, including uncommitted edits), switching which side
runs first every round so slow drift of the host hits both sides alike.  The
benchmark itself runs unmodified, one process at a time.

For every end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles, the change's median delta and its win count (pairs in
which the change was better, by the metric's direction), then whether every
run passed its output checks and how many operations failed.

Usage::

    python benchmarks/perf_ab.py --base HEAD --workload chord_churn --rounds 10
    make perf-ab BASE=HEAD~1 WORKLOAD=narada_mesh ROUNDS=10 SEED=3
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export_revision(rev: str, dest: str) -> None:
    """Write the committed files of *rev* under *dest*."""
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", rev],
        check=True, stdout=subprocess.PIPE,
    ).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_once(tree: str, workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """One ``--trace 0`` run in *tree*; returns its final JSON line."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"perfbench in {tree} printed nothing:\n{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(xs: List[float]) -> Tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(spec: Dict[str, Any], runs: Dict[str, List[Dict[str, Any]]]) -> List[str]:
    lines = [
        f"{'metric':20s} {'base median [q1, q3]':>32s} {'change median [q1, q3]':>32s}"
        f" {'delta':>8s} {'wins':>6s}"
    ]
    for metric in spec["end_to_end"]:
        name = metric["name"]
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        sign = 1 if metric["better"] == "lower" else -1
        wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
        bq, cq = quartiles(base), quartiles(change)
        delta = (cq[1] - bq[1]) / bq[1] * 100 if bq[1] else 0.0
        lines.append(
            f"{name:20s} {bq[1]:12.5g} [{bq[0]:8.5g}, {bq[2]:8.5g}]"
            f" {cq[1]:12.5g} [{cq[0]:8.5g}, {cq[2]:8.5g}]"
            f" {delta:+7.1f}% {wins:3d}/{len(base)}"
        )
    for side in ("base", "change"):
        correct = all(r["correct"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        lines.append(
            f"{side}: every run correct: {correct}; failed {failed} of {attempted} operations"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", default="chord_churn")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    base_tree = tempfile.mkdtemp(prefix="perf-ab-")
    try:
        export_revision(args.base, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        runs: Dict[str, List[Dict[str, Any]]] = {"base": [], "change": []}
        for k in range(args.rounds):
            order = ("base", "change") if k % 2 == 0 else ("change", "base")
            for side in order:
                result = run_once(trees[side], args.workload, args.seed, spec["run_seconds"])
                runs[side].append(result)
                run_s = result["metrics"]["run_s"]["value"]
                print(f"round {k + 1}/{args.rounds} {side:6s} run_s={run_s:.3f}"
                      f" correct={result['correct']}", flush=True)
    finally:
        shutil.rmtree(base_tree, ignore_errors=True)
    print(f"\n{args.workload} seed {args.seed}, {args.rounds} interleaved rounds,"
          f" base {args.base} vs this checkout")
    print("\n".join(summarize(spec, runs)))
    return 0 if all(r["correct"] for side in runs.values() for r in side) else 1


if __name__ == "__main__":
    sys.exit(main())
