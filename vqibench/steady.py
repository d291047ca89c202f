#!/usr/bin/env python3
"""Steadiness check: run each workload in two sets over the same
seeds and report, per end-to-end metric, each set's median, quartiles
and spread (interquartile distance over the median) against the
metric's bound in BENCHMARK.json, how far the second set's median
moved from the first's, and how far one seed's two runs lie apart.
This is how the bounds were set.

Usage (from the repository root)::

    python3 vqibench/steady.py --runs 10 [--workload maintain] [--trace]

A run fails (exit status 1) when a run is not correct, when the share
of failed operations differs between runs, when a spread (other than
that of ``setup_s``) exceeds its bound, or when the second median is
worse than the first by more than the bound.  A spread above a third
of its bound is marked ``> 1/3`` but does not fail.  With ``--trace``
the traced run is repeated at the first seed instead and every count
must repeat exactly across the runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIRST_SEED = 1
SETS = 2


def run_once(workload: str, seed: int, seconds: int,
             trace: bool) -> Dict[str, object]:
    argv = [sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True,
                          text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def report_traced(results: List[Dict[str, object]]) -> int:
    status = 0
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        same = len(set(values)) == 1
        if unit == "count" and not same:
            status = 1
        print(f"  {name:34s} {statistics.median(values):12.6g} "
              f"{unit:6s} {'repeats' if same else 'varies'}")
    return status


def report_sets(sets: List[List[Dict[str, object]]],
                spec: Dict[str, object]) -> int:
    """Spreads of each set, the shift of the second median from the
    first, and the median over seeds of one seed's run-to-run gap."""
    status = 0
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    for name in sets[0][0]["metrics"]:
        bound = metrics[name]["bound"]
        unit = sets[0][0]["metrics"][name]["unit"]
        values = [[r["metrics"][name]["value"] for r in runs]
                  for runs in sets]
        spreads = [spread(v) for v in values]
        first, second = (statistics.median(v) for v in values)
        shift = (second - first) / first
        worse = shift if metrics[name]["better"] == "lower" else -shift
        gap = statistics.median(abs(b - a) / a for a, b in
                                zip(values[0], values[1]))
        marks = []
        if name != "setup_s" and max(spreads) > bound:
            marks.append("SPREAD OVER BOUND")
        elif name != "setup_s" and max(spreads) > bound / 3:
            marks.append("> 1/3")
        if worse > bound:
            marks.append("MEDIAN MOVED OVER BOUND")
        if any(mark.isupper() for mark in marks):
            status = 1
        print(f"  {name:16s} {unit:6s} bound {bound:.2f}  medians "
              f"{first:9.4f} {second:9.4f} (shift {shift:+.3f})  "
              f"spreads {spreads[0]:.3f} {spreads[1]:.3f}  "
              f"seed gap {gap:.3f}  {' '.join(marks)}")
    return status


def main(argv: List[str]) -> int:
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per set (one seed each)")
    parser.add_argument("--workload", action="append",
                        help="workload(s) to run (default: all)")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    status = 0
    for workload in workloads:
        if args.trace:
            sets = [[run_once(workload, FIRST_SEED, spec["run_seconds"],
                              True) for _ in range(args.runs)]]
        else:
            seeds = range(FIRST_SEED, FIRST_SEED + args.runs)
            sets = [[run_once(workload, seed, spec["run_seconds"], False)
                     for seed in seeds] for _ in range(SETS)]
        results = [r for runs in sets for r in runs]
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {len(sets)} x {len(sets[0])} runs, "
              f"correct={correct}, failed shares={sorted(shares)}",
              flush=True)
        if not correct or len(shares) != 1:
            status = 1
        status |= report_traced(results) if args.trace \
            else report_sets(sets, spec)
        sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
