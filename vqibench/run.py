#!/usr/bin/env python3
"""End-to-end benchmark of the ``repro/v1`` pattern service.

Usage (from the repository root)::

    python3 vqibench/run.py --workload formulate --seed 1 --seconds 20 --trace 0

``--trace 0`` starts ``repro-vqi serve`` as a child process, drives it
over persistent HTTP connections with the named workload
(``formulate``, ``maintain`` or ``build``), checks every answer, and
prints each end-to-end metric.  ``--trace 1`` makes the in-process
traced run instead and prints the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("formulate", "maintain", "build")


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def measure(name: str, seed: int, seconds: float) -> Dict[str, object]:
    """Replay whole rounds of the workload until ``seconds`` of
    rounds have run; check each round's answers after it."""
    from workloads import INTERACT_OPS, QUERY_OPS, WORKLOADS, p90

    workload = WORKLOADS[name](seed)
    rounds = []
    measured = 0.0
    while not rounds or measured < seconds:
        started = time.perf_counter()
        result = workload.run_round(len(rounds))
        measured += time.perf_counter() - started
        workload.check(result)
        rounds.append(result)

    log = rounds[0].log
    for result in rounds[1:]:
        log.merge(result.log)
    queries = [s * 1000 for op in QUERY_OPS
               for s in log.samples.get(op, [])]
    interact = [s * 1000 for op in INTERACT_OPS
                for s in log.samples.get(op, [])]
    completed = sum(r.completed for r in rounds)
    metrics = {
        "setup_s": metric(statistics.median(r.setup_s for r in rounds),
                          "s"),
        "throughput_rps": metric(
            completed / sum(r.load_s for r in rounds), "req/s"),
        "query_p50_ms": metric(statistics.median(queries), "ms"),
        "query_p90_ms": metric(p90(queries), "ms"),
        "interact_p50_ms": metric(statistics.median(interact), "ms"),
        "task_p50_s": metric(statistics.median(
            s for r in rounds for s in r.tasks), "s"),
        "rss_peak_mb": metric(statistics.median(r.rss_mb
                                                for r in rounds), "MB"),
    }
    print(f"workload {name} seed {seed}: {len(rounds)} round(s), "
          f"{measured:.1f} s measured")
    for op in sorted(log.attempted):
        print(f"ops {op}: attempted {log.attempted[op]} "
              f"failed {log.failed.get(op, 0)}")
    for error in log.errors:
        print(f"failed {error}")
    print(f"samples query={len(queries)} interact={len(interact)} "
          f"task={sum(len(r.tasks) for r in rounds)} "
          f"setup={len(rounds)}")
    extra: Dict[str, List[float]] = {}
    for result in rounds:
        for key, values in result.extra.items():
            extra.setdefault(key, []).extend(values)
    for key, values in sorted(extra.items()):
        print(f"report {key} = {statistics.median(values):.4f} "
              f"(median of {len(values)})")
    for problem in workload.problems[:20]:
        print(f"CHECK FAILED {problem}")
    return {"correct": not workload.problems,
            "attempted": sum(log.attempted.values()),
            "failed": sum(log.failed.values()),
            "metrics": metrics}


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # serial pipelines in-process too, as in the served child
    os.environ["REPRO_WORKERS"] = "1"
    from harness import WORK
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        if args.trace:
            from traced import traced_run
            result = traced_run(args.seed)
        else:
            result = measure(args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for name, entry in result["metrics"].items():
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
