#!/usr/bin/env python3
"""Checks that the benchmark measures one commit steadily.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2]
                                    [--workloads mo-mixed,do-churn]

Runs independent sets of runs of the current checkout, each run on its own
seed (never the held-out seed), interleaving workloads so slow drifts of
the machine hit every workload alike. For every workload and end-to-end
metric of BENCHMARK.json it prints each set's median and quartile spread
(Q3 - Q1 over the median, from statistics.quantiles(n=4)), and whether

  - every set's spread stays within the metric's bound (setup_s exempt),
  - no later set's median is worse than the first set's by more than it.

Exits 1 when any check fails or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import HELD_OUT_SEED  # noqa: E402


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None or not result["correct"] \
            or result["failed"] != 0:
        raise RuntimeError("%s seed %d failed (exit %d)" %
                           (workload, seed, proc.returncode))
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]

    seeds = [s for s in range(args.first_seed,
                              args.first_seed + args.runs * args.sets + 1)
             if s != HELD_OUT_SEED][:args.runs * args.sets]
    values = {}  # (set, workload, metric) -> [values]
    for k in range(args.sets):
        for i in range(args.runs):
            seed = seeds[k * args.runs + i]
            for workload in workloads:
                got = run_once(workload, seed, args.seconds)
                print("set %d run %d %s seed %d: %s" % (
                    k + 1, i + 1, workload, seed,
                    " ".join("%s=%.4g" % kv for kv in sorted(got.items()))),
                    flush=True)
                for name, value in got.items():
                    values.setdefault((k, workload, name), []).append(value)

    ok = True
    print("\n%-14s %-24s %12s %12s %8s %8s %6s  %s" % (
        "workload", "metric", "median1", "median2", "spread1", "spread2",
        "bound", "verdict"))
    for workload in workloads:
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            stats = [spread(values[(k, workload, name)])
                     for k in range(args.sets)]
            verdicts = []
            if name != "setup_s" and any(s > bound for _, s in stats):
                verdicts.append("spread>bound")
            first = stats[0][0]
            for med, _ in stats[1:]:
                worse = (med - first) if metric["better"] == "lower" \
                    else (first - med)
                if first and worse / first > bound:
                    verdicts.append("median shift %.3f>bound" %
                                    (worse / first))
            ok = ok and not verdicts
            print("%-14s %-24s %12.5g %12.5g %8.3f %8.3f %6.2f  %s" % (
                workload, name, stats[0][0], stats[-1][0], stats[0][1],
                stats[-1][1], bound, "; ".join(verdicts) or "pass"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
