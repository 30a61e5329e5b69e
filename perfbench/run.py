#!/usr/bin/env python3
"""Build and run the open-loop serving benchmark on one workload.

    python3 perfbench/run.py --workload mo-mixed --seed 1 --seconds 30 --trace 0

Builds the library of the checkout this directory sits in, together with
the load generator in perfbench/src, into <build>/perfbench (<build> is
$CARGO_TARGET_DIR or .bench_build), runs one workload, and prints as the
last line of stdout one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics, --trace 1
the per-layer ones. The full record, with host facts (nproc, compiler,
build type), is written to <build>/perfbench/results/.

Seeds: DEFAULT_SEED is the seed for quick checks; HELD_OUT_SEED is kept out
of every tuning and steadiness run so that a later claimed gain can be
confirmed on inputs nobody tuned against.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mo-mixed", "do-churn", "cluster-mixed")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
# One run must end within 180 s; the binary gets this long.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures once and builds incrementally; returns the binary path."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    with open(os.path.join(out_dir, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out_dir, "-j",
                      str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.exit("perfbench: build failed (see %s)" % log_path)
    return os.path.join(out_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "server",
                                       "bc_service.h")):
        sys.exit("perfbench: no library sources next to %s; run from a "
                 "full checkout" % HERE)

    out_dir = build_dir()
    binary = build(out_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(out_dir, "work")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s seed %d exceeded %d s" %
                 (args.workload, args.seed, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("perfbench: no result from %s (exit %d)" %
                 (binary, proc.returncode))

    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    record["seconds"] = args.seconds
    record["trace"] = args.trace
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(results, name), "w") as out:
        json.dump(record, out, indent=1)

    print("# host %s" % json.dumps(record["host"]))
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    sys.stdout.flush()
    if proc.returncode != 0 or not record["correct"]:
        sys.exit(proc.returncode or 1)


if __name__ == "__main__":
    main()
