#!/usr/bin/env python3
"""Layered benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload churn --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

It builds the benchmark executable from source with dune (inside the
checkout's own _build directory, with dune's shared cache off), runs it,
and relays its output.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The exit
code is nonzero when the build fails, the checkout is incomplete, or a
correctness gate fails.  See perfbench/README.md for the metrics.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["program_t", "churn", "explicit_churn"]
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def host_line():
    """What the figures depend on: cores, and whether the host exposes a
    CPU performance-monitoring unit (none is used either way)."""
    return "host: " + json.dumps(
        {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_pmu": os.path.isdir("/sys/bus/event_source/devices/cpu"),
            "hardware_counters_used": False,
        }
    )


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a full checkout "
              "(dune-project and lib/ are missing)", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    return done.returncode


def run_one(workload, seed, seconds, trace):
    """Run the benchmark executable once; returns (exit code, stdout lines)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3, []
    return done.returncode, done.stdout.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    code = build()
    if code != 0:
        return code or 1

    if args.workload != "all":
        code, lines = run_one(args.workload, args.seed, args.seconds, args.trace)
        if code != 0 or not lines:
            # a failed gate still prints its result line, marked incorrect
            print("\n".join(lines))
            return code or 1
        print("\n".join(lines[:-1]))
        print(host_line())
        print(lines[-1])
        return 0

    # Every workload in turn; the summary line keys metrics by workload.
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in WORKLOADS:
        code, lines = run_one(w, args.seed, args.seconds, args.trace)
        print("\n".join(lines[:-1]))
        worst = worst or code
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            merged["correct"] = False
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{w}/{name}"] = m
    print(host_line())
    print(json.dumps(merged))
    return worst or (0 if merged["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
