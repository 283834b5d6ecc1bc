#!/usr/bin/env python3
"""Build vipvt_e2e from source, run one workload, print one JSON result line.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository.  The build goes to
.bench_build/vipvt_e2e at the checkout root (configured once, rebuilt
incrementally).  The benchmark's own report goes to stderr; the last line
of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end_to_end metric of BENCHMARK.json for --trace 0 and every
per_layer metric for --trace 1.  The exit status is the benchmark's: 0
only when every output was correct and every workload gate held.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "vipvt_e2e")
RUN_LIMIT_S = 175


def run(cmd, timeout):
    """Run cmd in its own process group, output to stderr; on timeout kill
    the whole group and wait for it."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: timed out after {timeout:.0f} s: {cmd[0]}",
              file=sys.stderr)
        return 124


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if run(["cmake", "-S", HERE, "-B", BUILD,
                "-DCMAKE_BUILD_TYPE=Release"], 300) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run(["cmake", "--build", BUILD, "-j", jobs], 840) == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = "per_layer" if args.trace == "1" else "end_to_end"
    wanted = [m["name"] for m in spec[section]]

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1

    out = os.path.join(BUILD, f"result-{args.workload}.json")
    if os.path.exists(out):
        os.remove(out)
    t0 = time.monotonic()
    rc = run([os.path.join(BUILD, "vipvt_e2e"), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--layers", args.trace, "--out", out], RUN_LIMIT_S)
    if not os.path.exists(out):
        print(f"run.py: no result after {time.monotonic() - t0:.1f} s "
              f"(exit {rc})", file=sys.stderr)
        return rc or 1
    with open(out) as f:
        result = json.load(f)["workloads"][0]

    source = result["layers"] if args.trace == "1" else result["metrics"]
    missing = [n for n in wanted if n not in source]
    if missing:
        print(f"run.py: benchmark did not report {missing}", file=sys.stderr)
        return rc or 1
    print(json.dumps({
        "correct": bool(result["correct"]) and rc == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: source[n] for n in wanted},
    }))
    return rc


if __name__ == "__main__":
    sys.exit(main())
