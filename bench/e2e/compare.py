#!/usr/bin/env python3
"""Paired-run comparison of two vipvt_e2e binaries (a parent and a change).

    python3 bench/e2e/compare.py PARENT_BIN CHANGE_BIN [--workload NAME ...]
        [--pairs 10] [--seed 1000]

For every workload, runs --pairs pairs of the two binaries, alternating
which side runs first, with the same seed on both sides of a pair and a
new seed per pair.  Each run lasts BENCHMARK.json's run_seconds.  For every end-to-end metric it prints each side's
median and quartiles, the change's win rate over the pairs (ties count
for neither side) and a verdict:

  gain         the change wins at least 9 of 10 pairs and the medians
               differ by more than the parent's own quartile distance;
  regression   the change's median is worse than the parent's by more
               than the metric's bound in BENCHMARK.json;
  unresolved   the parent's own spread exceeds the bound, and not every
               change run beats every parent run;
  no change    otherwise.

A gain is void when the change fails more units than the parent.  Uses
the Python standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
WORKLOADS = ["wafer_mc", "wafer_screened", "wafer_stress", "campaign_portfolio"]


def run_once(binary, workload, seed, seconds, out):
    """One run's workload result, or None when the run wrote none."""
    if os.path.exists(out):
        os.remove(out)
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--layers", "0", "--out", out],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if not os.path.exists(out):
        return None, proc.returncode
    with open(out) as f:
        r = json.load(f)["workloads"][0]
    return r, proc.returncode


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def verdict(parent, change, higher_better, bound, change_failed_more):
    sign = 1.0 if higher_better else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    p_iqr = p_q3 - p_q1
    if (wins >= 0.9 * len(parent) and sign * (c_med - p_med) > p_iqr
            and not change_failed_more):
        return "gain", wins
    if sign * (p_med - c_med) > bound * abs(p_med):
        return "regression", wins
    all_better = (min(change) > max(parent) if higher_better
                  else max(change) < min(parent))
    if p_med and p_iqr / abs(p_med) > bound and not all_better:
        return "unresolved", wins
    return "no change", wins


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1000,
                    help="first pair's seed; pick one not used while writing "
                         "the change")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics, seconds = spec["end_to_end"], spec["run_seconds"]

    for workload in args.workload or WORKLOADS:
        runs = {"parent": [], "change": []}
        failed = {"parent": 0, "change": 0}
        with tempfile.TemporaryDirectory() as tmp:
            for i in range(args.pairs):
                order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
                pair = {}
                for side in order:
                    binary = args.parent if side == "parent" else args.change
                    r, rc = run_once(binary, workload, args.seed + i,
                                     seconds, os.path.join(tmp, side + ".json"))
                    if r is None:  # crashed or killed: no metrics to count
                        failed[side] += 1
                        continue
                    pair[side] = r["metrics"]
                    failed[side] += r["failed"] + (1 if rc != 0 else 0)
                if len(pair) == 2:  # a pair with a missing side is left out
                    for side in pair:
                        runs[side].append(pair[side])
                print(f"# {workload}: pair {i + 1}/{args.pairs} done",
                      file=sys.stderr)
        print(f"\n{workload}  (failed units: parent {failed['parent']}, "
              f"change {failed['change']}; {len(runs['parent'])} complete pairs)")
        if not runs["parent"]:
            continue
        print(f"  {'metric':<14} {'parent q1/med/q3':>36} "
              f"{'change q1/med/q3':>36} {'wins':>6}  verdict")
        for m in metrics:
            name = m["name"]
            p = [r[name]["value"] for r in runs["parent"]]
            c = [r[name]["value"] for r in runs["change"]]
            v, wins = verdict(p, c, m["better"] == "higher", m["bound"],
                              failed["change"] > failed["parent"])
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"  {name:<14} {fmt(quartiles(p)):>36} {fmt(quartiles(c)):>36} "
                  f"{wins:>3}/{len(p):<2}  {v}")


if __name__ == "__main__":
    main()
