#!/usr/bin/env python3
"""Steadiness of the end-to-end metrics: run one workload N times, each
with another seed, and print each metric's median, quartiles and spread
(interquartile distance as a share of the median) next to its bound.

    python3 perfbench/steady.py --workload kv-rollback --runs 10 --save a.json
    python3 perfbench/steady.py --workload kv-rollback --runs 10 --against a.json

--against compares this set's medians with a saved set: a metric whose
median got worse by more than its bound is marked WORSE.  This is how
the bounds in BENCHMARK.json were set and how two sets of runs of the
same commit are checked to agree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    lines = r.stdout.decode().strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.exit("run.py failed for seed %d (exit %d)" % (seed, r.returncode))
    return json.loads(lines[-1])


def worse_by(old, new, better):
    """Share by which [new] is worse than [old] (negative = better)."""
    return (old - new) / old if better == "higher" else (new - old) / old


def main():
    s = spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=s["run_seconds"])
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()

    values = {m["name"]: [] for m in s["end_to_end"]}
    shares = []
    for seed in range(1, args.runs + 1):
        r = run_once(args.workload, seed, args.seconds)
        if not r["correct"]:
            sys.exit("seed %d: outputs incorrect" % seed)
        shares.append(r["failed"] / r["attempted"])
        for name in values:
            values[name].append(r["metrics"][name]["value"])
        print("seed %d: %s" % (seed, "  ".join(
            "%s=%.4g" % (k, v[-1]) for k, v in values.items())), flush=True)

    saved = None
    if args.against:
        with open(args.against) as f:
            saved = json.load(f)
    print("\n%-14s %12s %12s %12s %8s %7s  %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
    for m in s["end_to_end"]:
        xs = values[m["name"]]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("inf")
        verdict = ("steady" if spread < m["bound"] / 3
                   else "within bound" if spread <= m["bound"] else "TOO NOISY")
        if saved:
            w = worse_by(statistics.median(saved["values"][m["name"]]), med, m["better"])
            verdict += "; vs saved %+.1f%% %s" % (
                -100 * w if m["better"] == "higher" else 100 * w,
                "WORSE" if w > m["bound"] else "ok")
        print("%-14s %12.4g %12.4g %12.4g %7.1f%% %6.0f%%  %s" % (
            m["name"], med, q1, q3, 100 * spread, 100 * m["bound"], verdict))
    print("failed share per run: min %.6f max %.6f" % (min(shares), max(shares)))
    if saved:
        print("failed share same as saved set: %s" % (
            sorted(set(shares)) == sorted(set(saved["failed_share"]))))
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "values": values, "failed_share": shares}, f)


if __name__ == "__main__":
    main()
