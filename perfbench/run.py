#!/usr/bin/env python3
"""BullFrog wall-clock benchmark under live migration.

    python3 perfbench/run.py --workload tpcc-split --seed 1 --seconds 30 --trace 0

Builds perfbench/bfbench.exe from source with dune, then runs rounds of
the workload (each round a fresh process: set-up, warm-up, idle phase,
flip, migration phase, backfill, finalize, correctness check) until
--seconds have passed, and prints one JSON line with the run's metrics.

--trace 0 reports the end-to-end metrics, each the median over the
run's rounds of that round's value (a round's latency percentiles are
over all its operations in that phase).  --trace 1 alternates untraced and traced
rounds and reports the per-layer metrics (medians over the traced
rounds) plus the tracing overhead; spans go to
.perfbench_out/spans-<workload>-<seed>.jsonl.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bfbench.exe")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("tpcc-split", "kv-wire-cluster", "kv-rollback")
ROUND_TIMEOUT_S = 120
# Rounds run on one CPU.  The program runs one OCaml thread at a time (no
# code uses Domain), so a second CPU gives it no parallelism, only
# cross-CPU wake-ups: on a 2-vCPU VM each wire hand-off between threads
# on different vCPUs waits for the host to wake the idle one, which made
# kv-wire-cluster rounds of identical inputs differ 2-3x in throughput.
ROUND_CPU = min(os.sched_getaffinity(0))

END_TO_END_UNITS = {
    "setup_s": "s",
    "idle_tput": "ops/s",
    "idle_p50_us": "us",
    "idle_p99_us": "us",
    "mig_tput": "ops/s",
    "mig_p50_us": "us",
    "mig_p99_us": "us",
    "backfill_s": "s",
    "heap_live_mb": "MB",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    r = subprocess.run(
        # no shared cache: the build writes only under the checkout
        ["dune", "build", "--root", ROOT, "--cache=disabled", "./perfbench/bfbench.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if r.returncode != 0 or not os.path.exists(EXE):
        log("perfbench: build failed")
        sys.exit(r.returncode or 1)


def run_round(workload, seed, traced, index):
    cmd = [
        EXE,
        "--workload", workload,
        "--seed", str(seed),
        "--trace", "1" if traced else "0",
        "--round", str(index),
        "--out", OUT,
    ]
    pin = lambda: os.sched_setaffinity(0, {ROUND_CPU})
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, preexec_fn=pin) as p:
        try:
            out, _ = p.communicate(timeout=ROUND_TIMEOUT_S)
        finally:
            if p.poll() is None:
                p.kill()
                p.wait()
    lines = out.decode().strip().splitlines()
    if p.returncode != 0 or not lines:
        log("perfbench: round %d exited with %d" % (index, p.returncode))
        sys.exit(1)
    return json.loads(lines[-1])


def percentile(sorted_xs, p):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, math.ceil(p * len(sorted_xs)) - 1)
    return sorted_xs[k]


def completed(phase):
    return phase["attempted"] - phase["failed"]


def end_to_end(rounds):
    def med(f):
        return statistics.median(f(r) for r in rounds)

    def pct(name, p):
        return med(lambda r: percentile(sorted(r["phases"][name]["lat_us"]), p))

    values = {
        "setup_s": med(lambda r: r["setup_s"]),
        "idle_tput": med(lambda r: completed(r["phases"]["idle"]) / r["phases"]["idle"]["wall_s"]),
        "idle_p50_us": pct("idle", 0.50),
        "idle_p99_us": pct("idle", 0.99),
        "mig_tput": med(lambda r: completed(r["phases"]["mig"]) / r["phases"]["mig"]["wall_s"]),
        "mig_p50_us": pct("mig", 0.50),
        "mig_p99_us": pct("mig", 0.99),
        "backfill_s": med(lambda r: r["backfill_s"]),
        "heap_live_mb": med(lambda r: r["heap_live_mb"]),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(traced, untraced, units):
    metrics = {}
    for name, unit in units.items():
        if name == "trace.overhead_pct":
            def tput(rs):
                return statistics.median(
                    completed(r["phases"]["idle"]) / r["phases"]["idle"]["wall_s"] for r in rs)
            value = 100.0 * (1.0 - tput(traced) / tput(untraced))
        else:
            value = statistics.median(r["layers"].get(name, 0.0) for r in traced)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def layer_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Terminated from outside: unwind, so the running round is killed
    # and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    build()
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, "spans-%s-%d.jsonl" % (args.workload, args.seed))
    if os.path.exists(spans):
        os.remove(spans)

    rounds = []
    durations = []
    deadline = time.time() + args.seconds
    min_rounds = 2 if args.trace else 1
    # A round starts only if it is expected to end no more than half a
    # round past the deadline, so a run lasts --seconds give or take half
    # a round.  Round 0 also runs the replay check, so later rounds
    # predict the length once there are any.
    while len(rounds) < min_rounds or (
            time.time() + statistics.median(durations[1:] or durations) / 2 < deadline):
        traced = args.trace == 1 and len(rounds) % 2 == 1
        t0 = time.time()
        r = run_round(args.workload, args.seed, traced, len(rounds))
        durations.append(time.time() - t0)
        log("round %d%s: %s, setup %.3fs, backfill %.3fs, idle %.0f ops/s, mig %.0f ops/s" % (
            len(rounds), " (traced)" if traced else "",
            "correct" if r["correct"] else "WRONG: " + r["check"],
            r["setup_s"], r["backfill_s"],
            completed(r["phases"]["idle"]) / r["phases"]["idle"]["wall_s"],
            completed(r["phases"]["mig"]) / r["phases"]["mig"]["wall_s"]))
        for f in r["failures"]:
            log("  failed: " + f)
        rounds.append(r)

    phases = list(rounds[0]["phases"])
    attempted = sum(r["phases"][p]["attempted"] for r in rounds for p in phases)
    failed = sum(r["phases"][p]["failed"] for r in rounds for p in phases)
    print("rounds %d; %s" % (len(rounds), "; ".join(
        "%s attempted %d failed %d" % (
            p,
            sum(r["phases"][p]["attempted"] for r in rounds),
            sum(r["phases"][p]["failed"] for r in rounds))
        for p in phases)))
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        untraced = [r for r in rounds if not r["traced"]]
        metrics = per_layer(traced, untraced, layer_units())
        log("spans: " + spans)
    else:
        metrics = end_to_end(rounds)
    print(json.dumps({
        "correct": all(r["correct"] for r in rounds),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
