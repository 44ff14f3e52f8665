#!/usr/bin/env python3
"""Steadiness check for the softbench benchmark.

Runs BENCHMARK.json's command on every workload once per tuning seed, then
several times on one held-out seed that no tuning used, and reports, per
end-to-end metric, the median, the quartile spread (q3 - q1) / median and
the metric's bound. A spread above a third of its bound is marked "noisy",
above the bound "OVER". The held-out seed's median is reported as a share
of the tuning median, so a later claim can be re-checked on a seed it was
not tuned on.

    python3 softbench/steady.py                       # 10 seeds + held-out
    python3 softbench/steady.py --workloads analytic_sc --seeds 1-5
    python3 softbench/steady.py --trace 1 --seeds 1-2  # per-layer metrics
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed: %s (exit %d)" % (" ".join(cmd), proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("run reported incorrect or failed statements: %s" % " ".join(cmd))
    return result["metrics"]


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser(description="softbench steadiness check")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="tuning seeds, e.g. 1-10")
    parser.add_argument("--heldout", type=int, default=1009, help="held-out seed")
    parser.add_argument("--heldout-runs", type=int, default=3)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        tuned, held = {}, {}
        for seed in parse_seeds(args.seeds):
            for name, m in run_once(bench["command"], workload, seed, args.seconds, args.trace).items():
                tuned.setdefault(name, []).append(m["value"])
        for _ in range(args.heldout_runs):
            for name, m in run_once(bench["command"], workload, args.heldout, args.seconds, args.trace).items():
                held.setdefault(name, []).append(m["value"])
        print("== %s (seeds %s, held-out seed %d x%d)" % (
            workload, args.seeds, args.heldout, args.heldout_runs))
        print("%-34s %14s %8s %6s %10s  %s" % ("metric", "median", "spread", "bound", "held/tuned", "values"))
        for name, values in tuned.items():
            med, sp = spread(values) if len(values) > 1 else (values[0], 0.0)
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s":
                mark = "OVER" if sp > bound else ("noisy" if sp > bound / 3 else "")
                ok = ok and sp <= bound
            ratio = statistics.median(held[name]) / med if med else float("nan")
            print("%-34s %14.6g %8.4f %6s %10.4f  %s %s" % (
                name, med, sp, "-" if bound is None else bound, ratio,
                " ".join("%.4g" % v for v in values), mark))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
