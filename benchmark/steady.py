#!/usr/bin/env python3
"""Steadiness check for the TELS benchmark.

Runs a workload k times, each run with the next seed, and prints for every
end-to-end metric its median, quartiles and spread (Q3-Q1 over the median,
quartiles as statistics.quantiles(values, n=4) gives them) against the
metric's bound in BENCHMARK.json. With --second-seed it repeats the set
from another first seed and prints how far the second median moved in the
metric's worse direction, also against the bound. A spread above its bound
makes a metric "unresolved" at that bound, not "unchanged".

Run from the root of a TELS checkout:

    python3 benchmark/steady.py --workload telsd-mix --runs 10 --seed 1 --second-seed 101
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    cmd = ["bash", "benchmark/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed ({proc.returncode}): {' '.join(cmd)}\n{proc.stderr[-2000:]}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"incorrect run: {' '.join(cmd)}\n{lines[-1]}")
    return res, wall


def run_set(workload, first_seed, runs, seconds):
    values, walls = {}, []
    for i in range(runs):
        res, wall = run_once(workload, first_seed + i, seconds)
        walls.append(wall)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        shown = " ".join(f"{k}={m['value']:.4g}" for k, m in sorted(res["metrics"].items())
                         if not k.endswith("_total"))
        print(f"  seed {first_seed + i}: {wall:.1f} s {shown}", file=sys.stderr)
    return values, walls


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("nan")
    return med, q1, q3, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first run")
    ap.add_argument("--second-seed", type=int, help="first seed of a second set of runs")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    defs = {m["name"]: m for m in bench["end_to_end"]}

    sets = [run_set(args.workload, args.seed, args.runs, seconds)]
    if args.second_seed is not None:
        sets.append(run_set(args.workload, args.second_seed, args.runs, seconds))

    print(f"{args.workload}: {args.runs} runs per set, run_seconds={seconds}, "
          f"wall per run median {statistics.median(sets[0][1]):.1f} s")
    header = f"{'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}"
    if len(sets) > 1:
        header += f" {'median2':>12} {'worse2':>8}"
    print(header)
    ok = True
    for name in sorted(sets[0][0]):
        d = defs[name]
        bound = d["bound"]
        med, q1, q3, spread = summarize(sets[0][0][name])
        line = f"{name:24} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} {bound:6.2f}"
        flag = ""
        if spread > bound:
            flag, ok = " SPREAD>BOUND", False
        if len(sets) > 1:
            med2 = summarize(sets[1][0][name])[0]
            worse = (med2 - med) / med if med else 0.0
            if d.get("better") == "higher":
                worse = -worse
            line += f" {med2:12.6g} {worse:8.2%}"
            if worse > bound:
                flag, ok = flag + " MEDIAN-SHIFT>BOUND", False
        print(line + flag)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
