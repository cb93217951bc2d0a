#!/usr/bin/env python3
"""Re-checks the benchmark's run-to-run agreement on this host.

Runs two interleaved sets of every workload with the command in
BENCHMARK.json (set A on seeds S..S+N-1, set B on seeds S+N..S+2N-1,
alternating A and B run by run), then prints, per workload and end-to-end
metric, each set's median and quartiles, the spread (Q3 - Q1) / median of
each set, and how far B's median moved from A's. A metric passes when each
spread stays within its bound and B's median is not worse than A's by more
than the bound; the failed share of operations must be identical in the two
sets, and every run must report correct=true. Exits 1 if anything fails.

setup_s is the one exception: its spread is printed but not gated, only its
median shift, as in the benchmark's acceptance rule. A run sets up five
times, so its set-up median rests on five one-off passes and follows the
host's speed swings more than the timed phase does; a change that moves
work into set-up still shows as a median shift.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1] [--workloads serve,resolve]

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    # The first run may compile the benchmark.
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"  {' '.join(args)} reported correct=false:\n{proc.stderr}", flush=True)
    return result


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = [w for w in opts.workloads.split(",") if w in workloads]
    metrics = bench["end_to_end"]
    seeds = {"A": [opts.first_seed + i for i in range(opts.runs)],
             "B": [opts.first_seed + opts.runs + i for i in range(opts.runs)]}
    results = {(w, s): [] for w in workloads for s in "AB"}
    for i in range(opts.runs):
        for w in workloads:
            for s in ("AB" if i % 2 == 0 else "BA"):
                r = run_once(bench["command"], w, seeds[s][i], bench["run_seconds"])
                results[(w, s)].append(r)
                print(f"  run {i + 1}/{opts.runs} {w} set {s} seed {seeds[s][i]}: "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                      flush=True)

    ok = True
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<12} {'set':<3} {'Q1':>12} {'median':>12} {'Q3':>12} {'spread':>8} {'bound':>6}")
        for m in metrics:
            meds = {}
            for s in "AB":
                vals = [r["metrics"][m["name"]]["value"] for r in results[(w, s)]]
                q1, med, q3 = summary(vals)
                spread = (q3 - q1) / med
                meds[s] = med
                flag = ""
                if spread > m["bound"]:
                    if m["name"] == "setup_s":
                        flag = "  (spread not gated)"
                    else:
                        flag, ok = "  SPREAD", False
                print(f"  {m['name']:<12} {s:<3} {q1:>12.6g} {med:>12.6g} {q3:>12.6g} "
                      f"{spread:>8.2%} {m['bound']:>6.0%}{flag}")
            shift = (meds["B"] - meds["A"]) / meds["A"]
            worse = shift if m["better"] == "lower" else -shift
            flag = ""
            if worse > m["bound"]:
                flag, ok = "  MOVED", False
            print(f"  {'':<12} B vs A median {shift:+.2%}{flag}")
        shares = {s: Fraction(sum(r["failed"] for r in results[(w, s)]),
                              sum(r["attempted"] for r in results[(w, s)])) for s in "AB"}
        same = all(Fraction(r["failed"], r["attempted"]) == shares["A"]
                   for s in "AB" for r in results[(w, s)])
        if not same:
            ok = False
        print(f"  failed share A {float(shares['A']):.6%} B {float(shares['B']):.6%}"
              f"{'' if same else '  DIFFERS'}")
        wrong = sorted(seeds[s][i] for s in "AB"
                       for i, r in enumerate(results[(w, s)]) if not r["correct"])
        if wrong:
            ok = False
            print(f"  correct=false on seeds {wrong}")
    print("\nsteady" if ok else "\nNOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
