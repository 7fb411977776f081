#!/usr/bin/env python3
"""Steadiness check: run two sets of the same build and compare them.

    python3 perfbench/steady.py [--seeds N]

Each set runs perfbench/run.py once per (workload, seed), seeds 1..N
(default 10), untraced, for BENCHMARK.json's run_seconds. Every run's
values go to stderr, with the share of CPU time the hypervisor stole during
it (outside load). For every (end-to-end metric, workload) pair it prints
each set's median and spread (interquartile range over the median,
statistics.quantiles n=4) and how much worse the second median is than the
first, against the metric's bound in BENCHMARK.json:

  ok          both spreads within the bound and the second median not
              worse by more than the bound
  worse       the second median is worse than the first by more than the
              bound
  unresolved  a set's spread is wider than the bound, so a change of that
              size cannot be told from noise

A trailing '!' marks a spread above a third of the bound, the margin the
benchmark is tuned to. Exits 1 unless every pair is ok.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: correctness check failed\n"
                 f"{proc.stderr[-2000:]}")
    provenance = json.loads(lines[-2].split(": ", 1)[1])
    return ({k: v["value"] for k, v in result["metrics"].items()},
            provenance.get("steal_pct"))


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = range(1, args.seeds + 1)

    sets = []
    for s in range(2):
        values = {}
        for w in workloads:
            values[w] = []
            for seed in seeds:
                run, steal = run_once(w, seed, spec["run_seconds"])
                values[w].append(run)
                print(f"set {s + 1} {w} seed {seed}: {json.dumps(run)} "
                      f"steal_pct {steal}", file=sys.stderr)
        sets.append(values)

    all_ok = True
    print(f"{'workload':24} {'metric':20} {'median1':>12} {'spread1':>8} "
          f"{'median2':>12} {'spread2':>8} {'worse':>7} {'bound':>6}  verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cols, spreads, medians = [], [], []
            for values in sets:
                xs = [run[name] for run in values[w]]
                medians.append(statistics.median(xs))
                spreads.append(spread(xs))
                flag = "!" if spreads[-1] > bound / 3 else " "
                cols.append(f"{medians[-1]:12.6g} {spreads[-1]:7.3f}{flag}")
            a, b = medians
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            if max(spreads) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "worse"
            else:
                verdict = "ok"
            all_ok = all_ok and verdict == "ok"
            print(f"{w:24} {name:20} {' '.join(cols)} {worse:7.3f} "
                  f"{bound:6.2f}  {verdict}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
