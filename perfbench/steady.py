#!/usr/bin/env python3
"""Steadiness check: runs workloads repeatedly and reports the spread of
every end-to-end metric.

    python3 perfbench/steady.py [--workloads fig1-read,...] [--runs 10]
        [--reruns 5]

For each workload it makes two sets of runs through perfbench/run.py, with
the run length of BENCHMARK.json:

- across seeds: --runs runs with seeds 1, 2, ..., --runs;
- on one seed: --reruns runs, all with seed 1 (none when 0).

For every metric it prints the median and the first and third quartiles
(statistics.quantiles(values, n=4)) of the runs across seeds, their
distance as a share of the median, the same share for the reruns of one
seed, and the metric's bound in BENCHMARK.json. The verdict is "NOT steady"
when any spread, setup_s included, is above a third of its metric's bound,
when a simulated metric (every one but wall_s, setup_s and peak_rss_mb)
differs between reruns of one seed, when a run is not correct, or when the
share of failed operations differs between runs.
Run it from the root of a checkout.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HOST_METRICS = ("wall_s", "setup_s", "peak_rss_mb")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"steady: {workload} seed {seed} failed "
                 f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    print(f"{workload} seed {seed}: correct={result['correct']}",
          file=sys.stderr)
    return result


def spread(values):
    """Quartile distance as a share of the median, with the quartiles."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf"), q1, med, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--reruns", type=int, default=5)
    args = parser.parse_args()
    if args.runs < 2 or args.reruns == 1 or args.reruns < 0:
        sys.exit("steady: --runs must be at least 2, --reruns 0 or at least 2")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    steady = True
    for workload in args.workloads.split(","):
        seconds = spec["run_seconds"]
        seeds = [run_once(workload, s, seconds) for s in range(1, args.runs + 1)]
        reruns = [run_once(workload, 1, seconds) for _ in range(args.reruns)]
        everything = seeds + reruns
        shares = {r["failed"] / r["attempted"] for r in everything}
        correct = all(r["correct"] for r in everything)
        print(f"\n{workload}: seeds 1-{args.runs}, {args.reruns} reruns of "
              f"seed 1, all correct: {correct}, failed shares: "
              f"{sorted(shares)}")
        print(f"  {'metric':24} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'1-seed':>7} {'bound':>6}")
        for name in bounds:
            s, q1, med, q3 = spread([r["metrics"][name]["value"]
                                     for r in seeds])
            flags = []
            if s > bounds[name] / 3:
                flags.append("spread above bound/3")
            one = ""
            if reruns:
                values = [r["metrics"][name]["value"] for r in reruns]
                s1 = spread(values)[0]
                one = f"{s1:7.4f}"
                if s1 > bounds[name] / 3:
                    flags.append("1-seed spread above bound/3")
                if name not in HOST_METRICS and len(set(values)) != 1:
                    flags.append("differs between reruns of one seed")
            steady = steady and not flags
            print(f"  {name:24} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{s:7.4f} {one:>7} {bounds[name]:6.3f}"
                  + ("  <-- " + "; ".join(flags) if flags else ""))
        if len(shares) != 1 or not correct:
            steady = False
    print("\nsteady" if steady else "\nNOT steady")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
