#!/usr/bin/env python3
"""Steadiness harness for the end-to-end benchmark.

Runs the benchmark command from BENCHMARK.json several times per
workload, each run with another seed, and prints for every metric the
median, the quartiles and the spread (interquartile distance as a share
of the median). An end-to-end metric whose spread exceeds its bound is
flagged UNSTEADY (setup_s is reported but exempt, as its bound guards
the median, not the spread); one above a third of its bound is flagged
wide.

    python3 e2ebench/steady.py --runs 10 --seed0 1
    python3 e2ebench/steady.py --runs 5 --workloads mix-churn
    python3 e2ebench/steady.py --runs 2 --trace 1   # per-layer spreads

Run from the repository root. Exits non-zero if any run fails, reports
an incorrect answer, or an end-to-end spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(argv, capture_output=True, text=True)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    # Workload-specific end-to-end metrics are printed, not in the JSON.
    for line in lines[:-1]:
        f = line.split()
        if len(f) >= 5 and f[0] == "e2e" and f[2] not in values:
            try:
                values[f[2]] = float(f[3])
            except ValueError:
                pass
    return result, values, wall


def spread(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0], 0.0
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--bench", default="BENCHMARK.json")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=0, help="override run_seconds")
    ap.add_argument("--raw", action="store_true", help="also print every run's value")
    args = ap.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")

    bad = False
    for wl in names:
        per_metric, walls = {}, []
        for i in range(args.runs):
            seed = args.seed0 + i
            result, values, wall = run_once(bench["command"], wl, seed, seconds, args.trace)
            walls.append(wall)
            if not result["correct"] or result["failed"]:
                print(f"{wl} seed {seed}: correct={result['correct']} failed={result['failed']}")
                bad = True
            for name, v in values.items():
                per_metric.setdefault(name, []).append(v)
        print(f"== {wl}: {args.runs} runs, seeds {args.seed0}..{args.seed0 + args.runs - 1}, "
              f"run wall median {statistics.median(walls):.1f}s max {max(walls):.1f}s")
        for name, vals in per_metric.items():
            med, q1, q3, sp = spread(vals)
            flag = ""
            if name in bounds:
                if sp > bounds[name] and name != "setup_s":
                    flag, bad = "UNSTEADY", True
                elif sp > bounds[name] / 3:
                    flag = "wide"
                flag = f"bound {bounds[name]:.2f} {flag}"
            print(f"  {name:34s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  spread {sp:6.3f}  {flag}")
            if args.raw:
                print("      " + " ".join(f"{v:.4g}" for v in vals))
        sys.stdout.flush()
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
