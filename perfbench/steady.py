#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/steady.py --workload simulate --seeds 1-10
        [--seconds S] [--trace 0|1] [--out FILE]

For every metric it prints the median over the runs and the quartile
spread (Q3 − Q1) / median, with quartiles as Python's
statistics.quantiles(values, n=4) gives them — the noise measure the
bounds in BENCHMARK.json are judged against. Runs go one after another,
never in parallel, so they do not share cores.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values):
    """(Q3 − Q1) / median of `values` (at least two)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["perfbench_run"], json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    seconds = args.seconds or json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    runs = []
    for seed in parse_seeds(args.seeds):
        record, result = run_once(args.workload, seed, seconds, args.trace)
        runs.append({"seed": seed, "record": record, "result": result})
        values = {k: v["value"] for k, v in result["metrics"].items()}
        flagged = record.get("percentile_flagged")
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"flagged={flagged} "
              + " ".join(f"{k}={v:.6g}" for k, v in values.items()
                         if args.trace == 0), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))
    if len(runs) < 2:
        return 0
    print(f"{'metric':34} {'median':>12} {'spread':>8}")
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        print(f"{name:34} {statistics.median(values):12.6g} "
              f"{spread(values):8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
