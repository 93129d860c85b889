"""Repeat the benchmark over several seeds and summarize the spread.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --workload base64-search --seeds 1-10

Runs ``perfbench/run.py`` once per seed, one after another, and prints per
metric the median, the quartiles from ``statistics.quantiles(n=4)`` and
the spread (interquartile distance / median), next to the metric's bound
from ``BENCHMARK.json`` when one exists. ``--out`` also writes the
summary and every result line as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def summarize(results: list) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [result["metrics"][name]["value"] for result in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bounds = {}
    seconds = args.seconds
    config_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(config_path):
        with open(config_path) as handle:
            config = json.load(handle)
        bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
        seconds = seconds or config["run_seconds"]

    results = []
    for seed in parse_seeds(args.seeds):
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds or 30), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = completed.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        if completed.returncode or result is None or not result["correct"]:
            sys.stderr.write(completed.stdout + completed.stderr)
            print(f"seed {seed}: run failed (exit {completed.returncode})")
            return 1
        result["seed"] = seed
        results.append(result)
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.5g}"
            for name, metric in result["metrics"].items()
        ), flush=True)

    summary = summarize(results)
    for name, row in summary.items():
        bound = bounds.get(name)
        print(f"{name:32s} median {row['median']:12.5g} {row['unit']:6s} "
              f"q1 {row['q1']:10.5g} q3 {row['q3']:10.5g} "
              f"spread {row['spread']:.3f}"
              + (f" (bound {bound})" if bound is not None else ""))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"workload": args.workload, "seconds": seconds,
                       "summary": summary, "runs": results}, handle,
                      indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
