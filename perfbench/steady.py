"""Steadiness check: run one workload N times back to back and summarise.

    python3 perfbench/steady.py --workload suite-pairs --runs 10 --first-seed 1

Each run is ``run.py`` in its own process, with seeds first-seed,
first-seed + 1, ...  For every end-to-end metric the summary gives the
scaled and the raw median, quartiles (``statistics.quantiles(n=4)``), the
quartile spread as a share of the median, and max/min.  The last line of
standard output is the same summary as JSON, with every run's values.
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


def _run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "max_over_min": max(values) / min(values),
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    scaled: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        detail, result = _run(args.workload, seed, args.seconds)
        runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                     "failed": result["failed"], "kernel_s": detail["kernel"]["mean_s"]})
        for name, metric in result["metrics"].items():
            scaled.setdefault(name, []).append(metric["value"])
            raw.setdefault(name, []).append(detail["raw"].get(name, metric["value"]))
        print(f"seed {seed}: kernel {detail['kernel']['mean_s'] * 1e3:.3f} ms, "
              + ", ".join(f"{n} {v[-1]:.6g}" for n, v in scaled.items()), flush=True)

    summary = {"workload": args.workload, "runs": runs, "metrics": {}}
    print(f"{'metric':14s} {'scaled median':>14s} {'spread':>7s} {'max/min':>8s}"
          f" {'raw median':>12s} {'spread':>7s} {'max/min':>8s}")
    for name in scaled:
        s, r = summarise(scaled[name]), summarise(raw[name])
        summary["metrics"][name] = {"scaled": s, "raw": r}
        print(f"{name:14s} {s['median']:14.6g} {s['spread']:7.2%} {s['max_over_min']:8.4f}"
              f" {r['median']:12.6g} {r['spread']:7.2%} {r['max_over_min']:8.4f}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
