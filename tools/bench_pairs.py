"""Write BENCH_<pr>.json: perfbench runs of HEAD and the working tree.

    python3 tools/bench_pairs.py --pr 19 --description "..."

It may be run from any directory, and uses only the standard library.
The parent is HEAD, exported with ``git archive`` into a temporary
directory, and the change is the working tree as it stands.  For each
workload of ``BENCHMARK.json`` it runs PAIRS pairs: both sides run
``perfbench/run.py`` with the same seed (100 * pr + pair + 1) for
``run_seconds`` of ``BENCHMARK.json``, one after the other, each from its
own tree with ``PYTHONDONTWRITEBYTECODE=1``, and the side that runs first
alternates from pair to pair.  Then each side makes one ``--trace 1`` run
of each workload for TRACE_SECONDS, so every workload's per-layer figures
are there to explain its end-to-end ones.

The file holds seven keys: description, command, parent (the full commit
id), host, summary (per workload and side, the median and quartiles of
every end-to-end metric, and per metric how many pairs the change won and
the ratio of the medians), runs (every result line) and traced (per
workload and side, the traced result line with its span call counts).
Quartiles are statistics.quantiles(n=4, method='exclusive').
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

PAIRS = 10
TRACE_SECONDS = 10.0

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json at the root")
    parser.add_argument("--description", required=True, help="what the change does and what is measured")
    return parser.parse_args(argv)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], capture_output=True, check=True, cwd=ROOT).stdout


def _host() -> str:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        model = names[0] if names else model
    except OSError:
        pass
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"], capture_output=True, text=True
    ).stdout.strip() or "not installed"
    return f"{os.cpu_count()}-core {model}, Python {platform.python_version()}, numpy {numpy}"


def _run(tree: str, command: list[str], workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(result line, details) of one perfbench run in tree."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]
    if argv[0] == "python3":
        argv[0] = sys.executable
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"bench_pairs: {' '.join(argv)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1]), json.loads(lines[-2])["perfbench"]


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="exclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _summary(runs: list[dict], metrics: list[dict]) -> dict:
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        entry = {}
        for side in ("parent", "change"):
            results = [r["result"] for r in mine if r["side"] == side]
            entry[side] = {
                **{m["name"]: _quartiles([r["metrics"][m["name"]]["value"] for r in results]) for m in metrics},
                "failed": sorted({r["failed"] for r in results}),
                "attempted": sorted({r["attempted"] for r in results}),
                "correct": all(r["correct"] for r in results),
            }
        pairs = sorted({r["pair"] for r in mine})
        entry["pairs"] = len(pairs)
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            value = {(r["pair"], r["side"]): r["result"]["metrics"][name]["value"] for r in mine}
            won = sum(
                (value[p, "change"] < value[p, "parent"]) if lower else (value[p, "change"] > value[p, "parent"])
                for p in pairs
            )
            entry[f"{name}_pairs_won_by_change"] = won
            entry[f"{name}_median_ratio"] = entry["change"][name]["median"] / entry["parent"][name]["median"]
        summary[workload] = entry
    return summary


def main(argv=None) -> int:
    args = _parse_args(argv)
    spec = _spec()
    parent = _git("rev-parse", "HEAD").decode().strip()
    command, seconds = spec["command"], spec["run_seconds"]
    runs, traced = [], {}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_tree:
        with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", parent))) as tar:
            tar.extractall(parent_tree, filter="data")
        trees = {"parent": parent_tree, "change": ROOT}
        base = 100 * args.pr
        workloads = [w["name"] for w in spec["workloads"]]
        for workload in workloads:
            for pair in range(PAIRS):
                seed = base + pair + 1
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for position, side in enumerate(order):
                    result, _ = _run(trees[side], command, workload, seed, seconds, 0)
                    runs.append({"workload": workload, "side": side, "seed": seed, "pair": pair,
                                 "position": position, "result": result})
                    print(f"{workload} pair {pair} {side}: {json.dumps(result['metrics'])}", file=sys.stderr)
        seed = base + 1
        for workload in workloads:
            traced[workload] = {}
            for side in ("parent", "change"):
                result, details = _run(trees[side], command, workload, seed, TRACE_SECONDS, 1)
                items = details["items_traced"]
                traced[workload][side] = {
                    "seed": seed, "seconds": TRACE_SECONDS, "result": result,
                    "items_traced": items, "span_calls": details["span_calls"],
                    "span_calls_per_item": {k: n / items for k, n in details["span_calls"].items()},
                }
    shown = " ".join(command)
    out = {
        "description": args.description,
        "command": f"{shown} --workload <workload> --seed <seed> --seconds {seconds:g} --trace 0",
        "parent": parent,
        "host": _host(),
        "summary": _summary(runs, spec["end_to_end"]),
        "runs": runs,
        "traced": traced,
    }
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"bench_pairs: wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
