"""Write BENCH_<pr>.json: perfbench runs of HEAD and the working tree.

    python3 tools/bench_pairs.py --pr 19 --description "..."

It may be run from any directory, and uses only the standard library.
Both sides run from copies in one temporary directory, at paths of one
length, since the length of the path a tree runs from alone moved
sweep-lattice by 2-6 %: the parent is HEAD, exported with ``git archive``
into ``<tmp>/parent``, and the change is the working tree as it stands,
its files (``git ls-files --cached --others --exclude-standard``) copied
into ``<tmp>/change``.  For each workload of ``BENCHMARK.json`` it runs
PAIRS pairs: both sides run ``perfbench/run.py`` with the same seed
(100 * pr + pair + 1) for ``run_seconds`` of ``BENCHMARK.json``, one after
the other, each from its own tree with ``PYTHONDONTWRITEBYTECODE=1``, and
the side that runs first alternates from pair to pair.  Then each side
makes one ``--trace 1`` run of each workload for TRACE_SECONDS, so every
workload's per-layer figures are there to explain its end-to-end ones.

The file holds seven keys: description, command, parent (the full commit
id), host, summary (per workload and side, the median and quartiles of
every end-to-end metric, and per metric how many pairs the change won and
the ratio of the medians), runs (every result line) and traced (per
workload and side, the traced result line with its span call counts).
Quartiles are statistics.quantiles(n=4, method='exclusive').  At the end
one line per workload on stderr gives, for items_per_s and call_ms_p50,
the pairs the change won and the ratio of the medians; then one more line
per workload names each end-to-end metric whose median ratio is worse
than its ``bound`` in ``BENCHMARK.json`` (below 1 - bound where higher is
better, above 1 + bound where lower is), or says that none is.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

PAIRS = 10
TRACE_SECONDS = 10.0
# The metrics of the closing line per workload on stderr.
HEADLINE = ("items_per_s", "call_ms_p50")

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


def _trees(tmp: str, parent: str) -> dict[str, str]:
    """{side: tree}: HEAD exported to tmp/parent, the working tree's files
    copied to tmp/change."""
    trees = {side: os.path.join(tmp, side) for side in ("parent", "change")}
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", parent))) as tar:
        tar.extractall(trees["parent"], filter="data")
    files = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").decode().split("\0")
    for name in filter(None, files):
        source = os.path.join(ROOT, name)
        if os.path.isfile(source):  # a file deleted from the tree is still in the index
            target = os.path.join(trees["change"], name)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copy2(source, target)
    return trees


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


def _headlines(summary: dict) -> list[str]:
    """One line per workload: pairs won and median ratio of each HEADLINE metric."""
    return [
        f"bench_pairs: {workload}: " + ", ".join(
            f"{name} {entry[f'{name}_pairs_won_by_change']}/{entry['pairs']} pairs won, "
            f"median ratio {entry[f'{name}_median_ratio']:.3f}"
            for name in HEADLINE
        )
        for workload, entry in summary.items()
    ]


def _regressions(summary: dict, metrics: list[dict]) -> list[str]:
    """One line per workload: each metric whose median ratio is worse than
    its bound, in its better direction."""
    lines = []
    for workload, entry in summary.items():
        worse = []
        for m in metrics:
            ratio, bound = entry[f"{m['name']}_median_ratio"], m["bound"]
            if (ratio > 1.0 + bound) if m["better"] == "lower" else (ratio < 1.0 - bound):
                worse.append(f"{m['name']} median ratio {ratio:.3f} (bound {bound:g}, {m['better']} is better)")
        lines.append(f"bench_pairs: {workload}: past its bound: " + ("; ".join(worse) or "none"))
    return lines


def main(argv=None) -> int:
    args = _parse_args(argv)
    spec = _spec()
    parent = _git("rev-parse", "HEAD").decode().strip()
    command, seconds = spec["command"], spec["run_seconds"]
    runs, traced = [], {}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = _trees(tmp, parent)
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
    summary = _summary(runs, spec["end_to_end"])
    out = {
        "description": args.description,
        "command": f"{shown} --workload <workload> --seed <seed> --seconds {seconds:g} --trace 0",
        "parent": parent,
        "host": _host(),
        "summary": summary,
        "runs": runs,
        "traced": traced,
    }
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"bench_pairs: wrote {path}", file=sys.stderr)
    for line in _headlines(summary) + _regressions(summary, spec["end_to_end"]):
        print(line, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
