"""Benchmark entry point: one workload, one process, one thread of work.

    python3 perfbench/run.py --workload coeff-plane --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  With ``--trace 0`` the last
line of standard output carries the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run.  The line before it carries the
details: raw (unscaled) next to every scaled timing, sample counts, the
reference-kernel statistics, failures and problems.

Every timing is scaled to the reference host speed.  A timer runs the
reference kernel every few milliseconds, inside calls as well as between
them, and each call's time (with the kernel's own time taken out) is
multiplied by ``refkernel.REFERENCE_S`` and divided by the mean kernel time
around that call.  Set-up is scaled by the run's mean kernel time.  See
README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import refkernel
import workloads
from tracer import LAYERS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# The kernel runs PACER_PERIOD_S after its previous run ended: a fifth of
# the time or a little more.
PACER_PERIOD_S = 0.008
# A call is scaled by the kernel runs from this long before it to this
# long after it (about 60 runs around a short call).
SCALE_MARGIN_S = 0.25
# Set-up is measured in the run's own process and in this many fresh
# processes after the timed loop; setup_s is the median of all of them.
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 60

METHODS = ("closed-form", "series", "divided-difference")
COEFF_BUCKETS = {
    "g_right": METHODS,
    "f_bch": ("closed-form", "series"),
    "gamma_swap": ("closed-form", "series"),
}
EXPM_DIMS = (2, 3, 4, 8)
CHECKS = (
    "disentangle-right", "disentangle-center", "disentangle-left", "swap",
    "bch", "ab-structure", "integral", "product", "hadamard",
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="only measure set-up once and print it (used by the run itself)",
    )
    return parser.parse_args(argv)


def _import_package() -> None:
    if not os.path.isfile(os.path.join(SRC, "zassenhaus", "__init__.py")):
        sys.exit(f"perfbench: no zassenhaus sources under {SRC}")
    sys.path.insert(0, SRC)
    import zassenhaus

    if os.path.dirname(os.path.dirname(os.path.abspath(zassenhaus.__file__))) != SRC:
        sys.exit(f"perfbench: zassenhaus was imported from {zassenhaus.__file__}, not {SRC}")


def _setup(wl) -> float:
    """Import the package and warm up each entry point; seconds taken."""
    start = time.perf_counter()
    _import_package()
    wl.bind()
    wl.warm_up()
    return time.perf_counter() - start


def _probe_setup(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


class Loop:
    """Closed loop over the workload's cycle; calls are timed on the pacer's clock."""

    def __init__(self, wl, pacer: refkernel.Pacer) -> None:
        self.wl = wl
        self.pacer = pacer
        # (wall start, wall end, seconds excluding the kernel, items) per call.
        self.calls: list[tuple[float, float, float, int]] = []

    def call(self, index: int) -> None:
        """One timed call of cycle input ``index``."""
        wl, now = self.wl, self.pacer.now
        inp = wl.cycle[index]
        n = wl.items(inp)
        wall = time.perf_counter()
        start = now()
        try:
            out = wl.call(inp)
        except Exception as exc:  # noqa: BLE001 - a failed call is counted, not fatal
            elapsed = now() - start
            wl.raised(index, exc)
        else:
            elapsed = now() - start
            wl.record(index, out)
        self.calls.append((wall, time.perf_counter(), elapsed, n))

    def scaled(self, calls) -> list[float]:
        """Each call's time scaled by the kernel runs around it."""
        mean_near = self.pacer.mean_near
        return [elapsed * refkernel.REFERENCE_S / mean_near(t0, t1, SCALE_MARGIN_S)
                for t0, t1, elapsed, _ in calls]


def _quantiles(samples: list[float]) -> dict:
    ordered = sorted(samples)
    p50 = statistics.median(ordered)
    p90 = statistics.quantiles(ordered, n=10, method="inclusive")[8] if len(ordered) > 1 else ordered[0]
    return {"p50": p50, "p90": p90, "samples": len(ordered),
            "beyond_p90": sum(1 for s in ordered if s > p90)}


def _end_to_end(args, wl, pacer: refkernel.Pacer) -> tuple[dict, dict]:
    loop = Loop(wl, pacer)
    setup = [_setup(wl)]
    deadline = time.perf_counter() + args.seconds
    index = 0
    # Whole cycles, so every distinct input is called and checked.
    with pacer:
        while True:
            loop.call(index)
            index = (index + 1) % len(wl.cycle)
            if index == 0 and time.perf_counter() >= deadline:
                break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup.extend(_probe_setup(args) for _ in range(SETUP_PROBES))

    setup_scale = refkernel.REFERENCE_S / statistics.fmean(pacer.kernel_s)
    raw_s = [elapsed for _, _, elapsed, _ in loop.calls]
    scaled_s = loop.scaled(loop.calls)
    items = sum(n for *_, n in loop.calls)
    q, q_raw = _quantiles(scaled_s), _quantiles(raw_s)
    raw = {
        "setup_s": statistics.median(setup),
        "items_per_s": items / math.fsum(raw_s),
        "call_ms_p50": q_raw["p50"] * 1e3,
        "call_ms_p90": q_raw["p90"] * 1e3,
    }
    metrics = {
        "setup_s": (raw["setup_s"] * setup_scale, "s"),
        "items_per_s": (items / math.fsum(scaled_s), "1/s"),
        "call_ms_p50": (q["p50"] * 1e3, "ms"),
        "call_ms_p90": (q["p90"] * 1e3, "ms"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    detail = {
        "raw": raw,
        "setup_samples_s": setup,
        "call_samples": q["samples"],
        "call_samples_beyond_p90": q["beyond_p90"],
        "p90_resolved": q["beyond_p90"] >= 10,
        "items": items,
    }
    return metrics, detail


def _per_layer(tracer: Tracer, items: int, scale: float, overhead: float) -> dict:
    calls, time_s = tracer.calls, tracer.time_s

    def per_item(key: str) -> float:
        return calls[key] / items

    def mean(key: str, unit_s: float) -> float:
        return time_s[key] / calls[key] / unit_s * scale if calls[key] else 0.0

    def self_ms(layer: str) -> float:
        return tracer.self_s[layer] / items * 1e3 * scale

    m: dict[str, tuple[float, str]] = {}
    for fn, methods in COEFF_BUCKETS.items():
        for method in methods:
            m[f"coeffs.{fn}.{method}.us"] = (mean(f"coeffs.{fn}.{method}", 1e-6), "us")
    evaluations = sum(calls[f"coeffs.calls.{method}"] for method in METHODS)
    for method in METHODS:
        m[f"coeffs.calls.{method}"] = (per_item(f"coeffs.calls.{method}"), "count")
    m["coeffs.terms_per_call"] = (calls["coeffs.terms"] / evaluations if evaluations else 0.0, "count")
    m["coeffs.pole_errors"] = (per_item("coeffs.pole_errors"), "count")
    m["matrices.expm.calls"] = (per_item("matrices.expm"), "count")
    for d in EXPM_DIMS:
        m[f"matrices.expm.calls.d{d}"] = (per_item(f"matrices.expm.d{d}"), "count")
    for d in EXPM_DIMS:
        m[f"matrices.expm.us.d{d}"] = (mean(f"matrices.expm.d{d}", 1e-6), "us")
    m["matrices.rel_residual.calls"] = (per_item("matrices.rel_residual"), "count")
    m["matrices.commutator.calls"] = (per_item("matrices.commutator"), "count")
    m["recurrence.c_from_recurrence.calls"] = (per_item("recurrence.c_from_recurrence"), "count")
    m["recurrence.c_from_recurrence.us"] = (mean("recurrence.c_from_recurrence", 1e-6), "us")
    for check in CHECKS:
        m[f"verify.check.{check}.ms"] = (mean(f"verify.check.{check}", 1e-3), "ms")
    m["verify.quadrature_gr.us"] = (mean("verify.quadrature_gr", 1e-6), "us")
    m["realizations.calls"] = (
        sum(n for key, n in calls.items() if key.count(".") == 1 and key.startswith("realizations.")) / items,
        "count",
    )
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = (self_ms(layer), "ms")
    m["trace.overhead"] = (overhead, "ratio")
    return m


def _traced(args, wl, pacer: refkernel.Pacer) -> tuple[dict, dict]:
    """Whole cycles, alternately untraced and traced, until the time is up.

    Whole cycles keep every per-item count exact; alternating puts both
    sides in the same host-speed phases, and every traced output is
    compared with the untraced output of the same input.
    """
    _setup(wl)
    loop = Loop(wl, pacer)
    tracer = Tracer(clock=pacer.now)
    sides: list[list[tuple]] = [[], []]
    deadline = time.perf_counter() + args.seconds
    traced = 0
    with pacer:
        while True:
            if traced:
                tracer.install()
            first = len(loop.calls)
            try:
                for index in range(len(wl.cycle)):
                    loop.call(index)
            finally:
                tracer.remove()
            sides[traced].extend(loop.calls[first:])
            if traced and time.perf_counter() >= deadline:
                break
            traced = 1 - traced
    items = [sum(n for *_, n in side) for side in sides]
    raw_s = [math.fsum(elapsed for _, _, elapsed, _ in side) for side in sides]
    scaled_s = [math.fsum(loop.scaled(side)) for side in sides]
    rates = [items[i] / scaled_s[i] for i in (0, 1)]
    # Spans are scaled by the traced calls' overall factor.
    metrics = _per_layer(tracer, items[1], scaled_s[1] / raw_s[1], rates[1] / rates[0])
    detail = {
        "items_untraced": items[0],
        "items_traced": items[1],
        "raw_items_per_s": {"untraced": items[0] / raw_s[0], "traced": items[1] / raw_s[1]},
        "items_per_s": {"untraced": rates[0], "traced": rates[1]},
        "span_calls": dict(sorted(tracer.calls.items())),
    }
    return metrics, detail


def main(argv=None) -> int:
    args = _parse_args(argv)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": _setup(wl)}))
            return 0
        pacer = refkernel.Pacer(PACER_PERIOD_S)
        run = _traced if args.trace else _end_to_end
        metrics, detail = run(args, wl, pacer)
        detail.update(wl.finish())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    kernel = statistics.fmean(pacer.kernel_s)
    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "kernel": {"mean_s": kernel, "reference_s": refkernel.REFERENCE_S,
                   "samples": len(pacer.kernel_s), "run_scale": refkernel.REFERENCE_S / kernel},
        "attempted": wl.attempted,
        "failed": wl.failed,
        "problems": wl.problems[:20],
    })
    print(json.dumps({"perfbench": detail}))
    print(json.dumps({
        "correct": not wl.problems,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
