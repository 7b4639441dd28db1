"""tools/bench_pairs.py: the closing stderr lines, on a synthetic summary."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "items_per_s", "better": "higher", "bound": 0.1},
    {"name": "call_ms_p50", "better": "lower", "bound": 0.12},
    {"name": "peak_rss_mib", "better": "lower", "bound": 0.05},
]


def _entry(**ratios) -> dict:
    return {f"{name}_median_ratio": ratio for name, ratio in ratios.items()}


def test_each_workload_names_the_metrics_worse_than_their_bound():
    summary = {
        # Faster and smaller: nothing is worse.
        "flat": _entry(items_per_s=1.2, call_ms_p50=0.8, peak_rss_mib=0.9),
        # Each ratio exactly at its bound is not past it.
        "edge": _entry(items_per_s=0.9, call_ms_p50=1.12, peak_rss_mib=1.05),
        # Slower, and larger in memory.
        "worse": _entry(items_per_s=0.85, call_ms_p50=1.1, peak_rss_mib=1.06),
    }
    assert bench_pairs._regressions(summary, METRICS) == [
        "bench_pairs: flat: past its bound: none",
        "bench_pairs: edge: past its bound: none",
        "bench_pairs: worse: past its bound: "
        "items_per_s median ratio 0.850 (bound 0.1, higher is better); "
        "peak_rss_mib median ratio 1.060 (bound 0.05, lower is better)",
    ]

