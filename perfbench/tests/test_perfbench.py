"""Tests of the benchmark itself (not part of the package's test suite).

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
from collections import Counter

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import refkernel  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, seed: int, trace: int, cwd: str = ROOT,
         seconds: int = 1) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = _run(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", NAMES)
def test_smoke_run_emits_every_end_to_end_metric_with_its_unit(workload):
    detail, result = _result(workload, 1, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    # Every scaled timing has its raw value beside it.
    timings = {m for m, unit in _units("end_to_end").items() if unit in ("s", "ms", "1/s")}
    assert set(detail["raw"]) == timings


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counters_repeat_exactly(workload):
    runs = [_result(workload, 7, 1)[1] for _ in range(2)]
    for result in runs:
        assert result["correct"] is True
        assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("per_layer")
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"} for r in runs]
    assert counts[0] == counts[1]
    c = counts[0]
    evaluations = sum(c[f"coeffs.calls.{m}"] for m in ("closed-form", "series", "divided-difference"))
    if workload == "suite-pairs":
        assert c["matrices.expm.calls"] == 59
        assert c["recurrence.c_from_recurrence.calls"] == 29
        assert c["realizations.calls"] == 1
    elif workload == "sweep-lattice":
        assert c["matrices.expm.calls"] == 4
        assert c["realizations.calls"] == 1
        assert evaluations == 1
    else:
        # g_right three times (directly and through g_left and g_center),
        # f_bch and gamma_swap once, except where f_bch raises PoleError.
        assert evaluations + c["coeffs.pole_errors"] == 5
        assert c["matrices.expm.calls"] == 0


@pytest.mark.parametrize("workload", NAMES)
def test_failure_counts_do_not_depend_on_seed_or_run_length(workload):
    # attempted and failed count distinct items, not calls, and the
    # points on which the known defects fail are the same for every seed.
    counts = set()
    for seed, seconds in ((1, 1), (2, 2)):
        proc = _run(workload, seed, 0, seconds=seconds)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        counts.add((result["attempted"], result["failed"]))
    assert len(counts) == 1
    attempted, failed = counts.pop()
    assert attempted == {"coeff-plane": 1024, "suite-pairs": 5, "sweep-lattice": 1681}[workload]


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(NAMES[0], 1, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not list(tmp_path.glob(".perfbench-*"))


def test_coeff_blocks_are_seeded_and_evenly_stratified():
    a, b, c = workloads.coeff_blocks(5), workloads.coeff_blocks(5), workloads.coeff_blocks(6)
    assert a == b and a != c
    assert len(a) == 16 and all(len(block) == workloads.BLOCK for block in a)
    totals = [Counter(s for block in blocks for *_, s in block) for blocks in (a, c)]
    assert totals[0] == totals[1]

    def roots(blocks):
        return sorted((p for block in blocks for p in block if p[2].startswith("root-of-unity")),
                      key=lambda p: (p[0].real, p[0].imag, p[1].real, p[1].imag))

    assert roots(a) == roots(c) and len(roots(a)) == 128
    for stratum, total in totals[0].items():
        per_block = [sum(1 for *_, s in block if s == stratum) for block in a]
        assert max(per_block) - min(per_block) <= 1, stratum


def test_oracle_matches_known_values_and_poles():
    # ROADMAP: g_right(0.1, 0.2) = -0.500416805...; the package returns -0.5.
    ref = oracle.reference(0.1 + 0j, 0.2 + 0j)
    assert abs(ref["g_right"] + 0.500416805) < 1e-9
    ref = oracle.reference(0j, 0j)
    assert ref["g_right"] == -0.5 and ref["f_bch"] == 0.5 and ref["gamma_swap"] == 1.0
    assert oracle.reference(2j * math.pi + 1e-9, 0j)["f_bch"] is None
    assert oracle.reference(2j * math.pi + 1e-7, 0j)["f_bch"] is not None


def test_coeff_check_flags_a_wrong_value():
    from zassenhaus import coeffs

    u, v = 0.3 + 0.1j, 1.2 - 0.4j
    row = [getattr(coeffs, name)(u, v) for name in workloads.COEFFS]
    ref = oracle.reference(u, v)
    assert workloads._coeff_row_ok(u, v, row, ref)
    bad = coeffs.CoeffValue(row[0].value * (1 + 1e-8), row[0].method, row[0].terms_used)
    assert not workloads._coeff_row_ok(u, v, [bad, *row[1:]], ref)


def test_tracer_rebinds_everywhere_and_restores_every_binding():
    import zassenhaus
    from zassenhaus import cli, matrices, realizations, verify

    def bindings():
        found = {}
        for mod in (zassenhaus, cli, matrices, realizations, verify):
            for key, value in vars(mod).items():
                found[(mod.__name__, key)] = value
                if isinstance(value, dict):
                    found.update({(mod.__name__, key, k): v for k, v in value.items()})
        return found

    def verify_json():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["verify", "--pair", "lindblad", "--format", "json"])
        return rc, buf.getvalue()

    before, plain = bindings(), verify_json()
    tracer = Tracer()
    tracer.install()
    try:
        assert verify.expm is not before[("zassenhaus.verify", "expm")]
        assert cli._SWEEP_CHECKS["swap"] is not before[("zassenhaus.cli", "_SWEEP_CHECKS", "swap")]
        assert cli._PAIR_BUILDERS["lindblad"] is not before[("zassenhaus.cli", "_PAIR_BUILDERS", "lindblad")]
        traced = verify_json()
    finally:
        tracer.remove()
    assert traced == plain
    assert tracer.calls["matrices.expm"] == 59
    assert tracer.calls["cli.main"] == 1
    after = bindings()
    assert all(after[key] is value for key, value in before.items())


def test_pacer_keeps_the_kernel_to_a_fifth_and_its_clock_excludes_it():
    # A period far shorter than the kernel must not let the kernel starve
    # the work it interleaves with.
    pacer = refkernel.Pacer(1e-5)
    with pacer:
        wall0, work0 = time.perf_counter(), pacer.now()
        while time.perf_counter() - wall0 < 0.5:
            pass
        wall, work = time.perf_counter() - wall0, pacer.now() - work0
    assert len(pacer.kernel_s) >= 10
    assert pacer.total_s < 0.3 * wall
    assert abs((wall - work) - pacer.total_s) < 0.01
