"""Command-line behavior: output formats, exit codes, argument validation."""

import collections
import csv
import enum
import gc
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from collections.abc import Mapping
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zassenhaus
from zassenhaus import cli, coeffs, recurrence, sweep


def _write_matrix(path, re, im=None):
    payload = {"dim": len(re), "re": re}
    if im is not None:
        payload["im"] = im
    path.write_text(json.dumps(payload))
    return str(path)


# ------------------------------------------------------------------- coeff


def test_coeff_text_at_origin(capsys):
    assert cli.main(["coeff", "--u", "0", "--v", "0"]) == 0
    out = capsys.readouterr().out
    assert "coefficients at u = 0, v = 0" in out
    assert "g_right" in out and "g_center" in out and "g_left" in out
    assert "f_bch" in out and "gamma_swap" in out
    assert "-0.5" in out  # the exact central value
    assert "0.5" in out  # merged-form coefficient at the origin


def test_coeff_json_is_parseable(capsys):
    assert cli.main(["coeff", "--u", "1", "--v", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["u"] == {"re": 1.0, "im": 0.0}
    coeffs = payload["coefficients"]
    assert set(coeffs) == {"g_right", "g_center", "g_left", "f_bch", "gamma_swap"}
    gright = coeffs["g_right"]
    assert gright["method"] == "closed-form"
    assert gright["terms_used"] == 0
    # [1*(e^{-1} - e) + 2*(e - 1)] / (1*2*(1-2)) = (e^{-1} + e - 2) / (-2)
    expected = (0.36787944117144233 + 2.718281828459045 - 2.0) / -2.0
    assert abs(gright["value"]["re"] - expected) < 1e-15
    assert gright["value"]["im"] == 0.0


def test_coeff_complex_arguments(capsys):
    assert cli.main(["coeff", "--u", "1", "--u-im", "0.5", "--v", "-1"]) == 0
    out = capsys.readouterr().out
    assert "u = 1+0.5i" in out


def test_coeff_reports_pole_without_failing(capsys):
    # u - v = 2*pi*i: the merged-form coefficient has a genuine pole, but
    # coefficient evaluation is reporting, not checking -> still exit 0
    code = cli.main(
        ["coeff", "--u", "1", "--u-im", "6.283185307179586", "--v", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "pole" in out
    assert "g_right" in out  # the entire coefficients still print


def test_coeff_reports_overflow_without_failing(capsys):
    # Every coefficient at u = v = 1000 but g_center is past double range;
    # g_center = e^{-1000} g_r(1000, 1000) is about -1e-6.
    assert cli.main(["coeff", "--u", "1000", "--v", "1000", "--format", "json"]) == 0
    coefficients = json.loads(capsys.readouterr().out)["coefficients"]
    center = coefficients.pop("g_center")
    assert center["method"] == "divided-difference"
    assert center["value"]["re"] == pytest.approx(-1e-6, rel=1e-14)
    assert all(set(entry) == {"overflow"} for entry in coefficients.values())
    assert cli.main(["coeff", "--u", "1000", "--v", "1000"]) == 0
    assert "gamma_swap  overflow (gamma_swap overflows at ((1000+0j), (1000+0j)))" in capsys.readouterr().out


def test_coeff_output_is_deterministic(capsys):
    argv = ["coeff", "--u", "0.3", "--v", "-1.7", "--format", "json"]
    cli.main(argv)
    first = capsys.readouterr().out
    cli.main(argv)
    second = capsys.readouterr().out
    assert first == second


# ---------------------------------------------------------------- cn-table


def test_cn_table_row_count(capsys):
    assert cli.main(["cn-table", "--u", "1", "--v", "-1", "--max-n", "8"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2 + 7  # banner + header + n = 2..8
    assert lines[2].lstrip().startswith("2")


def _cn_rows(capsys, u, v, max_n):
    """(C_n, contour, |difference|) per row of a cn-table."""
    assert cli.main(["cn-table", f"--u={u}", f"--v={v}", "--max-n", str(max_n)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1].split() == ["n", "closed", "form", "contour", "|difference|"]
    return [tuple(float(cell) for cell in line.split()[1:]) for line in lines[2:]]


CN_GRID = (-10.0, -6.5, -2.0, -1.0, 0.0, 0.5, 1.0, 3.0, 5.0, 10.0)


@pytest.mark.parametrize("u", CN_GRID)
def test_cn_table_shows_agreement(u, capsys):
    for v in CN_GRID:
        rows = _cn_rows(capsys, u, v, 30)
        assert len(rows) == 29
        for closed, _, diff in rows:
            assert diff <= 1e-12 * (1.0 + abs(closed)), (u, v, closed, diff)


def test_cn_table_difference_sees_a_changed_power_sum(monkeypatch, capsys):
    # The contour column does not come from the power sum: scaling the sum
    # wherever it is bound moves the closed-form column and the difference,
    # not the contour.
    before = _cn_rows(capsys, 1.5, -0.75, 12)
    power_sums = coeffs._power_sums

    def scaled(u, v):
        for p, fact_prev, fact in power_sums(u, v):
            yield 1.001 * p, fact_prev, fact

    monkeypatch.setattr(coeffs, "_power_sums", scaled)
    monkeypatch.setattr(recurrence, "_power_sums", scaled)
    after = _cn_rows(capsys, 1.5, -0.75, 12)
    for (closed, contour, diff), (closed2, contour2, diff2) in zip(before, after):
        assert contour2 == contour
        assert diff <= 1e-12 * (1.0 + abs(closed)) < diff2
        assert diff2 == pytest.approx(1e-3 * abs(closed), rel=1e-4)


def test_cn_table_reports_a_power_sum_past_double_range(capsys):
    assert cli.main(["cn-table", "--u=1e300", "--v", "-1", "--max-n", "5"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.strip().splitlines()[2:]]
    assert rows[1][1] == "-3.33333e+299"
    assert rows[2:] == [["4", "overflow", "overflow", "overflow"], ["5", "overflow", "overflow", "overflow"]]


def test_cn_table_reports_a_contour_past_double_range(capsys):
    assert cli.main(["cn-table", "--u", "1", "--v", "-1", "--max-n", "800"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1].split()
    assert last[0] == "800" and last[2:] == ["overflow", "overflow"]


@pytest.mark.parametrize("u, v, n", [("1e308", "-1e308", 3), ("1e154", "0", 4)])
def test_cn_table_reports_a_contour_whose_radius_or_sum_leaves_double_range(u, v, n, capsys):
    # u - v = -inf made the radius 0, and 0.0 ** -1 a ZeroDivisionError; at
    # u = 1e154 the sum times r^{2-n} was -inf+nanj and printed as -inf.
    assert cli.main(["cn-table", f"--u={u}", f"--v={v}", "--max-n", str(n)]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1].split()
    assert last == [str(n), "overflow", "overflow", "overflow"]


# ------------------------------------------------------------------ verify


def test_verify_builtin_pair_passes(capsys):
    assert cli.main(["verify", "--pair", "heisenberg3"]) == 0
    out = capsys.readouterr().out
    assert "pair: heisenberg_3x3(1)" in out
    assert out.count("PASS") == 9
    assert "all passed: yes" in out


def test_verify_json_format(capsys):
    assert cli.main(["verify", "--pair", "affine2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pair"] == "affine_2x2(1,2,1,1)"
    assert payload["all_passed"] is True
    assert len(payload["checks"]) == 9


def test_verify_impossible_tolerance_fails(capsys):
    assert cli.main(["verify", "--pair", "affine2", "--tol", "1e-20"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "all passed: no" in out


@pytest.mark.parametrize("name", sorted(cli._PAIR_BUILDERS))
def test_verify_every_builtin_pair(name, capsys):
    assert cli.main(["verify", "--pair", name]) == 0
    capsys.readouterr()


def test_verify_file_pair(tmp_path, capsys):
    x = _write_matrix(tmp_path / "x.json", [[2.0, 1.0], [0.0, 0.0]])
    y = _write_matrix(tmp_path / "y.json", [[-1.0, 1.0], [0.0, 0.0]])
    assert cli.main(["verify", "--x", x, "--y", y]) == 0
    out = capsys.readouterr().out
    assert "file(x.json,y.json)" in out
    assert "all passed: yes" in out


@pytest.mark.parametrize("s", [1.0, 1e-5])
def test_verify_file_pair_outside_class_is_refused(tmp_path, s, capsys):
    # [sE12, sE21] = s^2 diag(1, -1) is as far outside span{X, Y, identity}
    # at s = 1e-5 as at s = 1: a fit floored at 1 read 1.4e-10 there.
    x = _write_matrix(tmp_path / "x.json", [[0.0, s], [0.0, 0.0]])
    y = _write_matrix(tmp_path / "y.json", [[0.0, 0.0], [s, 0.0]])
    assert cli.main(["verify", "--x", x, "--y", y]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err
    assert "fit_residual = 1.41421" in captured.err


@pytest.mark.parametrize("eps", [1e-8, 1e-9])
def test_verify_file_pair_with_a_small_generator(tmp_path, eps, capsys):
    # affine_2x2(1, eps, eps, 1): X = [[eps, eps], [0, 0]] beside
    # Y = [[-1, 1], [0, 0]].  A fit through the Gram system of {X, Y, I}
    # lost u and failed 7 of the 9 checks, or refused the pair.
    x = _write_matrix(tmp_path / "x.json", [[eps, eps], [0.0, 0.0]])
    y = _write_matrix(tmp_path / "y.json", [[-1.0, 1.0], [0.0, 0.0]])
    assert cli.main(["verify", "--x", x, "--y", y]) == 0
    assert "all passed: yes" in capsys.readouterr().out


@pytest.mark.parametrize(
    "x, y",
    [
        ([[0.0, 1e200], [0.0, 0.0]], [[1.0, 1e200], [0.0, 0.0]]),
        ([[1.0, 1e200], [0.0, 0.0]], [[0.0, 1e200], [0.0, 0.0]]),
        ([[1.0, 1.0], [0.0, 0.0]], [[1.0 + 1e-15, 1.0], [0.0, 0.0]]),
    ],
)
def test_verify_file_pair_with_a_numerically_dependent_basis_is_refused(tmp_path, x, y, capsys):
    # [X, Y] = -X, Y and Y - (1 + 1e-15) X: in the class, but X and Y
    # differ only in an entry far below their norm, so the scaled basis
    # {X, Y, I} has rank 2.  The fit took them as parallel and found u = v:
    # on the 1e200 pairs ab-structure's [A, B] = (u - v) A then failed
    # without an error.
    x = _write_matrix(tmp_path / "x.json", x)
    y = _write_matrix(tmp_path / "y.json", y)
    assert cli.main(["verify", "--x", x, "--y", y, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --x/--y: X, Y and the identity are numerically dependent but [X, Y] is not zero: "
        "(u, v, c) is not determined\n"
    )


def test_verify_file_pair_whose_commutator_overflows_is_refused(tmp_path, capsys):
    # XY holds 1e160 * 1e160: lstsq raised LinAlgError out of main.
    x = _write_matrix(tmp_path / "x.json", [[1e160, 1e160], [0.0, 0.0]])
    y = _write_matrix(tmp_path / "y.json", [[0.0, 1e160], [0.0, 1e160]])
    assert cli.main(["verify", "--x", x, "--y", y]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --x/--y: [X, Y] is not finite")


def test_verify_file_dimension_mismatch(tmp_path, capsys):
    x = _write_matrix(tmp_path / "x.json", [[2.0, 1.0], [0.0, 0.0]])
    y = _write_matrix(
        tmp_path / "y.json",
        [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    )
    assert cli.main(["verify", "--x", x, "--y", y]) == 2
    assert "dimension mismatch" in capsys.readouterr().err


def test_verify_file_malformed_json(tmp_path, capsys):
    bad = tmp_path / "x.json"
    bad.write_text("{not json")
    y = _write_matrix(tmp_path / "y.json", [[0.0, 0.0], [0.0, 0.0]])
    assert cli.main(["verify", "--x", str(bad), "--y", y]) == 2
    assert "--x" in capsys.readouterr().err


# ------------------------------------------------------------------- sweep


def test_sweep_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    code = cli.main(
        [
            "sweep",
            "--check", "disentangle-right",
            "--u-min", "-1", "--u-max", "1",
            "--v-min", "-1", "--v-max", "1",
            "--steps", "3",
            "--out", str(out_path),
        ]
    )
    assert code == 0
    assert "wrote 9 rows" in capsys.readouterr().out
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["u_re", "u_im", "v_re", "v_im", "residual", "passed"]
    assert len(rows) == 10
    for row in rows[1:]:
        assert row[5] == "true"
        assert float(row[4]) <= 1e-10
        float(row[0]), float(row[2])  # numeric round trip


def test_sweep_covers_the_degenerate_diagonal(tmp_path, capsys):
    # the u + v = 0 line and the origin both need fallback realizations
    out_path = tmp_path / "diag.csv"
    code = cli.main(
        [
            "sweep",
            "--check", "bch",
            "--u-min", "-2", "--u-max", "2",
            "--v-min", "-2", "--v-max", "2",
            "--steps", "5",
            "--out", str(out_path),
        ]
    )
    assert code == 0
    capsys.readouterr()
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 25
    assert all(row[5] == "true" for row in rows)


def test_sweep_writes_a_point_whose_pair_cannot_be_built_as_a_failed_row(
    tmp_path, capsys, monkeypatch
):
    build = sweep.lattice_points

    def failing_build(u, v):
        # The point (0, 1) cannot be built, so it is in no position.
        positions, (X, Y, W, us, vs) = build(u, v)
        keep = (u[positions] != 0.0) | (v[positions] != 1.0)
        return positions[keep], (X[keep], Y[keep], W[keep], us[keep], vs[keep])

    monkeypatch.setattr(sweep, "lattice_points", failing_build)
    out_path = tmp_path / "grid.csv"
    code = cli.main(
        [
            "sweep",
            "--check", "disentangle-right",
            "--u-min", "-1", "--u-max", "1",
            "--v-min", "-1", "--v-max", "1",
            "--steps", "3",
            "--out", str(out_path),
        ]
    )
    assert code == 1
    assert "failures: 1" in capsys.readouterr().out
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [row for row in rows if row[5] == "false"] == [["0", "0", "1", "0", "inf", "false"]]
    assert len(rows) == 9


# ---------------------------------------------------------------- integral


def test_integral_agreement(capsys):
    assert cli.main(["integral", "--u", "1", "--v", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "32 nodes" in out and "16 nodes" in out


def test_integral_reports_a_quadrature_past_double_range(capsys):
    # The integrand passes DBL_MAX near s = 1 although g_r = -3.39e306 is
    # finite: the 32-node sum is an overflow, not -inf+nani.
    assert cli.main(["integral", "--u", "709", "--v=-5"]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[1] == "  quadrature, 32 nodes   overflow (quadrature_gr overflows at (709.0, -5.0))"
    assert lines[3] == "  node-refinement delta                overflow"
    assert lines[-1] == "  agreement: FAIL"
    assert err == ""


def test_integral_at_origin(capsys):
    assert cli.main(["integral", "--u", "0", "--v", "0"]) == 0
    assert "-0.5" in capsys.readouterr().out


def test_integral_reports_overflow_and_fails(capsys):
    # e^{su} at s near 1 and g_r(1000, 0.1) are past double range: each
    # value prints as coeff prints it, and the agreement fails.
    assert cli.main(["integral", "--u", "1000", "--v", "0.1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [
        "  quadrature, 32 nodes   overflow (math range error)",
        "  quadrature, 16 nodes   overflow (math range error)",
        "  node-refinement delta                overflow",
        "  closed form g_right    overflow (divided difference of exp overflows at (999.9, 1000.0, 0.0))",
        "  |quadrature - closed|                overflow",
        "  agreement: FAIL",
    ]


# ------------------------------------------------------- argument validation


@pytest.mark.parametrize(
    "argv",
    [
        ["coeff", "--v", "1"],  # missing required --u
        ["verify", "--pair", "nosuch"],  # not a built-in pair
        ["verify"],  # no source given
        ["verify", "--x", "x.json"],  # --x without --y
        ["verify", "--pair", "affine2", "--y", "y.json"],  # mixed sources
        ["verify", "--pair", "affine2", "--tol", "-1"],  # nonpositive tolerance
        ["cn-table", "--u", "1", "--v", "1", "--max-n", "1"],  # max-n below 2
        [
            "sweep", "--check", "swap",
            "--u-min", "0", "--u-max", "1",
            "--v-min", "0", "--v-max", "1",
            "--steps", "0", "--out", "x.csv",
        ],  # steps below 1
        ["nosuch-command"],
        [
            "sweep", "--check", "disentangle-right",
            "--u-min", "0", "--u-max", "inf",
            "--v-min", "-1", "--v-max", "1",
            "--steps", "3", "--out", "x.csv",
        ],  # non-finite lattice bound
        ["sweep", "--check", "swap", "--u-min", "0", "--u-max", "1",
         "--v-min", "nan", "--v-max", "1", "--steps", "3", "--out", "x.csv"],
        ["coeff", "--u", "nan", "--v", "1"],  # non-finite coefficient argument
        ["coeff", "--u", "1", "--v", "1", "--v-im=-inf"],
        ["cn-table", "--u", "1", "--v", "inf", "--max-n", "4"],
        ["integral", "--u", "nan", "--v", "1"],
        ["verify", "--pair", "affine2", "--tol", "inf"],  # infinite tolerance
        ["sweep", "--check", "disentangle-right", "--u-min=-1e308", "--u-max", "1e308",
         "--v-min", "-1", "--v-max", "1", "--steps", "3", "--out", "x.csv"],  # span overflows
    ],
)
def test_argument_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_argument_errors_name_the_flag_and_the_reason(capsys):
    with pytest.raises(SystemExit):
        cli.main(["coeff", "--u", "nan", "--v", "1"])
    assert "argument --u: must be finite, got nan" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        cli.main(["coeff", "--u", "abc", "--v", "1"])
    assert "argument --u: invalid float value: 'abc'" in capsys.readouterr().err
    # One validator for both integer flags, each with its own bound.
    sweep = ["sweep", "--check", "swap", "--u-min", "0", "--u-max", "1", "--v-min", "0", "--v-max", "1"]
    for argv, message in (
        ([*sweep, "--steps", "abc", "--out", "x.csv"], "argument --steps: invalid int value: 'abc'"),
        ([*sweep, "--steps", "0", "--out", "x.csv"], "argument --steps: must be >= 1, got 0"),
        (["cn-table", "--u", "1", "--v", "1", "--max-n", "2.5"], "argument --max-n: invalid int value: '2.5'"),
        (["cn-table", "--u", "1", "--v", "1", "--max-n", "1"], "argument --max-n: must be >= 2, got 1"),
    ):
        with pytest.raises(SystemExit):
            cli.main(argv)
        assert message in capsys.readouterr().err


def test_sweep_span_error_names_the_flags(tmp_path, capsys):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit):
        cli.main(["sweep", "--check", "swap", "--u-min", "-1", "--u-max", "1",
                  "--v-min=-1e308", "--v-max", "1e308", "--steps", "3", "--out", str(out)])
    assert "--v-min/--v-max: the span v_max - v_min overflows" in capsys.readouterr().err
    assert not out.exists()


def test_negative_scientific_notation_needs_the_equals_form(capsys):
    # argparse reads a separate "-1e-3" as an option; --help says so.
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["coeff", "--u", "-1e-3", "--v", "1"])
    assert excinfo.value.code == 2
    assert "argument --u: expected one argument" in capsys.readouterr().err
    assert cli.main(["coeff", "--u=-1e-3", "--v", "1"]) == 0
    assert "u = -0.001, v = 1" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, flags",
    [
        ("coeff", ["--u", "--u-im", "--v", "--v-im"]),
        ("cn-table", ["--u", "--v"]),
        ("sweep", ["--u-min", "--u-max", "--v-min", "--v-max"]),
        ("integral", ["--u", "--v"]),
    ],
)
def test_float_flag_help_shows_the_equals_form(command, flags, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "300")  # no line wrapping inside a flag
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    text = capsys.readouterr().out
    for flag in flags:
        assert f"as in {flag}=-1e-3" in text, flag


def test_the_parser_is_built_once_and_answers_as_a_fresh_one(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "120")
    assert cli._build_parser() is cli._build_parser()
    fresh = cli._build_parser.__wrapped__()
    for argv in (
        ["--help"],
        ["sweep", "--help"],
        ["coeff", "--u", "nan", "--v", "1"],
        ["verify"],
        ["sweep", "--check", "nope"],
    ):
        outputs = []
        for parse in (cli._build_parser().parse_args, fresh.parse_args):
            with pytest.raises(SystemExit) as excinfo:
                parse(argv)
            outputs.append((excinfo.value.code, capsys.readouterr()))
        assert outputs[0] == outputs[1], argv


# -------------------------------------------------------------------- JSON


class _Rank(enum.IntEnum):
    ONE = 1


class _Real(float):
    pass


class _Shown(str):
    def __str__(self):
        return "shown"


class _Table(dict):
    pass


class _Row(list):
    pass


_Point = collections.namedtuple("_Point", "u v")



@pytest.mark.parametrize(
    "value, text",
    [
        (0.1, "0.10000000000000001"),
        (-0.0, "-0"),
        (math.inf, '"inf"'),
        (-math.inf, '"-inf"'),
        (math.nan, '"nan"'),
        pytest.param(1 - 2j, '{\n  "re": 1,\n  "im": -2\n}', id="complex"),
        pytest.param(np.complex128(0.5 + 2j), '{\n  "re": 0.5,\n  "im": 2\n}', id="np.complex128"),
        (np.float64(0.25), "0.25"),
        (np.int64(3), "3"),
        (np.bool_(True), "true"),
        ({}, "{}"),
        ([], "[]"),
        pytest.param(
            MappingProxyType({"a": (np.float64(1.5),)}), '{\n  "a": [\n    1.5\n  ]\n}', id="mapping"
        ),
        # What dispatch on the exact type could get wrong.
        pytest.param('é☃\n\t"\\\x01\x7f', '"\\u00e9\\u2603\\n\\t\\"\\\\\\u0001\\u007f"', id="non-ascii"),
        pytest.param({1: 2, None: "x", 2.5: True}, '{\n  "1": 2,\n  "None": "x",\n  "2.5": true\n}', id="keys"),
        pytest.param([True, False, None], "[\n  true,\n  false,\n  null\n]", id="bool-in-list"),
        pytest.param(_Rank.ONE, "1", id="IntEnum"),
        pytest.param(_Real(0.25), "0.25", id="float-subclass"),
        pytest.param(_Real(-math.inf), '"-inf"', id="float-subclass-inf"),
        pytest.param(_Shown("raw"), '"shown"', id="str-subclass"),
        pytest.param({_Shown("k"): _Shown("v")}, '{\n  "shown": "shown"\n}', id="str-subclass-key"),
        pytest.param(
            {"a": {}, "b": [], "c": (), "d": {"e": []}},
            '{\n  "a": {},\n  "b": [],\n  "c": [],\n  "d": {\n    "e": []\n  }\n}',
            id="nested-empty",
        ),
        # Container subclasses, which take the isinstance tests.
        pytest.param(
            collections.OrderedDict([("b", 1), ("a", 2)]), '{\n  "b": 1,\n  "a": 2\n}', id="OrderedDict"
        ),
        pytest.param(collections.defaultdict(list, {"k": []}), '{\n  "k": []\n}', id="defaultdict"),
        pytest.param(
            {"t": _Table(a=_Row([True]))}, '{\n  "t": {\n    "a": [\n      true\n    ]\n  }\n}', id="dict-subclass"
        ),
        pytest.param(_Row([1, _Row()]), "[\n  1,\n  []\n]", id="list-subclass"),
        pytest.param(
            _Point(1 - 2j, None), '[\n  {\n    "re": 1,\n    "im": -2\n  },\n  null\n]', id="namedtuple"
        ),
    ],
)
def test_json_text_emits(value, text):
    assert cli._json_text(value) == text


def _reference_emit(node, indent, pieces):
    # The isinstance-chain writer that the type-dispatched one replaced.
    pad = " " * indent
    if isinstance(node, np.generic):
        node = node.item()
    if isinstance(node, complex):
        node = {"re": node.real, "im": node.imag}
    if isinstance(node, Mapping):
        if not node:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for i, (key, value) in enumerate(node.items()):
            pieces.append(f"{pad}  {json.dumps(str(key))}: ")
            _reference_emit(value, indent + 2, pieces)
            pieces.append(",\n" if i < len(node) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(node, (list, tuple)):
        if not node:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for i, value in enumerate(node):
            pieces.append(pad + "  ")
            _reference_emit(value, indent + 2, pieces)
            pieces.append(",\n" if i < len(node) - 1 else "\n")
        pieces.append(pad + "]")
    elif isinstance(node, bool):
        pieces.append("true" if node else "false")
    elif isinstance(node, float):
        if math.isfinite(node):
            pieces.append(f"{node:.17g}")
        else:
            pieces.append(json.dumps("nan" if math.isnan(node) else "inf" if node > 0 else "-inf"))
    elif isinstance(node, int):
        pieces.append(str(node))
    elif node is None:
        pieces.append("null")
    else:
        pieces.append(json.dumps(str(node)))


_JSON_LEAVES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(),
    st.booleans(),
    st.none(),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.complex_numbers(allow_nan=True, allow_infinity=True).map(np.complex128),
    st.text(),
    st.sampled_from([_Rank.ONE, _Real(-0.0), _Real(math.nan), _Shown("s")]),
)
_JSON_PAYLOADS = st.recursive(
    _JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.integers(), st.booleans()), children, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_PAYLOADS)
def test_json_text_matches_the_isinstance_chain(payload):
    pieces = []
    _reference_emit(payload, 0, pieces)
    assert cli._json_text(payload) == "".join(pieces)


@pytest.mark.parametrize(
    "x, six, seventeen",
    [
        (0.0, "0", "0"),
        (-0.0, "-0", "-0"),
        (math.inf, "inf", "inf"),
        (-math.inf, "-inf", "-inf"),
        (math.nan, "nan", "nan"),
        (-math.nan, "nan", "nan"),
        (5e-324, "4.94066e-324", "4.9406564584124654e-324"),
        (0.1, "0.1", "0.10000000000000001"),
    ],
)
def test_fmt_float_pins(x, six, seventeen):
    assert (cli._fmt_float(x, 6), cli._fmt_float(x, 17)) == (six, seventeen)


_NEG_NAN = math.copysign(math.nan, -1.0)


# The text coeff, cn-table and integral print for a complex value: the
# strings of the 6-digit complex formatter that cli had of its own, before
# it took realizations' one.  A zero imaginary part of either sign prints
# the real part alone, and a NaN one of either sign prints as +nan.
@pytest.mark.parametrize(
    "z, text",
    [
        (complex(0.1, 0.0), "0.1"),
        (complex(0.1, -0.0), "0.1"),
        (complex(0.1, math.inf), "0.1+infi"),
        (complex(0.1, -math.inf), "0.1-infi"),
        (complex(0.1, math.nan), "0.1+nani"),
        (complex(0.1, _NEG_NAN), "0.1+nani"),
        (complex(-0.0, 0.1), "-0+0.1i"),
        (complex(-0.0, -0.1), "-0-0.1i"),
        (complex(-0.0, 0.0), "-0"),
        (complex(-0.0, _NEG_NAN), "-0+nani"),
        (complex(5e-324, 0.0), "4.94066e-324"),
        (complex(5e-324, -0.1), "4.94066e-324-0.1i"),
        (complex(0.1, 5e-324), "0.1+4.94066e-324i"),
        (complex(0.1, -5e-324), "0.1-4.94066e-324i"),
        (complex(math.nan, -math.inf), "nan-infi"),
        (complex(-math.inf, 0.1), "-inf+0.1i"),
        (complex(1e300, -1e-300), "1e+300-1e-300i"),
    ],
)
def test_fmt_complex_pins(z, text):
    assert cli._fmt(z) == text


@pytest.mark.parametrize("x", [5e-324, -5e-324, 1e308, 0.1, 1 / 3])
def test_json_text_floats_round_trip_exactly(x):
    back = json.loads(cli._json_text(x))
    assert back.hex() == x.hex()


def test_json_text_leaves_no_reference_cycle():
    payload = {"checks": [{"residual": 0.5, "metadata": {"z": 1 - 2j, "xs": [1, 2]}}]}
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        cli._json_text(payload)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


# ------------------------------------------------------------ entry point


def test_console_script_is_installed():
    """The installed console script, or ``python -m zassenhaus`` without it."""
    exe = shutil.which("zassenhaus")
    command = [exe] if exe is not None else [sys.executable, "-m", "zassenhaus"]
    env = dict(os.environ)
    package_root = str(Path(zassenhaus.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [*command, "coeff", "--u", "0", "--v", "0"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0
    assert "g_right" in proc.stdout
