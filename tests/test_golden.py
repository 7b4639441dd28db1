"""Golden CLI outputs: the cases, their byte-for-byte replay, and a writer.

Each case is one ``zassenhaus`` invocation.  Its standard output is stored
byte for byte in ``tests/golden/<case>.out`` and, for ``sweep``, the CSV it
writes in ``tests/golden/<case>.csv``; ``exit_codes.json`` holds every
case's exit status.  A speed-up must leave every one of them as it was.

    pytest tests/test_golden.py [-k NAME]

replays the cases and compares.  Run under ``OPENBLAS_CORETYPE=<kernel>``,
it lists the cases whose bytes the BLAS kernel decides.

    PYTHONPATH=src python tests/test_golden.py NAME [NAME ...]

rewrites the named cases' files and their entries in ``exit_codes.json``,
and no other file.  Only a change meant to alter output (a correctness
fix) runs it, and names the cases it moved in CHANGES.md.  With no name,
or a name that is not a case, it writes nothing, prints the case names to
stderr and exits 2.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from zassenhaus.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
OUT = "{out}"

PAIRS = ("affine2", "heisenberg3", "lindblad", "su11-lower", "su11-raise")
CHECKS = (
    "ab-structure",
    "bch",
    "disentangle-center",
    "disentangle-left",
    "disentangle-right",
    "hadamard",
    "integral",
    "product",
    "swap",
)
_SQUARE = ["--u-min", "-2", "--u-max", "2", "--v-min", "-2", "--v-max", "2"]
# Windows whose rows mix passing points with failing ones: a gW, I_32 W
# or X + Y + fW past the 1-norm limit (OverflowError), a residual above
# the tolerance, and hadamard's truncated series far from the conjugation
# product.  |u|, |v| and |u - v| stay <= 700, where e^u, e^v and
# e^{u - v} are normal doubles.
_FAILURE_WINDOWS = {
    "disentangle-right": ["--u-min", "-4", "--u-max", "12", "--v-min", "-6", "--v-max", "690"],
    "bch": ["--u-min", "-175", "--u-max", "350", "--v-min", "0", "--v-max", "525"],
    "integral": ["--u-min", "-4", "--u-max", "12", "--v-min", "-6", "--v-max", "690"],
    "hadamard": ["--u-min", "-2", "--u-max", "2", "--v-min", "-10", "--v-max", "30"],
}


def _cases() -> dict[str, list[str]]:
    cases = {}
    # The suite on each built-in pair.
    for pair in PAIRS:
        for fmt in ("json", "text"):
            cases[f"verify-{pair}-{fmt}"] = ["verify", "--pair", pair, "--format", fmt]
    # ||X + Y||_1 = 800 > 700: the relaxed tolerance, and the OverflowError
    # of every check that needs e^{X+Y}.
    for fmt in ("json", "text"):
        cases[f"verify-overflow-{fmt}"] = [
            "verify",
            "--x", str(GOLDEN_DIR / "overflow_x.json"),
            "--y", str(GOLDEN_DIR / "overflow_y.json"),
            "--format", fmt,
        ]
    # X = Y = 1e308 E_12, so [X, Y] = 0 and X + Y is infinite: the CLI's one
    # pin of a gathered non-finite matrix.
    for fmt in ("json", "text"):
        cases[f"verify-sum-overflow-{fmt}"] = [
            "verify",
            "--x", str(GOLDEN_DIR / "sum_overflow.json"),
            "--y", str(GOLDEN_DIR / "sum_overflow.json"),
            "--format", fmt,
        ]
    # A pair on an f_bch pole, u = 2 pi i: the CLI's one pin of a value that
    # raises inside a suite (bch and ab-structure fail with PoleError).
    for fmt in ("json", "text"):
        cases[f"verify-pole-{fmt}"] = [
            "verify",
            "--x", str(GOLDEN_DIR / "pole_x.json"),
            "--y", str(GOLDEN_DIR / "pole_y.json"),
            "--format", fmt,
        ]
    # Every coefficient but g_center past double range, with exit status 0.
    for fmt in ("json", "text"):
        cases[f"coeff-overflow-{fmt}"] = ["coeff", "--u", "1000", "--v", "1000", "--format", fmt]
    # f_bch's pole at u = 2 pi i, v = 0.  This case and the two after it print
    # only values computed in pure Python, whatever the BLAS kernel.
    for fmt in ("json", "text"):
        cases[f"coeff-pole-{fmt}"] = [
            "coeff", "--u=0", "--u-im=6.283185307179586", "--v=0", "--format", fmt
        ]
    # Rows 4 and 5 of the C_n table overflow.
    cases["cn-table-overflow"] = ["cn-table", "--u=1e300", "--v=-1", "--max-n", "5"]
    # Both quadratures and g_right overflow, with exit status 1.
    cases["integral-overflow"] = ["integral", "--u=1000", "--v=0.1"]
    for check in CHECKS:
        cases[f"sweep-{check}-9"] = [
            "sweep", "--check", check, *_SQUARE, "--steps", "9", "--out", OUT
        ]
    cases["sweep-disentangle-right-41"] = [
        "sweep", "--check", "disentangle-right", *_SQUARE, "--steps", "41", "--out", OUT
    ]
    # Only the u = -2 row passes: each other point raises an OverflowError,
    # on e^{X+Y} or in one of the product's e^{C_n W}, the per-point error
    # path of a stacked row.
    cases["sweep-product-overflow-5"] = [
        "sweep", "--check", "product", "--u-min", "-2", "--u-max", "700",
        "--v-min", "-1", "--v-max", "1", "--steps", "5", "--out", OUT,
    ]
    for check, window in _FAILURE_WINDOWS.items():
        cases[f"sweep-{check}-failures-5"] = ["sweep", "--check", check, *window, "--steps", "5", "--out", OUT]
    return cases


CASES = _cases()


def run_case(argv: list[str], workdir: Path) -> tuple[int, str, bytes | None]:
    """Run one case in-process: (exit code, stdout, CSV bytes or None).

    The CSV goes to ``workdir``; its path is written back as ``{out}`` in
    the returned stdout so the result does not depend on ``workdir``.
    """
    out_path = str(workdir / "sweep.csv")
    argv = [out_path if a == OUT else a for a in argv]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    csv_bytes = Path(out_path).read_bytes() if out_path in argv else None
    return code, buffer.getvalue().replace(out_path, OUT), csv_bytes


def _exit_codes() -> dict[str, int]:
    return json.loads((GOLDEN_DIR / "exit_codes.json").read_text(encoding="utf-8"))


def write(names: list[str]) -> None:
    """Rewrite the named cases' golden files and their exit codes.

    Exits 2, writing nothing, when no name is given or one is not a case.
    """
    if not names or not set(names) <= CASES.keys():
        print("usage: PYTHONPATH=src python tests/test_golden.py NAME [NAME ...]\ncases:",
              *sorted(CASES), sep="\n  ", file=sys.stderr)
        raise SystemExit(2)
    exit_codes = _exit_codes()
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            code, stdout, csv_bytes = run_case(CASES[name], Path(tmp))
            exit_codes[name] = code
            (GOLDEN_DIR / f"{name}.out").write_text(stdout, encoding="utf-8")
            if csv_bytes is not None:
                (GOLDEN_DIR / f"{name}.csv").write_bytes(csv_bytes)
    (GOLDEN_DIR / "exit_codes.json").write_text(
        json.dumps(exit_codes, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def test_every_case_has_a_golden_exit_code():
    assert sorted(_exit_codes()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    code, stdout, csv_bytes = run_case(CASES[name], tmp_path)
    assert code == _exit_codes()[name]
    assert stdout == (GOLDEN_DIR / f"{name}.out").read_text(encoding="utf-8")
    if csv_bytes is not None:
        assert csv_bytes == (GOLDEN_DIR / f"{name}.csv").read_bytes()


def _contents(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in directory.iterdir()}


@pytest.fixture
def golden_copy(tmp_path, monkeypatch):
    copy = tmp_path / "golden"
    shutil.copytree(GOLDEN_DIR, copy)
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN_DIR", copy)
    return copy


def test_the_writer_rewrites_only_the_case_it_names(golden_copy):
    # cn-table-overflow prints only pure-Python values, so its bytes do not
    # depend on the BLAS kernel.
    original = _contents(golden_copy)
    (golden_copy / "cn-table-overflow.out").write_text("wrong\n", encoding="utf-8")
    planted = json.loads(original["exit_codes.json"])
    planted["cn-table-overflow"] = 7
    (golden_copy / "exit_codes.json").write_text(json.dumps(planted), encoding="utf-8")
    write(["cn-table-overflow"])
    assert _contents(golden_copy) == original


@pytest.mark.parametrize("names", [[], ["no-such-case"], ["cn-table-overflow", "no-such-case"]])
def test_the_writer_exits_2_and_writes_nothing_without_a_known_name(names, golden_copy, capsys):
    original = _contents(golden_copy)
    with pytest.raises(SystemExit) as exit_info:
        write(names)
    assert exit_info.value.code == 2
    assert "cn-table-overflow" in capsys.readouterr().err
    assert _contents(golden_copy) == original


if __name__ == "__main__":
    write(sys.argv[1:])
