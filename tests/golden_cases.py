"""Golden CLI outputs: the cases, how to run one, and how to regenerate.

Each case is one ``zassenhaus`` invocation.  Its standard output is stored
byte for byte in ``tests/golden/<case>.out`` and, for ``sweep``, the CSV it
writes in ``tests/golden/<case>.csv``; ``exit_codes.json`` holds every
case's exit status.  test_golden.py replays each case and compares.

The files were produced from the tree as it stood before the per-pair
exponential memo and the one-pass C_n recurrence went in, by

    PYTHONPATH=src python tests/golden_cases.py

Regenerate them only with a change that is meant to alter output (a
correctness fix), and say so in CHANGES.md.  They were regenerated once
when g_right and the f_bch diagonal moved from their series to the
divided-difference kernel: that removed the two failing rows at
(+-0.1, +-0.2) of the 41x41 disentangle-right sweep, where the g_right
series stopped early on a root-of-unity line.  Known content: the file-given
``overflow`` pair has ||X+Y||_1 = 800 > 700, so run_suite takes the
relaxed tolerance and every check that needs e^{X+Y} reports the
OverflowError.  The product sweep over u in [-2, 700], v in [-1, 1]
(captured before the stacked row exponentials went in) passes only its
u = -2 row: at u = 700, v = -1 and -0.5 e^{X+Y} is past the 1-norm
limit (701 and 700.5), and every other failing point raises the
OverflowError later, in one of the product's e^{C_n W}, so it pins the
per-point error path of a stacked row.  The four ``sweep-<check>-failures-5``
cases (disentangle-right, bch, integral, hadamard; captured before each
lattice row was checked as stacks) pin rows that mix passing points with
points that fail: an exponential past the 1-norm limit, a non-finite
X + Y + fW, an infinite or NaN residual, or a truncated adjoint series far
from the conjugation product.  The coeff cases at u = v = 1000
were added later: every coefficient there but g_center is past double
range, and coeff reports each one as overflowed with exit status 0.  They
were regenerated when g_center learnt to return e^{-1000} g_r(1000, 1000),
about -1e-6, instead of overflowing with g_r.  They were regenerated again
when f_bch and gamma_swap took g_right as their fallback: the reasons of
those two coefficients in ``coeff-overflow-*`` now name them, and the
residual cells of the u = v rows of ``sweep-bch-9.csv`` (7 of 81, each
still passing) moved with f_bch's diagonal, now -g_r(u, u)/phi1(0).  They
were regenerated when phi1 became one quotient of expm1 in place of its
Taylor series near 0: 12 residual cells of ``sweep-integral-9.csv`` (each
still passing), the last digit of the lindblad integral value and its
quadrature error estimate, and the swap check's ``"method": "series"``
(now ``closed-form``, 0 terms) in four ``verify-*-json`` cases.  They
were regenerated when a relative residual whose sums of squares overflow
came to be computed on rescaled matrices: the 8 ``nan,false`` rows of
``sweep-disentangle-right-failures-5.csv`` and the 5 of
``sweep-bch-failures-5.csv`` now pass with residuals of 3e-16 to 1e-12
(their ``.out`` failure counts 15 -> 7 and 17 -> 12), and the 8 failing
v >= 516 rows of ``sweep-integral-failures-5.csv`` report their identity
residual, about 5e-6 to 3e-5, where the NaN one left the quadrature
error, about 1e-8.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

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
# or X + Y + fW past the 1-norm limit (OverflowError), a non-finite
# X + Y + fW (ValueError), an infinite residual, and hadamard's truncated
# series far from the conjugation product.  |u|, |v| and |u - v| stay
# <= 700, where e^u, e^v and e^{u - v} are normal doubles.
_FAILURE_WINDOWS = {
    "disentangle-right": ["--u-min", "-4", "--u-max", "12", "--v-min", "-6", "--v-max", "690"],
    "bch": ["--u-min", "-175", "--u-max", "350", "--v-min", "0", "--v-max", "525"],
    "integral": ["--u-min", "-4", "--u-max", "12", "--v-min", "-6", "--v-max", "690"],
    "hadamard": ["--u-min", "-2", "--u-max", "2", "--v-min", "-10", "--v-max", "30"],
}


def _cases() -> dict[str, list[str]]:
    cases = {}
    for pair in PAIRS:
        for fmt in ("json", "text"):
            cases[f"verify-{pair}-{fmt}"] = ["verify", "--pair", pair, "--format", fmt]
    for fmt in ("json", "text"):
        cases[f"verify-overflow-{fmt}"] = [
            "verify",
            "--x", str(GOLDEN_DIR / "overflow_x.json"),
            "--y", str(GOLDEN_DIR / "overflow_y.json"),
            "--format", fmt,
        ]
    for fmt in ("json", "text"):
        cases[f"coeff-overflow-{fmt}"] = ["coeff", "--u", "1000", "--v", "1000", "--format", fmt]
    for check in CHECKS:
        cases[f"sweep-{check}-9"] = [
            "sweep", "--check", check, *_SQUARE, "--steps", "9", "--out", OUT
        ]
    cases["sweep-disentangle-right-41"] = [
        "sweep", "--check", "disentangle-right", *_SQUARE, "--steps", "41", "--out", OUT
    ]
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


def regenerate() -> None:
    exit_codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES.items():
            code, stdout, csv_bytes = run_case(argv, Path(tmp))
            exit_codes[name] = code
            (GOLDEN_DIR / f"{name}.out").write_text(stdout, encoding="utf-8")
            if csv_bytes is not None:
                (GOLDEN_DIR / f"{name}.csv").write_bytes(csv_bytes)
    (GOLDEN_DIR / "exit_codes.json").write_text(
        json.dumps(exit_codes, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    regenerate()
