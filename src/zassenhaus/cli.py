"""Command-line front end.

Subcommands:
  coeff     evaluate all five disentangling coefficients at one (u, v)
  cn-table  compare the product coefficients C_n with a contour route to them
  verify    run the full identity suite on a built-in or file-given pair
  sweep     grid a single check over a (u, v) lattice into a CSV file
  integral  compare the quadrature route against the closed form

Numeric output uses 17 significant digits in JSON/CSV (round-trip exact
for doubles) and 6 in human-readable text.  Identical invocations produce
byte-identical output.  Exit codes: 0 when every executed check passed,
1 when a check failed, 2 on argument errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections.abc import Callable, Mapping

import numpy as np

from .coeffs import PoleError, f_bch, g_center, g_left, g_right, gamma_swap, zass_coeff
from .matrices import commutator, infer_uvc, load_matrix
from .realizations import (
    AlgebraPair,
    Ladder,
    _fmt,
    affine_2x2,
    heisenberg_3x3,
    lindblad_pair,
    su11_pair,
)
from .recurrence import c_contour
from .verify import CHECKS, DEFAULT_TOL, quadrature_gr, run_suite

__all__ = ["main"]

# File-supplied pairs are refused when the commutator fit is worse than
# this: the identities are only meaningful inside the affine class.
_FIT_LIMIT = 1e-8

_PAIR_BUILDERS = {
    "affine2": lambda: affine_2x2(1, 2, 1, 1),
    "heisenberg3": lambda: heisenberg_3x3(1),
    "su11-raise": lambda: su11_pair(Ladder.RAISE_SQ, 8),
    "su11-lower": lambda: su11_pair(Ladder.LOWER_SQ, 8),
    "lindblad": lindblad_pair,
}


def _fmt_float(x: float, digits: int) -> str:
    return f"{x:.{digits}g}"


def _json_text(obj) -> str:
    """Serialize with 17-significant-digit floats and stable key order.

    Complex numbers become {"re": ..., "im": ...} and NumPy scalars their
    Python values.  Non-finite floats become the strings "inf"/"-inf"/"nan"
    (strict JSON has no literal for them).
    """
    pieces: list[str] = []
    _emit(obj, "", pieces)
    return "".join(pieces)


_quote = json.encoder.encode_basestring_ascii  # json.dumps of a str
_EXACT = frozenset((str, float, bool, int, dict, list, tuple))


def _emit(node, pad: str, pieces: list[str]) -> None:
    # A module-level function: a nested closure would refer to itself
    # through its cell, and the cycle would keep pieces alive until a
    # full garbage collection.  A node whose exact type is in _EXACT skips
    # the isinstance tests, and a dict, list or tuple is written by that
    # type; only subclasses, numpy scalars and complex numbers take them.
    kind = type(node)
    if kind not in _EXACT:
        if isinstance(node, np.generic):
            node = node.item()
        if isinstance(node, complex):
            node = {"re": node.real, "im": node.imag}
        if isinstance(node, Mapping):
            kind = dict
        elif isinstance(node, (list, tuple)):
            kind = list
    if kind is dict:
        inner = pad + "  "
        for i, (key, value) in enumerate(node.items()):
            pieces.append(f"{',' if i else '{'}\n{inner}{_quote(str(key))}: ")
            _emit(value, inner, pieces)
        pieces.append(f"\n{pad}}}" if node else "{}")
    elif kind is list or kind is tuple:
        inner = pad + "  "
        for i, value in enumerate(node):
            pieces.append(f"{',' if i else '['}\n{inner}")
            _emit(value, inner, pieces)
        pieces.append(f"\n{pad}]" if node else "[]")
    elif isinstance(node, bool):
        pieces.append("true" if node else "false")
    elif isinstance(node, float):
        text = f"{node:.17g}"
        pieces.append(text if math.isfinite(node) else f'"{text}"')
    elif isinstance(node, int):
        pieces.append(str(node))
    elif node is None:
        pieces.append("null")
    else:
        pieces.append(_quote(str(node)))


def _attempt(fn, *args):
    """fn(*args), or the PoleError or OverflowError it raised: a value with
    no finite double.  coeff, cn-table and integral compute each of their
    coefficients, C_n and quadratures here, and print a failure by _failure."""
    try:
        return fn(*args)
    except (PoleError, OverflowError) as exc:
        return exc


def _failure(value, reason: bool = True) -> str | None:
    """None for a value.  For a failure, "pole" or "overflow" (its JSON key
    and its cell in a table) and, with reason, its message in parentheses."""
    if not isinstance(value, Exception):
        return None
    word = "pole" if isinstance(value, PoleError) else "overflow"
    return f"{word} ({value})" if reason else word


def _gap(a, b) -> str:
    # |a - b| in text, or the word of the first failure of the two.
    return _failure(a, False) or _failure(b, False) or _fmt_float(abs(a - b), 6)


def _coefficient(cv) -> str:
    # A CoeffValue in text, or its failure with the reason.
    return _failure(cv) or f"{_fmt(cv.value):>22s}  method={cv.method.value}  terms_used={cv.terms_used}"


def _cmd_coeff(args: argparse.Namespace) -> int:
    u = complex(args.u, args.u_im)
    v = complex(args.v, args.v_im)
    table = [
        (label, _attempt(fn, u, v))
        for label, fn in (
            ("g_right", g_right),
            ("g_center", g_center),
            ("g_left", g_left),
            ("f_bch", f_bch),
            ("gamma_swap", gamma_swap),
        )
    ]
    if args.format == "json":
        coefficients = {}
        for label, cv in table:
            word = _failure(cv, False)
            coefficients[label] = {word: str(cv)} if word else {
                "value": complex(cv.value),
                "method": cv.method.value,
                "terms_used": cv.terms_used,
            }
        print(_json_text({"u": u, "v": v, "coefficients": coefficients}))
    else:
        print(f"coefficients at u = {_fmt(u)}, v = {_fmt(v)}")
        for label, cv in table:
            print(f"  {label:10s}  {_coefficient(cv)}")
    return 0


def _real_contour(n: int, u: float, v: float) -> float:
    # Real u and v give a real C_n: the imaginary part is rounding.
    return c_contour(n, u, v).real


def _cmd_cn_table(args: argparse.Namespace) -> int:
    u = float(args.u)
    v = float(args.v)
    print(f"product coefficients C_n at u = {_fmt_float(u, 6)}, v = {_fmt_float(v, 6)}")
    print(f"{'n':>3s}  {'closed form':>22s}  {'contour':>22s}  {'|difference|':>13s}")
    for n in range(2, args.max_n + 1):
        closed = _attempt(zass_coeff, n, u, v)
        contour = _attempt(_real_contour, n, u, v)
        cells = (_failure(closed, False) or _fmt(closed), _failure(contour, False) or _fmt(contour))
        print(f"{n:>3d}  {cells[0]:>22s}  {cells[1]:>22s}  {_gap(closed, contour):>13s}")
    return 0


def _pair_from_files(x_path: str, y_path: str):
    """Load and vet a file-supplied pair; returns (pair, error_message)."""
    matrices = []
    for flag, path in (("--x", x_path), ("--y", y_path)):
        try:
            matrices.append(load_matrix(path))
        except (OSError, ValueError) as exc:
            return None, f"{flag}: {exc}"
    X, Y = matrices
    try:
        u, v, c, fit = infer_uvc(X, Y)
    except ValueError as exc:  # a DimensionMismatch included
        return None, f"--x/--y: {exc}"
    if fit > _FIT_LIMIT:
        return None, (
            "--x/--y: [X,Y] does not lie in span{X, Y, identity}: "
            f"fit_residual = {_fmt_float(fit, 6)} exceeds {_FIT_LIMIT:g}"
        )
    name = f"file({os.path.basename(x_path)},{os.path.basename(y_path)})"
    pair = AlgebraPair(X, Y, u, v, c, commutator(X, Y), name)
    return pair, None


def _report_payload(report) -> dict:
    """The JSON form of a report: {pair, checks: [...], all_passed}."""
    return {
        "pair": report.pair_name,
        "checks": [
            {
                "name": r.name,
                "residual": r.residual,
                "tolerance": r.tolerance,
                "passed": r.passed,
                "metadata": r.metadata,
            }
            for r in report.results
        ],
        "all_passed": report.all_passed,
    }


def _print_report_text(report) -> None:
    print(f"pair: {report.pair_name}")
    for r in report.results:
        status = "PASS" if r.passed else "FAIL"
        line = (
            f"  {r.name:22s} residual {_fmt_float(r.residual, 6):>12s}"
            f"   tol {_fmt_float(r.tolerance, 6):>8s}   {status}"
        )
        if "error" in r.metadata:
            line += f"   ({r.metadata['error']})"
        print(line)
    print(f"all passed: {'yes' if report.all_passed else 'no'}")


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.pair is not None:
        pair = _PAIR_BUILDERS[args.pair]()
    else:
        pair, error = _pair_from_files(args.x, args.y)
        if error is not None:
            print(f"error: {error}", file=sys.stderr)
            return 2
    report = run_suite(pair, args.tol)
    if args.format == "json":
        print(_json_text(_report_payload(report)))
    else:
        _print_report_text(report)
    return 0 if report.all_passed else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    # Imported here, so that no other command compiles the block plan.
    from .sweep import lattice_residuals

    us = _axis(args.u_min, args.u_max, args.steps)
    vs = _axis(args.v_min, args.v_max, args.steps)
    # Each coordinate is formatted once; u_im and v_im are always 0.  A
    # line is its row's u text, its column's text up to the residual, the
    # residual and one of two ends.
    zero = _fmt_float(0.0, 17)
    middles = [f",{zero},{_fmt_float(v, 17)},{zero}," for v in vs]
    # Opened before any point is computed, so that a path that cannot be
    # written fails at once; this truncates an existing file, and a sweep
    # cut short leaves the rows written so far.  No field needs quoting, so
    # the lines are the csv module's excel dialect without the import that
    # every command would pay for.
    try:
        fh = open(args.out, "w", newline="", encoding="utf-8")
    except OSError as exc:
        print(f"error: --out: {exc}", file=sys.stderr)
        return 2
    failures = 0
    # The residuals come row by row from blocks of points checked as
    # stacks: each distinct exponential of a block is computed once, in
    # one expm_stack call per shape, so the 41x41 disentangle-right sweep
    # stacks 1983 of its 6724 requested matrices, in two calls.
    residuals = lattice_residuals(args.check, us, vs)
    with fh:
        fh.write("u_re,u_im,v_re,v_im,residual,passed\r\n")
        for u in us:
            u_text = _fmt_float(u, 17)
            lines = []
            # zip draws from middles first, so it stops at the end of a row
            # without taking the next row's first residual.
            for middle, residual in zip(middles, residuals):
                if residual <= DEFAULT_TOL:
                    end = ",true\r\n"
                else:
                    end = ",false\r\n"
                    failures += 1
                lines.append(f"{u_text}{middle}{residual:.17g}{end}")
            fh.write("".join(lines))
    print(
        f"sweep {args.check}: wrote {len(us) * len(vs)} rows to {args.out}; "
        f"failures: {failures}"
    )
    return 0 if failures == 0 else 1


def _axis(low: float, high: float, steps: int) -> list[float]:
    """np.linspace(low, high, steps) with the sign of a zero low kept.

    linspace computes each point but the last as low + i * step, which is
    +0.0 from a low of -0.0 where i * step is 0: at the first point, and
    at every point of an axis whose bounds are equal.  Those points take
    low itself; the last of two or more stays high."""
    lows = max(1, steps - 1) if low == high else 1
    return [low] * lows + np.linspace(low, high, steps).tolist()[lows:]


def _cmd_integral(args: argparse.Namespace) -> int:
    u = float(args.u)
    v = float(args.v)
    i32 = _attempt(quadrature_gr, u, v, 32)
    i16 = _attempt(quadrature_gr, u, v, 16)
    cv = _attempt(g_right, u, v)
    gr = cv if _failure(cv) else cv.value
    print(f"integral of the interaction integrand at u = {_fmt_float(u, 6)}, v = {_fmt_float(v, 6)}")
    print(f"  quadrature, 32 nodes   {_failure(i32) or _fmt(i32):>22s}")
    print(f"  quadrature, 16 nodes   {_failure(i16) or _fmt(i16):>22s}")
    print(f"  node-refinement delta  {_gap(i32, i16):>22s}")
    print(f"  closed form g_right    {_coefficient(cv):>22s}")
    print(f"  |quadrature - closed|  {_gap(i32, gr):>22s}")
    if _failure(i32) or _failure(gr):
        print("  agreement: FAIL")
        return 1
    threshold = DEFAULT_TOL * (1.0 + abs(gr))
    passed = abs(i32 - gr) <= threshold
    print(
        f"  agreement: {'PASS' if passed else 'FAIL'} "
        f"(threshold {_fmt_float(threshold, 6)})"
    )
    return 0 if passed else 1


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _int_from(low: int) -> Callable[[str], int]:
    """An argparse type: an int of at least low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return value

    return parse


def _add_float(parser, flag: str, text: str = "", **kwargs) -> None:
    # argparse reads a separate "-1e-3" as an option, not as a value.
    note = f"a negative value in scientific notation needs '=', as in {flag}=-1e-3"
    parser.add_argument(flag, type=_finite_float, help=f"{text}; {note}" if text else note, **kwargs)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once: parse_args keeps no state between calls.
    parser = argparse.ArgumentParser(
        prog="zassenhaus",
        description=(
            "Disentangle operator exponentials for the commutator class "
            "[X,Y] = uX + vY + c*identity and verify every identity on "
            "exact matrix realizations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_coeff = sub.add_parser(
        "coeff", help="evaluate the five disentangling coefficients at (u, v)"
    )
    _add_float(p_coeff, "--u", "real part of u", required=True)
    _add_float(p_coeff, "--u-im", "imaginary part of u", default=0.0)
    _add_float(p_coeff, "--v", "real part of v", required=True)
    _add_float(p_coeff, "--v-im", "imaginary part of v", default=0.0)
    p_coeff.add_argument("--format", choices=("text", "json"), default="text")
    p_coeff.set_defaults(func=_cmd_coeff)

    p_cn = sub.add_parser(
        "cn-table",
        help="product coefficients C_n, closed form vs a contour integral of g_right, "
        "for n = 2..max-n",
    )
    _add_float(p_cn, "--u", required=True)
    _add_float(p_cn, "--v", required=True)
    p_cn.add_argument("--max-n", type=_int_from(2), required=True)
    p_cn.set_defaults(func=_cmd_cn_table)

    p_verify = sub.add_parser(
        "verify", help="run the identity suite on a named pair or matrix files"
    )
    source = p_verify.add_mutually_exclusive_group(required=True)
    source.add_argument("--pair", choices=sorted(_PAIR_BUILDERS), help="built-in pair")
    source.add_argument("--x", help="JSON matrix file for X (requires --y)")
    p_verify.add_argument("--y", help="JSON matrix file for Y")
    p_verify.add_argument(
        "--tol",
        type=_positive_float,
        default=None,
        help="residual tolerance (default 1e-10, auto-relaxed for large norms)",
    )
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser(
        "sweep", help="run one check over a real (u, v) lattice, writing CSV"
    )
    p_sweep.add_argument("--check", choices=sorted(CHECKS), required=True)
    for flag in ("--u-min", "--u-max", "--v-min", "--v-max"):
        _add_float(p_sweep, flag, required=True)
    p_sweep.add_argument("--steps", type=_int_from(1), required=True, help="points per axis")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_integral = sub.add_parser(
        "integral", help="quadrature vs closed form for the right coefficient"
    )
    _add_float(p_integral, "--u", required=True)
    _add_float(p_integral, "--v", required=True)
    p_integral.set_defaults(func=_cmd_integral)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        if args.pair is None and args.y is None:
            parser.error("--x requires --y")
        if args.pair is not None and args.y is not None:
            parser.error("--y cannot be combined with --pair")
    if args.command == "sweep":
        for axis in "uv":
            if not math.isfinite(getattr(args, f"{axis}_max") - getattr(args, f"{axis}_min")):
                parser.error(f"--{axis}-min/--{axis}-max: the span {axis}_max - {axis}_min overflows")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
