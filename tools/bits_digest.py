"""Print one SHA-256 per family of the package's outputs, to show bit identity.

    python3 tools/bits_digest.py                  # digests of this checkout
    python3 tools/bits_digest.py --against HEAD   # and of HEAD; exit 1 on a difference

It may be run from any directory, and uses only the standard library and
numpy.  The families:

- verify: the stdout and exit code of ``zassenhaus verify --pair P
  --format json`` for each of the five built-in pairs;
- sweep: the CSV bytes and exit code of ``zassenhaus sweep`` for each of
  the nine checks on each of WINDOWS: one reaching |u| = |v| = 700, one
  out to |u| = |v| = 1.5e154, where uv leaves double range at some points
  (their pairs are refused) and not at others, one from --u-min=-0, one of
  nine origin points with both zero signs, which share one block, the
  41x41 lattice over [-2, 2]^2, and the 65x65 one, whose 4225 points every
  check that requests two or more matrices per point runs in more than one
  block;
- files: the stdout, stderr and exit code of ``zassenhaus verify --x X
  --y Y --format json`` on the golden overflow files, on the golden
  sum_overflow.json as both X and Y (X + Y is not finite), on the golden
  pole pair (u = 2 pi i, v about 0: f_bch raises its PoleError), and on FILE_PAIRS,
  written to a temporary directory: a pair with a small generator, a
  scaled su11 pair and a shifted affine pair, whose (u, v, c) the
  command infers from the matrices;
- expm: the bytes of ``expm_stack`` on seeded stacks of each dimension in
  EXPM_DIMS: real one-row slices (no nonzero entry below the first row)
  with a +-0 corner, among them a first row with subnormals beside 650;
  those mixed with one-row slices of nonzero corner; and complex slices.
  Their 1-norms are EXPM_NORMS, 2^k and its neighbours out to 700 and
  past it, where a slice comes back NaN.  EXPM_DIMS runs up to
  MAX_DIM = 64, so the family covers the widest buffers of terms and
  partial sums, real one-row and complex;
- residuals: the bytes of the stacked ``_rel_residuals`` and of the
  scalar ``_rel_residual`` on each pair of seeded stacks of each
  dimension in RESIDUAL_DIMS: finite pairs, near and far apart, at each
  scale of RESIDUAL_SCALES, out to entries near 1e160 and 1e300, whose
  sums of squares leave double range (the rescaled path); a pair with an
  inf and one with a NaN entry; a zero pair and a zero matrix against a
  tiny one; and the same stacks against PARTIALS partial products along
  an extra leading axis, as a block's product check takes them, and
  against one matrix, as a one-point product check does;
- coeffs: the five coefficients' value bits, method and terms_used (or
  the exception's type and message) at each of a seeded set of points:
  complex points at several scales, and real points on and beside the
  switch seams, the diagonal u = v, the axes, the line u + v = 0 and the
  lines u - v = 2 pi i k, out to |u| = 800.  The points are drawn with
  numpy's generator and scaled with math.pow, so that they do not depend
  on numpy's CPU dispatch.

``--tree DIR`` digests the package in DIR/src in place of this
checkout's.  ``--against REV`` exports REV with ``git archive`` into a
temporary directory (as tools/bench_pairs.py does), digests it there with
this script, prints both digests and "same" or "DIFFERS" per family, and
exits 1 if any family differs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = ("affine2", "heisenberg3", "su11-raise", "su11-lower", "lindblad")
# (u_min, u_max, v_min, v_max, steps) of each sweep.
WINDOWS = (
    (-3.0, 3.0, -3.0, 3.0, 9),
    (-40.0, 25.0, -12.0, 60.0, 8),
    (-700.0, 700.0, -700.0, 700.0, 11),
    (-1.5e154, 1.5e154, -1.5e154, 1.5e154, 7),
    (-0.0, 3.0, -3.0, 3.0, 7),
    (-0.0, 0.0, -0.0, 0.0, 3),
    (-2.0, 2.0, -2.0, 2.0, 41),
    (-2.0, 2.0, -2.0, 2.0, 65),
)
SEED = 2501
# 64 is matrices.MAX_DIM, the widest buffer expm_stack takes.
EXPM_DIMS = (1, 2, 3, 4, 8, 16, 64)
EXPM_NORMS = [x for k in (-1074, -1022, -60, -20, -3, -1, 0, 1, 2, 3, 5, 8, 9)
              for x in (math.nextafter(2.0**k, 0.0), 2.0**k, math.nextafter(2.0**k, math.inf)) if x > 0.0]
EXPM_NORMS += [600.0, math.nextafter(700.0, 0.0), 700.0, math.nextafter(700.0, math.inf), 701.0, 1e300]
RESIDUAL_DIMS = (1, 2, 3, 4, 8, 64)
RESIDUAL_SCALES = (1e-300, 1e-8, 1.0, 1e8, 1e150, 1e160, 1e300)
PARTIALS = 5
# name -> (the pair, built from the realizations module, and the s of the
# file pair (sX, Y/s)).
FILE_PAIRS = {
    "small-v": (lambda r: r.affine_2x2(1, 1e-9, 1e-9, 1), 1.0),
    "su11-lower-scaled": (lambda r: r.su11_pair(r.Ladder.LOWER_SQ, 8), 100.0),
    "affine2-shifted": (lambda r: r.shift_center(r.affine_2x2(1, 2, 1, 1), 0.3), 1.0),
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", default=ROOT, help="the checkout whose src/ to digest (default: this one)")
    parser.add_argument("--against", metavar="REV", help="also digest the git revision REV and compare")
    return parser.parse_args(argv)


def _cli(main, argv: list[str]) -> bytes:
    # The exit code, stdout and stderr of one CLI command, run in this process.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"{code}\n{out.getvalue()}{err.getvalue()}".encode()


def _verify_family(cli):
    h = hashlib.sha256()
    for pair in PAIRS:
        h.update(_cli(cli.main, ["verify", "--pair", pair, "--format", "json"]))
    return h


def _sweep_family(cli, checks):
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory(prefix="bits-digest-") as tmp:
        path = os.path.join(tmp, "sweep.csv")
        for check in sorted(checks):
            for u_min, u_max, v_min, v_max, steps in WINDOWS:
                argv = ["sweep", "--check", check, f"--u-min={u_min!r}", f"--u-max={u_max!r}",
                        f"--v-min={v_min!r}", f"--v-max={v_max!r}", "--steps", str(steps), "--out", path]
                # The summary line names the temporary path: digest it without.
                h.update(_cli(cli.main, argv).replace(path.encode(), b"OUT"))
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h


def _write_matrix(path: str, A) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dim": len(A), "re": A.real.tolist(), "im": A.imag.tolist()}, fh)
    return path


def _files_family(cli, realizations):
    h = hashlib.sha256()
    golden = os.path.join(ROOT, "tests", "golden")
    pairs = [(os.path.join(golden, "overflow_x.json"), os.path.join(golden, "overflow_y.json")),
             (os.path.join(golden, "sum_overflow.json"),) * 2,
             (os.path.join(golden, "pole_x.json"), os.path.join(golden, "pole_y.json"))]
    with tempfile.TemporaryDirectory(prefix="bits-digest-") as tmp:
        for name, (build, s) in FILE_PAIRS.items():
            pair = build(realizations)
            pairs.append((_write_matrix(os.path.join(tmp, f"{name}-x.json"), s * pair.X),
                          _write_matrix(os.path.join(tmp, f"{name}-y.json"), pair.Y / s)))
        for x, y in pairs:
            h.update(_cli(cli.main, ["verify", "--x", x, "--y", y, "--format", "json"]))
    return h


def _expm_stacks(n: int):
    # Each slice's 1-norm is its norm of EXPM_NORMS exactly: a one-row
    # slice holds it in its last entry, a complex one in its first column,
    # whose other columns sum to at most 0.71 of it.  Only exact numpy
    # operations build them, so they do not depend on numpy's CPU dispatch.
    rng = np.random.default_rng(SEED + n)
    rows = [norm * rng.uniform(-1.0, 1.0, n) for norm in EXPM_NORMS]
    for row, norm in zip(rows, EXPM_NORMS):
        row[-1] = norm * rng.choice([1.0, -1.0])
    rows += [np.resize([0.0, 650.0, 5e-324, -2.5e-310, 3e-308], n), np.zeros(n)]
    one_row = np.zeros((len(rows), n, n), dtype=complex)
    one_row[:, 0] = rows
    zero_corner = one_row.copy()
    zero_corner[:, 0, 0] = 0.0
    full = np.zeros((len(EXPM_NORMS), n, n), dtype=complex)
    full.real, full.imag = (rng.uniform(-1.0, 1.0, full.shape) * (np.array(EXPM_NORMS) / (2 * n))[:, None, None]
                            for _ in range(2))
    full[:, :, 0] = 0.0
    full[np.arange(len(full)), rng.integers(n, size=len(full)), 0] = (
        np.array(EXPM_NORMS) * rng.choice([1.0, -1.0, 1j, -1j], size=len(full)))
    stacks = [zero_corner, np.concatenate([zero_corner, one_row]), full]
    for stack in stacks:
        for part in (stack.real, stack.imag):
            part[(part == 0.0) & (rng.random(stack.shape) < 0.5)] = -0.0
    return [stack[rng.permutation(len(stack))] for stack in stacks]


def _expm_family(matrices):
    h = hashlib.sha256()
    for n in EXPM_DIMS:
        for stack in _expm_stacks(n):
            h.update(matrices.expm_stack(stack).tobytes())
    return h


def _residual_stacks(n: int):
    # (A, B, partials): a pair of (N, n, n) stacks, and partial products of
    # A along a leading axis of PARTIALS.  Only exact numpy operations build
    # them, so they do not depend on numpy's CPU dispatch.
    rng = np.random.default_rng(SEED + 1000 + n)
    shape = (len(RESIDUAL_SCALES), n, n)
    unit = [rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape) for _ in range(2)]
    scales = np.array(RESIDUAL_SCALES)[:, None, None]
    near, far = scales * unit[0], scales * unit[1]
    with_inf, with_nan, zero = near[2].copy(), near[5].copy(), np.zeros((n, n), dtype=complex)
    with_inf[0, 0] = np.inf
    with_nan[-1, -1] = np.nan
    A = np.concatenate([near, near, [near[2], with_nan, zero, zero]])
    B = np.concatenate([near + 1e-12 * far, far, [with_inf, near[5], zero, far[0]]])
    partials = A * (1.0 + 1e-13 * rng.uniform(-1.0, 1.0, (PARTIALS, *A.shape)))
    return A, B, partials


def _residuals_family(matrices):
    h = hashlib.sha256()
    for n in RESIDUAL_DIMS:
        A, B, partials = _residual_stacks(n)
        for a, b in ((A, B), (A, partials), (A[:1], np.ascontiguousarray(partials[:, :1]))):
            h.update(matrices._rel_residuals(a, b).tobytes())
            a, b = np.broadcast_arrays(a, b)
            for index in np.ndindex(a.shape[:-2]):
                h.update(struct.pack("<d", matrices._rel_residual(a[index], b[index])))
    return h


def _points() -> list[tuple[complex, complex]]:
    rng = np.random.default_rng(SEED)
    points = []
    for scale in (1.0, 10.0, 100.0, 800.0):
        re = rng.uniform(-scale, scale, size=(2000, 2))
        im = rng.uniform(-scale, scale, size=(2000, 2)) * (rng.random((2000, 2)) < 0.7)
        points += [(complex(a, b), complex(c, d)) for (a, c), (b, d) in zip(re.tolist(), im.tolist())]
    u = rng.uniform(-800.0, 800.0, size=1500).tolist()
    exponents, signs = rng.uniform(-16.0, 0.0, size=1500).tolist(), rng.choice([-1.0, 1.0], size=1500).tolist()
    tiny = [math.pow(10.0, e) * sign for e, sign in zip(exponents, signs)]
    for a, d in zip(u, tiny):
        points += [(a, a + d), (a, d), (d, a), (a, -a + d), (a, -a)]
    for a, d in zip(rng.uniform(-2.0, 2.0, size=500).tolist(), tiny):
        points += [(0.25 + d * 1e-3, a), (a, 0.25 - d * 1e-3), (a, a + 0.25 + d * 1e-3)]
    for k in range(-6, 7):
        for a in rng.uniform(-30.0, 30.0, size=40).tolist():
            points.append((complex(a, 0.0), complex(a, -2.0 * math.pi * k)))
    return points


def _coeffs_family(coeffs):
    h = hashlib.sha256()
    functions = (coeffs.g_right, coeffs.g_center, coeffs.g_left, coeffs.f_bch, coeffs.gamma_swap)
    for u, v in _points():
        for fn in functions:
            try:
                cv = fn(u, v)
            except Exception as exc:  # noqa: BLE001 - the failure is part of the output
                h.update(f"{type(exc).__name__}: {exc}\n".encode())
                continue
            value = complex(cv.value)
            h.update(struct.pack("<dd", value.real, value.imag))
            h.update(f"{cv.method.value} {cv.terms_used}\n".encode())
    return h


def _digests(tree: str) -> dict[str, str]:
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(tree, "src"))
    from zassenhaus import cli, coeffs, matrices, realizations
    from zassenhaus.verify import CHECKS

    with np.errstate(all="ignore"):
        families = {
            "verify": _verify_family(cli),
            "sweep": _sweep_family(cli, CHECKS),
            "files": _files_family(cli, realizations),
            "expm": _expm_family(matrices),
            "residuals": _residuals_family(matrices),
            "coeffs": _coeffs_family(coeffs),
        }
    return {name: h.hexdigest() for name, h in families.items()}


def _digests_of(rev: str) -> dict[str, str]:
    # This script, run on a git archive export of rev.
    tar = subprocess.run(["git", "archive", "--format=tar", rev], capture_output=True, check=True, cwd=ROOT).stdout
    with tempfile.TemporaryDirectory(prefix="bits-digest-tree-") as tree:
        with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
            archive.extractall(tree, filter="data")
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONPATH", None)
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--tree", tree],
                              capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        sys.exit(f"bits_digest: the digest of {rev} exited {proc.returncode}:\n{proc.stderr}")
    return dict(line.split() for line in proc.stdout.splitlines())


def main(argv=None) -> int:
    args = _parse_args(argv)
    mine = _digests(os.path.abspath(args.tree))
    if args.against is None:
        for name, digest in mine.items():
            print(f"{name} {digest}")
        return 0
    theirs = _digests_of(args.against)
    differs = False
    for name, digest in mine.items():
        same = theirs.get(name) == digest
        differs |= not same
        print(f"{name} {digest} {args.against}:{theirs.get(name)} {'same' if same else 'DIFFERS'}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
