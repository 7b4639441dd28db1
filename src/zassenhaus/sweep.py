"""A sweep's lattice, checked in blocks of points as stacks.

lattice_residuals walks the (u, v) lattice row by row in blocks of at
most BLOCK_SLICES requested matrices.  lattice_points builds a block's
2x2 affine points as one (N, 2, 2) stack of X, Y and W, a verify subject
with a points axis, read by the same request and arithmetic as one pair:
each distinct requested matrix is exponentiated once (again only where
a different one shares its fingerprint), in one expm_stack call, and the
check's products and relative residual run once over the stack.  The
origin u = v = 0 has no 2x2 realization (g_r(0, 0) = -1/2), so a
block's origin points, of either zero sign, share the one-point
subject of heisenberg_3x3(1) that a public check builds: gathered with
the same request and read by the same arithmetic, it gives them the
public check's residual by construction.  A block keeps nothing from the
block before: a matrix that two blocks name is stacked in each.  A
block's memory is a few copies of its requested matrices: lattice_points
fills only the stack it returns, and gather holds one stack of the
requested matrices, which it drops before expm_stack.  A stacked @,
commutator or scalar multiple is bit-identical to the same operation on
each slice, and so is each stacked Frobenius norm and each expm_stack
slice, so every residual has the bits of the public check's on that
point's pair.

The lattice is real, and its W = [X, Y] is written in closed form, with
no product of matrices.  The nonzero entries of XY and YX are v(-u),
vd, (-u)v and -u, with d = +-1, and every other real product that @
adds into an entry has a factor 0.  So @ rounds each entry once, in any
summation order and with or without a fused multiply-add, and
W = (p - p, vd + u) in its first row, with p = v(-u), has its bits, the
NaN where uv overflows included.  For complex u and v, XY[0, 0] and
YX[0, 0] would each be a sum of two real products, which a fused kernel
need not round to the same value.

A coefficient comes point by point from its scalar function, except
g_right and g_left = g_right(v, u) at a block's real 2x2 affine points,
which _g_right_array computes at once where the check reads them: g_right's
closed form on float arrays, in the scalar operations and order, and its
kernel by the same two stages that the scalar kernel runs, so every value
has the scalar bits, the sign of an imaginary zero included.

A point where the check fails (see verify) is written with an infinite
residual, and the others go on.  The stacked arithmetic runs with numpy's
overflow and invalid warnings off, since such a point has already failed.

The sweep command imports this module when it runs, so that no other
command pays for compiling it.
"""

from __future__ import annotations

import math

import numpy as np

from . import verify
from .coeffs import _DD_COEFFS, SWITCH, _dd_series, _dd_squarings, g_left, g_right
from .realizations import heisenberg_3x3

__all__ = ["BLOCK_SLICES", "lattice_points", "lattice_residuals"]

# The matrices that a block may request, over all its points: this bounds
# a block's memory whatever the lattice size.  The 41x41 disentangle-right
# sweep (4 per point, 6724 in all) runs in one block, which stacks its 1979
# distinct 2x2 matrices once, and its origin's 4 in a second expm_stack
# call.  Its peak traced memory (perfbench's sweep-lattice; numpy 2.4.6,
# Python 3.11.7, measured as test_sweep does in a fresh process) is
# 1 263 466 bytes, 2.94 copies of its requested matrices, which test_sweep
# bounds at 3.25 copies.  One block trades memory for time: in blocks of
# 4096 the sweep peaks at 783 699 bytes but takes 4.94 ms against 4.49
# (x1.10), and in blocks of 2048 6.53 ms (medians of 30 alternated rounds
# of 5, in process, on a 2-core Xeon).
BLOCK_SLICES = 8192


# A point past this modulus, or with a non-finite part, gets g_r from the
# scalar function.  Inside it no exponential of the closed form or of the
# kernel overflows or takes cmath's large-argument branch (real part past
# log(DBL_MAX/4) ~ 708), so neither falls back: |u - v| <= 600, and a
# kernel node's distance from the mean is at most 300.
_ARRAY_BOUND = 300.0


def _exp(x: np.ndarray) -> np.ndarray:
    # math.exp of each element, as the scalar functions take it: np.exp
    # differs from it in the last bit.
    return np.fromiter(map(math.exp, x.tolist()), float, len(x))


def _mul(a: tuple, b: tuple) -> tuple:
    # CPython's complex product on (re, im) arrays: _Py_c_prod.
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _g_right_array(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, done): g_right(u[i], v[i]).value, with its bits, at each
    point done of the complex arrays u and v, 0 elsewhere.

    done holds the real points (an imaginary part of zero, of either sign)
    with max(|u|, |v|) <= _ARRAY_BOUND.  There g_right takes its closed
    form where min(|u|, |v|, |u - v|) >= SWITCH, and its kernel
    -e[u - v, u, 0] elsewhere; both are run here on float arrays in the
    scalar operations and order: CPython's complex arithmetic on (re, im)
    pairs, and the kernel's own _dd_series and _dd_squarings on real nodes.
    """
    ur, ui, vr, vi = u.real, u.imag, v.real, v.imag
    done = (ui == 0.0) & (vi == 0.0) & (np.maximum(abs(ur), abs(vr)) <= _ARRAY_BOUND)
    closed = done & (np.minimum(np.minimum(abs(ur), abs(vr)), abs(ur - vr)) >= SWITCH)
    values = np.zeros(len(u), dtype=complex)
    c = np.flatnonzero(closed)
    u, v = (ur[c], ui[c]), (vr[c], vi[c])
    d = (u[0] - v[0], u[1] - v[1])
    # cmath.exp(x) of a real x is (e^x, e^x * x.imag).
    eu, ed = _exp(u[0]), _exp(d[0])
    eu, ed = (eu, eu * u[1]), (ed, ed * d[1])
    a = _mul(u, (ed[0] - eu[0], ed[1] - eu[1]))
    b = _mul(v, (eu[0] - 1.0, eu[1] - 0.0))
    top, bottom = (a[0] + b[0], a[1] + b[1]), _mul(_mul(u, v), d)
    # Smith's quotient, _Py_c_quot, in its branch |re| >= |im| of the
    # bottom, whose imaginary part is a zero.
    ratio = bottom[1] / bottom[0]
    denom = bottom[0] + bottom[1] * ratio
    values.real[c] = (top[0] + top[1] * ratio) / denom
    values.imag[c] = (top[1] - top[0] * ratio) / denom
    # The kernel -e[u - v, u, 0] by _dd_exp's own stages: inside _ARRAY_BOUND
    # no node lies more than 300 above the mean and nothing overflows, so it
    # takes its mean pass.  Each distinct s squares the points that have it.
    k = np.flatnonzero(done & ~closed)
    x0, x1 = ur[k] - vr[k], ur[k]
    mean = (x0 + x1 + 0.0) / 3.0
    y0, y1, y2 = x0 - mean, x1 - mean, 0.0 - mean
    s = np.maximum(0, np.frexp(np.maximum(np.maximum(abs(y0), abs(y1)), abs(y2)))[1] + 1)
    h = np.ldexp(1.0, -s)
    z = y0 * h, y1 * h, y2 * h
    t01, t12, t02 = _dd_series(*z, h, _DD_COEFFS)
    for n in set(s.tolist()):
        i = np.flatnonzero(s == n)
        t02[i] = _dd_squarings(t01[i], t12[i], t02[i], *(zi[i] for zi in z), n, _exp)
    values.real[k] = -(_exp(mean) * t02)
    return values, done


# The array forms a block's subject uses, keyed by the package's own
# functions: a coefficient that is wrapped or replaced keeps its
# per-point calls.
_ARRAYS = {g_right: _g_right_array, g_left: lambda u, v: _g_right_array(v, u)}


def lattice_points(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The 2x2 affine points of (u[i], v[i]) as one stack: (positions, stack).

    Each point but the origin (u = v = 0, of either zero sign) gets the
    matrices of affine_2x2(u, v, 1, 1), or of affine_2x2(u, v, 1, -1) where
    u + v = 0, built as one (N, 2, 2) stack in the order of the points.  The
    stack is (X, Y, W, u, v): the (N, 2, 2) arrays X, Y and W = [X, Y], and
    the N points' u and v.  positions leaves out the origin, and each point
    whose W has a non-finite entry, where AlgebraPair would refuse the pair.
    u and v are real float arrays: W is written as (p - p, vd + u) in its
    first row, with p = v(-u) and zeros elsewhere, the bits of
    _commutator(X, Y) for a real pair (see the module docstring), and not
    for a complex one.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.where(u + v != 0.0, 1.0, -1.0)
        p = v * -u
        w00, w01 = p - p, v * d + u
    positions = np.flatnonzero(((u != 0.0) | (v != 0.0)) & np.isfinite(w00) & np.isfinite(w01))
    u, v, d, w00, w01 = (x[positions] for x in (u, v, d, w00, w01))
    X = np.zeros((len(positions), 2, 2), dtype=complex)
    Y, W = np.zeros_like(X), np.zeros_like(X)
    X[:, 0, 0] = v
    X[:, 0, 1] = 1.0
    Y[:, 0, 0] = -u.astype(complex)
    Y[:, 0, 1] = d
    W[:, 0, 0] = w00
    W[:, 0, 1] = w01
    return positions, (X, Y, W, u, v)


def lattice_residuals(name: str, us, vs):
    """The named check's residual at each point of the lattice us x vs.

    Yields one float per point, row by row (u major), inf where the check
    raises.  The points run in blocks of at most BLOCK_SLICES requested
    matrices; a block may end inside a row.  A block's 2x2 points, built by
    lattice_points, are one subject with the array forms, and its origin
    points share one more: the one-point subject of heisenberg_3x3(1) that
    a public check builds, which reads the scalar functions.  Each gathers
    the check's request, keeping nothing for the next block.
    """
    check = verify.CHECKS[name]
    us, vs = np.asarray(us, dtype=float), np.asarray(vs, dtype=float)
    size = max(1, BLOCK_SLICES // max(1, check.slices))
    total = len(us) * len(vs)
    for start in range(0, total, size):
        flat = np.arange(start, min(start + size, total))
        u, v = us[flat // len(vs)], vs[flat % len(vs)]
        residuals = np.full(len(flat), math.inf)
        affine, stack = lattice_points(u, v)
        origin = np.flatnonzero((u == 0.0) & (v == 0.0))
        with np.errstate(over="ignore", invalid="ignore"):
            # Each subject is built only where its block holds a point for it.
            for positions, subject in ((affine, lambda: verify._Subject(*stack, arrays=_ARRAYS)),
                                       (origin, lambda: verify._subject(heisenberg_3x3(1)))):
                if positions.size:
                    s = subject()
                    s.gather([check.request])
                    # The origin's one residual is written at each of its points.
                    r = check.residual(s).ravel()
                    r[list(s.errors)] = math.inf
                    residuals[positions] = r
        yield from residuals.tolist()
