"""A sweep's lattice rows, each checked as stacks.

lattice_row builds one row of the (u, v) lattice as stacks of points of
one shape: its 2x2 affine points as one (N, 2, 2) stack of X, Y and W, and
the origin's 3x3 Heisenberg pair as another.  stack_residuals runs one
suite check over the stacks.  The coefficients come point by point from
the same scalar functions as for one pair, and the exponentials from one
expm_stack call per shape, keyed by content (verify._exponentials).  Then
the check's products and relative residual run once over each stack,
through the same request and arithmetic that the public check runs on one
pair (see verify).  A stacked @, commutator or scalar multiple is
bit-identical to the same operation on each slice, and so is each stacked
Frobenius norm, so every residual has the bits of the public check's on
that point's pair.

A point that cannot be computed drops out of its stack with an infinite
residual, and the others go on: its coefficient raises, a requested
matrix is non-finite, its exponential comes back NaN, or its residual
raises.

The sweep command imports this module when it runs, so that no other
command pays for compiling it.
"""

from __future__ import annotations

import math

import numpy as np

from . import verify
from .matrices import _commutator
from .realizations import heisenberg_3x3
from .verify import Side

__all__ = ["lattice_row", "stack_residuals"]


def _frobenius_stack(A: np.ndarray) -> np.ndarray:
    # matrices._frobenius of each slice of a C-contiguous (N, n, n) stack:
    # the float64 loop of np.vecdot calls the same dot kernel as
    # ndarray.dot on each row, so each value has the same bits.
    x = A.reshape(len(A), -1)
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


def _rel_residuals(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """matrices._rel_residual of each slice pair of two C-contiguous stacks.

    Returns (residuals, finite).  finite is False for a slice pair with a
    non-finite entry, where _rel_residual raises; its residual means
    nothing.  Every other residual has the bits of _rel_residual of that
    slice pair: the same norms, and max(1, a, b) of finite norms.
    """
    finite = np.isfinite(A).all(axis=(1, 2)) & np.isfinite(B).all(axis=(1, 2))
    scale = np.maximum(np.maximum(1.0, _frobenius_stack(A)), _frobenius_stack(B))
    return _frobenius_stack(A - B) / scale, finite


class _Stack:
    """N points of one shape: the subject that a check's request and
    arithmetic read, in place of a pair's memo.

    X, Y, W are (N, n, n) arrays; u, v and every coefficient are (N, 1, 1)
    arrays, so they scale a stack as a number scales one matrix.  ok marks
    the points still computable.  A point whose scalar computation raises,
    whose requested matrix is non-finite, whose exponential comes back NaN
    or whose residual raises is marked off and gets the identity in place
    of its exponentials.
    """

    def __init__(self, X, Y, W, u, v) -> None:
        self.X, self.Y, self.W = X, Y, W
        self.points = list(zip(u, v))
        self.u = np.array(u, dtype=complex)[:, None, None]
        self.v = np.array(v, dtype=complex)[:, None, None]
        self.ok = np.ones(len(self.points), dtype=bool)
        self.values = {}
        self.exps = {}
        self.xy = None

    def value(self, name, compute):
        """compute(u, v) at every point: (N, 1, 1), or (m, N, 1, 1) for m-long results."""
        if name not in self.values:
            results = [None] * len(self.points)
            for i in np.flatnonzero(self.ok):
                try:
                    results[i] = compute(*self.points[i])
                except Exception:  # noqa: BLE001 - the point fails, the stack goes on
                    self.ok[i] = False
            fill = np.zeros_like(next((r for r in results if r is not None), 0j), dtype=complex)
            values = np.array([fill if r is None else r for r in results], dtype=complex)
            self.values[name] = np.moveaxis(values, 0, -1)[..., None, None]
        return self.values[name]

    def coefficient(self, fn):
        return self.value(fn, lambda u, v: fn(u, v).value)

    def exp(self, key):
        return self.exps[key]

    def x_times_y(self):
        if self.xy is None:
            self.xy = self.exp("x") @ self.exp("y")
        return self.xy

    def require_finite(self, A):
        self.ok &= np.isfinite(A).all(axis=(1, 2))

    def residual(self, A, B):
        residuals, finite = _rel_residuals(A, B)
        self.ok &= finite
        return residuals[:, None, None]


def _gather(stacks, request, known) -> dict:
    """The exponentials that request names for every computable point.

    Content keys as for a pair, one expm_stack call per shape over all
    the stacks.  A point still computable after the request has all its
    matrices stacked; one with a matrix that gets no exponential is marked
    off.  Returns this call's table.
    """
    fn, args = request
    named = []
    for stack in stacks:
        for key, M in fn(stack, *args).items():
            raw, size = M.tobytes(), M[0].nbytes
            live = enumerate(stack.ok.tolist())
            contents = [(M.shape[1:], raw[i * size:(i + 1) * size]) if ok else None for i, ok in live]
            named.append((stack, key, M, contents))
    items = [(c, M, i) for _, _, M, contents in named for i, c in enumerate(contents) if c]
    table = verify._exponentials(items, known)
    # One pool per shape: its exponentials in the table, then the identity,
    # which points marked off get in place of theirs.
    pools = {}
    for stack, key, M, contents in named:
        shape = M.shape[1:]
        if shape not in pools:
            own = [c for c in table if c[0] == shape]
            pool = np.array([*(table[c] for c in own), np.eye(shape[-1], dtype=complex)])
            pools[shape] = dict(zip(own, range(len(own)))), pool
        index, pool = pools[shape]
        positions = np.array([index.get(c, -1) for c in contents])
        stack.ok &= positions >= 0
        stack.exps[key] = pool[positions]
    return table


# Each suite check's residual on a stack, from its arithmetic in verify.
_RESIDUALS = {
    "disentangle-right": lambda s: verify._disentangle(s, Side.RIGHT),
    "disentangle-center": lambda s: verify._disentangle(s, Side.CENTER),
    "disentangle-left": lambda s: verify._disentangle(s, Side.LEFT),
    "swap": lambda s: verify._swap(s),
    "bch": lambda s: verify._bch(s),
    "ab-structure": lambda s: verify._ab_structure(s),
    "integral": lambda s: verify._integral(s)[0],
    "product": lambda s: verify._product(s, 30)[0][-1],
    "hadamard": lambda s: verify._hadamard(s, 0.5 + 0j, 40),
}


def stack_residuals(name: str, stacks, known=None) -> tuple[list[np.ndarray], dict]:
    """The named suite check's residual at every point of the stacks.

    stacks holds (X, Y, W, u, v) per matrix shape: (N, n, n) arrays X, Y
    and W = [X, Y], and the N points' u and v as complex numbers.  Each
    residual is bit-identical to the residual of the public check on the
    pair of that point, and inf where that check raises.  known is a
    table that an earlier call returned: an exponential found there is not
    computed again.  Returns the residuals, one float array per stack, and
    this call's table, content key -> read-only exponential, for the next
    call's known.  The 41x41 disentangle-right sweep requests 6724
    exponentials, 1983 of them distinct; passing each row's table to the
    next row's call, it stacks 2527.
    """
    request = verify.CHECKS[name].request
    subjects = [_Stack(*stack) for stack in stacks]
    table = _gather(subjects, request, known) if request is not None else {}
    residuals = []
    for s in subjects:
        residual = _RESIDUALS[name](s).reshape(len(s.points))
        residuals.append(np.where(s.ok, residual, math.inf))
    return residuals, table


def lattice_row(u: float, vs) -> list[tuple[list[int], tuple]]:
    """One lattice row of a sweep as stacks: (positions, stack) per shape.

    Each point gets the matrices of cli._lattice_pair(u, v), built as
    stacks: the 2x2 affine points as one (N, 2, 2) stack, the origin's 3x3
    pair as another (a stack of one unless v_min = v_max = 0), in the order
    of their first point.  A stack is (X, Y, W, u, v) as stack_residuals
    takes it.  A point whose W has a non-finite entry, where AlgebraPair
    would refuse the pair, is in no stack.
    """
    v = np.array(vs, dtype=float)
    X = np.zeros((len(v), 2, 2), dtype=complex)
    Y = np.zeros_like(X)
    X[:, 0, 0] = v
    X[:, 0, 1] = 1.0
    Y[:, 0, 0] = -complex(u)
    Y[:, 0, 1] = np.where(u + v != 0.0, 1.0, -1.0)
    W = _commutator(X, Y)
    origin = (u == 0.0) & (v == 0.0)
    groups = []
    affine = np.flatnonzero(~origin & np.isfinite(W).all(axis=(1, 2)))
    if affine.size:
        us, points = [complex(u)] * affine.size, [complex(x) for x in v[affine].tolist()]
        groups.append((affine.tolist(), (X[affine], Y[affine], W[affine], us, points)))
    origin = np.flatnonzero(origin).tolist()
    if origin:
        pair = heisenberg_3x3(1)
        k = len(origin)
        X, Y, W = (np.repeat(M[None], k, axis=0) for M in (pair.X, pair.Y, pair.W))
        groups.append((origin, (X, Y, W, [pair.u] * k, [pair.v] * k)))
    return sorted(groups, key=lambda group: group[0][0])
