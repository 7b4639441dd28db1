"""A sweep's lattice, checked in blocks of points as stacks.

lattice_residuals walks the (u, v) lattice row by row in blocks of at
most BLOCK_SLICES requested matrices.  lattice_points builds a block as
stacks of points of one shape: its 2x2 affine points as one (N, 2, 2)
stack of X, Y and W, and the origin's 3x3 Heisenberg pair as another.
stack_residuals runs one suite check over the stacks.  The coefficients
come point by point from the same scalar functions as for one pair.  The
check's request runs once over each stack, and every matrix it names is
keyed by its raw bytes in one np.unique call, so each distinct one is
exponentiated once, in one expm_stack call per shape per block.  Then the
check's products and relative residual run once over each stack, through
the same request and arithmetic that the public check runs on one pair
(see verify).  A stacked @, commutator or scalar multiple is
bit-identical to the same operation on each slice, and so is each stacked
Frobenius norm and each expm_stack slice, so every residual has the bits
of the public check's on that point's pair.

A point that cannot be computed drops out of its stack with an infinite
residual, and the others go on: its coefficient raises, a requested
matrix is non-finite, its exponential comes back NaN, or its residual
raises.  The stacked arithmetic runs with numpy's overflow and invalid
warnings off, since such a point is already written inf,false.

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

__all__ = ["BLOCK_SLICES", "lattice_points", "lattice_residuals", "stack_residuals"]

# The matrices that a block may request, over all its points: this bounds
# a block's memory whatever the lattice size.  The 41x41 disentangle-right
# sweep (4 per point) runs in four blocks of at most 512 points.  Sized by
# measurement on that sweep: its peak memory stays where the one-row plan
# had it, where 4096 adds about 0.9 MiB and one block for the lattice 2 MiB.
BLOCK_SLICES = 2048


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
        self.u = np.asarray(u, dtype=complex)[:, None, None]
        self.v = np.asarray(v, dtype=complex)[:, None, None]
        self.ok = np.ones(len(X), dtype=bool)
        self.values = {}
        self.exps = {}
        self.xy = None

    def value(self, name, compute):
        """compute(u, v) at every point: (N, 1, 1), or (m, N, 1, 1) for m-long results."""
        if name not in self.values:
            us, vs = self.u.ravel().tolist(), self.v.ravel().tolist()
            results = [None] * len(us)
            for i in np.flatnonzero(self.ok).tolist():
                try:
                    results[i] = compute(us[i], vs[i])
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


def _gather(s: _Stack, request) -> None:
    """The read-only exponentials that request names, at every point of s.

    Every matrix the request names for a computable point is keyed by its
    raw bytes (so -0.0 and +0.0 stay apart) in one np.unique call, and the
    finite distinct ones are stacked in one expm_stack call.  A point with
    a requested matrix that is non-finite or whose exponential comes back
    NaN is marked off; every point marked off gets the identity.
    """
    fn, args = request
    named = fn(s, *args)
    N, n = len(s.ok), s.X.shape[-1]
    A = np.concatenate(list(named.values()))
    live = np.flatnonzero(np.tile(s.ok, len(named)) & np.isfinite(A).all(axis=(1, 2)))
    rows = A[live].reshape(len(live), n * n)
    # One raw-bytes key per requested matrix: the row of its n*n entries.
    keys = rows.view(np.dtype((np.void, rows.itemsize * n * n))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    # Through verify's binding, which the tests' and the benchmark's call
    # counters wrap, as for a pair's exponentials.
    exps = verify.expm_stack(rows[first].reshape(-1, n, n)) if live.size else A[:0]
    # The pool: each distinct exponential, then the identity at its end.
    pool = np.concatenate([exps, np.eye(n, dtype=complex)[None]])
    identity = len(exps)
    where = np.full(len(A), identity)
    where[live] = np.where(np.isnan(exps).any(axis=(1, 2)), identity, np.arange(identity))[inverse]
    where = where.reshape(len(named), N)
    s.ok &= (where != identity).all(axis=0)
    for key, positions in zip(named, where):
        s.exps[key] = verify._read_only(pool[positions])


# Each suite check: the matrices its request names per point, which size
# a block, and its residual on a stack, from its arithmetic in verify.
_CHECKS = {
    "disentangle-right": (4, lambda s: verify._disentangle(s, Side.RIGHT)),
    "disentangle-center": (4, lambda s: verify._disentangle(s, Side.CENTER)),
    "disentangle-left": (4, lambda s: verify._disentangle(s, Side.LEFT)),
    "swap": (3, lambda s: verify._swap(s)),
    "bch": (3, lambda s: verify._bch(s)),
    "ab-structure": (0, lambda s: verify._ab_structure(s)),
    "integral": (4, lambda s: verify._integral(s)[0]),
    "product": (32, lambda s: verify._product(s, 30)[0][-1]),
    "hadamard": (2, lambda s: verify._hadamard(s, 0.5 + 0j, 40)),
}


def stack_residuals(name: str, stacks) -> list[np.ndarray]:
    """The named suite check's residual at every point of the stacks.

    stacks holds (X, Y, W, u, v) per matrix shape: (N, n, n) arrays X, Y
    and W = [X, Y], and the N points' u and v.  Each residual is
    bit-identical to the residual of the public check on the pair of that
    point, and inf where that check raises.  Returns one float array per
    stack.  Every distinct matrix that the check requests is
    exponentiated once, in one expm_stack call per stack.
    """
    request = verify.CHECKS[name].request
    residual = _CHECKS[name][1]
    results = []
    with np.errstate(over="ignore", invalid="ignore"):
        for stack in stacks:
            s = _Stack(*stack)
            if request is not None:
                _gather(s, request)
            results.append(np.where(s.ok, residual(s).reshape(len(s.ok)), math.inf))
    return results


def lattice_points(u: np.ndarray, v: np.ndarray) -> list[tuple[np.ndarray, tuple]]:
    """The points (u[i], v[i]) as stacks: (positions, stack) per shape.

    Each point gets the matrices of affine_2x2(u, v, 1, 1), or of
    affine_2x2(u, v, 1, -1) where u + v = 0, built as stacks: the 2x2
    affine points as one (N, 2, 2) stack, and the origin's 3x3 Heisenberg
    pair heisenberg_3x3(1) as another, in the order of their first point.
    A stack is (X, Y, W, u, v) as stack_residuals takes it.  A point whose
    W has a non-finite entry, where AlgebraPair would refuse the pair, is
    in no stack.
    """
    X = np.zeros((len(u), 2, 2), dtype=complex)
    Y = np.zeros_like(X)
    X[:, 0, 0] = v
    X[:, 0, 1] = 1.0
    Y[:, 0, 0] = -u.astype(complex)
    Y[:, 0, 1] = np.where(u + v != 0.0, 1.0, -1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        W = _commutator(X, Y)
    origin = (u == 0.0) & (v == 0.0)
    groups = []
    affine = np.flatnonzero(~origin & np.isfinite(W).all(axis=(1, 2)))
    if affine.size:
        groups.append((affine, (X[affine], Y[affine], W[affine], u[affine], v[affine])))
    origin = np.flatnonzero(origin)
    if origin.size:
        pair = heisenberg_3x3(1)
        k = len(origin)
        X, Y, W = (np.repeat(M[None], k, axis=0) for M in (pair.X, pair.Y, pair.W))
        groups.append((origin, (X, Y, W, np.full(k, pair.u), np.full(k, pair.v))))
    return sorted(groups, key=lambda group: group[0][0])


def lattice_residuals(name: str, us, vs):
    """The named check's residual at each point of the lattice us x vs.

    Yields one float per point, row by row (u major), inf where the check
    raises.  The points run in blocks of at most BLOCK_SLICES requested
    matrices, each built by lattice_points and checked by stack_residuals;
    a block may end inside a row.
    """
    us, vs = np.asarray(us, dtype=float), np.asarray(vs, dtype=float)
    size = max(1, BLOCK_SLICES // max(1, _CHECKS[name][0]))
    total = len(us) * len(vs)
    for start in range(0, total, size):
        flat = np.arange(start, min(start + size, total))
        u, v = us[flat // len(vs)], vs[flat % len(vs)]
        groups = lattice_points(u, v)
        residuals = np.full(len(flat), math.inf)
        for (positions, _), values in zip(groups, stack_residuals(name, [s for _, s in groups])):
            residuals[positions] = values
        yield from residuals.tolist()
