"""A sweep's lattice, checked in blocks of points as stacks.

lattice_residuals walks the (u, v) lattice row by row in blocks of at
most BLOCK_SLICES requested matrices.  lattice_points builds a block as
stacks of points of one shape: its 2x2 affine points as one (N, 2, 2)
stack of X, Y and W, and the origin's 3x3 Heisenberg pair as another.
Each stack is a verify subject with a points axis, read by the same
request and arithmetic as one pair: the coefficients come point by point
from the same scalar functions, each distinct requested matrix is
exponentiated once, in one expm_stack call per shape per block, and the
check's products and relative residual run once over the stack.  A
stacked @, commutator or scalar multiple is bit-identical to the same
operation on each slice, and so is each stacked Frobenius norm and each
expm_stack slice, so every residual has the bits of the public check's
on that point's pair.

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
from .matrices import _commutator
from .realizations import heisenberg_3x3

__all__ = ["BLOCK_SLICES", "lattice_points", "lattice_residuals"]

# The matrices that a block may request, over all its points: this bounds
# a block's memory whatever the lattice size.  The 41x41 disentangle-right
# sweep (4 per point) runs in four blocks of at most 512 points.  Sized by
# measurement on that sweep: its peak memory stays where the one-row plan
# had it, where 4096 adds about 0.9 MiB and one block for the lattice 2 MiB.
BLOCK_SLICES = 2048


def lattice_points(u: np.ndarray, v: np.ndarray) -> list[tuple[np.ndarray, tuple]]:
    """The points (u[i], v[i]) as stacks: (positions, stack) per shape.

    Each point gets the matrices of affine_2x2(u, v, 1, 1), or of
    affine_2x2(u, v, 1, -1) where u + v = 0, built as stacks: the 2x2
    affine points as one (N, 2, 2) stack, and the origin's 3x3 Heisenberg
    pair heisenberg_3x3(1) as another, in the order of their first point.
    A stack is (X, Y, W, u, v): (N, n, n) arrays X, Y and W = [X, Y], and
    the N points' u and v.  A point whose W has a non-finite entry, where
    AlgebraPair would refuse the pair, is in no stack.
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
    matrices, each built by lattice_points; a block may end inside a row.
    """
    check = verify.CHECKS[name]
    us, vs = np.asarray(us, dtype=float), np.asarray(vs, dtype=float)
    size = max(1, BLOCK_SLICES // max(1, check.slices))
    total = len(us) * len(vs)
    for start in range(0, total, size):
        flat = np.arange(start, min(start + size, total))
        u, v = us[flat // len(vs)], vs[flat % len(vs)]
        residuals = np.full(len(flat), math.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            for positions, stack in lattice_points(u, v):
                s = verify._Subject(*stack)
                s.gather([check.request])
                residuals[positions] = check.residual(s).reshape(len(positions))
                residuals[positions[list(s.errors)]] = math.inf
        yield from residuals.tolist()
