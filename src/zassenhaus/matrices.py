"""Dense complex-matrix kernel for the verification harness.

Matrices are plain numpy complex128 arrays, validated on entry: square,
dimension between 1 and MAX_DIM, and finite except in expm_stack.
Everything here is a pure function; nothing mutates its arguments.

NaN is the one mark of a value that cannot be computed, set where the
value is made.  expm_stack fills a slice with NaN exactly where expm of
that slice raises: a non-finite entry (ValueError) or a 1-norm past 700
(OverflowError).  _rel_residual and _rel_residuals are non-finite
exactly where rel_residual raises: a pair with a non-finite entry.

expm_stack is the matrix exponential of every slice of a stack, each
with its own scaling, stopping test and squarings; expm is its one-slice
case, so every slice of a stack is bit-identical to expm of that slice.
Its stopping test compares two exact 1-norms on every slice still
accumulating, each norm reduced along the stack (see _one_norms), the
terms and partial sums held in one buffer.  Each term is the previous
one @ B times 1/k: numpy divides a complex array by k that way, so it
has the bits of the quotient.  A real stack with no nonzero entry below
its first row (every point of affine_2x2 with real u and v) takes each
Taylor term as t00 * B in place of term @ B: each entry of that product
is t00 b0j beside exact zeros, so @ rounds it once in any summation
order, with or without a fused multiply-add, and the elementwise product
gives the same value.  Only the sign of a zero can differ, and no
partial sum keeps it: they start from the identity, whose zeros are +0,
and +0 + (+-0) = +0.  So such a stack runs the same loop on the real
parts of its slices, in real dtype: every partial sum has +0 imaginary
parts, and |x| has the bits of |x + 0i|, so the 1-norms keep theirs.
Only the product line differs.  In such a stack a slice whose corner
b00 is +-0 squares to zero: its second term is zero, so it stops on I
plus its scaled first row, and each squaring only doubles that row's
entries j > 0 (exactly, beside exact zeros).  It takes that row times
2^s at once, with no Taylor term and no squaring: not the first row of
A itself, whose subnormal entries the scaling by 2^-s may have rounded
away.

The public functions validate their arguments.  The underscored kernels
(_commutator, _frobenius, _rel_residual, _rel_residuals, _conjugate_series)
take complex arrays of one valid shape, for callers that built them so;
a non-finite entry goes on into their results.  _commutator,
_conjugate_series and _rel_residuals also take (N, n, n) stacks, and each
slice of their result is bit-identical to their result for that slice
alone (for _conjugate_series, up to the sign of a zero entry).  Both
residual kernels rescale a pair whose sums of squares overflow in one
place, _rescaled_residuals, by the power of two of _unit_scale;
infer_uvc scales its least-squares problem by the same powers.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = [
    "MAX_DIM",
    "DimensionMismatch",
    "as_matrix",
    "commutator",
    "expm",
    "expm_stack",
    "conjugate_series",
    "rel_residual",
    "infer_uvc",
    "load_matrix",
]

MAX_DIM = 64

# expm stops its Taylor accumulation once the added term's 1-norm drops
# below EXPM_REL_EPS of the partial sum's, or after EXPM_MAX_TERMS terms.
_EXPM_REL_EPS = 1e-18
_EXPM_MAX_TERMS = 60
# A 1-norm beyond this puts e^A outside double range.
_EXPM_NORM_LIMIT = 700.0


class DimensionMismatch(ValueError):
    """Operands' dimensions do not agree (or a matrix is not square)."""


def as_matrix(obj) -> np.ndarray:
    """Validate obj as a square complex matrix and return it as complex128."""
    A = _as_square(obj, 2, "a square matrix")
    if not np.isfinite(A).all():
        raise ValueError("matrix entries must be finite")
    return A


def _as_square(obj, ndim: int, expected: str) -> np.ndarray:
    A = np.asarray(obj, dtype=complex)
    if A.ndim != ndim or A.shape[-2] != A.shape[-1]:
        raise DimensionMismatch(f"expected {expected}, got shape {A.shape}")
    n = A.shape[-1]
    if n < 1 or n > MAX_DIM:
        raise DimensionMismatch(f"dimension must be in [1, {MAX_DIM}], got {n}")
    return A


def _same_dim(A: np.ndarray, B: np.ndarray) -> None:
    if A.shape != B.shape:
        raise DimensionMismatch(f"dimension mismatch: {A.shape} vs {B.shape}")


def _stack_last(A: np.ndarray) -> np.ndarray:
    # A (p, q, M) copy of the M matrices of a (..., p, q) array.  A
    # reduction over each matrix's entries then runs along the stack, one
    # inner loop of length M per entry, where reducing within each matrix
    # runs one of length q per row of each matrix.
    return A.reshape(-1, *A.shape[-2:]).transpose(1, 2, 0).copy()


def _per_slice(ufunc: np.ufunc, A: np.ndarray) -> np.ndarray:
    """ufunc.reduce(A, axis=(-2, -1)) of a (..., p, q) array, reduced
    along the stack: for np.logical_and and np.logical_or, the same
    result as A.all and A.any over each matrix."""
    return ufunc.reduce(_stack_last(A), axis=(0, 1)).reshape(A.shape[:-2])


def _one_norms(A: np.ndarray) -> np.ndarray:
    # The 1-norm of each matrix of a (..., n, n) array, in one flat axis:
    # max column sum.  Reduced along the stack, each column sum adds its
    # rows in row order, as np.add.reduce(axis=1) of the stack does, so it
    # has the same bits.
    return np.maximum.reduce(np.add.reduce(_stack_last(np.abs(A)), axis=0), axis=0)


def _commutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return A @ B - B @ A


def commutator(A, B) -> np.ndarray:
    """Commutator [A, B] = AB - BA."""
    A = as_matrix(A)
    B = as_matrix(B)
    _same_dim(A, B)
    return _commutator(A, B)


def expm(A) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a Taylor core.

    The one-slice case of expm_stack: scales by 2^s with
    s = max(0, ceil(log2 ||A||_1)), accumulates the Taylor series of
    e^{A/2^s} until the added term's 1-norm falls below 1e-18 of the
    partial sum's (or 60 terms), then squares s times.  The zero matrix
    returns the identity exactly.  Raises OverflowError when
    ||A||_1 > 700, where the result would leave double range.
    """
    A = as_matrix(A)[None]
    norms = _one_norms(A)
    norm = float(norms[0])
    if norm > _EXPM_NORM_LIMIT:
        raise OverflowError(
            f"matrix 1-norm {norm:.6g} exceeds {_EXPM_NORM_LIMIT:g}; "
            "the exponential would overflow double precision"
        )
    return _expm_live(A, norms)[0]


def expm_stack(A) -> np.ndarray:
    """expm of every slice of an (N, n, n) stack, computed together.

    Each slice runs its own steps: its 1-norm, its scaling 2^s, the
    in-place Taylor accumulation with its own stopping test (a slice
    leaves the stack as soon as it converges, so it never gets an extra
    term) and exactly s squarings.  Every slice of the result is
    therefore bit-identical to expm of that slice; a zero slice gives the
    identity exactly.  The stopping test, ||term||_1 < 1e-18 ||partial||_1,
    runs on every slice still accumulating, after each term.  A slice
    comes back filled with NaN exactly where expm of that slice raises,
    and leaves the other slices untouched: one with a non-finite entry
    (ValueError) or a 1-norm past 700 (OverflowError).  Only the stack's
    shape is validated.
    Where every slice is real with no nonzero entry below its first row,
    each Taylor term is t00 * B, with the bits of term @ B, and the loop
    runs on the real parts in real dtype (see the module docstring), so
    a slice's bits still do not depend on its partners.  A slice of
    such a stack whose corner is +-0 takes its scaled first row times
    2^s, which has the bits of its Taylor sum and squarings, with
    neither.  Every other squaring takes @.  The slices still
    accumulating are held as one (2, N, n, n) buffer of their terms and
    partial sums.
    """
    return _expm_stack(_as_square(A, 3, "an (N, n, n) stack"))


def _expm_stack(A: np.ndarray) -> np.ndarray:
    norms = _one_norms(A)
    # A non-finite entry makes the norm inf or NaN.
    over = ~(norms <= _EXPM_NORM_LIMIT)
    if not over.any():
        return _expm_live(A, norms)
    out = np.full_like(A, np.nan)
    live = np.flatnonzero(~over)
    out[live] = _expm_live(A[live], norms[live])
    return out


def _expm_live(A: np.ndarray, norms: np.ndarray) -> np.ndarray:
    # expm of every slice, given their 1-norms, none above the limit.  A
    # zero slice needs no case of its own: its first term is zero, so the
    # stopping test fires at k = 1 on the identity exactly.
    n = A.shape[1]
    s = _scale_exponents(norms)
    result = B = A / (2.0 ** s)[:, None, None]
    # A real stack with no nonzero entry below its first row runs in real
    # dtype, each term t00 * B (see the module docstring).
    one_row = not B.imag.any() and not B[:, 1:].any()
    going = np.ones(len(A), dtype=bool)
    if one_row:
        B = B.real
        # A slice whose corner b00 is +-0 squares to zero: it stops at k = 2
        # on I + B, and each squaring doubles B's entries j > 0 of the first
        # row.  It takes I + B times 2^s here, and no squaring.
        going = B[:, 0, 0] != 0.0
        result[~going] = np.eye(n) + B[~going] * (2.0 ** s[~going])[:, None, None]
        s[~going] = 0
    # Slices still accumulating: their positions in A, and their terms and
    # partial sums in one buffer, whose norms are taken at once.
    # empty_like keeps the subclass of B.
    todo = np.flatnonzero(going)
    factor = np.compress(going, B, axis=0)
    buf = np.empty_like(factor, shape=(2, *factor.shape))
    term, partial = buf
    # I @ B would differ from B only in the signs of zeros, which no
    # partial sum keeps: it never holds a -0.0.
    term[...] = factor
    partial[...] = np.eye(n)
    for k in range(1, _EXPM_MAX_TERMS + 1):
        if not todo.size:
            break
        if k > 1:
            # Times 1/k: numpy's quotient by k (see the module docstring).
            if one_row:
                np.multiply(term[:, :1, :1], factor, out=term)
                term *= 1.0 / k
            else:
                np.multiply((term @ factor).view(float), 1.0 / k, out=term.view(float))
        partial += term
        term_norms, partial_norms = _one_norms(buf).reshape(2, -1)
        done = term_norms < _EXPM_REL_EPS * partial_norms
        if done.any():
            result[todo[done]] = np.compress(done, partial, axis=0)
            going = ~done
            todo, factor, buf = todo[going], np.compress(going, factor, axis=0), np.compress(going, buf, axis=1)
            term, partial = buf
    result[todo] = partial
    for j in range(int(s.max(initial=0))):
        squaring = np.flatnonzero(s > j)
        R = result[squaring]
        result[squaring] = R @ R
    return result


def _scale_exponents(norms: np.ndarray) -> np.ndarray:
    """max(0, ceil(log2 x)) of each positive norm x, from its exponent.

    With x = m * 2^e and 1/2 <= m < 1, ceil(log2 x) is e - 1 at m = 1/2
    and e above it, except where log2 x may round down to e - 1: there
    math.log2 decides."""
    m, e = np.frexp(norms)
    s = np.where(m == 0.5, e - 1, e).astype(np.int64)
    near = np.flatnonzero((m > 0.5) & (m < 0.5 + 2.0**-30))
    for i in near.tolist():
        s[i] = math.ceil(math.log2(norms[i]))
    return np.maximum(s, 0)


def conjugate_series(A, B, t: complex, K: int) -> np.ndarray:
    """Truncated adjoint series sum_{k=0}^{K} (-t)^k ad_A^k(B) / k!.

    The K -> infinity limit is e^{-tA} B e^{tA}; each ad power is computed
    by an explicit repeated commutator, and the sum stops at the first
    that is exactly zero, K still the cutoff (later ones are zero too).
    """
    A = as_matrix(A)
    B = as_matrix(B)
    _same_dim(A, B)
    if K < 0:
        raise ValueError(f"series cutoff must be >= 0, got {K}")
    return _conjugate_series(A, B, complex(t), K)


def _conjugate_series(A: np.ndarray, B: np.ndarray, t: complex, K: int) -> np.ndarray:
    total = B.copy()
    current = B
    for k in range(1, K + 1):
        current = _commutator(A, current) * (-t / k)
        if not np.count_nonzero(current):  # so is every later power; a NaN is nonzero
            break
        total = total + current
    return total


def rel_residual(A, B) -> float:
    """Normalized distance ||A - B||_F / max(1, ||A||_F, ||B||_F).

    Where a squared norm leaves double range, the same quotient of A and
    B scaled by a power of two."""
    A = as_matrix(A)
    B = as_matrix(B)
    _same_dim(A, B)
    return _rel_residual(A, B)


def _frobenius(A: np.ndarray) -> float:
    # np.linalg.norm(A) of a complex array without its dispatch: the same
    # operations on the same data, so the same bits.
    x = A.ravel(order="K")
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def _rel_residual(A: np.ndarray, B: np.ndarray) -> float:
    norm_a = _frobenius(A)
    norm_b = _frobenius(B)
    if math.isfinite(norm_a + norm_b):
        residual = _frobenius(A - B) / max(1.0, norm_a, norm_b)
        if math.isfinite(residual):
            return residual
    return float(_rescaled_residuals(A, B))


def _frobenius_stack(A: np.ndarray) -> np.ndarray:
    # _frobenius of each matrix of a C-contiguous (..., n, n) array: the
    # float64 loop of np.vecdot runs ndarray.dot's kernel on each row.
    x = A.reshape(*A.shape[:-2], -1)
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


def _rel_residuals(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """_rel_residual of each matrix pair of two C-contiguous (..., n, n)
    arrays that broadcast to at least one leading axis, with its bits."""
    # ||A - B|| first: a check's A and B come from OpenBLAS's stacked
    # complex @, and the first np.vecdot after it runs about ten times
    # slower, as in the dirty upper-register state of AVX code followed by
    # SSE code.  The complex subtract clears that state, so all three
    # passes run at full speed; the same operations on the same data, so
    # the same bits.  (_rel_residual keeps its order: it subtracts only
    # where both norms are finite, so rel_residual warns of no overflow on
    # finite input.)
    distance = _frobenius_stack(A - B)
    scale = np.maximum(np.maximum(1.0, _frobenius_stack(A)), _frobenius_stack(B))
    residuals = distance / scale
    # A pair whose sums of squares overflow, or with a non-finite entry:
    # its scale or residual is not finite (an infinite scale made the
    # residual 0 or NaN).
    past = ~np.isfinite(residuals + scale)
    if past.any():
        A, B = np.broadcast_arrays(A, B)
        residuals[past] = _rescaled_residuals(A[past], B[past])
    return residuals


def _unit_scale(big: np.ndarray) -> np.ndarray:
    """The power of two that brings each nonnegative big into [1/2, 1);
    1 for a zero.  Scaling by it is exact."""
    return np.ldexp(1.0, -np.frexp(big)[1])


def _rescaled_residuals(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The relative residual of each pair of finite matrices whose sums of
    squares leave double range: the same quotient, computed on A and B
    times the power of two that brings their largest entry modulus into
    [1/2, 1), so no sum of squares overflows.  Exact scaling: only
    entries far below the largest can lose bits, to underflow.  Such a
    pair's norms are far above 1, so the 1 of max(1, ...) drops out.  A
    pair with a non-finite entry gets NaN, whatever its scaling."""
    big = np.maximum(np.abs(A).max(axis=(-2, -1)), np.abs(B).max(axis=(-2, -1)))
    c = _unit_scale(big)[..., None, None]
    a, b = A * c, B * c
    return _frobenius_stack(a - b) / np.maximum(_frobenius_stack(a), _frobenius_stack(b))


@np.errstate(over="ignore", invalid="ignore")
def infer_uvc(X, Y) -> tuple[complex, complex, complex, float]:
    """Least-squares fit of [X, Y] onto span{X, Y, identity}.

    Returns (u, v, c, fit_residual): the minimum-norm least-squares
    solution of uX + vY + c*identity = [X, Y], from one solve of that
    n^2 x 3 problem, and fit_residual = ||[X,Y] - (uX + vY + c*identity)||_F
    / (||X||_F ||Y||_F), 0 where [X, Y] = 0.  The solve runs on each basis
    matrix and on [X, Y] scaled by the power of two that brings its
    largest entry modulus into [1/2, 1): exact, so a small basis matrix is
    not taken for rank deficiency, and no entry or norm leaves double
    range.  A fit_residual well above zero means the pair is NOT in the
    affine commutator class; it does not change when X or Y is scaled.
    Raises ValueError where [X, Y] is not finite, and where [X, Y] is not
    zero but the scaled basis has rank below 3 (lstsq's cutoff): such a
    pair's fit can be small while its (u, v, c) is wrong.
    """
    X = as_matrix(X)
    Y = as_matrix(Y)
    _same_dim(X, Y)
    W = _commutator(X, Y).ravel()
    if not np.isfinite(W).all():
        raise ValueError("[X, Y] is not finite: the entries of X and Y are too large")
    basis = np.stack([X.ravel(), Y.ravel(), np.eye(len(X), dtype=complex).ravel()], axis=1)
    # The largest modulus of X, Y, the identity and [X, Y].
    big = np.append(np.abs(basis).max(axis=0), np.abs(W).max())
    *col, w = _unit_scale(big)
    A, b = basis * col, W * w
    coef, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    u, v, c = (complex(z) for z in coef * col / w)
    if not W.any():
        return u, v, c, 0.0
    # In exact arithmetic a dependent {X, Y, I} forces [X, Y] = 0.
    if rank < 3:
        raise ValueError(
            "X, Y and the identity are numerically dependent but [X, Y] is not zero: "
            "(u, v, c) is not determined"
        )
    # ||(b - A coef) / w|| / (||A[:, 0] / col[0]|| ||A[:, 1] / col[1]||): its
    # power of two col[0] col[1] / w goes in by exponent, since it can leave
    # double range where the fit does not.
    ex, ey, _, ew = np.frexp(big)[1].tolist()
    quotient = _frobenius(b - A @ coef) / (_frobenius(A[:, 0]) * _frobenius(A[:, 1]))
    return u, v, c, math.ldexp(quotient, ew - ex - ey)


def load_matrix(path) -> np.ndarray:
    """Read a matrix from the JSON file format.

    Format: {"dim": n, "re": [[n x n reals]], "im": [[n x n reals]]} with
    "im" optional (zero when absent); n and every entry are JSON numbers.
    Raises DimensionMismatch where a part is not n rows of n entries and
    ValueError, naming the file, on any other malformed content.
    """
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "dim" not in data or "re" not in data:
        raise ValueError(f"{path}: expected a JSON object with 'dim' and 're'")
    dim = data["dim"]
    # Exact types: JSON true and false load as bool, a subclass of int, and
    # numpy casts booleans, numeric strings and null to floats.
    if type(dim) is not int or dim < 1:
        raise ValueError(f"{path}: 'dim' must be a positive integer")
    re_part = _load_part(path, data, "re", dim)
    im_part = _load_part(path, data, "im", dim) if "im" in data else np.zeros((dim, dim))
    return as_matrix(re_part + 1j * im_part)


def _load_part(path, data: dict, field: str, dim: int) -> np.ndarray:
    # Shape, type and range are checked on the JSON lists, before numpy
    # reads a ragged list as an object array or NaN as a number.
    rows = data[field]
    ragged = type(rows) is not list or len(rows) != dim
    if ragged or any(type(row) is not list or len(row) != dim or list in map(type, row) for row in rows):
        raise DimensionMismatch(f"{path}: '{field}' must be a {dim}x{dim} array")
    try:
        numbers = all(type(x) in (int, float) and math.isfinite(x) for row in rows for x in row)
    except OverflowError:  # an integer past double range
        numbers = False
    if not numbers:
        raise ValueError(f"{path}: '{field}' entries must be finite JSON numbers")
    return np.array(rows, dtype=float)
