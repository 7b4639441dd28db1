"""Dense complex-matrix kernel for the verification harness.

Matrices are plain numpy complex128 arrays, validated on entry: square,
finite, dimension between 1 and MAX_DIM.  Everything here is a pure
function; nothing mutates its arguments.

expm_stack is the matrix exponential of every slice of a stack, each
with its own scaling, stopping test and squarings; expm is its one-slice
case, so every slice of a stack is bit-identical to expm of that slice.

The public functions validate their arguments.  The underscored kernels
(_commutator, _frobenius, _rel_residual, _rel_residuals, _conjugate_series)
take arrays that are already valid complex matrices of one shape, for
callers that built them so.  _commutator, _conjugate_series and
_rel_residuals also take (N, n, n) stacks, and each slice of their
result is bit-identical to their result for that slice alone (for
_conjugate_series, up to the sign of a zero entry).
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

# Gram systems with condition estimates beyond this are treated as rank
# deficient and solved in the minimum-norm sense instead.
_GRAM_COND_LIMIT = 1e12


class DimensionMismatch(ValueError):
    """Operands' dimensions do not agree (or a matrix is not square)."""


def as_matrix(obj) -> np.ndarray:
    """Validate obj as a square complex matrix and return it as complex128."""
    return _as_square(obj, 2, "a square matrix")


def _as_square(obj, ndim: int, expected: str) -> np.ndarray:
    A = np.asarray(obj, dtype=complex)
    if A.ndim != ndim or A.shape[-2] != A.shape[-1]:
        raise DimensionMismatch(f"expected {expected}, got shape {A.shape}")
    n = A.shape[-1]
    if n < 1 or n > MAX_DIM:
        raise DimensionMismatch(f"dimension must be in [1, {MAX_DIM}], got {n}")
    if not np.isfinite(A).all():
        raise ValueError("matrix entries must be finite")
    return A


def _same_dim(A: np.ndarray, B: np.ndarray) -> None:
    if A.shape != B.shape:
        raise DimensionMismatch(f"dimension mismatch: {A.shape} vs {B.shape}")


def _one_norms(A: np.ndarray) -> np.ndarray:
    # The 1-norm of each slice of an (N, n, n) stack: max column sum.
    return np.maximum.reduce(np.add.reduce(np.abs(A), axis=1), axis=1)


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
    norm = float(_one_norms(A)[0])
    if norm > _EXPM_NORM_LIMIT:
        raise OverflowError(
            f"matrix 1-norm {norm:.6g} exceeds {_EXPM_NORM_LIMIT:g}; "
            "the exponential would overflow double precision"
        )
    return _expm_stack(A)[0]


def expm_stack(A) -> np.ndarray:
    """expm of every slice of an (N, n, n) stack, computed together.

    Each slice runs its own steps: its 1-norm, its scaling 2^s, the
    in-place Taylor accumulation with its own stopping test (a slice
    leaves the stack as soon as it converges, so it never gets an extra
    term) and exactly s squarings.  Every slice of the result is
    therefore bit-identical to expm of that slice; a zero slice gives the
    identity exactly.  A slice whose 1-norm exceeds 700 comes back filled
    with NaN and leaves the other slices untouched; expm of that slice
    raises OverflowError.
    """
    return _expm_stack(_as_square(A, 3, "an (N, n, n) stack"))


def _expm_stack(A: np.ndarray) -> np.ndarray:
    n = A.shape[1]
    norms = _one_norms(A)
    out = np.empty_like(A)
    out[norms == 0.0] = np.eye(n)
    out[norms > _EXPM_NORM_LIMIT] = np.nan
    live = np.flatnonzero((norms > 0.0) & (norms <= _EXPM_NORM_LIMIT))
    if not live.size:
        return out
    s = np.array([max(0, math.ceil(math.log2(x))) for x in norms[live].tolist()])
    B = A[live] / (2.0 ** s)[:, None, None]
    result = np.empty_like(B)
    # Slices still accumulating: their positions in live, terms and sums.
    todo = np.arange(live.size)
    term = np.broadcast_to(np.eye(n, dtype=complex), B.shape).copy()
    partial = term.copy()
    for k in range(1, _EXPM_MAX_TERMS + 1):
        term = term @ B
        term /= k
        partial += term
        done = _one_norms(term) < _EXPM_REL_EPS * _one_norms(partial)
        if done.any():
            result[todo[done]] = partial[done]
            going = ~done
            todo, term, B, partial = todo[going], term[going], B[going], partial[going]
            if not todo.size:
                break
    result[todo] = partial
    for j in range(int(s.max())):
        squaring = np.flatnonzero(s > j)
        R = result[squaring]
        result[squaring] = R @ R
    out[live] = result
    return out


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
        if not current.any():  # so is every later power; a NaN is nonzero
            break
        total = total + current
    return total


def rel_residual(A, B) -> float:
    """Normalized distance ||A - B||_F / max(1, ||A||_F, ||B||_F)."""
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
    if not math.isfinite(norm_a + norm_b):
        # A non-finite entry: raise the ValueError rel_residual raises.
        as_matrix(A)
        as_matrix(B)
    return _frobenius(A - B) / max(1.0, norm_a, norm_b)


def _frobenius_stack(A: np.ndarray) -> np.ndarray:
    # _frobenius of each matrix of a C-contiguous (..., n, n) array: the
    # float64 loop of np.vecdot runs ndarray.dot's kernel on each row.
    x = A.reshape(*A.shape[:-2], -1)
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


def _rel_residuals(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(residuals, finite): _rel_residual of each matrix pair of two
    C-contiguous (..., n, n) arrays that broadcast, with its bits wherever
    finite; finite is False where _rel_residual raises."""
    finite = np.isfinite(A).all(axis=(-2, -1)) & np.isfinite(B).all(axis=(-2, -1))
    scale = np.maximum(np.maximum(1.0, _frobenius_stack(A)), _frobenius_stack(B))
    return _frobenius_stack(A - B) / scale, finite


def infer_uvc(X, Y) -> tuple[complex, complex, complex, float]:
    """Least-squares fit of [X, Y] onto span{X, Y, identity}.

    Returns (u, v, c, fit_residual) where fit_residual is the relative
    residual of [X,Y] - (uX + vY + c*identity).  The 3x3 Gram system in
    the Frobenius inner product is solved by pivoted elimination; if it is
    singular or its condition estimate exceeds 1e12 (the basis matrices
    nearly dependent), the minimum-norm least-squares solution is returned
    instead.  A fit_residual well above zero means the pair is NOT in the
    affine commutator class.
    """
    X = as_matrix(X)
    Y = as_matrix(Y)
    _same_dim(X, Y)
    n = X.shape[0]
    W = commutator(X, Y)
    eye = np.eye(n, dtype=complex)
    basis = (X, Y, eye)
    gram = np.empty((3, 3), dtype=complex)
    rhs = np.empty(3, dtype=complex)
    for i, Bi in enumerate(basis):
        rhs[i] = np.vdot(Bi, W)
        for j, Bj in enumerate(basis):
            gram[i, j] = np.vdot(Bi, Bj)
    coef = None
    try:
        cond = float(np.linalg.cond(gram))
        if math.isfinite(cond) and cond <= _GRAM_COND_LIMIT:
            coef = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        coef = None
    if coef is None:
        coef = np.linalg.lstsq(gram, rhs, rcond=None)[0]
    u, v, c = (complex(z) for z in coef)
    fit = rel_residual(W, u * X + v * Y + c * eye)
    return u, v, c, fit


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
