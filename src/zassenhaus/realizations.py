"""Exact finite-dimensional realizations of the affine commutator class.

Each builder returns an AlgebraPair (X, Y, u, v, c) whose matrices satisfy
[X, Y] = uX + vY + c*identity exactly, with W = [X, Y] cached.  Entries are
chosen so the floating-point commutator lands on the algebraic value with
no rounding wherever possible; degenerate inputs (W = 0, or a central
relation with no finite-dimensional realization) are rejected loudly
rather than allowed to pass every identity trivially.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .matrices import _commutator, as_matrix

__all__ = [
    "AlgebraPair",
    "DegenerateError",
    "DimensionError",
    "Ladder",
    "affine_2x2",
    "shift_center",
    "heisenberg_3x3",
    "su11_pair",
    "lindblad_pair",
]


class DegenerateError(ValueError):
    """The requested realization is degenerate (W = 0 or unrealizable)."""


class DimensionError(ValueError):
    """Requested dimension outside the supported range."""


@dataclass(frozen=True, eq=False)
class AlgebraPair:
    """A matrix pair realizing [X, Y] = uX + vY + c*identity.

    W caches the commutator [X, Y].  For the direct builders the cached W
    equals the floating-point commutator bitwise; for shifted pairs W is
    carried over unchanged (an identity shift leaves the commutator
    invariant exactly, whereas recomputing it in floats would add noise).
    """

    X: np.ndarray
    Y: np.ndarray
    u: complex
    v: complex
    c: complex
    W: np.ndarray
    name: str

    def __post_init__(self) -> None:
        for field in ("X", "Y", "W"):
            mat = as_matrix(getattr(self, field))
            mat.setflags(write=False)
            object.__setattr__(self, field, mat)
        if self.X.shape != self.Y.shape or self.X.shape != self.W.shape:
            raise DimensionError(
                f"X, Y, W must share a dimension, got "
                f"{self.X.shape}, {self.Y.shape}, {self.W.shape}"
            )
        object.__setattr__(self, "u", complex(self.u))
        object.__setattr__(self, "v", complex(self.v))
        object.__setattr__(self, "c", complex(self.c))

    @property
    def dim(self) -> int:
        return self.X.shape[0]


def _fmt(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return f"{z.real:g}"
    return f"{z.real:g}{z.imag:+g}i"


def _require_finite(*entries: complex) -> None:
    # The builders' matrices hold these entries and zeros, and AlgebraPair
    # validates them; checking first keeps a non-finite entry out of the
    # unvalidated commutator (and its RuntimeWarning).
    if not all(cmath.isfinite(z) for z in entries):
        raise ValueError("matrix entries must be finite")


def affine_2x2(u: complex, v: complex, b: complex, d: complex) -> AlgebraPair:
    """Minimal 2x2 realization of [X,Y] = uX + vY (c = 0).

    X = [[v, b], [0, 0]] and Y = [[-u, d], [0, 0]] give
    [X, Y] = (ub + vd) E12 = uX + vY.  For real entries each entry of XY
    and YX is a single product beside exact zeros, rounded once, and
    W[0, 0] = v(-u) - (-u)v is exactly 0 (NaN where uv overflows); the
    only nonzero entry, ub + vd, is still rounded once.  For complex
    entries each of those products is a sum of two real products.
    Requires ub + vd != 0, otherwise W = 0 and the pair is degenerate.
    """
    u = complex(u)
    v = complex(v)
    b = complex(b)
    d = complex(d)
    if u * b + v * d == 0:
        raise DegenerateError(
            f"affine_2x2 needs u*b + v*d != 0, got u={_fmt(u)}, v={_fmt(v)}, "
            f"b={_fmt(b)}, d={_fmt(d)} (W would vanish)"
        )
    _require_finite(u, v, b, d)
    X = np.array([[v, b], [0.0, 0.0]], dtype=complex)
    Y = np.array([[-u, d], [0.0, 0.0]], dtype=complex)
    W = _commutator(X, Y)
    name = f"affine_2x2({_fmt(u)},{_fmt(v)},{_fmt(b)},{_fmt(d)})"
    return AlgebraPair(X, Y, u, v, 0.0 + 0.0j, W, name)


def shift_center(pair: AlgebraPair, c: complex) -> AlgebraPair:
    """Realize an added central term by an identity shift.

    If u != 0, replaces X by X - (c/u)*identity (else shifts Y by (c/v)),
    which changes no commutator: the returned pair satisfies
    [X', Y'] = uX' + vY' + (pair.c + c)*identity exactly, with W carried
    over unchanged.  c = 0 returns the pair as is.  u = v = 0 admits no
    such shift (a commutator is traceless, so [X,Y] = c*identity with
    c != 0 has no finite-dimensional realization) and raises
    DegenerateError.
    """
    c = complex(c)
    if c == 0:
        return pair
    eye = np.eye(pair.dim, dtype=complex)
    if pair.u != 0:
        X = pair.X - (c / pair.u) * eye
        Y = pair.Y
    elif pair.v != 0:
        X = pair.X
        Y = pair.Y - (c / pair.v) * eye
    else:
        raise DegenerateError(
            "cannot shift a u = v = 0 pair: a nonzero central commutator "
            "has no finite-dimensional realization (trace obstruction)"
        )
    name = f"shift_center({pair.name}, c={_fmt(c)})"
    return AlgebraPair(X, Y, pair.u, pair.v, pair.c + c, pair.W, name)


def heisenberg_3x3(c: complex) -> AlgebraPair:
    """Central-commutator pair: X = c*E12, Y = E23, W = c*E13.

    W commutes with both X and Y, so this is the u = v = 0 case; the
    disentangling identities are verified against W itself (the scalar c
    lives inside W, not in a separate identity term).
    """
    c = complex(c)
    if c == 0:
        raise DegenerateError("heisenberg_3x3 needs c != 0 (W would vanish)")
    _require_finite(c)
    X = np.zeros((3, 3), dtype=complex)
    X[0, 1] = c
    Y = np.zeros((3, 3), dtype=complex)
    Y[1, 2] = 1.0
    W = _commutator(X, Y)
    return AlgebraPair(X, Y, 0.0j, 0.0j, c, W, f"heisenberg_3x3({_fmt(c)})")


class Ladder(enum.Enum):
    """Which squared ladder operator plays X against the number operator."""

    RAISE_SQ = "RaiseSq"
    LOWER_SQ = "LowerSq"


def su11_pair(which: Ladder, N: int) -> AlgebraPair:
    """Truncated boson pair: X = (raising or lowering op)^2, Y = number op.

    On the N-dimensional truncated number basis, Y = diag(0, ..., N-1) and
    X is the squared ladder operator: RAISE_SQ puts sqrt((k+1)(k+2)) at
    row k+2, column k (u = -2); LOWER_SQ is its transpose (u = +2); v and
    c are 0.  Because X has a single nonzero diagonal stripe and Y is
    diagonal, [X, Y]_{ij} = X_{ij} (Y_jj - Y_ii) = u * X_{ij} holds
    entry-for-entry with zero floating-point error, even after truncation;
    W is computed by that diagonal rule so the cached matrix is bitwise
    u*X.  N is capped at 16 to keep expm(Y) within double-precision
    headroom.
    """
    which = Ladder(which)
    if not isinstance(N, int) or not 4 <= N <= 16:
        raise DimensionError(f"dimension must be an integer in [4, 16], got {N}")
    number_diag = np.arange(N, dtype=float)
    Y = np.diag(number_diag).astype(complex)
    X = np.zeros((N, N), dtype=complex)
    for k in range(N - 2):
        amp = math.sqrt((k + 1) * (k + 2))
        if which is Ladder.RAISE_SQ:
            X[k + 2, k] = amp
        else:
            X[k, k + 2] = amp
    u = -2.0 + 0.0j if which is Ladder.RAISE_SQ else 2.0 + 0.0j
    # Diagonal rule for the commutator with a diagonal matrix; exact in
    # floats because each entry is one multiplication by +-2.
    W = X * (number_diag[np.newaxis, :] - number_diag[:, np.newaxis])
    name = f"su11_{'raise' if which is Ladder.RAISE_SQ else 'lower'}_sq(N={N})"
    return AlgebraPair(X, Y, u, 0.0j, 0.0j, W, name)


_PAULI_1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)

# The normalization that gives [D_up, D_dn] = D_up - D_dn: jump operators
# scaled by 1/sqrt2, and non-jump terms built from sigma_l sigma_k (the
# operator-form anticommutator that matches the jump term sigma_k rho
# sigma_l).  Unit scaling or the sigma_k sigma_l order breaks the relation.
_LINDBLAD_SCALE = 1.0 / math.sqrt(2.0)


def _kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # np.kron of two 2x2 matrices without its dispatch: the same products
    # of the same entries, laid out as (i, k, j, l) -> (2i + k, 2j + l).
    return (A[:, None, :, None] * B[None, :, None, :]).reshape(4, 4)


def _dissipator_matrix(sk: np.ndarray, sl: np.ndarray) -> np.ndarray:
    # Flattened-density-matrix representation of
    #   rho -> sk rho sl - (1/2){sl sk, rho}.
    eye = np.eye(2, dtype=complex)
    lsk = sl @ sk
    return (
        _kron(sl.T, sk)
        - 0.5 * _kron(eye, lsk)
        - 0.5 * _kron(lsk.T, eye)
    )


def lindblad_pair() -> AlgebraPair:
    """Qubit dissipator pair with [D_up, D_dn] = D_up - D_dn.

    Builds the four flattened dissipator matrices D_kl over the first two
    Pauli matrices, scaled by 1/sqrt2, combines them into the
    raising/lowering channels

        D_up = (D_11 + D_22 + i(-D_12 + D_21)) / 2
        D_dn = (D_11 + D_22 + i( D_12 - D_21)) / 2

    and returns them with u = 1, v = -1, c = 0.  The relation fixes the
    Pauli normalization and the ordering of the one-sided products; the
    convention is recorded in the pair name.
    """
    s1 = _LINDBLAD_SCALE * _PAULI_1
    s2 = _LINDBLAD_SCALE * _PAULI_2
    d11 = _dissipator_matrix(s1, s1)
    d12 = _dissipator_matrix(s1, s2)
    d21 = _dissipator_matrix(s2, s1)
    d22 = _dissipator_matrix(s2, s2)
    d_up = 0.5 * (d11 + d22 + 1j * (-d12 + d21))
    d_dn = 0.5 * (d11 + d22 + 1j * (d12 - d21))
    W = _commutator(d_up, d_dn)
    name = "lindblad(scale=1/sqrt2, product=lk)"
    return AlgebraPair(d_up, d_dn, 1.0 + 0.0j, -1.0 + 0.0j, 0.0j, W, name)
