"""Identity checks over matrix realizations: the acceptance engine.

Every disentangling identity is executed on an AlgebraPair by brute-force
matrix exponentials and reported as a CheckResult (residual, tolerance,
pass flag, metadata).  All checks verify against the cached W = [X, Y]
directly, never against uX + vY + c*identity, so the central u = v = 0
case is covered by the same code path.

e^X, e^Y, e^{X+Y} and e^X e^Y are shared by most checks; each is
computed at most once per pair (see _exponentials) and reused only where
a check evaluates exactly that expression.  Pairs handed together to
share_exponentials (a sweep's lattice row) compute each of the four for
all equally shaped pairs in one expm_stack call instead, on first use;
every slice is bit-identical to the per-pair expm, so no residual moves.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
import weakref
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from .coeffs import f_bch, g_center, g_left, g_right, gamma_swap, integrand
from .matrices import commutator, conjugate_series, expm, expm_stack, rel_residual
from .realizations import AlgebraPair, lindblad_pair
from .recurrence import c_sequence

__all__ = [
    "CHECKS",
    "DEFAULT_TOL",
    "RELAXED_TOL",
    "CheckReport",
    "CheckResult",
    "Side",
    "check_ab_structure",
    "check_bch",
    "check_disentangle",
    "check_hadamard",
    "check_integral",
    "check_lindblad_application",
    "check_swap",
    "check_truncated_product",
    "quadrature_gr",
    "run_suite",
    "share_exponentials",
]

DEFAULT_TOL = 1e-10
# Relative residuals degrade with the exponentials' norms; suites switch
# to this tolerance once ||expm(X+Y)||_F exceeds NORM_RELAX_LIMIT.
RELAXED_TOL = 1e-9
NORM_RELAX_LIMIT = 1e6


class Side(enum.Enum):
    """Placement of the commutator factor in a disentangling identity."""

    RIGHT = "Right"
    CENTER = "Center"
    LEFT = "Left"


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one identity check; passed <=> residual <= tolerance."""

    name: str
    residual: float
    tolerance: float
    passed: bool
    metadata: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class CheckReport:
    """Ordered collection of results; all_passed <=> every result passed."""

    pair_name: str
    results: tuple[CheckResult, ...]
    all_passed: bool


def _result(name: str, residual: float, tol: float, metadata: dict) -> CheckResult:
    residual = float(residual)
    return CheckResult(name, residual, float(tol), residual <= tol, metadata)


class _PairExponentials:
    """e^X, e^Y, e^{X+Y} and (e^X)(e^Y) of one pair, each made on first use.

    A pair in a stack takes each from its slice of the stack's result.
    Stored arrays are read-only.  A computation that raises (OverflowError
    past the 1-norm limit) stores nothing, so every later use raises again;
    a stacked slice past the limit is NaN and falls back to expm, which
    raises.
    """

    def __init__(
        self, X: np.ndarray, Y: np.ndarray, stack: _StackedExponentials | None = None, index: int = 0
    ) -> None:
        self._X = X
        self._Y = Y
        self._stack = stack
        self._index = index

    def _slice_or(self, name: str, compute: Callable[[], np.ndarray]) -> np.ndarray:
        if self._stack is not None:
            value = getattr(self._stack, name)[self._index]
            if not np.isnan(value).any():
                return value
        return _read_only(compute())

    @functools.cached_property
    def x(self) -> np.ndarray:
        return self._slice_or("x", lambda: expm(self._X))

    @functools.cached_property
    def y(self) -> np.ndarray:
        return self._slice_or("y", lambda: expm(self._Y))

    @functools.cached_property
    def x_plus_y(self) -> np.ndarray:
        return self._slice_or("x_plus_y", lambda: expm(self._X + self._Y))

    @functools.cached_property
    def x_times_y(self) -> np.ndarray:
        return self._slice_or("x_times_y", lambda: self.x @ self.y)


class _StackedExponentials:
    """The same four exponentials for a stack of equally shaped pairs.

    Each is one expm_stack call (one stacked product for (e^X)(e^Y)) made
    on first use and kept read-only; the stack holds X and Y, not pairs.
    """

    def __init__(self, X: np.ndarray, Y: np.ndarray) -> None:
        self._X = X
        self._Y = Y

    @functools.cached_property
    def x(self) -> np.ndarray:
        return _read_only(expm_stack(self._X))

    @functools.cached_property
    def y(self) -> np.ndarray:
        return _read_only(expm_stack(self._Y))

    @functools.cached_property
    def x_plus_y(self) -> np.ndarray:
        return _read_only(expm_stack(self._X + self._Y))

    @functools.cached_property
    def x_times_y(self) -> np.ndarray:
        return _read_only(self.x @ self.y)


def _read_only(A: np.ndarray) -> np.ndarray:
    A.setflags(write=False)
    return A


# Keyed by the pair itself (AlgebraPair hashes by identity), so an entry
# lives exactly as long as its pair; the values hold X and Y, not the pair.
_EXPONENTIALS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _exponentials(pair: AlgebraPair) -> _PairExponentials:
    memo = _EXPONENTIALS.get(pair)
    if memo is None:
        memo = _EXPONENTIALS[pair] = _PairExponentials(pair.X, pair.Y)
    return memo


def share_exponentials(pairs) -> None:
    """Let the pairs compute e^X, e^Y, e^{X+Y} and e^X e^Y together.

    Pairs are grouped by matrix shape.  The first time a pair of a group
    needs one of the four, it is computed for the whole group by one
    expm_stack call; each pair keeps its read-only slice for as long as
    the pair lives.  Slices are bit-identical to the per-pair expm, so
    every check gives the same result; a check that needs none of the four
    computes nothing.
    """
    groups = defaultdict(list)
    for pair in pairs:
        groups[pair.X.shape].append(pair)
    for group in groups.values():
        stack = _StackedExponentials(
            np.stack([p.X for p in group]), np.stack([p.Y for p in group])
        )
        for index, pair in enumerate(group):
            _EXPONENTIALS[pair] = _PairExponentials(pair.X, pair.Y, stack, index)


def _coeff_meta(cv) -> dict:
    return {
        "coefficient": complex(cv.value),
        "method": cv.method.value,
        "terms_used": cv.terms_used,
    }


def check_disentangle(pair: AlgebraPair, side: Side, tol: float = DEFAULT_TOL) -> CheckResult:
    """Residual of e^{X+Y} against the side-placed product form.

    Right: e^X e^Y e^{g_r W};  Center: e^X e^{g_c W} e^Y;
    Left: e^{g_l W} e^X e^Y.
    """
    side = Side(side)
    exps = _exponentials(pair)
    if side is Side.RIGHT:
        cv = g_right(pair.u, pair.v)
        rhs = exps.x_times_y @ expm(cv.value * pair.W)
    elif side is Side.CENTER:
        cv = g_center(pair.u, pair.v)
        rhs = exps.x @ expm(cv.value * pair.W) @ exps.y
    else:
        cv = g_left(pair.u, pair.v)
        rhs = expm(cv.value * pair.W) @ exps.x @ exps.y
    residual = rel_residual(exps.x_plus_y, rhs)
    meta = {"side": side.value, **_coeff_meta(cv)}
    return _result(f"disentangle-{side.value.lower()}", residual, tol, meta)


def check_swap(pair: AlgebraPair, tol: float = DEFAULT_TOL) -> CheckResult:
    """Residual of e^X e^Y against e^Y e^X e^{gamma W}."""
    cv = gamma_swap(pair.u, pair.v)
    exps = _exponentials(pair)
    lhs = exps.x_times_y
    rhs = exps.y @ exps.x @ expm(cv.value * pair.W)
    return _result("swap", rel_residual(lhs, rhs), tol, _coeff_meta(cv))


def check_bch(pair: AlgebraPair, tol: float = DEFAULT_TOL) -> CheckResult:
    """Residual of e^X e^Y against the merged form e^{X + Y + f W}.

    Propagates PoleError where f is genuinely undefined (e^u = e^v with
    u != v).
    """
    cv = f_bch(pair.u, pair.v)
    lhs = _exponentials(pair).x_times_y
    rhs = expm(pair.X + pair.Y + cv.value * pair.W)
    return _result("bch", rel_residual(lhs, rhs), tol, _coeff_meta(cv))


def check_ab_structure(pair: AlgebraPair, tol: float = DEFAULT_TOL) -> CheckResult:
    """Closure of the derived pair: [A, B] = (u - v) A.

    A = g_l(u,v) W and B = X + Y + f(u,v) W satisfy the same affine
    commutation structure; this checks it by direct matrix arithmetic.
    """
    gl = g_left(pair.u, pair.v)
    f = f_bch(pair.u, pair.v)
    A = gl.value * pair.W
    B = pair.X + pair.Y + f.value * pair.W
    residual = rel_residual(commutator(A, B), (pair.u - pair.v) * A)
    meta = {
        "g_left": complex(gl.value),
        "f_bch": complex(f.value),
        "u_minus_v": complex(pair.u - pair.v),
    }
    return _result("ab-structure", residual, tol, meta)


@functools.lru_cache(maxsize=8)
def _gauss_legendre_unit(n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return _read_only(0.5 * (nodes + 1.0)), _read_only(0.5 * weights)


def quadrature_gr(u: complex, v: complex, nodes: int = 32) -> complex:
    """Gauss-Legendre quadrature of the integrand over s in [0, 1].

    The integrand is entire in s, so fixed-node Gauss-Legendre converges
    geometrically; 32 nodes give machine precision for |u|, |v| <= ~6.
    The node count is fixed (never adaptive) so results are reproducible
    bit for bit.
    """
    xs, ws = _gauss_legendre_unit(nodes)
    total = 0.0 + 0.0j
    for x, w in zip(xs, ws):
        total += w * integrand(x, u, v)
    return complex(total)


def check_integral(pair: AlgebraPair, tol: float = DEFAULT_TOL) -> CheckResult:
    """Quadrature route to the right-sided coefficient, then the identity.

    Computes I = integral of the integrand by 32-node Gauss-Legendre
    (error estimated against the 16-node result) and reports the larger
    of |I - g_right(u,v)| and the residual of e^{X+Y} against
    e^X e^Y e^{I W}.  The integrand values at different s commute for
    this class, so the ordered exponential collapses to the plain
    exponential of the integral; that collapsed identity is what is
    tested.
    """
    i32 = quadrature_gr(pair.u, pair.v, 32)
    i16 = quadrature_gr(pair.u, pair.v, 16)
    gr = complex(g_right(pair.u, pair.v).value)
    exps = _exponentials(pair)
    lhs = exps.x_plus_y
    rhs = exps.x_times_y @ expm(i32 * pair.W)
    identity_residual = rel_residual(lhs, rhs)
    residual = max(abs(i32 - gr), identity_residual)
    meta = {
        "integral_32": i32,
        "integral_16": i16,
        "quadrature_error_estimate": abs(i32 - i16),
        "closed_form": gr,
        "identity_residual": identity_residual,
    }
    return _result("integral", residual, tol, meta)


def check_truncated_product(pair: AlgebraPair, N: int = 30, tol: float = DEFAULT_TOL) -> CheckResult:
    """Residual of e^{X+Y} against e^X e^Y prod_{n=2}^{N} e^{C_n W}.

    C_n comes from the recurrence module (not the closed form), so this
    exercises the series route end to end.  Metadata records the residual
    after each partial product and an order-of-magnitude tail bound
    |sum_{n>N} C_n| * ||W|| * e^{||X|| + ||Y|| + |g_r| ||W||}.
    """
    if N < 2:
        raise ValueError(f"product cutoff must be >= 2, got {N}")
    exps = _exponentials(pair)
    lhs = exps.x_plus_y
    rhs = exps.x_times_y
    sequence = []
    coeff_sum = 0.0 + 0.0j
    for cn in c_sequence(N, pair.u, pair.v):
        coeff_sum += cn
        rhs = rhs @ expm(cn * pair.W)
        sequence.append(rel_residual(lhs, rhs))
    gr = complex(g_right(pair.u, pair.v).value)
    norm_w = float(np.linalg.norm(pair.W))
    exponent = (
        float(np.linalg.norm(pair.X))
        + float(np.linalg.norm(pair.Y))
        + abs(gr) * norm_w
    )
    tail = abs(gr - coeff_sum) * norm_w * (
        math.exp(exponent) if exponent < 700.0 else math.inf
    )
    meta = {
        "N": N,
        "residual_sequence": [float(r) for r in sequence],
        "coefficient_sum": coeff_sum,
        "closed_form": gr,
        "tail_bound_estimate": tail,
    }
    return _result("product", sequence[-1], tol, meta)


def check_hadamard(pair: AlgebraPair, t: complex = 0.5, K: int = 40, tol: float = DEFAULT_TOL) -> CheckResult:
    """Adjoint series against the conjugation product.

    Residual of sum_{k<=K} (-t)^k ad_X^k(Y)/k! against e^{-tX} Y e^{tX}.
    Truncation error is governed by (|t| ||ad_X||)^K / K!; with K >= 20
    the check is meaningful for |t| ||X|| up to about 2 on generic pairs,
    and far beyond that when the ad series terminates (v = 0 pairs kill
    it after one term).
    """
    t = complex(t)
    series = conjugate_series(pair.X, pair.Y, t, K)
    direct = expm(-t * pair.X) @ pair.Y @ expm(t * pair.X)
    residual = rel_residual(series, direct)
    return _result("hadamard", residual, tol, {"t": t, "K": K})


def check_lindblad_application(alpha: complex, beta: complex, tol: float = DEFAULT_TOL) -> CheckReport:
    """Adjudicate the two coefficient identifications for the dissipator pair.

    For X = alpha*D_up, Y = beta*D_dn the commutator is
    [X, Y] = alpha*beta*(D_up - D_dn), so the merged exponential
    e^{alpha D_up + beta D_dn} splits as e^X e^Y e^{coeff (D_up - D_dn)}
    with two candidate coefficients on the table:

      coupling-product:     -(e^{alpha beta} - 1)^2 / (2 alpha beta),
                            i.e. g_r evaluated at (ab, -ab), ab = alpha*beta
      structure-constants:  g_r(beta, -alpha) * alpha*beta,
                            i.e. g_r at the structure constants of (X, Y)

    Both are executed against the 4x4 matrix oracle; the report carries
    one result per form and each result's metadata lists which forms
    passed.  Neither is presupposed correct.
    """
    alpha = complex(alpha)
    beta = complex(beta)
    if alpha * beta == 0:
        raise ValueError("alpha and beta must both be nonzero")
    pair = lindblad_pair()
    d_up, d_dn = pair.X, pair.Y
    ab = alpha * beta
    diff = d_up - d_dn
    lhs = expm(alpha * d_up + beta * d_dn)
    base = expm(alpha * d_up) @ expm(beta * d_dn)
    coeff_prod = -(cmath.exp(ab) - 1.0) ** 2 / (2.0 * ab)
    coeff_struct = complex(g_right(beta, -alpha).value) * ab
    res_prod = rel_residual(lhs, base @ expm(coeff_prod * diff))
    res_struct = rel_residual(lhs, base @ expm(coeff_struct * diff))
    passing = []
    if res_prod <= tol:
        passing.append("coupling-product")
    if res_struct <= tol:
        passing.append("structure-constants")
    shared = {
        "alpha": alpha,
        "beta": beta,
        "passing_forms": list(passing),
        "convention": pair.name,
    }
    results = (
        _result(
            "lindblad-coupling-product",
            res_prod,
            tol,
            {
                **shared,
                "coefficient": coeff_prod,
                "identification": "(u,v) = (alpha*beta, -alpha*beta)",
            },
        ),
        _result(
            "lindblad-structure-constants",
            res_struct,
            tol,
            {
                **shared,
                "coefficient": coeff_struct,
                "identification": "(u,v) = (beta, -alpha)",
            },
        ),
    )
    return CheckReport(pair.name, results, all(r.passed for r in results))


# The suite in report order: name -> (pair, tol) -> CheckResult.  Each
# entry calls its check through this module's globals, so a wrapper put
# there (a tracer, a test's monkeypatch) sees every call.
CHECKS: dict[str, Callable[[AlgebraPair, float], CheckResult]] = {
    "disentangle-right": lambda pair, tol: check_disentangle(pair, Side.RIGHT, tol),
    "disentangle-center": lambda pair, tol: check_disentangle(pair, Side.CENTER, tol),
    "disentangle-left": lambda pair, tol: check_disentangle(pair, Side.LEFT, tol),
    "swap": lambda pair, tol: check_swap(pair, tol),
    "bch": lambda pair, tol: check_bch(pair, tol),
    "ab-structure": lambda pair, tol: check_ab_structure(pair, tol),
    "integral": lambda pair, tol: check_integral(pair, tol),
    "product": lambda pair, tol: check_truncated_product(pair, 30, tol),
    "hadamard": lambda pair, tol: check_hadamard(pair, 0.5, 40, tol),
}


def run_suite(pair: AlgebraPair, tol: float | None = None) -> CheckReport:
    """Run every identity check on one pair and aggregate the results.

    tol = None selects the default 1e-10, relaxed to 1e-9 when
    ||expm(X+Y)||_F exceeds 1e6 (large-norm exponentials cannot do
    better in doubles).  A check that raises is converted into a failed
    result carrying the error in its metadata, so the report is always
    complete.
    """
    if tol is None:
        tol = DEFAULT_TOL
        try:
            if float(np.linalg.norm(_exponentials(pair).x_plus_y)) > NORM_RELAX_LIMIT:
                tol = RELAXED_TOL
        except OverflowError:
            tol = RELAXED_TOL
    results = []
    for name, check in CHECKS.items():
        try:
            results.append(check(pair, tol))
        except Exception as exc:  # noqa: BLE001 - error-as-result contract
            results.append(
                CheckResult(
                    name,
                    math.inf,
                    tol,
                    False,
                    {"error": f"{type(exc).__name__}: {exc}"},
                )
            )
    return CheckReport(pair.name, tuple(results), all(r.passed for r in results))
