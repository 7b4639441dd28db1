"""Identity checks over matrix realizations: the acceptance engine.

Every disentangling identity is executed on an AlgebraPair by brute-force
matrix exponentials and reported as a CheckResult (residual, tolerance,
pass flag, metadata).  All checks verify against the cached W = [X, Y]
directly, never against uX + vY + c*identity, so the central u = v = 0
case is covered by the same code path.

Each suite check runs in two phases, each written once for matrices with
or without leading stack dimensions.  Its request names, by key, the
matrices whose exponentials it reads: X, Y and X + Y, which checks share,
and its own (g W for each coefficient, X + Y + f W, I_32 W, -tX and tX,
and the 29 C_n W of the product).  Its arithmetic computes the products
and the relative residual from those exponentials.  Both read a subject:
a pair's memo here, where each matrix is one n x n array and each
coefficient a number, or a stack of a sweep's lattice points (the sweep
module), where they are (N, n, n) and (N, 1, 1) arrays.

The public check_* functions run both phases on a pair's memo.  run_suite
gathers the requests of all nine checks for a pair into one expm_stack
call per matrix shape; a check called on its own stacks its own request.
Matrices are keyed by content, so each distinct one is stacked once and
its owners share the result: a suite stacks 27 of affine2's 40 matrices
and 9 of heisenberg3's.  Every slice is bit-identical to expm of that
matrix, so no residual moves.

A pair's memo keeps its coefficients, quadrature, C_n, requested matrices
and their read-only exponentials for as long as the pair lives; each is
computed at most once.  Errors stay with their check and its order.  A
request whose coefficient raises (PoleError, OverflowError) is left out
and the finish raises again when it computes that coefficient.  A slice
the stack cannot give (non-finite entries, or a 1-norm past 700, which
comes back NaN) is computed by expm when the finish reaches it, and expm
raises the same error at the same point as it would for the check alone.
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
from .matrices import (
    _commutator,
    _conjugate_series,
    _frobenius,
    _rel_residual,
    expm,
    expm_stack,
    rel_residual,
)
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


def _read_only(A: np.ndarray) -> np.ndarray:
    A.setflags(write=False)
    return A


def _exponentials(items) -> dict:
    """Content key -> read-only e^M for the distinct matrices among items.

    items are (content, stack, i): the matrix M = stack[i] (i is ... for a
    matrix on its own) and its content key (M.shape, M.tobytes()), raw
    bytes, so -0.0 and +0.0 stay apart.  Each distinct matrix is computed
    once, in one expm_stack call per shape (shapes in order of first
    appearance).  A matrix with a non-finite entry, and one whose
    exponential comes back NaN (a 1-norm past 700), gets no entry.
    """
    table = {}
    # shape -> content key -> (stack, i)
    todo = defaultdict(dict)
    for content, stack, i in items:
        todo[content[0]].setdefault(content, (stack, i))
    for distinct in todo.values():
        contents = list(distinct)
        stack = np.array([M[i] for M, i in distinct.values()])
        finite = np.isfinite(stack).all(axis=(1, 2))
        if not finite.all():
            stack = stack[finite]
            contents = [content for content, ok in zip(contents, finite) if ok]
            if not contents:
                continue
        exps = expm_stack(stack)
        for content, e, nan in zip(contents, exps, np.isnan(exps).any(axis=(1, 2))):
            if not nan:
                table[content] = _read_only(e)
    return table


class _Memo:
    """One pair's subject and shared work; it holds no reference to the pair.

    X, Y, W, u, v: the pair's.  values: coefficients (by function, as
    CoeffValue), quadrature and C_n; matrices: every matrix a request
    named, by key; exps: the read-only exponential of each that is
    computed, one array for all owners of equal matrices; requests: the
    (request, args) gathered so far.  A computation that raises stores
    nothing, so every later use raises again.
    """

    def __init__(self, pair: AlgebraPair) -> None:
        self.X, self.Y, self.W, self.u, self.v = pair.X, pair.Y, pair.W, pair.u, pair.v
        self.values: dict = {}
        self.matrices: dict = {}
        self.exps: dict = {}
        self.requests: set = set()
        self.xy = None

    def value(self, name, compute: Callable[[complex, complex], Any]) -> Any:
        try:
            return self.values[name]
        except KeyError:
            value = self.values[name] = compute(self.u, self.v)
            return value

    def coefficient_value(self, fn: Callable):
        """The CoeffValue of fn at the pair's (u, v)."""
        return self.value(fn, fn)

    def coefficient(self, fn: Callable):
        return self.coefficient_value(fn).value

    def exp(self, key) -> np.ndarray:
        """e^M of the matrix M that a request named key; expm if not stacked."""
        try:
            return self.exps[key]
        except KeyError:
            value = self.exps[key] = _read_only(expm(self.matrices[key]))
            return value

    def x_times_y(self) -> np.ndarray:
        if self.xy is None:
            self.xy = _read_only(self.exp("x") @ self.exp("y"))
        return self.xy

    def require_finite(self, A: np.ndarray) -> None:
        if not np.isfinite(A).all():
            # An ad power past double range: the error of a validated commutator.
            raise ValueError("matrix entries must be finite")

    def residual(self, A: np.ndarray, B: np.ndarray) -> float:
        return _rel_residual(A, B)


# Keyed by the pair itself (AlgebraPair hashes by identity), so an entry
# lives exactly as long as its pair.
_MEMOS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _memo(pair: AlgebraPair) -> _Memo:
    memo = _MEMOS.get(pair)
    if memo is None:
        memo = _MEMOS[pair] = _Memo(pair)
    return memo


def _gather(pair: AlgebraPair, requests) -> None:
    """Stack every distinct exponential the requests name for the pair, once.

    requests holds (request, args) tuples; one that was gathered before,
    or whose request raises, is skipped (the finish raises it again).
    Every owner of equal matrices gets the same read-only array.
    """
    memo = _memo(pair)
    named = []
    for request in requests:
        if request in memo.requests:
            continue
        memo.requests.add(request)
        fn, args = request
        try:
            matrices = fn(memo, *args)
        except Exception:  # noqa: BLE001 - the finish raises it again
            continue
        for key, M in matrices.items():
            if key not in memo.matrices:
                memo.matrices[key] = M
                named.append((key, (M.shape, M.tobytes())))
    table = _exponentials((content, memo.matrices[key], ...) for key, content in named)
    for key, content in named:
        e = table.get(content)
        if e is not None:
            memo.exps[key] = e


def _prepared(pair: AlgebraPair, fn: Callable, *args) -> _Memo:
    """The pair's memo once the request fn(memo, *args) is gathered."""
    memo = _memo(pair)
    if (fn, args) not in memo.requests:
        _gather(pair, ((fn, args),))
    return memo


# The checks.  Each _request_<check>(s, *args) returns the matrices whose
# exponentials the check reads, by key, and each _<check>(s, *args) does
# its arithmetic; s is a pair's memo or a sweep._Stack.  The public
# check_* runs both on a pair's memo.


def _side_coefficient(side: Side) -> Callable:
    return g_right if side is Side.RIGHT else g_center if side is Side.CENTER else g_left


def _coeff_meta(cv) -> dict:
    return {
        "coefficient": complex(cv.value),
        "method": cv.method.value,
        "terms_used": cv.terms_used,
    }


def _request_disentangle(s, side: Side) -> dict:
    g = s.coefficient(_side_coefficient(side))
    return {"x": s.X, "y": s.Y, "x+y": s.X + s.Y, side: g * s.W}


def _disentangle(s, side: Side):
    exp = s.exp
    if side is Side.RIGHT:
        rhs = s.x_times_y() @ exp(side)
    elif side is Side.CENTER:
        rhs = exp("x") @ exp(side) @ exp("y")
    else:
        rhs = exp(side) @ exp("x") @ exp("y")
    return s.residual(exp("x+y"), rhs)


def check_disentangle(pair: AlgebraPair, side: Side, tol: float = DEFAULT_TOL) -> CheckResult:
    """Residual of e^{X+Y} against the side-placed product form.

    Right: e^X e^Y e^{g_r W};  Center: e^X e^{g_c W} e^Y;
    Left: e^{g_l W} e^X e^Y.
    """
    side = Side(side)
    memo = _prepared(pair, _request_disentangle, side)
    cv = memo.coefficient_value(_side_coefficient(side))
    residual = _disentangle(memo, side)
    meta = {"side": side.value, **_coeff_meta(cv)}
    return _result(f"disentangle-{side.value.lower()}", residual, tol, meta)


def _request_swap(s) -> dict:
    return {"x": s.X, "y": s.Y, "swap": s.coefficient(gamma_swap) * s.W}


def _swap(s):
    return s.residual(s.x_times_y(), s.exp("y") @ s.exp("x") @ s.exp("swap"))


def check_swap(pair: AlgebraPair, tol: float = DEFAULT_TOL) -> CheckResult:
    """Residual of e^X e^Y against e^Y e^X e^{gamma W}."""
    memo = _prepared(pair, _request_swap)
    cv = memo.coefficient_value(gamma_swap)
    return _result("swap", _swap(memo), tol, _coeff_meta(cv))


def _request_bch(s) -> dict:
    return {"x": s.X, "y": s.Y, "bch": s.X + s.Y + s.coefficient(f_bch) * s.W}


def _bch(s):
    return s.residual(s.x_times_y(), s.exp("bch"))


def check_bch(pair: AlgebraPair, tol: float = DEFAULT_TOL) -> CheckResult:
    """Residual of e^X e^Y against the merged form e^{X + Y + f W}.

    Propagates PoleError where f is genuinely undefined (e^u = e^v with
    u != v).
    """
    memo = _prepared(pair, _request_bch)
    cv = memo.coefficient_value(f_bch)
    return _result("bch", _bch(memo), tol, _coeff_meta(cv))


def _ab_structure(s):
    A = s.coefficient(g_left) * s.W
    B = s.X + s.Y + s.coefficient(f_bch) * s.W
    return s.residual(_commutator(A, B), (s.u - s.v) * A)


def check_ab_structure(pair: AlgebraPair, tol: float = DEFAULT_TOL) -> CheckResult:
    """Closure of the derived pair: [A, B] = (u - v) A.

    A = g_l(u,v) W and B = X + Y + f(u,v) W satisfy the same affine
    commutation structure; this checks it by direct matrix arithmetic.
    """
    memo = _memo(pair)
    gl = memo.coefficient_value(g_left)
    f = memo.coefficient_value(f_bch)
    residual = _ab_structure(memo)
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


def _quadrature(s, nodes: int):
    return s.value(("quadrature", nodes), lambda u, v: quadrature_gr(u, v, nodes))


def _request_integral(s) -> dict:
    return {"x": s.X, "y": s.Y, "x+y": s.X + s.Y, "integral": _quadrature(s, 32) * s.W}


def _integral(s):
    """(residual, identity residual, I_32, I_16, g_r)."""
    i32 = _quadrature(s, 32)
    i16 = _quadrature(s, 16)
    gr = s.coefficient(g_right)
    identity = s.residual(s.exp("x+y"), s.x_times_y() @ s.exp("integral"))
    error = abs(i32 - gr)
    # max(error, identity): error unless identity is larger.
    return np.where(identity > error, identity, error), identity, i32, i16, gr


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
    memo = _prepared(pair, _request_integral)
    residual, identity_residual, i32, i16, gr = _integral(memo)
    meta = {
        "integral_32": i32,
        "integral_16": i16,
        "quadrature_error_estimate": abs(i32 - i16),
        "closed_form": complex(gr),
        "identity_residual": identity_residual,
    }
    return _result("integral", residual, tol, meta)


def _product_coefficients(s, N: int):
    return s.value(("c_sequence", N), lambda u, v: c_sequence(N, u, v))


def _request_product(s, N: int) -> dict:
    matrices = {"x": s.X, "y": s.Y, "x+y": s.X + s.Y}
    for n, cn in enumerate(_product_coefficients(s, N), start=2):
        matrices[("C_n W", n)] = cn * s.W
    return matrices


def _product(s, N: int):
    """(residual after each partial product, g_r)."""
    lhs = s.exp("x+y")
    rhs = s.x_times_y()
    sequence = []
    for n in range(2, N + 1):
        rhs = rhs @ s.exp(("C_n W", n))
        sequence.append(s.residual(lhs, rhs))
    return sequence, s.coefficient(g_right)


def check_truncated_product(pair: AlgebraPair, N: int = 30, tol: float = DEFAULT_TOL) -> CheckResult:
    """Residual of e^{X+Y} against e^X e^Y prod_{n=2}^{N} e^{C_n W}.

    C_n comes from the recurrence module (not the closed form), so this
    exercises the series route end to end.  Metadata records the residual
    after each partial product and an order-of-magnitude tail bound
    |sum_{n>N} C_n| * ||W|| * e^{||X|| + ||Y|| + |g_r| ||W||}.
    """
    if N < 2:
        raise ValueError(f"product cutoff must be >= 2, got {N}")
    memo = _prepared(pair, _request_product, N)
    sequence, gr = _product(memo, N)
    gr = complex(gr)
    coeff_sum = 0.0 + 0.0j
    for cn in _product_coefficients(memo, N):
        coeff_sum += cn
    norm_w = _frobenius(pair.W)
    exponent = _frobenius(pair.X) + _frobenius(pair.Y) + abs(gr) * norm_w
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


def _request_hadamard(s, t: complex) -> dict:
    return {("-tX", t): -t * s.X, ("tX", t): t * s.X}


def _hadamard(s, t: complex, K: int):
    series = _conjugate_series(s.X, s.Y, t, K)
    s.require_finite(series)
    direct = s.exp(("-tX", t)) @ s.Y @ s.exp(("tX", t))
    return s.residual(series, direct)


def check_hadamard(pair: AlgebraPair, t: complex = 0.5, K: int = 40, tol: float = DEFAULT_TOL) -> CheckResult:
    """Adjoint series against the conjugation product.

    Residual of sum_{k<=K} (-t)^k ad_X^k(Y)/k! against e^{-tX} Y e^{tX}.
    Truncation error is governed by (|t| ||ad_X||)^K / K!; with K >= 20
    the check is meaningful for |t| ||X|| up to about 2 on generic pairs,
    and far beyond that when the ad series terminates (v = 0 pairs kill
    it after one term).
    """
    t = complex(t)
    if K < 0:
        raise ValueError(f"series cutoff must be >= 0, got {K}")
    memo = _prepared(pair, _request_hadamard, t)
    return _result("hadamard", _hadamard(memo, t, K), tol, {"t": t, "K": K})


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


class _Check:
    """A suite entry: its request, (fn, args) as the check passes it to
    _prepared (None when it reads no exponential), and its finish.  A
    plain class: a dataclass would cost a millisecond at every import."""

    def __init__(self, request: tuple | None, finish: Callable[[AlgebraPair, float], CheckResult]) -> None:
        self.request, self.finish = request, finish

    def __call__(self, pair: AlgebraPair, tol: float) -> CheckResult:
        return self.finish(pair, tol)


# The suite in report order: name -> (pair, tol) -> CheckResult.  Each
# finish calls its check through this module's globals, so a wrapper put
# there (a tracer, a test's monkeypatch) sees every call.
CHECKS: dict[str, _Check] = {
    "disentangle-right": _Check(
        (_request_disentangle, (Side.RIGHT,)),
        lambda pair, tol: check_disentangle(pair, Side.RIGHT, tol),
    ),
    "disentangle-center": _Check(
        (_request_disentangle, (Side.CENTER,)),
        lambda pair, tol: check_disentangle(pair, Side.CENTER, tol),
    ),
    "disentangle-left": _Check(
        (_request_disentangle, (Side.LEFT,)),
        lambda pair, tol: check_disentangle(pair, Side.LEFT, tol),
    ),
    "swap": _Check((_request_swap, ()), lambda pair, tol: check_swap(pair, tol)),
    "bch": _Check((_request_bch, ()), lambda pair, tol: check_bch(pair, tol)),
    "ab-structure": _Check(None, lambda pair, tol: check_ab_structure(pair, tol)),
    "integral": _Check((_request_integral, ()), lambda pair, tol: check_integral(pair, tol)),
    "product": _Check(
        (_request_product, (30,)), lambda pair, tol: check_truncated_product(pair, 30, tol)
    ),
    "hadamard": _Check(
        (_request_hadamard, (0.5 + 0j,)), lambda pair, tol: check_hadamard(pair, 0.5, 40, tol)
    ),
}


def run_suite(pair: AlgebraPair, tol: float | None = None) -> CheckReport:
    """Run every identity check on one pair and aggregate the results.

    All nine requests are gathered first, one expm_stack call per shape.
    tol = None selects the default 1e-10, relaxed to 1e-9 when
    ||expm(X+Y)||_F exceeds 1e6 (large-norm exponentials cannot do
    better in doubles).  A check that raises is converted into a failed
    result carrying the error in its metadata, so the report is always
    complete.
    """
    _gather(pair, [c.request for c in CHECKS.values() if c.request is not None])
    if tol is None:
        tol = DEFAULT_TOL
        try:
            if _frobenius(_memo(pair).exp("x+y")) > NORM_RELAX_LIMIT:
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
