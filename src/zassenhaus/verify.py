"""Identity checks over matrix realizations: the acceptance engine.

Every disentangling identity is executed on an AlgebraPair by brute-force
matrix exponentials and reported as a CheckResult (residual, tolerance,
pass flag, metadata).  All checks verify against the cached W = [X, Y]
directly, never against uX + vY + c*identity, so the central u = v = 0
case is covered by the same code path.

Each suite check runs in two phases.  Its request names, by key, the
matrices whose exponentials it reads: X, Y and X + Y, which checks share,
and its own (g W for each coefficient, X + Y + f W, I_32 W, -tX and tX,
and the 29 C_n W of the product).  Its finish, the public check_*
function, computes the result from those exponentials.  run_suite gathers
the requests of all nine checks for a pair, and prepare those of one
check for a sweep's lattice row, into one expm_stack call per matrix
shape; a check called on its own stacks its own request.  Matrices are
keyed by content, so each distinct one is stacked once and its owners
share the result: a suite stacks 27 of affine2's 40 matrices and 9 of
heisenberg3's.  prepare also takes and returns a table of exponentials
by content, which a sweep carries from one row to the next.  Every slice
is bit-identical to expm of that matrix, so no residual moves.

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
    "prepare",
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


class _Memo:
    """One pair's shared work; it holds no reference to the pair itself.

    values: coefficients (by function), quadrature and C_n; matrices: every
    matrix a request named, by key; exps: the read-only exponential of
    each that is computed, one array for all owners of equal matrices;
    requests: the (request, args) gathered so far.
    A computation that raises stores nothing, so every later use raises
    again.
    """

    def __init__(self) -> None:
        self.values: dict = {}
        self.matrices: dict = {}
        self.exps: dict = {}
        self.requests: set = set()

    def value(self, name, compute: Callable[[], Any]) -> Any:
        try:
            return self.values[name]
        except KeyError:
            value = self.values[name] = compute()
            return value

    def exp(self, key) -> np.ndarray:
        """e^M of the matrix M that a request named key; expm if not stacked."""
        try:
            return self.exps[key]
        except KeyError:
            value = self.exps[key] = _read_only(expm(self.matrices[key]))
            return value

    def x_times_y(self) -> np.ndarray:
        return self.value("x_times_y", lambda: _read_only(self.exp("x") @ self.exp("y")))


# Keyed by the pair itself (AlgebraPair hashes by identity), so an entry
# lives exactly as long as its pair.
_MEMOS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _memo(pair: AlgebraPair) -> _Memo:
    memo = _MEMOS.get(pair)
    if memo is None:
        memo = _MEMOS[pair] = _Memo()
    return memo


def _gather(pairs, requests, known=None) -> dict:
    """Stack every distinct exponential the requests name for the pairs, once.

    requests holds (request, args) tuples.  Each matrix that no earlier
    request of the same pair named is keyed by its content, (shape, raw
    bytes), so -0.0 and +0.0 stay apart.  The exponential of a key is
    taken from known, a table an earlier call returned, or else computed
    once in one expm_stack call per shape; every owner of the key gets
    the same read-only array.  Returns this call's table, content key ->
    exponential, each array owning its memory.  A request that raises, a
    matrix with a non-finite entry and a NaN result enter neither the
    memo nor the table: the finish raises for them (see the module
    docstring).
    """
    known = known or {}
    table = {}
    # shape -> content key -> (matrix, [(memo, key) of every owner])
    todo = defaultdict(dict)
    for pair in pairs:
        memo = _memo(pair)
        for request in requests:
            if request in memo.requests:
                continue
            memo.requests.add(request)
            fn, args = request
            try:
                matrices = fn(pair, memo, *args)
            except Exception:  # noqa: BLE001 - the finish raises it again
                continue
            for key, M in matrices.items():
                if key in memo.matrices:
                    continue
                memo.matrices[key] = M
                content = (M.shape, M.tobytes())
                e = table.get(content)
                if e is None and content in known:
                    e = table[content] = known[content]
                if e is not None:
                    memo.exps[key] = e
                else:
                    todo[M.shape].setdefault(content, (M, []))[1].append((memo, key))
    for distinct in todo.values():
        items = list(distinct.items())
        stack = np.stack([M for _, (M, _) in items])
        finite = np.isfinite(stack).all(axis=(1, 2))
        if not finite.all():
            stack = stack[finite]
            items = [item for item, ok in zip(items, finite) if ok]
        exps = expm_stack(stack)
        for (content, (_, owners)), e, nan in zip(items, exps, np.isnan(exps).any(axis=(1, 2))):
            if nan:
                continue
            # A copy, so that a carried table keeps no whole stack alive.
            e = table[content] = _read_only(e.copy())
            for memo, key in owners:
                memo.exps[key] = e
    return table


def _prepared(pair: AlgebraPair, fn: Callable, *args) -> _Memo:
    """The pair's memo once the request fn(pair, memo, *args) is gathered."""
    memo = _memo(pair)
    if (fn, args) not in memo.requests:
        _gather((pair,), ((fn, args),))
    return memo


def _coefficient(pair: AlgebraPair, memo: _Memo, fn: Callable):
    return memo.value(fn, lambda: fn(pair.u, pair.v))


def _side_coefficient(pair: AlgebraPair, memo: _Memo, side: Side):
    fn = g_right if side is Side.RIGHT else g_center if side is Side.CENTER else g_left
    return _coefficient(pair, memo, fn)


def _coeff_meta(cv) -> dict:
    return {
        "coefficient": complex(cv.value),
        "method": cv.method.value,
        "terms_used": cv.terms_used,
    }


def _request_disentangle(pair: AlgebraPair, memo: _Memo, side: Side) -> dict:
    g = _side_coefficient(pair, memo, side).value
    return {"x": pair.X, "y": pair.Y, "x+y": pair.X + pair.Y, side: g * pair.W}


def check_disentangle(pair: AlgebraPair, side: Side, tol: float = DEFAULT_TOL) -> CheckResult:
    """Residual of e^{X+Y} against the side-placed product form.

    Right: e^X e^Y e^{g_r W};  Center: e^X e^{g_c W} e^Y;
    Left: e^{g_l W} e^X e^Y.
    """
    side = Side(side)
    memo = _prepared(pair, _request_disentangle, side)
    cv = _side_coefficient(pair, memo, side)
    exp = memo.exp
    if side is Side.RIGHT:
        rhs = memo.x_times_y() @ exp(side)
    elif side is Side.CENTER:
        rhs = exp("x") @ exp(side) @ exp("y")
    else:
        rhs = exp(side) @ exp("x") @ exp("y")
    residual = _rel_residual(exp("x+y"), rhs)
    meta = {"side": side.value, **_coeff_meta(cv)}
    return _result(f"disentangle-{side.value.lower()}", residual, tol, meta)


def _request_swap(pair: AlgebraPair, memo: _Memo) -> dict:
    gamma = _coefficient(pair, memo, gamma_swap).value
    return {"x": pair.X, "y": pair.Y, "swap": gamma * pair.W}


def check_swap(pair: AlgebraPair, tol: float = DEFAULT_TOL) -> CheckResult:
    """Residual of e^X e^Y against e^Y e^X e^{gamma W}."""
    memo = _prepared(pair, _request_swap)
    cv = _coefficient(pair, memo, gamma_swap)
    lhs = memo.x_times_y()
    rhs = memo.exp("y") @ memo.exp("x") @ memo.exp("swap")
    return _result("swap", _rel_residual(lhs, rhs), tol, _coeff_meta(cv))


def _request_bch(pair: AlgebraPair, memo: _Memo) -> dict:
    f = _coefficient(pair, memo, f_bch).value
    return {"x": pair.X, "y": pair.Y, "bch": pair.X + pair.Y + f * pair.W}


def check_bch(pair: AlgebraPair, tol: float = DEFAULT_TOL) -> CheckResult:
    """Residual of e^X e^Y against the merged form e^{X + Y + f W}.

    Propagates PoleError where f is genuinely undefined (e^u = e^v with
    u != v).
    """
    memo = _prepared(pair, _request_bch)
    cv = _coefficient(pair, memo, f_bch)
    lhs = memo.x_times_y()
    rhs = memo.exp("bch")
    return _result("bch", _rel_residual(lhs, rhs), tol, _coeff_meta(cv))


def check_ab_structure(pair: AlgebraPair, tol: float = DEFAULT_TOL) -> CheckResult:
    """Closure of the derived pair: [A, B] = (u - v) A.

    A = g_l(u,v) W and B = X + Y + f(u,v) W satisfy the same affine
    commutation structure; this checks it by direct matrix arithmetic.
    """
    memo = _memo(pair)
    gl = _coefficient(pair, memo, g_left)
    f = _coefficient(pair, memo, f_bch)
    A = gl.value * pair.W
    B = pair.X + pair.Y + f.value * pair.W
    residual = _rel_residual(_commutator(A, B), (pair.u - pair.v) * A)
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


def _quadrature_32(pair: AlgebraPair, memo: _Memo) -> complex:
    return memo.value("integral_32", lambda: quadrature_gr(pair.u, pair.v, 32))


def _request_integral(pair: AlgebraPair, memo: _Memo) -> dict:
    i32 = _quadrature_32(pair, memo)
    return {"x": pair.X, "y": pair.Y, "x+y": pair.X + pair.Y, "integral": i32 * pair.W}


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
    i32 = _quadrature_32(pair, memo)
    i16 = quadrature_gr(pair.u, pair.v, 16)
    gr = complex(_coefficient(pair, memo, g_right).value)
    lhs = memo.exp("x+y")
    rhs = memo.x_times_y() @ memo.exp("integral")
    identity_residual = _rel_residual(lhs, rhs)
    residual = max(abs(i32 - gr), identity_residual)
    meta = {
        "integral_32": i32,
        "integral_16": i16,
        "quadrature_error_estimate": abs(i32 - i16),
        "closed_form": gr,
        "identity_residual": identity_residual,
    }
    return _result("integral", residual, tol, meta)


def _product_coefficients(pair: AlgebraPair, memo: _Memo, N: int) -> list[complex]:
    return memo.value(("c_sequence", N), lambda: c_sequence(N, pair.u, pair.v))


def _request_product(pair: AlgebraPair, memo: _Memo, N: int) -> dict:
    matrices = {"x": pair.X, "y": pair.Y, "x+y": pair.X + pair.Y}
    for n, cn in enumerate(_product_coefficients(pair, memo, N), start=2):
        matrices[("C_n W", n)] = cn * pair.W
    return matrices


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
    lhs = memo.exp("x+y")
    rhs = memo.x_times_y()
    sequence = []
    coeff_sum = 0.0 + 0.0j
    for n, cn in enumerate(_product_coefficients(pair, memo, N), start=2):
        coeff_sum += cn
        rhs = rhs @ memo.exp(("C_n W", n))
        sequence.append(_rel_residual(lhs, rhs))
    gr = complex(_coefficient(pair, memo, g_right).value)
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


def _request_hadamard(pair: AlgebraPair, memo: _Memo, t: complex) -> dict:
    return {("-tX", t): -t * pair.X, ("tX", t): t * pair.X}


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
    series = _conjugate_series(pair.X, pair.Y, t, K)
    if not np.isfinite(series).all():
        # An ad power past double range: the error of a validated commutator.
        raise ValueError("matrix entries must be finite")
    direct = memo.exp(("-tX", t)) @ pair.Y @ memo.exp(("tX", t))
    residual = _rel_residual(series, direct)
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


@dataclass(frozen=True)
class _Check:
    """A suite entry: its request, (fn, args) as the check passes it to
    _prepared (None when it reads no exponential), and its finish."""

    request: tuple | None
    finish: Callable[[AlgebraPair, float], CheckResult]

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


def prepare(pairs, names=None, known=None) -> dict:
    """Compute now what the named suite checks (default: all) will read.

    Gathers the checks' requests for every pair and computes each
    distinct exponential once, in one expm_stack call per matrix shape
    over all the pairs together.  known is a table that an earlier call
    returned: an exponential found there is not computed again.  Each
    pair keeps its exponentials, with its coefficients, for as long as it
    lives; the checks then give exactly what they give alone.  Returns
    this call's table, content key -> read-only exponential, for the
    next call's known.  The 41x41 disentangle-right sweep requests 6724
    exponentials, 1983 of them distinct; passing each row's table to the
    next row's call, it stacks 2527.
    """
    checks = CHECKS.values() if names is None else [CHECKS[name] for name in names]
    return _gather(pairs, [c.request for c in checks if c.request is not None], known)


def run_suite(pair: AlgebraPair, tol: float | None = None) -> CheckReport:
    """Run every identity check on one pair and aggregate the results.

    All nine requests are gathered first, one expm_stack call per shape.
    tol = None selects the default 1e-10, relaxed to 1e-9 when
    ||expm(X+Y)||_F exceeds 1e6 (large-norm exponentials cannot do
    better in doubles).  A check that raises is converted into a failed
    result carrying the error in its metadata, so the report is always
    complete.
    """
    prepare((pair,))
    if tol is None:
        tol = DEFAULT_TOL
        try:
            if float(np.linalg.norm(_memo(pair).exp("x+y"))) > NORM_RELAX_LIMIT:
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
