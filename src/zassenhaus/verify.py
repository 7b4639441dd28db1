"""Identity checks over matrix realizations: the acceptance engine.

Every disentangling identity is executed on an AlgebraPair by brute-force
matrix exponentials and reported as a CheckResult (residual, tolerance,
pass flag, metadata).  All checks verify against the cached W = [X, Y]
directly, never against uX + vY + c*identity, so the central u = v = 0
case is covered by the same code path.

A check reads a subject: one pair (n x n matrices, numbers for values)
or a block of a sweep's points (a leading points axis).  Its request
names by key the matrices whose exponentials it reads: X, Y and X + Y,
which checks share, and its own (g W per coefficient, X + Y + f W,
I_32 W, -tX and tX, the 29 C_n W); its arithmetic computes the products
and residuals.  Both are written once for either subject, in CHECKS.  A
subject gathers its requests at once: each distinct matrix, keyed by
content, is exponentiated once in one expm_stack call, each slice
bit-identical to expm of its matrix.  run_suite gathers all nine checks
of a pair (27 of affine2's 40 matrices are distinct, 9 of
heisenberg3's); a check called on a pair gathers its own.

Errors stay with their check and its order.  A subject records each
failure by item and point: a value that raises (PoleError,
OverflowError), a matrix built from it, a non-finite matrix, and one
whose exponential comes back NaN (a 1-norm past 700).  A check fails at
the first failed item it reads: a pair raises that error (for an
exponential, what expm raises on its matrix); a block's point fails alone.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from .coeffs import f_bch, g_center, g_left, g_right, gamma_swap, integrand
from .matrices import (
    _commutator,
    _conjugate_series,
    _frobenius,
    _rel_residual,
    _rel_residuals,
    expm,
    expm_stack,
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


class _Subject:
    """The points a check reads: one pair, or a block of a sweep's points.

    A pair's X, Y and W are n x n arrays and its u, v and values numbers;
    a block's are (N, n, n) stacks and (N, 1, 1) arrays.  values (by name),
    cvs (a pair's CoeffValues) and exps (read-only, by key) are computed
    once.  failed: item -> {point: the exception, or the matrix whose
    exponential the stack could not give}; errors: point -> the first
    failure a block's check read.  It holds no reference to a pair.
    """

    def __init__(self, X, Y, W, u, v) -> None:
        self.X, self.Y, self.W, self.block = X, Y, W, X.ndim == 3
        self.size = len(X) if self.block else 1
        if self.block:
            u, v = (np.asarray(a, dtype=complex)[:, None, None] for a in (u, v))
        self.u, self.v = u, v
        self.values, self.cvs, self.exps, self.failed, self.errors = {}, {}, {}, {}, {}
        # The values that a request reads while it is gathered.
        self.reads = None

    def _fail(self, failures: dict) -> None:
        # What the check read failed at these points: a pair raises its
        # failure, a block keeps each point's first.
        if failures and not self.block:
            if isinstance(failures[0], np.ndarray):
                expm(failures[0])  # raises what expm raises on that matrix
            raise failures[0]
        for i, failure in failures.items():
            self.errors.setdefault(i, failure)

    def _read(self, item) -> None:
        if self.reads is None:
            self._fail(self.failed.get(item, {}))
        else:
            self.reads.append(item)

    def fail_unless(self, finite: np.ndarray) -> None:
        """expm's ValueError wherever finite (one bool per matrix) is False."""
        bad = np.flatnonzero(~finite.reshape(-1, self.size).all(axis=0)).tolist()
        self._fail({i: ValueError("matrix entries must be finite") for i in bad})

    def value(self, name, compute: Callable[[complex, complex], Any], fill: Any = 0j) -> Any:
        """compute(u, v) at each point, fill where it raises; for a block
        (N, 1, 1), or (m, N, 1, 1) for m-long results."""
        if name not in self.values:
            points = zip(self.u.ravel().tolist(), self.v.ravel().tolist()) if self.block else [(self.u, self.v)]
            results = []
            for i, (u, v) in enumerate(points):
                try:
                    results.append(compute(u, v))
                except Exception as exc:  # noqa: BLE001 - recorded for the point
                    self.failed.setdefault(name, {})[i] = exc
                    results.append(fill)
            self.values[name] = (
                np.moveaxis(np.array(results, dtype=complex), 0, -1)[..., None, None] if self.block else results[0]
            )
        self._read(name)
        return self.values[name]

    def coefficient(self, fn: Callable):
        if self.block:
            return self.value(fn, lambda u, v: fn(u, v).value)
        return self.value(fn, lambda u, v: self.cvs.setdefault(fn, fn(u, v)).value)

    def coefficient_value(self, fn: Callable):
        """The CoeffValue of fn at a pair's (u, v)."""
        self.coefficient(fn)
        return self.cvs[fn]

    def exp(self, key) -> np.ndarray:
        self._read(key)
        return self.exps[key]

    def x_times_y(self) -> np.ndarray:
        return self.exp("x") @ self.exp("y")

    def residual(self, A: np.ndarray, B: np.ndarray):
        """Relative residual of A against B, or against each matrix along
        B's extra leading axis in one call."""
        if not self.block and B.ndim == 2:
            return _rel_residual(A, B)
        residuals, finite = _rel_residuals(A, B)
        self.fail_unless(finite)
        return residuals[..., None, None] if self.block else residuals

    def gather(self, requests) -> None:
        """Exponentiate each distinct matrix that the requests ((fn, args)
        or None) name, once: keyed by raw bytes (-0.0 and +0.0 stay apart)
        in one np.unique call, in one expm_stack call.  A matrix other than
        X, Y and X + Y fails where a value its request read failed; one
        with a non-finite entry or a NaN exponential fails; a failed
        exponential is the identity."""
        named, inherited = {}, {}
        for request in filter(None, requests):
            self.reads = []
            matrices = request[0](self, *request[1])
            failed = {}
            for name in reversed(self.reads):
                failed.update(self.failed.get(name, {}))
            self.reads = None
            for key, M in matrices.items():
                if key not in named:
                    named[key] = M
                    if failed and key not in ("x", "y", "x+y"):
                        inherited[key] = failed
        if not named:
            return
        keys, n, N = list(named), self.X.shape[-1], self.size
        A = np.array(list(named.values())).reshape(-1, n, n)
        ok = np.isfinite(A).all(axis=(1, 2))
        for k, key in enumerate(keys):
            for i in inherited.get(key, ()):
                ok[k * N + i] = False
        live = np.flatnonzero(ok)
        rows = A[live].reshape(len(live), n * n)
        # One raw-bytes key per matrix: the row of its n*n entries.
        content = rows.view(np.dtype((np.void, rows.itemsize * n * n))).ravel()
        _, first, inverse = np.unique(content, return_index=True, return_inverse=True)
        exps = expm_stack(rows[first].reshape(-1, n, n)) if live.size else A[:0]
        # The pool: each distinct exponential, then the identity at its end.
        pool = np.concatenate([exps, np.eye(n, dtype=complex)[None]])
        identity = len(exps)
        where = np.full(len(A), identity)
        where[live] = np.where(np.isnan(exps).any(axis=(1, 2)), identity, np.arange(identity))[inverse]
        for p in np.flatnonzero(where == identity).tolist():
            key, i = keys[p // N], p % N
            self.failed.setdefault(key, {})[i] = inherited.get(key, {}).get(i, A[p])
        self.exps.update(zip(keys, _read_only(pool[where.reshape(len(keys), *self.X.shape[:-2])])))


def _subject(pair, *request) -> _Subject:
    """A subject run_suite prepared, or the pair's own with (fn, *args) gathered."""
    if isinstance(pair, _Subject):
        return pair
    s = _Subject(pair.X, pair.Y, pair.W, pair.u, pair.v)
    s.gather([(request[0], request[1:])] if request else [])
    return s


def _side_coefficient(side: Side) -> Callable:
    return g_right if side is Side.RIGHT else g_center if side is Side.CENTER else g_left


def _coeff_meta(cv) -> dict:
    return {"coefficient": complex(cv.value), "method": cv.method.value, "terms_used": cv.terms_used}


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
    s = _subject(pair, _request_disentangle, side)
    cv = s.coefficient_value(_side_coefficient(side))
    residual = _disentangle(s, side)
    meta = {"side": side.value, **_coeff_meta(cv)}
    return _result(f"disentangle-{side.value.lower()}", residual, tol, meta)


def _request_swap(s) -> dict:
    return {"x": s.X, "y": s.Y, "swap": s.coefficient(gamma_swap) * s.W}


def _swap(s):
    return s.residual(s.x_times_y(), s.exp("y") @ s.exp("x") @ s.exp("swap"))


def check_swap(pair: AlgebraPair, tol: float = DEFAULT_TOL) -> CheckResult:
    """Residual of e^X e^Y against e^Y e^X e^{gamma W}."""
    s = _subject(pair, _request_swap)
    cv = s.coefficient_value(gamma_swap)
    return _result("swap", _swap(s), tol, _coeff_meta(cv))


def _request_bch(s) -> dict:
    return {"x": s.X, "y": s.Y, "bch": s.X + s.Y + s.coefficient(f_bch) * s.W}


def _bch(s):
    return s.residual(s.x_times_y(), s.exp("bch"))


def check_bch(pair: AlgebraPair, tol: float = DEFAULT_TOL) -> CheckResult:
    """Residual of e^X e^Y against the merged form e^{X + Y + f W}.

    Propagates PoleError where f is genuinely undefined (e^u = e^v with
    u != v).
    """
    s = _subject(pair, _request_bch)
    cv = s.coefficient_value(f_bch)
    return _result("bch", _bch(s), tol, _coeff_meta(cv))


def _ab_structure(s):
    A = s.coefficient(g_left) * s.W
    B = s.X + s.Y + s.coefficient(f_bch) * s.W
    return s.residual(_commutator(A, B), (s.u - s.v) * A)


def check_ab_structure(pair: AlgebraPair, tol: float = DEFAULT_TOL) -> CheckResult:
    """Closure of the derived pair: [A, B] = (u - v) A.

    A = g_l(u,v) W and B = X + Y + f(u,v) W satisfy the same affine
    commutation structure; this checks it by direct matrix arithmetic.
    """
    s = _subject(pair)
    gl = s.coefficient_value(g_left)
    f = s.coefficient_value(f_bch)
    residual = _ab_structure(s)
    meta = {"g_left": complex(gl.value), "f_bch": complex(f.value), "u_minus_v": complex(s.u - s.v)}
    return _result("ab-structure", residual, tol, meta)


@functools.lru_cache(maxsize=8)
def _gauss_legendre_unit(n: int) -> tuple[tuple[float, float], ...]:
    # Python floats: the sum runs in Python complex arithmetic, same bits.
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return tuple(zip((0.5 * (nodes + 1.0)).tolist(), (0.5 * weights).tolist()))


def quadrature_gr(u: complex, v: complex, nodes: int = 32) -> complex:
    """Gauss-Legendre quadrature of the integrand over s in [0, 1].

    The integrand is entire in s, so fixed-node Gauss-Legendre converges
    geometrically; 32 nodes give machine precision for |u|, |v| <= ~6.
    The node count is fixed (never adaptive) so results are reproducible
    bit for bit; a sum past double range raises OverflowError.
    """
    total = 0.0 + 0.0j
    for x, w in _gauss_legendre_unit(nodes):
        total += w * integrand(x, u, v)
    if not (math.isfinite(total.real) and math.isfinite(total.imag)):
        raise OverflowError(f"quadrature_gr overflows at {(u, v)}")
    return total


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
    residual, identity_residual, i32, i16, gr = _integral(_subject(pair, _request_integral))
    meta = {
        "integral_32": i32,
        "integral_16": i16,
        "quadrature_error_estimate": abs(i32 - i16),
        "closed_form": complex(gr),
        "identity_residual": identity_residual,
    }
    return _result("integral", residual, tol, meta)


def _product_coefficients(s, N: int):
    return s.value(("c_sequence", N), lambda u, v: c_sequence(N, u, v), [0j] * (N - 1))


def _request_product(s, N: int) -> dict:
    matrices = {"x": s.X, "y": s.Y, "x+y": s.X + s.Y}
    for n, cn in enumerate(_product_coefficients(s, N), start=2):
        matrices[("C_n W", n)] = cn * s.W
    return matrices


def _product(s, N: int):
    """(residual after each partial product, g_r)."""
    lhs = s.exp("x+y")
    rhs = s.x_times_y()
    partials = []
    for n in range(2, N + 1):
        rhs = rhs @ s.exp(("C_n W", n))
        partials.append(rhs)
    return s.residual(lhs, np.array(partials)), s.coefficient(g_right)


def check_truncated_product(pair: AlgebraPair, N: int = 30, tol: float = DEFAULT_TOL) -> CheckResult:
    """Residual of e^{X+Y} against e^X e^Y prod_{n=2}^{N} e^{C_n W}.

    C_n is the power sum of recurrence.c_sequence, the Taylor coefficient
    of g_right's closed form, so this checks the product expansion end to
    end (cn-table checks C_n itself).  Metadata records the residual
    after each partial product and an order-of-magnitude tail bound
    |sum_{n>N} C_n| * ||W|| * e^{||X|| + ||Y|| + |g_r| ||W||}.
    """
    if N < 2:
        raise ValueError(f"product cutoff must be >= 2, got {N}")
    s = _subject(pair, _request_product, N)
    sequence, gr = _product(s, N)
    gr = complex(gr)
    coeff_sum = 0.0 + 0.0j
    for cn in _product_coefficients(s, N):
        coeff_sum += cn
    norm_w = _frobenius(s.W)
    exponent = _frobenius(s.X) + _frobenius(s.Y) + abs(gr) * norm_w
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
    # An ad power past double range: the error of a validated commutator.
    s.fail_unless(np.isfinite(series).all(axis=(-2, -1)))
    direct = s.exp(("-tX", t)) @ s.Y @ s.exp(("tX", t))
    return s.residual(series, direct)


def check_hadamard(pair: AlgebraPair, t: complex = 0.5, K: int = 40, tol: float = DEFAULT_TOL) -> CheckResult:
    """Adjoint series against the conjugation product.

    Residual of sum_{k<=K} (-t)^k ad_X^k(Y)/k! against e^{-tX} Y e^{tX}.
    Truncation error is governed by (|t| ||ad_X||)^K / K!; with K >= 20
    the check is meaningful for |t| ||X|| up to about 2 on generic pairs,
    and far beyond that when the ad series terminates (ad_X^2 Y = vW): the
    sum stops at the first exactly zero ad power, K still the cutoff.
    """
    t = complex(t)
    if K < 0:
        raise ValueError(f"series cutoff must be >= 0, got {K}")
    return _result("hadamard", _hadamard(_subject(pair, _request_hadamard, t), t, K), tol, {"t": t, "K": K})


def check_lindblad_application(alpha: complex, beta: complex, tol: float = DEFAULT_TOL) -> CheckReport:
    """Adjudicate the two coefficient identifications for the dissipator pair.

    For X = alpha*D_up, Y = beta*D_dn the commutator is
    W = [X, Y] = alpha*beta*(D_up - D_dn), so the merged exponential
    e^{alpha D_up + beta D_dn} splits as e^X e^Y e^{g_r(u, v) W} with two
    candidate identifications of (u, v) on the table:

      coupling-product:     (u, v) = (ab, -ab), ab = alpha*beta, where
                            g_r ab = -(e^{ab} - 1)^2 / (2 ab)
      structure-constants:  (u, v) = (beta, -alpha), the structure
                            constants of (X, Y)

    Each is the right-sided disentangling check against the 4x4 matrix
    oracle; the report carries one result per form, its coefficient
    g_r(u, v) ab on D_up - D_dn, and each result's metadata lists which
    forms passed.  Neither is presupposed correct.
    """
    alpha = complex(alpha)
    beta = complex(beta)
    if alpha * beta == 0:
        raise ValueError("alpha and beta must both be nonzero")
    pair = lindblad_pair()
    ab = alpha * beta
    X, Y, W = alpha * pair.X, beta * pair.Y, ab * (pair.X - pair.Y)
    forms = {
        "coupling-product": ((ab, -ab), "(u,v) = (alpha*beta, -alpha*beta)"),
        "structure-constants": ((beta, -alpha), "(u,v) = (beta, -alpha)"),
    }
    checks = {
        form: check_disentangle(AlgebraPair(X, Y, u, v, 0.0, W, pair.name), Side.RIGHT, tol)
        for form, ((u, v), _) in forms.items()
    }
    shared = {
        "alpha": alpha,
        "beta": beta,
        "passing_forms": [form for form, r in checks.items() if r.passed],
        "convention": pair.name,
    }
    results = tuple(
        _result(
            f"lindblad-{form}",
            r.residual,
            tol,
            {**shared, "coefficient": r.metadata["coefficient"] * ab, "identification": forms[form][1]},
        )
        for form, r in checks.items()
    )
    return CheckReport(pair.name, results, all(r.passed for r in results))


class _Check:
    """A suite entry: the matrices its request names per point (slices),
    the request (fn, args) or None, its residual on a subject, and its
    finish, (pair or subject, tol) -> CheckResult.  A plain class: a
    dataclass would cost a millisecond at every import."""

    def __init__(self, slices: int, request: tuple | None, residual: Callable, finish: Callable) -> None:
        self.slices, self.request, self.residual, self.finish = slices, request, residual, finish

    def __call__(self, pair, tol: float) -> CheckResult:
        return self.finish(pair, tol)


# The suite in report order: name -> (pair, tol) -> CheckResult.  Each
# finish calls its check through this module's globals, so a wrapper put
# there (a tracer, a test's monkeypatch) sees every call.
CHECKS: dict[str, _Check] = {
    **{
        f"disentangle-{side.value.lower()}": _Check(
            4, (_request_disentangle, (side,)), lambda s, side=side: _disentangle(s, side),
            lambda pair, tol, side=side: check_disentangle(pair, side, tol),
        )
        for side in Side
    },
    "swap": _Check(3, (_request_swap, ()), _swap, lambda pair, tol: check_swap(pair, tol)),
    "bch": _Check(3, (_request_bch, ()), _bch, lambda pair, tol: check_bch(pair, tol)),
    "ab-structure": _Check(0, None, _ab_structure, lambda pair, tol: check_ab_structure(pair, tol)),
    "integral": _Check(
        4, (_request_integral, ()), lambda s: _integral(s)[0], lambda pair, tol: check_integral(pair, tol)
    ),
    "product": _Check(
        32, (_request_product, (30,)), lambda s: _product(s, 30)[0][-1],
        lambda pair, tol: check_truncated_product(pair, 30, tol),
    ),
    "hadamard": _Check(
        2, (_request_hadamard, (0.5 + 0j,)), lambda s: _hadamard(s, 0.5 + 0j, 40),
        lambda pair, tol: check_hadamard(pair, 0.5, 40, tol),
    ),
}


def run_suite(pair: AlgebraPair, tol: float | None = None) -> CheckReport:
    """Run every identity check on one pair and aggregate the results.

    One subject of the pair serves all nine checks: their requests are
    gathered first, in one expm_stack call.
    tol = None selects the default 1e-10, relaxed to 1e-9 when
    ||expm(X+Y)||_F exceeds 1e6 (large-norm exponentials cannot do
    better in doubles).  A check that raises is converted into a failed
    result carrying the error in its metadata, so the report is always
    complete.
    """
    s = _subject(pair)
    s.gather(c.request for c in CHECKS.values())
    if tol is None:
        tol = DEFAULT_TOL
        try:
            if _frobenius(s.exp("x+y")) > NORM_RELAX_LIMIT:
                tol = RELAXED_TOL
        except OverflowError:
            tol = RELAXED_TOL
    results = []
    for name, check in CHECKS.items():
        try:
            results.append(check(s, tol))
        except Exception as exc:  # noqa: BLE001 - error-as-result contract
            results.append(CheckResult(name, math.inf, tol, False, {"error": f"{type(exc).__name__}: {exc}"}))
    return CheckReport(pair.name, tuple(results), all(r.passed for r in results))
