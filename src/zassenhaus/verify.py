"""Identity checks over matrix realizations: the acceptance engine.

Every disentangling identity is executed on an AlgebraPair by brute-force
matrix exponentials and reported as a CheckResult (residual, tolerance,
pass flag, metadata).  All checks verify against the cached W = [X, Y]
directly, never against uX + vY + c*identity, so the central u = v = 0
case is covered by the same code path.

A check reads a subject, a block of points with a leading points axis: a
sweep's block, or one pair as a block of one point.  Its request names by
key the matrices whose exponentials it reads: X, Y and X + Y, which
checks share, and its own (g W per coefficient, X + Y + f W, I_32 W, -tX
and tX, the 29 C_n W); its arithmetic computes the products and
residuals, the one a sweep writes first.  CHECKS holds one statement per
check: its request, its arithmetic, its public check and that check's
fixed arguments (a side, N = 30, t = 0.5 and K = 40), each given once.  A
subject gathers its requests at once: each distinct matrix, keyed by its
raw bytes and sorted by a 64-bit fingerprint of them, is exponentiated
once in one expm_stack call (again only where a different matrix shares
its fingerprint), each slice bit-identical to expm of its matrix.
run_suite gathers all nine checks of a pair (27 of affine2's 40 matrices
are distinct, 9 of heisenberg3's); a check called on a pair gathers its own, and a sweep
block gathers its check's, keeping nothing from the block before.

Errors stay with their check and its order.  A subject records each
failure by item and point: a value that raises (PoleError,
OverflowError), and a matrix whose exponential comes back NaN, which
expm_stack gives exactly where expm raises (a non-finite entry or a
1-norm past 700), and which stays NaN in the table.  A matrix built from
a failed value takes its fill and is exponentiated as any other, so each
check reads the values its matrices are built from, no later than their
exponentials.  A point fails at the first failed item its check reads, or
at a residual that is not finite (one of its matrices is not), and keeps
that failure while the arithmetic runs on.  A sweep writes the point as
failed, and the others go on; a public check raises its one point's
failure (for an exponential, what expm raises on its matrix; for a
residual, rel_residual's ValueError).  The only choice made on a
subject's size is its residual kernel: one point takes the scalar one.
"""

from __future__ import annotations

import enum
import functools
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from .coeffs import f_bch, g_center, g_left, g_right, gamma_swap, integrand
from .matrices import (
    MAX_DIM,
    _commutator,
    _conjugate_series,
    _frobenius,
    _per_slice,
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

# Each public check and run_suite runs in one scope with numpy's overflow
# and invalid-value warnings off, so its result is the same under every
# warnings filter: a sum of squares past double range is rescaled (see
# matrices), and a non-finite matrix fails where it is read.
_quiet = np.errstate(over="ignore", invalid="ignore")


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
    """The points a check reads: a block of a sweep's points, or one pair
    as a block of one point.

    X, Y and W are (N, n, n) stacks, and u, v and each value (N, 1, 1)
    arrays.  values (by name), cvs (a coefficient's CoeffValue at the
    last point computed: a one-point subject's own) and exps (read-only,
    by key) are computed once.  failed: item -> {point: the exception, or
    the matrix whose exponential came back NaN}; errors: point -> the
    first failure the check read there (a NaN exponential stays NaN in
    exps, and fails its point at the first read).  arrays: coefficient
    function -> its array form (u, v) -> (values, done) over the points,
    which the subject uses for that function where a check reads it (the
    sweep's g_right and g_left); the scalar function serves each point
    not done.
    It holds no reference to a pair.
    """

    def __init__(self, X, Y, W, u, v, arrays: Mapping | None = None) -> None:
        self.X, self.Y, self.W, self.size = X, Y, W, len(X)
        self.u, self.v = (np.asarray(a, dtype=complex)[:, None, None] for a in (u, v))
        self.arrays = arrays or {}
        self.values, self.cvs, self.exps, self.failed, self.errors = {}, {}, {}, {}, {}

    def _fail(self, failures: dict) -> None:
        # What the check read failed at these points: each keeps its first.
        for i, failure in failures.items():
            self.errors.setdefault(i, failure)

    def numbers(self, *arrays) -> list:
        """Each one-point array as a Python number, unless the one point
        failed: then its first failure is raised (for a NaN exponential,
        what expm raises on its matrix)."""
        if self.errors:
            if isinstance(self.errors[0], np.ndarray):
                expm(self.errors[0])
            raise self.errors[0]
        return [a.item() for a in arrays]

    def _each(self, name, compute: Callable, fill: Any, points) -> list:
        # compute(u, v) at each (i, u, v) of points, fill where it raises.
        results = []
        for i, u, v in points:
            try:
                results.append(compute(u, v))
            except Exception as exc:  # noqa: BLE001 - recorded for the point
                self.failed.setdefault(name, {})[i] = exc
                results.append(fill)
        return results

    def value(self, name, compute: Callable[[complex, complex], Any], fill: Any = 0j, array=None) -> Any:
        """compute(u, v) at each point, fill where it raises: (N, 1, 1), or
        (m, N, 1, 1) for m-long results.  An array form, if given, computes
        the values of the points it can at once (values, done: see sweep),
        and compute serves the others."""
        if name not in self.values:
            u, v = self.u.ravel(), self.v.ravel()
            if array is None:
                points = zip(range(self.size), u.tolist(), v.tolist())
                results = np.array(self._each(name, compute, fill, points), dtype=complex)
                self.values[name] = results.T[..., None, None]
            else:
                values, done = array(u, v)
                rest = np.flatnonzero(~done)
                values[rest] = self._each(name, compute, fill, zip(rest.tolist(), u[rest].tolist(), v[rest].tolist()))
                self.values[name] = values[:, None, None]
        self._fail(self.failed.get(name, {}))
        return self.values[name]

    def coefficient(self, fn: Callable):
        def compute(u, v):
            cv = self.cvs[fn] = fn(u, v)
            return cv.value

        return self.value(fn, compute, array=self.arrays.get(fn))

    def exp(self, key) -> np.ndarray:
        self._fail(self.failed.get(key, {}))
        return self.exps[key]

    def x_times_y(self) -> np.ndarray:
        return self.exp("x") @ self.exp("y")

    def residual(self, A: np.ndarray, B: np.ndarray):
        """Relative residual of A against B, or against each matrix along
        B's extra leading axis in one call, with a (1, 1) axis pair added.
        It records rel_residual's ValueError at each point where a pair has
        a non-finite entry (its residual is not finite), with no per-point
        scan where every residual is finite.  One point's pair takes the
        scalar kernel, which a one-point stack would only slow down."""
        if self.size == 1 and B.ndim == 3:
            residuals = np.array([_rel_residual(A[0], B[0])])
        else:
            residuals = _rel_residuals(A, B)
        finite = np.isfinite(residuals)
        if not finite.all():
            bad = np.flatnonzero(~finite.reshape(-1, self.size).all(axis=0)).tolist()
            self._fail({i: ValueError("matrix entries must be finite") for i in bad})
        return residuals[..., None, None]

    def gather(self, requests) -> None:
        """Exponentiate each distinct matrix that the requests ((fn, args)
        or None) name, once: keyed by raw bytes (-0.0 and +0.0 stay apart)
        and grouped in one _unique_rows call, in one expm_stack call.  A
        matrix whose fingerprint a different one shares may be stacked
        twice, each copy with its own bits.  A
        value a request reads fails nothing here (errors are cleared once
        the requests are built): it fails where a check reads it, and a
        matrix built from its fill is exponentiated as any other.  A
        matrix whose exponential comes back NaN (where expm raises on it)
        fails, and its exponential stays NaN: its point fails at the first
        read, before any arithmetic.  It holds one stack of the requested
        matrices: the request's own matrices go once that stack is built,
        and the stack goes before expm_stack, so a failure keeps a copy of
        its matrix from the stack of distinct matrices."""
        named = {}
        for request in filter(None, requests):
            named.update({key: M for key, M in request[0](self, *request[1]).items() if key not in named})
        self.errors.clear()
        if not named:
            return
        keys, n = list(named), self.X.shape[-1]
        A = np.array(list(named.values())).reshape(-1, n, n)
        del named  # the request's own stacks (X + Y, g W, ...)
        first, inverse = _unique_rows(A.reshape(len(A), n * n))
        distinct = A[first]
        del A
        exps = expm_stack(distinct)
        nan = _per_slice(np.logical_or, np.isnan(exps))
        # A NaN exponential keeps a copy of its matrix, from the distinct stack.
        for p in np.flatnonzero(nan[inverse]).tolist():
            self.failed.setdefault(keys[p // self.size], {})[p % self.size] = distinct[inverse[p]].copy()
        self.exps.update(zip(keys, _read_only(exps[inverse.reshape(len(keys), self.size)])))


# The rows that _unique_rows fingerprints, and the sorted rows it
# compares, at once.
_UNIQUE_CHUNK = 1024
# One odd multiplier per 64-bit word of a row of up to MAX_DIM^2 entries,
# from the standard library's seeded generator (numpy's would add its
# random module to every process).
_FINGERPRINT = np.frombuffer(random.Random(2537).randbytes(16 * MAX_DIM**2), dtype=np.uint64) | np.uint64(1)


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) of the rows of a C-contiguous (M, k) complex array
    grouped by their raw bytes (so -0.0 and +0.0, and NaN payloads, stay
    apart): rows[first][inverse] has the bytes of rows, and first holds
    one row of each group.

    The rows are sorted by a 64-bit fingerprint: the sum over a row's
    64-bit words w of (w ^ (w >> 32)) times that word's multiplier,
    modulo 2^64 (the shift keeps two flipped sign bits, 2 * 2^63, from
    cancelling).  Each sorted row is then compared with the one before it
    by its words.  Equal rows share a fingerprint, so they sort into one
    run; the compare keeps the grouping exact, so where two different
    rows share a fingerprint and interleave, a group splits in two: one
    more exponential, never a wrong one."""
    words = rows.view(np.uint64)
    multipliers = _FINGERPRINT[:words.shape[1]]
    fingerprints = np.empty(len(words), dtype=np.uint64)
    for a in range(0, len(words), _UNIQUE_CHUNK):
        w = words[a:a + _UNIQUE_CHUNK]
        fingerprints[a:a + _UNIQUE_CHUNK] = (w ^ (w >> np.uint64(32))) @ multipliers
    order = np.argsort(fingerprints)
    del fingerprints  # not held through the compare, where a block may peak
    new = np.ones(len(order), dtype=bool)
    # Each sorted row against the one before it, _UNIQUE_CHUNK at a time:
    # the sorted copy of the words stays small.
    for a in range(1, len(order), _UNIQUE_CHUNK):
        w = words[order[a - 1:a + _UNIQUE_CHUNK], None]
        new[a:a + len(w) - 1] = _per_slice(np.logical_or, w[1:] != w[:-1])
    first = order[new]
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(new) - 1
    return first, inverse


def _subject(pair, *request) -> _Subject:
    """A subject run_suite prepared, its errors cleared for the next check,
    or the pair's own, a block of one point, with (fn, *args) gathered."""
    if isinstance(pair, _Subject):
        pair.errors.clear()
        return pair
    s = _Subject(pair.X[None], pair.Y[None], pair.W[None], [pair.u], [pair.v])
    s.gather([(request[0], request[1:])] if request else [])
    return s


def _side_coefficient(side: Side) -> Callable:
    return g_right if side is Side.RIGHT else g_center if side is Side.CENTER else g_left


def _coeff_meta(cv) -> dict:
    return {"coefficient": complex(cv.value), "method": cv.method.value, "terms_used": cv.terms_used}


def _request_disentangle(s, side: Side) -> dict:
    g = s.coefficient(_side_coefficient(side))
    return {"x": s.X, "y": s.Y, "x+y": s.X + s.Y, side: g * s.W}


def _disentangle(s, side: Side) -> tuple:
    exp = s.exp
    s.coefficient(_side_coefficient(side))
    if side is Side.RIGHT:
        rhs = s.x_times_y() @ exp(side)
    elif side is Side.CENTER:
        rhs = exp("x") @ exp(side) @ exp("y")
    else:
        rhs = exp(side) @ exp("x") @ exp("y")
    return (s.residual(exp("x+y"), rhs),)


@_quiet
def check_disentangle(pair: AlgebraPair, side: Side, tol: float = DEFAULT_TOL) -> CheckResult:
    """Residual of e^{X+Y} against the side-placed product form.

    Right: e^X e^Y e^{g_r W};  Center: e^X e^{g_c W} e^Y;
    Left: e^{g_l W} e^X e^Y.
    """
    side = Side(side)
    s = _subject(pair, _request_disentangle, side)
    (residual,) = s.numbers(*_disentangle(s, side))
    meta = {"side": side.value, **_coeff_meta(s.cvs[_side_coefficient(side)])}
    return _result(f"disentangle-{side.value.lower()}", residual, tol, meta)


def _request_swap(s) -> dict:
    return {"x": s.X, "y": s.Y, "swap": s.coefficient(gamma_swap) * s.W}


def _swap(s) -> tuple:
    s.coefficient(gamma_swap)
    return (s.residual(s.x_times_y(), s.exp("y") @ s.exp("x") @ s.exp("swap")),)


@_quiet
def check_swap(pair: AlgebraPair, tol: float = DEFAULT_TOL) -> CheckResult:
    """Residual of e^X e^Y against e^Y e^X e^{gamma W}."""
    s = _subject(pair, _request_swap)
    (residual,) = s.numbers(*_swap(s))
    return _result("swap", residual, tol, _coeff_meta(s.cvs[gamma_swap]))


def _request_bch(s) -> dict:
    return {"x": s.X, "y": s.Y, "bch": s.X + s.Y + s.coefficient(f_bch) * s.W}


def _bch(s) -> tuple:
    s.coefficient(f_bch)
    return (s.residual(s.x_times_y(), s.exp("bch")),)


@_quiet
def check_bch(pair: AlgebraPair, tol: float = DEFAULT_TOL) -> CheckResult:
    """Residual of e^X e^Y against the merged form e^{X + Y + f W}.

    Propagates PoleError where f is genuinely undefined (e^u = e^v with
    u != v).
    """
    s = _subject(pair, _request_bch)
    (residual,) = s.numbers(*_bch(s))
    return _result("bch", residual, tol, _coeff_meta(s.cvs[f_bch]))


def _ab_structure(s) -> tuple:
    """(residual, g_l, f, u - v)."""
    gl, f, d = s.coefficient(g_left), s.coefficient(f_bch), s.u - s.v
    A = gl * s.W
    return s.residual(_commutator(A, s.X + s.Y + f * s.W), d * A), gl, f, d


@_quiet
def check_ab_structure(pair: AlgebraPair, tol: float = DEFAULT_TOL) -> CheckResult:
    """Closure of the derived pair: [A, B] = (u - v) A.

    A = g_l(u,v) W and B = X + Y + f(u,v) W satisfy the same affine
    commutation structure; this checks it by direct matrix arithmetic.
    """
    s = _subject(pair)
    residual, gl, f, d = s.numbers(*_ab_structure(s))
    return _result("ab-structure", residual, tol, {"g_left": gl, "f_bch": f, "u_minus_v": d})


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


def _integral(s) -> tuple:
    """(residual, identity residual, I_32, g_r)."""
    i32 = _quadrature(s, 32)
    gr = s.coefficient(g_right)
    identity = s.residual(s.exp("x+y"), s.x_times_y() @ s.exp("integral"))
    error = abs(i32 - gr)
    # max(error, identity): error unless identity is larger.
    return np.where(identity > error, identity, error), identity, i32, gr


@_quiet
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
    s = _subject(pair, _request_integral)
    # The reads in order, the first failure kept: I_32, I_16 (read by the
    # metadata alone, so a sweep computes none), then g_r and the exponentials.
    _quadrature(s, 32)
    i16 = _quadrature(s, 16)
    residual, identity_residual, i32, gr, i16 = s.numbers(*_integral(s), i16)
    meta = {
        "integral_32": i32,
        "integral_16": i16,
        "quadrature_error_estimate": abs(i32 - i16),
        "closed_form": gr,
        "identity_residual": identity_residual,
    }
    return _result("integral", residual, tol, meta)


def _product_coefficients(s, N: int):
    return s.value(("c_sequence", N), lambda u, v: c_sequence(N, u, v), [0j] * (N - 1))


def _request_product(s, N: int) -> dict:
    products = enumerate(_product_coefficients(s, N) * s.W, start=2)
    return {"x": s.X, "y": s.Y, "x+y": s.X + s.Y, **{("C_n W", n): cw for n, cw in products}}


def _product(s, N: int) -> tuple:
    """(last partial residual, residual after each partial product, g_r)."""
    lhs = s.exp("x+y")
    rhs = s.x_times_y()
    _product_coefficients(s, N)
    partials = []
    for n in range(2, N + 1):
        rhs = rhs @ s.exp(("C_n W", n))
        partials.append(rhs)
    sequence = s.residual(lhs, np.array(partials))
    return sequence[-1], sequence, s.coefficient(g_right)


@_quiet
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
    residual, sequence, gr = _product(s, N)
    residual, gr = s.numbers(residual, gr)
    coeff_sum = 0.0 + 0.0j
    for cn in _product_coefficients(s, N).ravel().tolist():
        coeff_sum += cn
    norm_w = _frobenius(s.W)
    exponent = _frobenius(s.X) + _frobenius(s.Y) + abs(gr) * norm_w
    # A zero difference bounds the tail by 0, also past exp's range.
    tail = abs(gr - coeff_sum) * norm_w
    if tail:
        tail *= math.exp(exponent) if exponent < 700.0 else math.inf
    meta = {
        "N": N,
        "residual_sequence": sequence.ravel().tolist(),
        "coefficient_sum": coeff_sum,
        "closed_form": gr,
        "tail_bound_estimate": tail,
    }
    return _result("product", residual, tol, meta)


def _request_hadamard(s, t: complex, K: int) -> dict:
    return {("-tX", t): -t * s.X, ("tX", t): t * s.X}


def _hadamard(s, t: complex, K: int) -> tuple:
    series = _conjugate_series(s.X, s.Y, t, K)
    direct = s.exp(("-tX", t)) @ s.Y @ s.exp(("tX", t))
    return (s.residual(series, direct),)


@_quiet
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
    s = _subject(pair, _request_hadamard, t, K)
    (residual,) = s.numbers(*_hadamard(s, t, K))
    return _result("hadamard", residual, tol, {"t": t, "K": K})


@_quiet
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
    """A suite entry: its public check, by name, and that check's fixed
    arguments, given once.  slices: the matrices its request names per
    point; request: (fn, args) or None; residual(s): the first result of
    its arithmetic on a subject, the residual a sweep writes; and the
    entry called as (pair or subject, tol) -> CheckResult.  The call looks
    the public check up in this module's globals, so a wrapper put there
    (a tracer, a test's monkeypatch) sees every call.  A plain class: a
    dataclass would cost a millisecond at every import."""

    def __init__(self, slices: int, request: Callable | None, arithmetic: Callable, public: str, *args) -> None:
        self.slices, self.arithmetic, self.public, self.args = slices, arithmetic, public, args
        self.request = (request, args) if request else None

    def residual(self, s: _Subject) -> np.ndarray:
        return self.arithmetic(s, *self.args)[0]

    def __call__(self, pair, tol: float) -> CheckResult:
        return globals()[self.public](pair, *self.args, tol)


# The suite in report order: name -> (pair, tol) -> CheckResult.
CHECKS: dict[str, _Check] = {
    **{
        f"disentangle-{side.value.lower()}": _Check(4, _request_disentangle, _disentangle, "check_disentangle", side)
        for side in Side
    },
    "swap": _Check(3, _request_swap, _swap, "check_swap"),
    "bch": _Check(3, _request_bch, _bch, "check_bch"),
    "ab-structure": _Check(0, None, _ab_structure, "check_ab_structure"),
    "integral": _Check(4, _request_integral, _integral, "check_integral"),
    "product": _Check(32, _request_product, _product, "check_truncated_product", 30),
    "hadamard": _Check(2, _request_hadamard, _hadamard, "check_hadamard", 0.5 + 0j, 40),
}


@_quiet
def run_suite(pair: AlgebraPair, tol: float | None = None) -> CheckReport:
    """Run every identity check on one pair and aggregate the results.

    One subject of the pair serves all nine checks: their requests are
    gathered first, in one expm_stack call.
    tol = None selects the default 1e-10, relaxed to 1e-9 when
    ||expm(X+Y)||_F exceeds 1e6 (large-norm exponentials cannot do
    better in doubles), overflows, or cannot be taken because X + Y is not
    finite.  A check that raises is converted into a failed result
    carrying the error in its metadata, so the report is always complete.
    """
    s = _subject(pair)
    s.gather(c.request for c in CHECKS.values())
    if tol is None:
        large = _frobenius(s.exp("x+y")) > NORM_RELAX_LIMIT
        tol = RELAXED_TOL if large or s.errors else DEFAULT_TOL
    results = []
    for name, check in CHECKS.items():
        try:
            results.append(check(s, tol))
        except Exception as exc:  # noqa: BLE001 - error-as-result contract
            results.append(CheckResult(name, math.inf, tol, False, {"error": f"{type(exc).__name__}: {exc}"}))
    return CheckReport(pair.name, tuple(results), all(r.passed for r in results))
