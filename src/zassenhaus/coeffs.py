"""Stable closed-form coefficients for disentangling operator exponentials.

Every function here evaluates a scalar coefficient attached to an operator
pair obeying [X, Y] = u*X + v*Y + c*1.  In that class all nested commutators
collapse onto multiples of W = [X, Y], so each disentangling identity is
governed by a single scalar function of (u, v):

    e^{X+Y} = e^X e^Y e^{g_right(u,v) W}
    e^{X+Y} = e^{g_left(u,v) W} e^X e^Y
    e^{X+Y} = e^X e^{g_center(u,v) W} e^Y
    e^X e^Y = e^{X + Y + f_bch(u,v) W}
    e^X e^Y = e^Y e^X e^{gamma_swap(u,v) W}

The closed forms are quotients with removable singularities along u = 0,
v = 0 and u = v; near them g_right switches to a divided difference of exp
(_dd_exp), reported via CoeffValue.  phi1 and gamma_swap need no switch:
e^x - 1 is computed without cancellation (_expm1), so phi1 is accurate
everywhere, its zeros x = 2*pi*i*k included.  The kernel is the one
overflow fallback: g_center's own nodes, and f_bch and gamma_swap through
g_right.  Its Taylor sum and squarings (_dd_series, _dd_squarings) also
run element by element on float arrays, in sweep.  No coefficient returns
an inf or NaN part: it raises OverflowError instead.  g_right keeps its
last two results, keyed by the bits of (u, v), so the five coefficients
at one point evaluate g_right at most twice, closed form or kernel: for
g_r(u, v) and for g_r(v, u).
"""

from __future__ import annotations

import cmath
import contextlib
import enum
import functools
import itertools
import math
import struct
import sys
from dataclasses import dataclass

__all__ = [
    "SWITCH",
    "CoeffValue",
    "EvalMethod",
    "PoleError",
    "phi1",
    "g_right",
    "g_left",
    "g_center",
    "f_bch",
    "gamma_swap",
    "zass_coeff",
    "integrand",
]

# Branch switch distance from a singular line.  The closed forms lose about
# |x|^-2 digits to cancellation approaching each line; 0.25 keeps the
# relative error under 1e-12 on both sides of the seam.
SWITCH = 0.25

# Fixed Taylor length of _dd_exp.  With nodes in |z| <= 1/2,
# |h_j(z0, z1, z2)| <= C(j+2, 2) 2^-j, so sum_j h_j/(j+2)! drops at most
# 2^-16/(2 * 16!) ~ 3.6e-19 after 16 terms, and by Hermite-Genocchi the
# sum is at least e^-1/2 cos(1/2)/2 ~ 0.27: the relative tail is below
# 2^-59, well under the rounding error that the squarings amplify anyway.
# With no stopping rule, no zero term can end the sum early.
_DD_TERMS = 16
_DD_COEFFS = tuple(
    (1.0 / math.factorial(j + 1), 1.0 / math.factorial(j + 2))
    for j in range(1, _DD_TERMS)
)
# The same coefficients as complex numbers, for complex nodes.  CPython
# multiplies a float by a complex as complex(c, 0.0) times it, so the
# products are the same bits, without float's multiply first returning
# NotImplemented.
_DD_COEFFS_COMPLEX = tuple((complex(c1), complex(c2)) for c1, c2 in _DD_COEFFS)

_TWO_PI = 2.0 * math.pi
# f_bch is raised as a pole error anywhere within this distance of a
# genuine pole u - v = 2*pi*i*k (k != 0): inside the shell the closed form
# has already lost more than half its digits, and a loud error beats a
# quietly huge number.
_POLE_SHELL = 1e-8
# An exponential below the smallest normal double has lost digits to
# underflow, or is 0.
_TINY = sys.float_info.min
# The largest x whose e^x is a finite double.
_LOG_HUGE = math.log(sys.float_info.max)


class EvalMethod(enum.Enum):
    """Which evaluation path produced a coefficient."""

    CLOSED_FORM = "closed-form"
    DIVIDED_DIFFERENCE = "divided-difference"


@dataclass(frozen=True, slots=True)
class CoeffValue:
    """A coefficient value annotated with its evaluation path.

    terms_used == 0 exactly when method is CLOSED_FORM; for
    DIVIDED_DIFFERENCE it is the kernel's fixed Taylor length plus the
    number of squarings.
    """

    value: complex
    method: EvalMethod
    terms_used: int

    # The generated __init__ of a frozen dataclass makes one
    # object.__setattr__ call per field; the slots' own setters take about
    # 60 % of its time.  repr, ==, hash and the frozen __setattr__ stay
    # generated.
    def __init__(self, value: complex, method: EvalMethod, terms_used: int) -> None:
        _SET_VALUE(self, value)
        _SET_METHOD(self, method)
        _SET_TERMS_USED(self, terms_used)


_SET_VALUE = CoeffValue.value.__set__
_SET_METHOD = CoeffValue.method.__set__
_SET_TERMS_USED = CoeffValue.terms_used.__set__


class PoleError(ValueError):
    """A coefficient was requested at a genuine (non-removable) pole."""


def _expm1(x: complex) -> complex:
    # e^x - 1 for x = a + ib, with e^a cos b - 1 = expm1(a) cos b - 2 sin^2(b/2):
    # nothing cancels, not even next to the zeros x = 2*pi*i*k.
    a, b = x.real, x.imag
    half = math.sin(0.5 * b)
    return complex(math.expm1(a) * math.cos(b) - 2.0 * half * half, math.exp(a) * math.sin(b))


def phi1(x: complex) -> complex:
    """First phi function (e^x - 1)/x, continued through x = 0.

    One quotient of _expm1(x) by x, so no series and no switch; phi1(0) == 1.
    A real x is divided in real arithmetic: the value keeps x's imaginary
    zero, with its sign.  Raises OverflowError where e^Re(x) leaves
    double range.
    """
    x = complex(x)
    if x.imag:
        return _expm1(x) / x
    return complex(math.expm1(x.real) / x.real if x.real else 1.0, x.imag)


def _dd_exp(x0: complex, x1: complex, x2: complex) -> tuple[complex, int]:
    """(e[x0, x1, x2], Taylor terms + squarings) for exp.

    The corner of exp([[x0, 1, 0], [0, x1, 1], [0, 0, x2]]) (Opitz 1964), as
    McCurdy, Ng & Parlett (1984): shift by the mean m, scale by h = 2^-s to
    radius <= 1/2, sum a Taylor series (_dd_series), square the six-entry
    table s times (_dd_squarings) and multiply by e^m.  Where that
    overflows or is not finite, or where some e^{x_i - m} would, a second
    pass takes m as the largest real part of a node instead (Higham 2008,
    ch. 10), so no exponential in the table exceeds 1, and an e^m past
    double range is applied as e^{m/2} e^{m/2}.  Raises OverflowError if
    e[x0, x1, x2] is not finite.
    """
    # Real nodes stay in float arithmetic: faster, and exactly real results.
    exp, taylor = cmath.exp, _DD_COEFFS_COMPLEX
    if not (x0.imag or x1.imag or x2.imag):
        x0, x1, x2, exp, taylor = x0.real, x1.real, x2.real, math.exp, _DD_COEFFS
    for top in (False, True):
        mean = max(x0.real, x1.real, x2.real) if top else (x0 + x1 + x2) / 3.0
        y0, y1, y2 = x0 - mean, x1 - mean, x2 - mean
        if not top and max(y0.real, y1.real, y2.real) > _LOG_HUGE:
            # On so wide a table the mean pass's squarings can lose digits: on
            # 60 000 random points with |Re u|, |Re v| <= 2000 they reached a
            # relative error of 5.8e-14 where the top pass kept 1.3e-15.
            continue
        s = max(0, math.frexp(max(abs(y0), abs(y1), abs(y2)))[1] + 1)
        h = math.ldexp(1.0, -s)
        z0, z1, z2 = y0 * h, y1 * h, y2 * h
        try:
            t02 = _dd_squarings(*_dd_series(z0, z1, z2, h, taylor), z0, z1, z2, s, exp)
            dd2 = exp(mean) * t02
        except OverflowError:
            dd2 = math.inf
            if top:
                # Past m = 2 ln DBL_MAX, e^{m/2} overflows too and dd2 stays inf.
                with contextlib.suppress(OverflowError):
                    half = math.exp(mean / 2.0)
                    dd2 = t02 * half * half
        if cmath.isfinite(dd2):
            return dd2, _DD_TERMS + s
    raise OverflowError(f"divided difference of exp overflows at {(x0, x1, x2)}")


def _dd_series(z0, z1, z2, h, taylor):
    """The table's off-diagonal (h e[z0, z1], h e[z1, z2], h^2 e[z0, z1, z2])
    at the scaled nodes z, each e by its Taylor sum over the complete
    homogeneous polynomials h_j with the coefficients taylor.  Like
    _dd_squarings it uses only +, * and a given exp, so the same lines run
    on Python numbers and, element by element, on float arrays."""
    # p_i = z_i^j, h01 = h_j(z0, z1), h12 = h_j(z1, z2), h012 = h_j(z0, z1, z2).
    p0 = p1 = h01 = h12 = h012 = t01 = t12 = 1.0
    t02 = 0.5
    for c1, c2 in taylor:
        p0 = p0 * z0
        p1 = p1 * z1
        h01 = p0 + z1 * h01
        h12 = p1 + z2 * h12
        h012 = h01 + z2 * h012
        t01 = t01 + c1 * h01
        t12 = t12 + c1 * h12
        t02 = t02 + c2 * h012
    return t01 * h, t12 * h, t02 * (h * h)


def _dd_squarings(t01, t12, t02, z0, z1, z2, s: int, exp):
    """The corner t02 after s squarings of the table, its diagonal from exp
    (a quarter of the error: Al-Mohy & Higham 2009), three exponentials each."""
    for _ in range(s):
        t00, t11, t22 = exp(z0), exp(z1), exp(z2)
        t02 = t02 * (t00 + t22) + t01 * t12
        t01 = t01 * (t00 + t11)
        t12 = t12 * (t11 + t22)
        z0, z1, z2 = 2.0 * z0, 2.0 * z1, 2.0 * z2
    return t02


def g_right(u: complex, v: complex) -> CoeffValue:
    """Right-sided disentangling coefficient g_r(u, v).

    Generic branch: [u(e^{u-v} - e^u) + v(e^u - 1)] / (uv(u-v)).  On and
    near the singular lines the value is the analytic continuation, which
    agrees with the one-variable limits

        g_r(0, v) = -(e^{-v} - 1 + v)/v**2
        g_r(u, 0) = (e^u (1 - u) - 1)/u**2
        g_r(u, u) = (u + 1 - e^u)/u**2
        g_r(0, 0) = -1/2

    Path selection: closed form when min(|u|, |v|, |u-v|) >= SWITCH;
    otherwise the second divided difference g_r(u, v) = -e[u-v, u, 0],
    which has no singular line and no stopping rule.  The divided
    difference also serves where the closed form raises or is not finite
    (e^u, e^{u-v} or a product with one of them past double range), so
    OverflowError is raised only where g_r itself leaves double range, and
    where u - v does.
    """
    u = complex(u)
    v = complex(v)
    return _g_right(_PAIR.pack(u.real, u.imag, v.real, v.imag), u, v)


# The four parts of (u, v) as raw bytes: -0.0 and +0.0 stay apart.
_PAIR = struct.Struct("4d")


# Two entries hold one point: g_r(u, v) and g_r(v, u), which g_left,
# g_center, f_bch and gamma_swap ask for at the same (u, v).  The bits
# decide a hit: equal bits mean equal u and v, and unequal bits never
# compare equal.  An OverflowError is not kept.
@functools.lru_cache(maxsize=2)
def _g_right(bits: bytes, u: complex, v: complex) -> CoeffValue:
    """g_right at (u, v), whose parts bits packs."""
    d = u - v
    if not cmath.isfinite(d):
        raise OverflowError(f"g_right overflows at {(u, v)}: u - v is past double range")
    if min(abs(u), abs(v), abs(d)) >= SWITCH:
        try:
            eu = cmath.exp(u)
            value = (u * (cmath.exp(d) - eu) + v * (eu - 1.0)) / (u * v * d)
            if cmath.isfinite(value):
                return CoeffValue(value, EvalMethod.CLOSED_FORM, 0)
        except OverflowError:
            pass
    dd2, terms = _dd_exp(d, u, 0.0)
    return CoeffValue(complex(-dd2), EvalMethod.DIVIDED_DIFFERENCE, terms)


def g_left(u: complex, v: complex) -> CoeffValue:
    """Left-sided disentangling coefficient; exactly g_right(v, u)."""
    return g_right(v, u)


def g_center(u: complex, v: complex) -> CoeffValue:
    """Centered disentangling coefficient e^{-v} * g_left(u, v).

    Where that product leaves double range, or e^{-v} is subnormal and has
    lost digits, -e[-u, 0, -v]: the nodes of g_left = -e[v-u, v, 0] shifted
    by -v, so OverflowError is raised only where g_center itself leaves it.
    """
    try:
        left = g_left(u, v)
        tilt = cmath.exp(-complex(v))
        value = tilt * left.value
        if abs(tilt) >= _TINY and cmath.isfinite(value):
            return CoeffValue(value, left.method, left.terms_used)
    except OverflowError:
        pass
    dd2, terms = _dd_exp(-complex(u), 0.0, -complex(v))
    return CoeffValue(complex(-dd2), EvalMethod.DIVIDED_DIFFERENCE, terms)


def f_bch(u: complex, v: complex) -> CoeffValue:
    """Product-merge coefficient f(u, v): e^X e^Y = e^{X + Y + f W}.

    Off the diagonal (|u - v| >= SWITCH) it is the closed form
    [u e^u(e^v - 1) - v e^v(e^u - 1)] / [uv(e^u - e^v)], computed as
    (e^u phi1(v) - e^v phi1(u)) / (e^v (e^{u-v} - 1)) so that u = 0 and
    v = 0 need no branch of their own, wherever e^u and e^v are normal
    doubles and the quotient is finite.  Everywhere else it is
    f(u, v) = -g_r(u, v) / phi1(u - v), since [X + Y, W] = (v - u) W gives
    e^{X+Y+fW} = e^{X+Y} e^{f phi1(u-v) W}: f is symmetric, so u and v are
    ordered to make Re(u - v) <= 0, where phi1 cannot overflow, and the
    value reports g_right's method and term count.  The points off the
    diagonal with e^u = e^v are genuine poles and raise PoleError.
    """
    u = complex(u)
    v = complex(v)
    d = u - v
    if SWITCH <= abs(d) < math.inf:
        k = round(d.imag / _TWO_PI)
        h = complex(d.real, d.imag - _TWO_PI * k) if k else d
        if k and abs(h) < _POLE_SHELL:
            raise PoleError(
                "f_bch pole: exp(u) == exp(v) with u != v "
                f"(u - v within {_POLE_SHELL:g} of 2*pi*i*{k})"
            )
        try:
            eu = cmath.exp(u)
            ev = cmath.exp(v)
            if abs(eu) >= _TINY and abs(ev) >= _TINY:
                # e^u - e^v = e^v (e^h - 1) since h differs from u - v by
                # 2*pi*i*k, so the denominator stays accurate even just
                # outside the pole shell.
                value = (eu * phi1(v) - ev * phi1(u)) / (ev * _expm1(h))
                if cmath.isfinite(value):
                    return CoeffValue(value, EvalMethod.CLOSED_FORM, 0)
        except OverflowError:
            pass
    a, b = (u, v) if v.real <= u.real else (v, u)
    try:
        g = g_right(b, a)
    except OverflowError:
        raise OverflowError(f"f_bch overflows at {(u, v)}") from None
    # 0j - z: a real argument keeps a +0.0 imaginary part.
    return CoeffValue(_finite(0j - g.value / phi1(b - a), "f_bch", u, v), g.method, g.terms_used)


def gamma_swap(u: complex, v: complex) -> CoeffValue:
    """Swap coefficient gamma(u, v): e^X e^Y = e^Y e^X e^{gamma W}.

    Equal to -(g_r(-v,-u) + g_r(u,v)); evaluated in the factored form
    phi1(u) * phi1(-v), which is the same function (confirmed symbolically
    and on numeric grids) and is stable wherever it is finite.  Where a
    factor or the product leaves double range, the sum of the two g_right
    values instead, reported as a divided difference with both term counts.
    """
    u = complex(u)
    v = complex(v)
    try:
        value = phi1(u) * phi1(-v)
        if cmath.isfinite(value):
            return CoeffValue(value, EvalMethod.CLOSED_FORM, 0)
    except OverflowError:
        pass
    try:
        left, right = g_right(-v, -u), g_right(u, v)
    except OverflowError:
        raise OverflowError(f"gamma_swap overflows at {(u, v)}") from None
    value = _finite(0j - left.value - right.value, "gamma_swap", u, v)
    return CoeffValue(value, EvalMethod.DIVIDED_DIFFERENCE, left.terms_used + right.terms_used)


def _finite(value: complex, name: str, u: complex, v: complex) -> complex:
    if not cmath.isfinite(value):
        raise OverflowError(f"{name} overflows at {(u, v)}")
    return value


def _power_sums(u: complex, v: complex):
    """Yield (p_n, (n-1)!, n!) for n = 2, 3, ...

    p_n = sum_{j=0}^{n-2} (u-v)^j u^(n-2-j) by Horner's rule, and the
    factorials as one running product.
    """
    u = complex(u)
    v = complex(v)
    a = u - v
    p = 1.0 + 0.0j
    u_pow = 1.0 + 0.0j
    fact_prev, fact = 1.0, 2.0
    n = 2
    while True:
        yield p, fact_prev, fact
        u_pow *= u
        p = a * p + u_pow
        n += 1
        fact_prev, fact = fact, fact * n


def zass_coeff(n: int, u: complex, v: complex) -> complex:
    """n-th product-expansion coefficient C_n (n >= 2).

    C_{n+1} = [(u-v)^n - u^n]/(v (n+1)!) rewritten with the factorization
    a^n - b^n = (a - b) sum_j a^j b^(n-1-j), a = u-v, b = u, a - b = -v:

        C_n = -[sum_{j=0}^{n-2} (u-v)^j u^(n-2-j)] / n!

    which needs no v branch.  C_2 = -1/2 for every (u, v).  Raises
    OverflowError where the sum leaves double range.
    """
    if n < 2:
        raise ValueError(f"coefficient index must be >= 2, got {n}")
    p, _, fact = next(itertools.islice(_power_sums(u, v), n - 2, None))
    return _finite(-p / fact, f"C_{n}", u, v)


def integrand(s: complex, u: complex, v: complex) -> complex:
    """Interaction-picture integrand h(s) = (e^{s(u-v)} - e^{su})/v.

    Integrating h over s in [0, 1] reproduces g_right(u, v).  Evaluated in
    the equivalent form -s e^{su} phi1(-sv), which is stable for every
    (s, u, v) including v = 0 (limit -s e^{su}).
    """
    s = complex(s)
    u = complex(u)
    v = complex(v)
    return -s * cmath.exp(s * u) * phi1(-s * v)
