"""Product-expansion coefficients C_n of

    e^{X+Y} = e^X e^Y e^{C_2 W} e^{C_3 W} ...

Scaling X and Y by t scales W by t^2, and the multiples of W commute, so
t^2 g_r(tu, tv) = sum_n C_n t^n: each C_n is a Taylor coefficient of the
closed form.  c_contour reads it off g_right alone with the trapezoid rule
on a circle (Lyness & Moler 1967; Bornemann, Found. Comput. Math. 11,
2011), a route that shares no arithmetic with the power sum of
coeffs.zass_coeff.  c_sequence gives C_2 .. C_N from that power sum in one
pass, for the truncated-product check.
"""

from __future__ import annotations

import cmath
import math

from .coeffs import _finite, _power_sums, g_right

__all__ = ["c_contour", "c_sequence"]

# Trapezoid nodes on the circle.  The rule returns C_n + C_{n+M} r^M + ...;
# at the radius below that alias is about n^M n!/(n+M)! of the scale of
# C_n, under 1e-19 for n <= 30.
_NODES = 64
_ROOTS = tuple(cmath.exp(2j * math.pi * k / _NODES) for k in range(_NODES))


def c_sequence(N: int, u: complex, v: complex) -> list[complex]:
    """Product coefficients [C_2, ..., C_N] from one pass of the power sum.

    C_n = (-p_n/(n-1)!) * (n-1)!/n!: the rounding that the product check's
    golden outputs pin (coeffs.zass_coeff divides by n! once).  Raises
    OverflowError where a C_n is not finite.
    """
    if N < 2:
        raise ValueError(f"coefficient index must be >= 2, got {N}")
    sums = zip(range(2, N + 1), _power_sums(u, v))
    return [_finite(-p / f1 * f1 / f2, f"C_{n}", u, v) for n, (p, f1, f2) in sums]


def c_contour(n: int, u: complex, v: complex) -> complex:
    """C_n as the t^n coefficient of t^2 g_r(tu, tv), from g_right alone.

    The 64-node trapezoid rule on the circle |t| = r, r = n / max(|u|,
    |u - v|, 1), where the terms of the Taylor series peak at index n, so
    rounding stays near the scale of C_n.  Raises OverflowError where
    g_right or r^{2-n} leaves double range.
    """
    if n < 2:
        raise ValueError(f"coefficient index must be >= 2, got {n}")
    u = complex(u)
    v = complex(v)
    r = n / max(abs(u), abs(u - v), 1.0)
    total = 0j
    for k, w in enumerate(_ROOTS):
        t = r * w
        total += g_right(t * u, t * v).value * _ROOTS[-k * (n - 2) % _NODES]
    return total * r ** (2 - n) / _NODES
