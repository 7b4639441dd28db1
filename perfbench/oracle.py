"""50-digit-plus mpmath reference for the five disentangling coefficients.

Used only after the timed loop.  Every input double converts to mpmath
exactly, and the working precision (60 digits) leaves at least 30 correct
digits after the worst cancellation the coeff-plane points produce (a
distance of 1e-12 from a singular line).  Removable singularities met
exactly (u = 0, v = 0, u = v) use the analytic limits instead of the
quotients.  gamma_swap is taken from its definition
-(g_r(-v, -u) + g_r(u, v)), not from the factored form the package uses.
"""

from __future__ import annotations

import mpmath

from workloads import POLE_SHELL

DPS = 60


def _mpc(z: complex):
    return mpmath.mpc(z.real, z.imag)


def _phi1(x):
    return mpmath.mpf(1) if x == 0 else mpmath.expm1(x) / x


def _phi1_prime(x):
    if x == 0:
        return mpmath.mpf(1) / 2
    return (x * mpmath.exp(x) - mpmath.exp(x) + 1) / x**2


def _g_right(u, v):
    if v == 0:
        if u == 0:
            return -mpmath.mpf(1) / 2
        return (mpmath.exp(u) * (1 - u) - 1) / u**2
    return (_phi1(u - v) - _phi1(u)) / v


def _f_bch(u, v):
    if u == v:
        return _phi1(v) - _phi1_prime(v)
    eu = mpmath.exp(u)
    ev = mpmath.exp(v)
    return (eu * _phi1(v) - ev * _phi1(u)) / (eu - ev)


def pole_offset(u: complex, v: complex) -> tuple[int, float]:
    """(k, |h|) for the pole 2*pi*i*k nearest to u - v, with h the exact offset."""
    with mpmath.workdps(DPS):
        d = _mpc(u) - _mpc(v)
        k = int(mpmath.nint(d.imag / (2 * mpmath.pi)))
        h = d - 2j * mpmath.pi * k
        return k, float(abs(h))


def reference(u: complex, v: complex) -> dict[str, complex | None]:
    """Reference values at (u, v); f_bch is None where a PoleError is due."""
    with mpmath.workdps(DPS):
        mu, mv = _mpc(u), _mpc(v)
        gr = _g_right(mu, mv)
        gl = _g_right(mv, mu)
        k, h = pole_offset(u, v)
        f = None if (k != 0 and h < POLE_SHELL) else complex(_f_bch(mu, mv))
        return {
            "g_right": complex(gr),
            "g_center": complex(mpmath.exp(-mv) * gl),
            "g_left": complex(gl),
            "f_bch": f,
            "gamma_swap": complex(-(_g_right(-mv, -mu) + gr)),
        }
