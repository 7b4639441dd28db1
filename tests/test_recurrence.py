"""Product coefficients C_n: the power sum's bits and the contour route."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zassenhaus import coeffs, recurrence
from zassenhaus.coeffs import g_right, zass_coeff
from zassenhaus.recurrence import c_contour, c_sequence

GRID5 = (-2.0, -1.0, 0.0, 1.0, 2.0)
DPS = 50
# c_contour against 50 digits, relative to max(|C_n|, rho^(n-2)/n!): the
# scale of the Taylor terms around index n, below which rounding in the
# samples of g_right cannot resolve C_n.
CONTOUR_TOL = 1e-13


def _bits(values):
    return [(complex(z).real.hex(), complex(z).imag.hex()) for z in values]


# ------------------------------------------------- c_sequence and zass_coeff


def _beta1_series(u, v, order):
    """The t^k coefficients -[sum_{j<k} (u-v)^j u^(k-1-j)]/k!, k <= order.

    The arithmetic the product check's C_n had when they were read off
    this series one removal step at a time.
    """
    u = complex(u)
    v = complex(v)
    a = u - v
    beta = [0.0 + 0.0j] * (order + 1)
    p = 1.0 + 0.0j
    u_pow = 1.0 + 0.0j
    fact = 1.0
    beta[1] = -1.0 + 0.0j
    for k in range(2, order + 1):
        u_pow *= u
        p = a * p + u_pow
        fact *= k
        beta[k] = -p / fact
    return beta


def _factorial(n):
    total = 1.0
    for m in range(2, n + 1):
        total *= m
    return total


def _stepped_coefficient(n, u, v):
    """C_n = (t^(n-1) coefficient of beta_1) * (n-1)!/n!, by its own run."""
    return _beta1_series(u, v, n - 1)[n - 1] * _factorial(n - 1) / _factorial(n)


def _horner_coefficient(n, u, v):
    """C_n = -p_n/n!, with n! as the running product 2 * 3 * ... * n."""
    u = complex(u)
    v = complex(v)
    a = u - v
    p = 1.0 + 0.0j
    u_pow = 1.0 + 0.0j
    fact = 2.0
    for m in range(2, n):
        u_pow *= u
        p = a * p + u_pow
        fact *= m + 1
    return -p / fact


SEQUENCE_POINTS = [
    (0.0, 0.0),
    (0.0, 1.5),
    (-1.5, 0.0),
    (1.2, 1.2),
    (-2.0, 0.5),
    (6.0, -3.0),
    (-6.0, 6.0),
    (0.3 + 0.4j, -1.1 + 0.2j),
    (5j, 2.0 - 1.0j),
    (-4.0 + 4.5j, -4.0 + 4.5j),
]


@pytest.mark.parametrize("u, v", SEQUENCE_POINTS)
@pytest.mark.parametrize("N", [2, 3, 12, 30])
def test_c_sequence_matches_per_coefficient_runs_bitwise(u, v, N):
    sequence = c_sequence(N, u, v)
    assert len(sequence) == N - 1
    assert _bits(sequence) == _bits(
        [_stepped_coefficient(n, u, v) for n in range(2, N + 1)]
    )


@pytest.mark.parametrize("u, v", SEQUENCE_POINTS)
def test_zass_coeff_keeps_its_bits(u, v):
    assert _bits([zass_coeff(n, u, v) for n in (2, 3, 12, 30, 40)]) == _bits(
        [_horner_coefficient(n, u, v) for n in (2, 3, 12, 30, 40)]
    )


@pytest.mark.parametrize("u", GRID5)
@pytest.mark.parametrize("v", GRID5)
def test_c2_is_minus_half_everywhere(u, v):
    assert c_sequence(2, u, v) == [-0.5 + 0.0j]
    assert zass_coeff(2, u, v) == -0.5 + 0.0j
    assert abs(c_contour(2, u, v) + 0.5) <= 1e-15


@pytest.mark.parametrize("point", [(1.0, -1.0), (2.0, 1.0), (2.0, 2.0), (-2.0, 0.5)])
def test_partial_sum_error_decreases_monotonically(point):
    u, v = point
    target = g_right(u, v).value
    partial = np.cumsum(c_sequence(30, u, v))
    errors = [abs(partial[N - 2] - target) for N in range(15, 31)]
    for earlier, later in zip(errors, errors[1:]):
        # monotone decrease down to the roundoff floor
        assert later <= max(earlier, 5e-15), errors


def test_c_sequence_rejects_low_cutoff():
    with pytest.raises(ValueError):
        c_sequence(1, 1.0, 1.0)


def test_power_sum_past_double_range_raises():
    # u^2 = 1e600: the Horner sum is inf, and a complex product with inf
    # made C_4 -inf+nanj and C_5 nan+nanj.
    assert zass_coeff(3, 1e300, -1.0) == pytest.approx(-1e300 / 3.0)
    for n in (4, 5):
        with pytest.raises(OverflowError, match=f"C_{n} overflows"):
            zass_coeff(n, 1e300, -1.0)
    with pytest.raises(OverflowError, match="C_4 overflows"):
        c_sequence(5, 1e300, -1.0)


# ------------------------------------------------------------- c_contour


def _reference(n, u, v):
    """C_n from the power sum in DPS digits."""
    with mpmath.workdps(DPS):
        mu = mpmath.mpc(u.real, u.imag)
        a = mu - mpmath.mpc(v.real, v.imag)
        total = mpmath.fsum(a**j * mu ** (n - 2 - j) for j in range(n - 1))
        return complex(-total / mpmath.factorial(n))


def _scale(n, u, v, value):
    rho = max(abs(u), abs(u - v), 1.0)
    return max(abs(value), rho ** (n - 2) / math.factorial(n))


_PART = st.floats(-3.0, 3.0)
_COMPLEX = st.builds(complex, _PART, _PART)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_COMPLEX, _COMPLEX, st.integers(2, 30))
def test_contour_against_the_50_digit_power_sum(u, v, n):
    want = _reference(n, u, v)
    err = abs(c_contour(n, u, v) - want)
    assert err <= CONTOUR_TOL * _scale(n, u, v, want), (n, u, v, want, err)


@pytest.mark.parametrize("u", GRID5)
@pytest.mark.parametrize("v", GRID5)
def test_contour_matches_closed_form_coefficients(u, v):
    for n in range(2, 13):
        closed = zass_coeff(n, u, v)
        assert abs(closed - c_contour(n, u, v)) <= 1e-12 * (1.0 + abs(closed)), n


def test_contour_vanishes_past_c2_at_the_origin():
    for n in range(3, 31):
        assert abs(c_contour(n, 0.0, 0.0)) <= 1e-15, n


def test_contour_reads_no_power_sum(monkeypatch):
    want = c_contour(7, 1.3, -0.4)

    def refuse(u, v):
        raise AssertionError("c_contour read the power sum")

    monkeypatch.setattr(coeffs, "_power_sums", refuse)
    monkeypatch.setattr(recurrence, "_power_sums", refuse)
    assert c_contour(7, 1.3, -0.4) == want


def test_contour_raises_where_g_right_leaves_double_range():
    # At n = 800 the circle reaches t (u - v) = 800, where g_r ~ e^800.
    with pytest.raises(OverflowError):
        c_contour(800, 1.0, -1.0)


def test_contour_rejects_low_index():
    with pytest.raises(ValueError):
        c_contour(1, 1.0, 1.0)
