"""Coefficient evaluators: frozen oracle values, branch dispatch, seams."""

import cmath
import math
import struct

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zassenhaus import coeffs
from zassenhaus.coeffs import (
    SWITCH,
    EvalMethod,
    PoleError,
    f_bch,
    g_center,
    g_left,
    g_right,
    gamma_swap,
    integrand,
    phi1,
    zass_coeff,
)

GRID5 = (-2.0, -1.0, 0.0, 1.0, 2.0)

E = math.e


def _g_right_closed(u: complex, v: complex) -> complex:
    # The paper's quotient, unguarded: still valid just inside a seam.
    eu = cmath.exp(u)
    return (u * (cmath.exp(u - v) - eu) + v * (eu - 1.0)) / (u * v * (u - v))


def rel_err(got, want):
    return abs(got - want) / max(1.0, abs(want))


# ---------------------------------------------------------------- phi1


def test_phi1_at_zero_is_one_exactly():
    assert phi1(0.0) == 1.0 + 0.0j


def test_phi1_closed_branch():
    assert rel_err(phi1(1.0), E - 1.0) < 1e-15
    assert rel_err(phi1(-3.0), (math.exp(-3.0) - 1.0) / (-3.0)) < 1e-15


def test_phi1_tiny_argument_against_extended_precision_oracle():
    # 50-digit Taylor oracle: phi1(1e-8) = 1.000000005000000016666667...
    assert rel_err(phi1(1e-8), 1.000000005000000016666667) < 1e-15


def test_phi1_against_extended_precision_where_the_series_switched():
    # phi1 has no seam left at |x| = 0.25; it matches the 50-digit value.
    for x in (0.24, 0.2499, 0.2501, 0.26, -0.24, -0.26, 0.25j, -0.2j + 0.1):
        with mpmath.workdps(50):
            mx = mpmath.mpc(complex(x).real, complex(x).imag)
            want = complex(mpmath.expm1(mx) / mx)
        assert abs(phi1(x) - want) <= 1e-15 * abs(want), x


# ------------------------------------------------------------- g_right


def test_g_right_frozen_values():
    # extended-precision oracle: g_r(1,1) = 2 - e
    assert rel_err(g_right(1, 1).value, 2.0 - E) < 1e-14
    # one-variable limits evaluated as independent expressions
    assert rel_err(g_right(-2, 0).value, (3.0 * math.exp(-2.0) - 1.0) / 4.0) < 1e-14
    assert rel_err(g_right(2, 0).value, -(E**2 + 1.0) / 4.0) < 1e-14
    assert rel_err(g_right(0, 3).value, -(math.exp(-3.0) - 1.0 + 3.0) / 9.0) < 1e-14
    assert rel_err(g_right(2, 2).value, (3.0 - E**2) / 4.0) < 1e-14


def test_g_right_origin_exact_limit():
    cv = g_right(0, 0)
    assert cv.value == -0.5 + 0.0j
    assert cv.method is EvalMethod.DIVIDED_DIFFERENCE


def test_g_right_near_origin():
    assert abs(g_right(1e-9, 2e-9).value - (-0.5)) < 1e-9


def test_g_right_dispatch_and_term_count_invariant():
    cases = [
        ((1.0, 2.0), EvalMethod.CLOSED_FORM),
        ((1.0 + 1.0j, -2.0), EvalMethod.CLOSED_FORM),
        ((0.1, 1.0), EvalMethod.DIVIDED_DIFFERENCE),
        ((1.0, 1.1), EvalMethod.DIVIDED_DIFFERENCE),  # u - v small
        ((1.0, 0.1), EvalMethod.DIVIDED_DIFFERENCE),  # v small
        ((0.0, 0.0), EvalMethod.DIVIDED_DIFFERENCE),
    ]
    for (u, v), method in cases:
        cv = g_right(u, v)
        assert cv.method is method, (u, v, cv.method)
        assert (cv.terms_used == 0) == (cv.method is EvalMethod.CLOSED_FORM)


def test_g_right_divided_difference_identity():
    # g_r(u, v) * v = phi1(u - v) - phi1(u) whenever v != 0
    rng = np.random.default_rng(42)
    for _ in range(500):
        u = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        v = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(v) < 1e-2:
            continue
        lhs = g_right(u, v).value * v
        rhs = phi1(u - v) - phi1(u)
        assert abs(lhs - rhs) <= 1e-13


@pytest.mark.parametrize("t", [1.0, -1.5, 2.0, 0.7])
def test_g_right_seam_agreement_all_three_lines(t):
    # Just inside the switch distance the dispatcher leaves the closed
    # form; the closed form is still valid there, so the two evaluation
    # paths must agree at the same point.
    inside = 0.996 * SWITCH
    seam_points = [
        (t + inside, t),  # near u = v
        (t, inside),  # near v = 0
        (t, -inside),
        (inside, t),  # near u = 0
        (-inside, t),
    ]
    for u, v in seam_points:
        cv = g_right(u, v)
        assert cv.method is not EvalMethod.CLOSED_FORM, (u, v)
        closed_val = _g_right_closed(complex(u), complex(v))
        assert rel_err(cv.value, closed_val) < 1e-9, (u, v)


def test_g_right_sum_rule_against_product_coefficients():
    # g_r = sum_{n>=2} C_n; with |u|,|v| <= 2 the series converges well
    # inside 40 terms.
    for u in GRID5:
        for v in GRID5:
            total = sum(zass_coeff(n, u, v) for n in range(2, 41))
            assert abs(total - g_right(u, v).value) <= 1e-10, (u, v)


def test_g_right_finite_on_the_large_domain():
    for u in (-50.0, -20.0, 0.0, 20.0, 50.0):
        for v in (-50.0, -20.0, 0.0, 20.0, 50.0):
            value = g_right(u, v).value
            assert cmath.isfinite(value), (u, v, value)


def test_g_right_kernel_gives_exactly_real_values_for_real_arguments():
    for u, v in ((0.0, 0.0), (0.1, 0.2), (-2.0, 0.0), (0.0, -2.0), (3.0, 2.9), (-40.0, 0.1)):
        cv = g_right(u, v)
        assert cv.method is EvalMethod.DIVIDED_DIFFERENCE
        assert cv.value.imag == 0.0 and math.copysign(1.0, cv.value.imag) == 1.0, (u, v)


@pytest.mark.parametrize("u, v", [(1100.0, 0.1), (1100.0 + 1j, 0.1j)])
def test_g_right_kernel_overflow_is_loud(u, v):
    # g_r is about e^u / u^2, past double range: an OverflowError, not an
    # inf or nan value.  (At u = -1100 it is finite; see the oracle tests.)
    with pytest.raises(OverflowError, match="divided difference of exp overflows"):
        g_right(u, v)


# ------------------------------------------------------ the one-point memo


def _bits(cv) -> tuple:
    return struct.pack("2d", cv.value.real, cv.value.imag), cv.method, cv.terms_used


def _cleared(u, v) -> tuple:
    coeffs._g_right_dd.cache_clear()
    return _bits(g_right(u, v))


@pytest.fixture
def kernel_runs(monkeypatch):
    """The arguments of each _dd_exp call, starting from an empty memo."""
    runs = []
    kernel = coeffs._dd_exp

    def counted(*args):
        runs.append(args)
        return kernel(*args)

    monkeypatch.setattr(coeffs, "_dd_exp", counted)
    coeffs._g_right_dd.cache_clear()
    yield runs
    coeffs._g_right_dd.cache_clear()


@pytest.mark.parametrize("v", [0.2 + 0.1j, complex(0.2, -0.0), complex(-0.0, 0.2)])
def test_g_right_memo_keeps_signed_zeros_apart(v):
    points = [(complex(0.0, 0.0), v), (complex(-0.0, 0.0), v), (complex(0.0, -0.0), v)]
    want = [_cleared(u, v) for u, v in points]
    coeffs._g_right_dd.cache_clear()
    for (u, v), bits in zip(points, want):
        misses = coeffs._g_right_dd.cache_info().misses
        assert _bits(g_right(u, v)) == bits
        # u differs from the previous point only in the signs of zeros.
        assert coeffs._g_right_dd.cache_info().misses == misses + 1


@pytest.mark.parametrize("u, v", [(0.1 + 0.2j, 0.1j), (0.1j, 0.1 + 0.2j), (0.1 + 0.2j, 1j)])
def test_five_coefficients_at_a_point_run_the_kernel_twice(kernel_runs, u, v):
    for fn in (g_right, g_center, g_left, f_bch, gamma_swap):
        fn(u, v)
    assert kernel_runs == [(u - v, u, 0.0), (v - u, v, 0.0)]


def test_g_right_memo_holds_one_point(kernel_runs):
    first, second = (0.1, 0.05j), (-0.1j, 0.05)
    for u, v in (first, first[::-1], second, second[::-1]):
        g_right(u, v)
    assert coeffs._g_right_dd.cache_info().currsize == 2
    assert len(kernel_runs) == 4
    g_right(*first)
    assert len(kernel_runs) == 5


def test_g_right_memo_keeps_no_overflow(kernel_runs):
    for _ in range(2):
        with pytest.raises(OverflowError, match="divided difference of exp overflows"):
            g_right(1100.0 + 1j, 0.1j)
    # Each call runs the kernel, and the kernel its top-shift retry.
    assert len(kernel_runs) == 2 * 2
    assert coeffs._g_right_dd.cache_info().currsize == 0


# ----------------------------------------------------- g_left, g_center


def test_g_left_is_argument_swapped_g_right_bitwise():
    for u in (-2.0, 0.0, 1.0, 1.5 + 0.5j):
        for v in (-1.0, 0.0, 2.0, -0.3j):
            left = g_left(u, v)
            right = g_right(v, u)
            assert left.value == right.value
            assert left.method is right.method
            assert left.terms_used == right.terms_used


def test_g_center_is_exponentially_tilted_g_left_bitwise():
    for u in (-2.0, 0.0, 1.0, 0.5 + 1.0j):
        for v in (-1.0, 0.0, 2.0, 1.0 - 0.5j):
            assert g_center(u, v).value == cmath.exp(-complex(v)) * g_left(u, v).value


def test_g_center_frozen_value():
    # g_c(1, 0) = e^{-0} * g_l(1, 0) = g_r(0, 1) = -e^{-1}
    assert rel_err(g_center(1, 0).value, -math.exp(-1.0)) < 1e-14


def test_right_center_consistency_relation():
    # g_r(u,v) = e^u * g_c(v,u)
    for u in (-2.0, -0.5, 0.0, 1.0, 2.0, 1.0 + 1.0j):
        for v in (-2.0, 0.0, 0.5, 2.0, -1.0j):
            lhs = g_right(u, v).value
            rhs = cmath.exp(complex(u)) * g_center(v, u).value
            assert abs(lhs - rhs) <= 1e-13 * (1.0 + abs(lhs))


# ---------------------------------------------------------------- f_bch


def test_f_bch_frozen_values():
    # extended-precision oracles: f(1,0) = e/(e-1) - 1, f(1,1) = e - 2
    assert rel_err(f_bch(1, 0).value, E / (E - 1.0) - 1.0) < 1e-14
    assert rel_err(f_bch(1, 1).value, E - 2.0) < 1e-14
    assert f_bch(0, 0).value == 0.5 + 0.0j
    assert abs(f_bch(1e-20, 3e-20).value - 0.5) < 1e-12


def test_f_bch_is_symmetric():
    rng = np.random.default_rng(7)
    for _ in range(300):
        u = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
        v = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
        d = u - v
        # stay away from the genuine poles u - v = 2*pi*i*k, k != 0
        if abs(d.imag) > 5.0 and abs(abs(d.imag) - 2.0 * math.pi) < 0.5:
            continue
        assert rel_err(f_bch(u, v).value, f_bch(v, u).value) < 1e-13


def test_f_bch_diagonal_kernel_agrees_with_closed_form_at_the_seam():
    for v in (1.0, -1.7, 2.3, 0.4 + 1.0j):
        for d in (0.249, -0.249, 0.24j, 0.17 + 0.17j):
            u = v + d
            cv = f_bch(u, v)
            assert cv.method is EvalMethod.DIVIDED_DIFFERENCE
            eu, ev = cmath.exp(u), cmath.exp(v)
            closed_val = (eu * phi1(v) - ev * phi1(u)) / (eu - ev)
            assert rel_err(cv.value, closed_val) < 1e-12, (u, v)


def test_f_bch_diagonal_identity():
    # f(u, u) = (e^u - 1 - u)/u^2 = -g_r(u, u)
    for u in (0.5, 1.0, -2.0, 1.0 + 0.3j):
        expected = (cmath.exp(u) - 1.0 - u) / (u * u)
        assert rel_err(f_bch(u, u).value, expected) < 1e-13
        assert rel_err(f_bch(u, u).value, -g_right(u, u).value) < 1e-13


@pytest.mark.parametrize("k", [1, -1, 2, -3])
def test_f_bch_pole_raises(k):
    u = 1.0 + 2.0 * math.pi * k * 1.0j
    with pytest.raises(PoleError):
        f_bch(u, 1.0)
    with pytest.raises(PoleError):
        f_bch(u + 5e-9, 1.0)


def test_f_bch_finite_just_outside_the_pole_shell():
    u = 1.0 + (2.0 * math.pi + 1e-6) * 1.0j
    cv = f_bch(u, 1.0)
    assert cmath.isfinite(cv.value)
    assert cv.method is EvalMethod.CLOSED_FORM


def test_f_bch_term_count_invariant():
    rng = np.random.default_rng(11)
    for _ in range(200):
        u = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
        v = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
        cv = f_bch(u, v)
        assert (cv.terms_used == 0) == (cv.method is EvalMethod.CLOSED_FORM)


# ----------------------------------------------------------- gamma_swap


def test_gamma_swap_frozen_values():
    assert gamma_swap(0, 0).value == 1.0 + 0.0j
    assert rel_err(gamma_swap(1, 0).value, E - 1.0) < 1e-14
    assert rel_err(gamma_swap(1, 1).value, (E - 1.0) * (1.0 - 1.0 / E)) < 1e-14
    # cross-checked against two other closed expressions of the same
    # function during development
    assert rel_err(gamma_swap(1, 2).value, 0.7428688352621078) < 1e-14


def test_gamma_swap_equals_minus_sum_of_g_right_pair():
    # gamma(u,v) = -(g_r(-v,-u) + g_r(u,v)): two independent routes
    rng = np.random.default_rng(3)
    for _ in range(300):
        u = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
        v = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
        lhs = gamma_swap(u, v).value
        rhs = -(g_right(-v, -u).value + g_right(u, v).value)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_gamma_swap_term_count_invariant():
    assert gamma_swap(1, 2).method is EvalMethod.CLOSED_FORM
    assert gamma_swap(1, 2).terms_used == 0
    # |u| < SWITCH needs no other path: phi1 has no seam.
    small = gamma_swap(0.1, 2)
    assert small.method is EvalMethod.CLOSED_FORM
    assert small.terms_used == 0


def test_eval_method_names_the_two_paths():
    assert [m.value for m in EvalMethod] == ["closed-form", "divided-difference"]


# ------------------------------------------------------ finite or raise

# Anywhere in the complex doubles, and weighted to the bands where e^u,
# e^v or e^{u-v} leaves double range.
_BAND = st.floats(-800.0, 800.0) | st.floats(690.0, 760.0) | st.floats(-760.0, -690.0)
_POINT = st.complex_numbers(allow_nan=False, allow_infinity=False) | st.builds(
    complex, _BAND, st.just(0.0) | st.floats(-10.0, 10.0)
)


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(u=_POINT, v=_POINT, d=st.complex_numbers(max_magnitude=2 * SWITCH))
# u - v has an infinite imaginary part: the g family raised cmath's ValueError.
@example(u=complex(1.0, 1.79e308), v=complex(0.0, -1.79e308), d=0j)
def test_every_coefficient_is_finite_or_raises(u, v, d):
    for a, b in ((u, v), (u, u + d)):
        for fn in (g_right, g_left, g_center, f_bch, gamma_swap):
            try:
                value = fn(a, b).value
            except (OverflowError, PoleError):
                continue
            assert cmath.isfinite(value), (fn.__name__, a, b, value)


# ----------------------------------------------------------- zass_coeff


def test_zass_coeff_low_orders_against_hand_formulas():
    for u in GRID5:
        for v in GRID5:
            assert zass_coeff(2, u, v) == -0.5 + 0.0j
            assert abs(zass_coeff(3, u, v) - (v - 2.0 * u) / 6.0) < 1e-15
            # C_4 = -[(u-v)^2 + (u-v)u + u^2]/24
            a = u - v
            expected = -(a * a + a * u + u * u) / 24.0
            assert abs(zass_coeff(4, u, v) - expected) < 1e-14


def test_zass_coeff_vanishes_at_origin_beyond_second_order():
    for n in range(3, 15):
        assert zass_coeff(n, 0, 0) == 0


def test_zass_coeff_rejects_low_index():
    with pytest.raises(ValueError):
        zass_coeff(1, 1.0, 1.0)


# ------------------------------------------------------------ integrand


def test_integrand_stable_form_matches_naive_quotient():
    rng = np.random.default_rng(5)
    for _ in range(200):
        s = rng.uniform(0, 1)
        u = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
        v = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
        if abs(v) < 0.5:
            continue
        naive = (cmath.exp(s * (u - v)) - cmath.exp(s * u)) / v
        assert abs(integrand(s, u, v) - naive) < 1e-13


def test_integrand_limits():
    assert integrand(0.0, 1.0, 1.0) == 0.0
    # v = 0 limit: -s e^{su}
    assert rel_err(integrand(0.5, 2.0, 0.0), -0.5 * math.exp(1.0)) < 1e-15
    assert rel_err(integrand(1.0, 0.0, 0.0), -1.0) < 1e-15
