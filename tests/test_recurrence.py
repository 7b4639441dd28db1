"""Series recurrence: construction, stepping, coefficient extraction."""

import numpy as np
import pytest

from zassenhaus.coeffs import g_right, zass_coeff
from zassenhaus.recurrence import beta1_series, c_from_recurrence, c_sequence, partial_sum_gr

GRID5 = (-2.0, -1.0, 0.0, 1.0, 2.0)


# ---------------------------------------------------------- beta1_series


def test_beta1_constant_term_is_zero():
    assert beta1_series(1.3, -0.4, 6)[0] == 0


@pytest.mark.parametrize("u", GRID5)
@pytest.mark.parametrize("v", GRID5)
def test_beta1_linear_term_is_minus_one(u, v):
    assert beta1_series(u, v, 4)[1] == -1.0 + 0.0j


def test_beta1_quadratic_term_on_the_v_zero_line():
    # [(u-v)^2 - u^2]/(2v) -> -u as v -> 0; at u = 1 that is -1
    assert beta1_series(1.0, 0.0, 4)[2] == -1.0 + 0.0j


def test_beta1_generic_coefficient_against_direct_quotient():
    # where v != 0 the summed form must equal [(u-v)^k - u^k]/(v k!)
    u, v = 1.7, -0.6
    series = beta1_series(u, v, 8)
    fact = 1.0
    for k in range(1, 9):
        fact *= k
        direct = ((u - v) ** k - u**k) / (v * fact)
        assert abs(series[k] - direct) < 1e-14, k


def test_beta1_rejects_zero_order():
    with pytest.raises(ValueError):
        beta1_series(1.0, 1.0, 0)


# ------------------------------------------------------------ removal step


def _removal_steps(beta, steps):
    """beta_{steps+1} from beta_1: removal step m zeroes the t^m coefficient."""
    beta = list(beta)
    for m in range(1, steps + 1):
        beta[m] = 0.0 + 0.0j
    return beta


def test_stepping_zeroes_the_leading_band():
    # after n-1 steps, coefficients 1..n-1 are exactly zero
    n = 9
    series = beta1_series(0.7, -1.1, n)
    stepped = _removal_steps(series, n - 1)
    assert stepped[1:n] == [0j] * (n - 1)
    assert stepped[0] == 0j
    assert stepped[n] == series[n]


# ------------------------------------------------------ c_from_recurrence


def test_c2_is_minus_half_everywhere():
    assert c_from_recurrence(2, 1.5, -0.5) == -0.5 + 0.0j
    assert c_from_recurrence(2, 0.0, 0.0) == -0.5 + 0.0j


def test_c3_on_the_diagonal():
    assert abs(c_from_recurrence(3, 1.0, 1.0) - (-1.0 / 6.0)) < 1e-15


def test_higher_coefficients_vanish_at_the_origin():
    for n in range(3, 10):
        assert c_from_recurrence(n, 0.0, 0.0) == 0


def test_recurrence_rejects_low_index():
    with pytest.raises(ValueError):
        c_from_recurrence(1, 1.0, 1.0)


@pytest.mark.parametrize("u", GRID5)
@pytest.mark.parametrize("v", GRID5)
def test_recurrence_matches_closed_form_coefficients(u, v):
    for n in range(2, 13):
        closed = zass_coeff(n, u, v)
        recur = c_from_recurrence(n, u, v)
        assert abs(closed - recur) <= 1e-12 * (1.0 + abs(closed)), n


def test_recurrence_matches_closed_form_on_complex_inputs():
    rng = np.random.default_rng(99)
    for _ in range(50):
        u = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        v = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        for n in (2, 5, 9, 12):
            closed = zass_coeff(n, u, v)
            recur = c_from_recurrence(n, u, v)
            assert abs(closed - recur) <= 1e-12 * (1.0 + abs(closed))


# --------------------------------------------------------- partial_sum_gr


def test_partial_sum_first_term_only():
    assert partial_sum_gr(1.23, -0.77, 2) == -0.5 + 0.0j


def test_partial_sum_converges_to_g_right():
    assert abs(partial_sum_gr(1.0, -1.0, 30) - g_right(1.0, -1.0).value) <= 1e-10
    assert abs(partial_sum_gr(2.0, 2.0, 30) - (3.0 - np.exp(2.0) ** 1) / 4.0) <= 1e-9


@pytest.mark.parametrize("point", [(1.0, -1.0), (2.0, 1.0), (2.0, 2.0), (-2.0, 0.5)])
def test_partial_sum_error_decreases_monotonically(point):
    u, v = point
    target = g_right(u, v).value
    errors = [abs(partial_sum_gr(u, v, N) - target) for N in range(15, 31)]
    for earlier, later in zip(errors, errors[1:]):
        # monotone decrease down to the roundoff floor
        assert later <= max(earlier, 5e-15), errors


def test_partial_sum_rejects_low_cutoff():
    with pytest.raises(ValueError):
        partial_sum_gr(1.0, 1.0, 1)


# ------------------------------------------------------------- c_sequence


def _factorial(n):
    total = 1.0
    for m in range(2, n + 1):
        total *= m
    return total


def _stepped_coefficient(n, u, v):
    """C_n by its own run: beta_1 at order n - 1, then removal steps 1..n-2."""
    beta = _removal_steps(beta1_series(u, v, n - 1), n - 2)
    return beta[n - 1] * _factorial(n - 1) / _factorial(n)


def _bits(values):
    return [(complex(z).real.hex(), complex(z).imag.hex()) for z in values]


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
    assert _bits(sequence) == _bits(
        [c_from_recurrence(n, u, v) for n in range(2, N + 1)]
    )


@pytest.mark.parametrize("u, v", SEQUENCE_POINTS)
def test_partial_sum_is_the_running_sum_of_stepped_coefficients(u, v):
    for N in (2, 10, 30):
        total = 0.0 + 0.0j
        for n in range(2, N + 1):
            total += _stepped_coefficient(n, u, v)
        assert _bits([partial_sum_gr(u, v, N)]) == _bits([total])


def test_c_sequence_rejects_low_cutoff():
    with pytest.raises(ValueError):
        c_sequence(1, 1.0, 1.0)
