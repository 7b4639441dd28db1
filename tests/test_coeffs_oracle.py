"""g_right, g_left, g_center and f_bch against a 50-digit mpmath reference.

Hypothesis draws points from the regions that grids and uniform sampling
miss: the root-of-unity lines, both sides of every SWITCH seam, the f_bch
pole shell, |u| up to 60 (real and complex) with |v| < SWITCH, |v| down to
1e-12 and the diagonal up to |v| = 42.  The reference converts each double
input exactly and evaluates the one-variable divided differences
(phi1(u - v) - phi1(u))/v with 50 digits left after cancellation, with
the analytic limits on the singular lines; it shares no code with the
package.
"""

import cmath
import json
import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zassenhaus import cli
from zassenhaus.coeffs import (
    SWITCH,
    EvalMethod,
    PoleError,
    f_bch,
    g_center,
    g_left,
    g_right,
)

DPS = 50
# The closed forms are designed to 1e-12 relative on both sides of a seam;
# the divided-difference kernel is held to 1e-13 everywhere.
CLOSED_TOL = 1e-12
KERNEL_TOL = 1e-13
EPS = 2.0**-52
# Outside this distance of a pole u - v = 2*pi*i*k, f_bch must not raise.
POLE_SHELL = 1e-8

COEFFS = {"g_right": g_right, "g_left": g_left, "g_center": g_center, "f_bch": f_bch}
G_FAMILY = ("g_right", "g_left", "g_center")

# Derandomized, so every run checks the same points.
ORACLE = settings(max_examples=150, derandomize=True, database=None, deadline=None)


# ------------------------------------------------------------- reference


def _mp(z: complex):
    return mpmath.mpc(z.real, z.imag)


def _phi1(x):
    return mpmath.mpf(1) if x == 0 else mpmath.expm1(x) / x


def _g_right(u, v):
    if v == 0:
        return -mpmath.mpf(1) / 2 if u == 0 else (mpmath.exp(u) * (1 - u) - 1) / u**2
    return (_phi1(u - v) - _phi1(u)) / v


def _f_bch(u, v):
    if u == v:
        if v == 0:
            return mpmath.mpf(1) / 2
        return _phi1(v) - (v * mpmath.exp(v) - mpmath.exp(v) + 1) / v**2
    eu, ev = mpmath.exp(u), mpmath.exp(v)
    return (eu * _phi1(v) - ev * _phi1(u)) / (eu - ev)


def reference(name: str, u: complex, v: complex) -> complex:
    u, v = complex(u), complex(v)
    # The quotients lose up to two digits for each decade that |u|, |v| or
    # |u - v| lies below 1; DPS digits are left after that loss.
    scale = min((abs(z) for z in (u, v, u - v) if z), default=1.0)
    with mpmath.workdps(DPS + 2 * max(0, math.ceil(-math.log10(scale)))):
        mu, mv = _mp(u), _mp(v)
        if name == "g_right":
            value = _g_right(mu, mv)
        elif name == "g_left":
            value = _g_right(mv, mu)
        elif name == "g_center":
            value = mpmath.exp(-mv) * _g_right(mv, mu)
        else:
            value = _f_bch(mu, mv)
        return complex(value)


def assert_matches(name: str, u: complex, v: complex, extra_tol: float = 0.0) -> None:
    cv = COEFFS[name](u, v)
    want = reference(name, u, v)
    tol = KERNEL_TOL if cv.method is EvalMethod.DIVIDED_DIFFERENCE else CLOSED_TOL
    err = abs(cv.value - want)
    assert err <= (tol + extra_tol) * abs(want), (name, u, v, cv, want, err / abs(want))


def right_args(name: str, u: complex, v: complex) -> tuple[complex, complex]:
    """Arguments of ``name`` that evaluate g_right at (u, v)."""
    return (u, v) if name == "g_right" else (v, u)


# ------------------------------------------------------------ strategies


def _magnitude(lo: float, hi: float):
    """Log-uniform magnitudes in [10**lo, 10**hi)."""
    return st.floats(lo, hi, exclude_max=True).map(lambda e: 10.0**e)


def _points(magnitude):
    """Real points of either sign, or complex points, of the given magnitude."""
    real = st.builds(lambda r, sign: complex(sign * r), magnitude, st.sampled_from((-1.0, 1.0)))
    return real | st.builds(cmath.rect, magnitude, st.floats(0.0, 2.0 * math.pi))


SMALL = st.just(0j) | _points(_magnitude(-12.0, math.log10(SWITCH)))
# SWITCH * (1 -+ delta), delta from 1e-9 to 1e-2: just inside or outside a seam.
SEAM = _points(
    st.builds(
        lambda side, e: SWITCH * (1.0 + side * 10.0**e),
        st.sampled_from((-1.0, 1.0)),
        st.floats(-9.0, -2.0),
    )
)


# ------------------------------------------------------------ properties


@pytest.mark.parametrize("name", G_FAMILY)
@ORACLE
@given(u=_points(st.floats(0.0, 60.0)), v=SMALL)
def test_large_u_small_v(name, u, v):
    assert_matches(name, *right_args(name, u, v))


@pytest.mark.parametrize("name", G_FAMILY)
@ORACLE
@given(u=SMALL, v=_points(st.floats(0.0, 60.0)))
def test_small_u(name, u, v):
    assert_matches(name, *right_args(name, u, v))


@pytest.mark.parametrize("name", G_FAMILY)
@ORACLE
@given(
    nk=st.integers(2, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
    small=_points(st.floats(0.02, 0.24)),
)
def test_root_of_unity_lines(name, nk, small):
    # (u - v)/u = w, an n-th root of unity: the power sums of a series in
    # u - v and u vanish there, so a stopping rule on one term ends early.
    n, k = nk
    w = cmath.exp(2j * math.pi * k / n)
    assert_matches(name, *right_args(name, small / (1.0 - w), small))


@pytest.mark.parametrize("name", G_FAMILY)
@ORACLE
@given(t=_points(st.floats(2.0 * SWITCH, 60.0)), w=SEAM)
def test_seams_of_g_right(name, t, w):
    assert_matches(name, *right_args(name, t, w))  # |v| at SWITCH
    assert_matches(name, *right_args(name, w, t))  # |u| at SWITCH
    assert_matches(name, *right_args(name, t + w, t))  # |u - v| at SWITCH


@ORACLE
@given(v=_points(st.floats(0.0, 42.0)), w=SEAM)
def test_seam_of_f_bch(v, w):
    assert_matches("f_bch", v + w, v)


@pytest.mark.parametrize("name", (*G_FAMILY, "f_bch"))
@ORACLE
@given(v=_points(st.floats(0.0, 42.0)), d=SMALL)
def test_diagonal(name, v, d):
    assert_matches(name, v + d, v)


@ORACLE
@given(
    v=_points(st.floats(0.0, 8.0)),
    k=st.sampled_from((-3, -2, -1, 1, 2, 3)),
    h=_points(_magnitude(math.log10(1.25 * POLE_SHELL), -4.0)),
)
def test_f_bch_just_outside_the_pole_shell(v, k, h):
    u = v + 2j * math.pi * k + h
    with mpmath.workdps(DPS):
        exact_h = abs(_mp(u) - _mp(v) - 2j * mpmath.pi * k)
    # u - v and 2*pi carry rounding errors of about eps*|u - v| that the
    # pole turns into a relative error of about eps*|u - v|/|h|.
    assert_matches("f_bch", u, v, extra_tol=8.0 * EPS * abs(u - v) / float(exact_h))


@ORACLE
@given(
    v=_points(st.floats(0.0, 8.0)),
    k=st.sampled_from((-3, -2, -1, 1, 2, 3)),
    h=st.just(0j) | _points(_magnitude(-12.0, math.log10(0.8 * POLE_SHELL))),
)
def test_f_bch_raises_inside_the_pole_shell(v, k, h):
    with pytest.raises(PoleError):
        f_bch(v + 2j * math.pi * k + h, v)


# ------------------------------------------------ pinned former defects


@pytest.mark.parametrize(
    "name, u, v",
    [
        ("g_right", 0.1, 0.2),  # root-of-unity line: a series stopped at a zero term
        ("g_right", -40.0, 0.1),  # large |u|, small v: a 64-term series cancelled to 2.7e11
        ("f_bch", -39.9, -40.0),  # diagonal at large |v|: 6e12 relative error
        ("f_bch", -30.0, -30.0),
    ],
)
def test_former_defect_points(name, u, v):
    assert COEFFS[name](u, v).method is EvalMethod.DIVIDED_DIFFERENCE
    assert_matches(name, u, v)


def test_coeff_command_at_large_negative_u_and_small_v(capsys):
    assert cli.main(["coeff", "--u=-40", "--v", "0.1", "--format", "json"]) == 0
    gright = json.loads(capsys.readouterr().out)["coefficients"]["g_right"]
    assert gright["method"] == "divided-difference"
    value = complex(gright["value"]["re"], gright["value"]["im"])
    want = reference("g_right", -40.0, 0.1)
    assert abs(value - want) <= KERNEL_TOL * abs(want)
    assert abs(want + 6.2344e-4) < 1e-7


@pytest.mark.parametrize(
    "u, v",
    [
        (-1100.0, -1100.5),  # e^u and e^v both underflow to 0
        (-1100.5, -1100.0),
        (complex(-1100.0, 1.0), complex(-1100.5, 0.3)),
        (-709.0, -709.3),  # subnormal exponentials
        (-700.0, -746.0),  # e^v underflows alone
    ],
)
def test_f_bch_where_the_exponentials_underflow(u, v):
    # The unscaled quotient divided by e^v (e^h - 1) = 0 here, or kept only
    # the digits of a subnormal e^u or e^v.
    assert f_bch(u, v).method is EvalMethod.CLOSED_FORM
    assert_matches("f_bch", u, v)


@pytest.mark.parametrize(
    "u, v, method",
    [
        # The diagonal: e[u, v] underflows to 0, so e^v / e[u, v] is 1 / phi1(u - v).
        (-800.0, -800.1, EvalMethod.DIVIDED_DIFFERENCE),
        (-800.1, -800.0, EvalMethod.DIVIDED_DIFFERENCE),
        # e^{u - v} past double range: the quotient is divided through by e^u.
        (0.0, -1100.0, EvalMethod.CLOSED_FORM),
        (complex(-300.0, 2.0), -1100.0, EvalMethod.CLOSED_FORM),
    ],
)
def test_f_bch_where_an_exponential_leaves_double_range(u, v, method):
    assert f_bch(u, v).method is method
    assert_matches("f_bch", u, v)


@pytest.mark.parametrize(
    "u, v",
    [
        (720.0, 715.0),  # e^u past double range; the value is -9.56e306
        (712.0, 3.0),  # e^u past double range; the value is -7.34e305
        (3.0, -708.0),  # e^{u - v} past double range
        (709.0, 3.0),  # e^u in range, u e^u not: the unfactored quotient is NaN
    ],
)
def test_g_right_where_an_exponential_leaves_double_range(u, v):
    assert g_right(u, v).method is EvalMethod.CLOSED_FORM
    assert_matches("g_right", u, v)
    assert_matches("g_left", v, u)


def test_g_right_raises_where_its_value_leaves_double_range():
    assert abs(reference("g_right", 730.0, 3.0)) == math.inf  # -4.70e313
    with pytest.raises(OverflowError):
        g_right(730.0, 3.0)


@pytest.mark.parametrize(
    "name, u, v",
    [
        # The kernel's mean shift left about e^{2|u|/3} in the table; the
        # value is -8.26e-7.
        ("g_right", -1100.0, 0.1),
        ("g_left", 0.1, -1100.0),
        ("g_right", complex(-1100.0, 2.0), 0.1),
        ("g_right", complex(-1100.0, 1.0), 0.1j),
        # About 1/1100, on and next to the diagonal.
        ("f_bch", -1100.0, -1100.1),
        ("f_bch", -1100.0, -1100.0),
    ],
)
def test_divided_differences_where_the_mean_shift_overflows(name, u, v):
    assert COEFFS[name](u, v).method is EvalMethod.DIVIDED_DIFFERENCE
    assert_matches(name, u, v)


@pytest.mark.parametrize(
    "u, v",
    [
        (3.0, 800.0),  # g_left ~ e^800 past double range; the value is -3.96e-4
        (0.1, 1100.0),  # -8.64e-4
        (-5.0, 1100.0),  # -0.0267
        (1000.0, 1000.0),  # -1e-6, where every other coefficient overflows
    ],
)
def test_g_center_where_g_left_leaves_double_range(u, v):
    with pytest.raises(OverflowError):
        g_left(u, v)
    assert g_center(u, v).method is EvalMethod.DIVIDED_DIFFERENCE
    assert_matches("g_center", u, v)


def test_g_center_keeps_the_product_wherever_it_is_finite():
    values = (-1100.0, -720.0, -3.0, -0.1, 0.0, 0.2, 1.0, 5.0, 709.0, 800.0)
    for u in values:
        for v in values:
            for z in (complex(u, 0.0), complex(u, 1.5)):
                try:
                    product = cmath.exp(-v) * g_left(z, v).value
                except OverflowError:
                    continue
                if cmath.isfinite(product):
                    assert g_center(z, v).value == product, (z, v)


def test_a_divided_difference_past_double_range_still_raises():
    # e^{-0.1} g_r(0.1, -1100), about -e^{1100} / 1.2e6.
    assert abs(reference("g_center", -1100.0, 0.1)) == math.inf
    with pytest.raises(OverflowError, match="divided difference of exp overflows"):
        g_center(-1100.0, 0.1)
