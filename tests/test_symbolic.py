"""The abstract's formulas, exactly, in sympy: the three sided forms and
their special cases, the merge and swap coefficients, and the product
coefficients C_n.

X = [[v, 1], [0, 0]] and Y = [[-u, 1], [0, 0]] give W = [X, Y] = uX + vY
for symbolic u and v.  Where u + v != 0 this realization is faithful on the
two-dimensional Lie algebra with that bracket, and both sides of each
identity are Lie series in X and Y (by BCH), so the identities hold for
c = 0 in any algebra where the series converge, not only for these
matrices.
"""

import sympy as sp

u, v, t = sp.symbols("u v t")
X = sp.Matrix([[v, 1], [0, 0]])
Y = sp.Matrix([[-u, 1], [0, 0]])
W = X * Y - Y * X


def _g_right(a, b):
    # The abstract's g_r(u, v) for u != v, off the axes.
    return (a * (sp.exp(a - b) - sp.exp(a)) + b * (sp.exp(a) - 1)) / (b * a * (a - b))


def _phi1(x):
    return (sp.exp(x) - 1) / x


def test_each_sided_product_is_the_exponential_of_the_sum():
    assert W == u * X + v * Y
    g_r, g_c, g_l = _g_right(u, v), _g_right(v, u) * sp.exp(-v), _g_right(v, u)
    sides = {
        "right": X.exp() * Y.exp() * (g_r * W).exp(),
        "center": X.exp() * (g_c * W).exp() * Y.exp(),
        "left": (g_l * W).exp() * X.exp() * Y.exp(),
    }
    total = (X + Y).exp()
    for name, product in sides.items():
        assert sp.simplify(total - product) == sp.zeros(2, 2), name


def test_the_special_cases_are_the_limits_of_the_general_formula():
    g = _g_right(u, v)
    cases = [
        (sp.limit(g, v, u), (u + 1 - sp.exp(u)) / u**2),
        (sp.limit(g, u, 0), -(sp.exp(-v) - 1 + v) / v**2),
        (sp.limit(g, v, 0), (sp.exp(u) * (1 - u) - 1) / u**2),
    ]
    for limit, stated in cases:
        assert sp.simplify(limit - stated) == 0
    half = sp.Rational(-1, 2)
    assert sp.limit(cases[0][1], u, 0) == half
    assert sp.limit(cases[1][1], v, 0) == half
    assert sp.limit(cases[2][1], u, 0) == half


def test_the_merge_and_swap_coefficients_close_the_product():
    # f_bch's closed form, and gamma_swap's factored form.
    f = (u * sp.exp(u) * (sp.exp(v) - 1) - v * sp.exp(v) * (sp.exp(u) - 1)) / (u * v * (sp.exp(u) - sp.exp(v)))
    gamma = _phi1(u) * _phi1(-v)
    product = X.exp() * Y.exp()
    assert sp.simplify(product - (X + Y + f * W).exp()) == sp.zeros(2, 2)
    assert sp.simplify(product - Y.exp() * X.exp() * (gamma * W).exp()) == sp.zeros(2, 2)


def test_each_product_coefficient_is_a_taylor_coefficient_of_the_closed_form():
    # Scaling X and Y by t scales W by t^2, so t^2 g_r(tu, tv) = sum_n C_n t^n.
    N = 12
    series = sp.series(t**2 * _g_right(t * u, t * v), t, 0, N + 1).removeO()
    assert series.coeff(t, 0) == series.coeff(t, 1) == 0
    for n in range(2, N + 1):
        c_n = -sum((u - v) ** j * u ** (n - 2 - j) for j in range(n - 1)) / sp.factorial(n)
        assert sp.cancel(series.coeff(t, n) - c_n) == 0, n
