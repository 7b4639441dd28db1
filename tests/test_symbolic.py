"""The abstract's three sided formulas and special cases, exactly, in sympy.

X = [[v, 1], [0, 0]] and Y = [[-u, 1], [0, 0]] give W = [X, Y] = uX + vY
for symbolic u and v.  Where u + v != 0 this realization is faithful on the
two-dimensional Lie algebra with that bracket, and both sides of each
identity are Lie series in X and Y (by BCH), so the identities hold for
c = 0 in any algebra where the series converge, not only for these
matrices.
"""

import sympy as sp

u, v = sp.symbols("u v")


def _g_right(a, b):
    # The abstract's g_r(u, v) for u != v, off the axes.
    return (a * (sp.exp(a - b) - sp.exp(a)) + b * (sp.exp(a) - 1)) / (b * a * (a - b))


def test_each_sided_product_is_the_exponential_of_the_sum():
    X = sp.Matrix([[v, 1], [0, 0]])
    Y = sp.Matrix([[-u, 1], [0, 0]])
    W = X * Y - Y * X
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
