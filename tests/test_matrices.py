"""Matrix kernel: exponentials, commutators, residuals, inference, loading."""

import json
import math
import re

import numpy as np
import pytest
import scipy.linalg

from zassenhaus import matrices
from zassenhaus.matrices import (
    MAX_DIM,
    _frobenius,
    _rel_residual,
    DimensionMismatch,
    as_matrix,
    commutator,
    conjugate_series,
    expm,
    expm_stack,
    infer_uvc,
    load_matrix,
    rel_residual,
)
from zassenhaus.matrices import _frobenius_stack, _one_norms, _per_slice, _rel_residuals
from zassenhaus.realizations import Ladder, affine_2x2, lindblad_pair, shift_center, su11_pair

E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)


# --------------------------------------------------------------- as_matrix


def test_as_matrix_accepts_nested_lists():
    out = as_matrix([[1, 2], [3, 4]])
    assert out.dtype == np.complex128
    assert out.shape == (2, 2)


def test_as_matrix_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        as_matrix(np.zeros((2, 3)))


def test_as_matrix_rejects_oversized():
    with pytest.raises(DimensionMismatch):
        as_matrix(np.zeros((MAX_DIM + 1, MAX_DIM + 1)))
    as_matrix(np.zeros((MAX_DIM, MAX_DIM)))  # boundary is allowed


def test_as_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0], [0, 0]])
    with pytest.raises(ValueError):
        as_matrix([[np.nan, 0], [0, 0]])


# -------------------------------------------------------------- commutator


def test_commutator_of_commuting_matrices_is_zero():
    a = np.diag([1.0, 2.0]).astype(complex)
    b = np.diag([3.0, -1.0]).astype(complex)
    assert np.array_equal(commutator(a, b), np.zeros((2, 2), dtype=complex))


def test_commutator_of_shift_matrices():
    out = commutator(E12, E21)
    assert np.array_equal(out, np.diag([1.0, -1.0]).astype(complex))


def test_commutator_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        commutator(E12, np.zeros((3, 3)))


# -------------------------------------------------------------------- expm


def test_expm_of_zero_is_exact_identity():
    out = expm(np.zeros((3, 3)))
    assert np.array_equal(out, np.eye(3, dtype=complex))


def test_expm_of_diagonal():
    d = np.diag([1.0, -2.0, 0.5]).astype(complex)
    out = expm(d)
    ref = np.diag(np.exp([1.0, -2.0, 0.5])).astype(complex)
    assert np.linalg.norm(out - ref) <= 1e-14 * np.linalg.norm(ref)


def test_expm_of_nilpotent_is_exact():
    out = expm(0.37 * E12)
    assert np.array_equal(out, np.eye(2, dtype=complex) + 0.37 * E12)


def test_expm_rejects_huge_norm():
    with pytest.raises(OverflowError):
        expm(np.diag([701.0, 0.0]).astype(complex))


def test_expm_matches_scipy_on_random_matrices():
    rng = np.random.default_rng(20250817)
    for dim in (2, 3, 5, 8):
        for _ in range(5):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            ours = expm(a)
            ref = scipy.linalg.expm(a)
            assert np.linalg.norm(ours - ref) <= 1e-13 * np.linalg.norm(ref)


def test_expm_inverse_property():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    prod = expm(a) @ expm(-a)
    assert np.linalg.norm(prod - np.eye(4)) <= 1e-12


def test_expm_semigroup_property():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    s, t = 0.6, 1.1
    lhs = expm((s + t) * a)
    rhs = expm(s * a) @ expm(t * a)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(lhs)


def _expm_reference(A):
    """expm as first written: out-of-place Taylor loop, method reductions.

    Kept as the oracle that the in-place loop must reproduce bit for bit.
    """
    A = as_matrix(A)
    n = A.shape[0]

    def one_norm(M):
        return float(np.abs(M).sum(axis=0).max())

    norm = one_norm(A)
    if norm == 0.0:
        return np.eye(n, dtype=complex)
    if norm > 700.0:
        raise OverflowError("reference: 1-norm beyond 700")
    s = max(0, math.ceil(math.log2(norm)))
    B = A / (2.0**s)
    result = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, 61):
        term = term @ B / k
        result = result + term
        if one_norm(term) < 1e-18 * one_norm(result):
            break
    for _ in range(s):
        result = result @ result
    return result


@pytest.mark.parametrize("dim", [2, 3, 4, 8])
def test_expm_is_bit_identical_to_the_reference_loop(dim):
    rng = np.random.default_rng(100 + dim)
    for scale in (1e-3, 0.1, 0.7, 1.0, 3.0, 12.0, 40.0):
        for _ in range(6):
            complex_a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            real_a = rng.normal(size=(dim, dim))
            for a in (complex_a, real_a):
                a = scale * a / np.abs(a).sum(axis=0).max()
                assert np.array_equal(expm(a), _expm_reference(a))


def test_expm_reference_agreement_at_the_edges():
    zero = np.zeros((3, 3), dtype=complex)
    assert np.array_equal(expm(zero), _expm_reference(zero))
    huge = np.full((2, 2), 400.0, dtype=complex)
    with pytest.raises(OverflowError):
        _expm_reference(huge)
    with pytest.raises(OverflowError, match="exceeds 700"):
        expm(huge)


def test_expm_is_the_one_slice_stack_with_its_own_messages():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.array_equal(expm(a), expm_stack(a[None])[0])
    with pytest.raises(OverflowError) as info:
        expm(np.full((2, 2), 400.0))
    assert str(info.value) == (
        "matrix 1-norm 800 exceeds 700; the exponential would overflow double precision"
    )
    with pytest.raises(ValueError) as info:
        expm(np.array([[np.nan]]))
    assert str(info.value) == "matrix entries must be finite"


# -------------------------------------------------------------- expm_stack


def _assert_slices_match_expm(stack):
    out = expm_stack(stack)
    assert out.shape == stack.shape
    for a, e in zip(stack, out):
        assert np.array_equal(e, expm(a))


@pytest.mark.parametrize("dim", [2, 3, 4, 8])
def test_expm_stack_slices_are_bit_identical_to_expm(dim):
    rng = np.random.default_rng(200 + dim)
    scales = (1e-3, 0.1, 0.7, 1.0, 3.0, 12.0, 40.0)
    stack = []
    for scale in scales:
        for _ in range(4):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            stack.append(scale * a / np.abs(a).sum(axis=0).max())
            a = rng.normal(size=(dim, dim))
            stack.append(scale * a / np.abs(a).sum(axis=0).max())
    stack = np.array(stack)
    rng.shuffle(stack)
    _assert_slices_match_expm(stack)


def test_expm_stack_mixes_zero_and_every_squaring_count():
    # 1-norms 0 and 0.3, 1.5, ..., 48 need 0 to 6 squarings.
    base = np.array([[0.5, 0.25j], [-0.125, 0.125]])
    base = base / np.abs(base).sum(axis=0).max()
    norms = (0.3, 1.5, 3.5, 7.0, 15.0, 30.0, 48.0)
    stack = np.array([np.zeros((2, 2))] + [n * base for n in norms], dtype=complex)
    _assert_slices_match_expm(stack)
    assert np.array_equal(expm_stack(stack)[0], np.eye(2, dtype=complex))


def test_expm_stack_gives_a_slice_that_converges_early_no_extra_term():
    # e^A[0, 2] cancels to about 3e-19 while each Taylor term carries an
    # O(term norm) share there, so one term past the stopping test (taken
    # while the later slice still runs) would change its bits.
    early = np.array([[0.25, 0.5, -0.125], [0.0, 0.25, 0.5], [0.0, 0.0, 0.25]])
    late = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]])
    _assert_slices_match_expm(np.array([early, late], dtype=complex))


def test_expm_stack_leaves_other_slices_alone_past_the_norm_limit():
    # A slice comes back all NaN exactly where expm of it raises: a 1-norm
    # past 700, an infinite entry and a NaN entry.
    rng = np.random.default_rng(31)
    stack = rng.normal(size=(7, 3, 3)) + 1j * rng.normal(size=(7, 3, 3))
    stack[2] = np.diag([701.0, 0.0, 0.0])
    stack[4, 1, 2] = np.inf
    stack[5, 0, 0] = complex(0.0, np.nan)
    out = expm_stack(stack)
    for i in (2, 4, 5):
        assert np.isnan(out[i]).all()
    for i in (0, 1, 3, 6):
        assert np.array_equal(out[i], expm(stack[i]))
        assert np.array_equal(out[i], expm_stack(stack[i:i + 1])[0])
    with pytest.raises(OverflowError, match="exceeds 700"):
        expm(stack[2])
    for i in (4, 5):
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            expm(stack[i])


@pytest.mark.parametrize("dim", [2, 3, 4, 8])
def test_expm_stack_has_the_bytes_of_a_taylor_loop_that_starts_from_the_identity(dim):
    # The stack takes B itself as its first term, where the reference
    # computes I @ B; the bytes, signs of zeros included, must agree.
    rng = np.random.default_rng(300 + dim)
    slices = []
    for scale in (1e-3, 0.3, 1.0, 5.0, 60.0):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = scale * a / np.abs(a).sum(axis=0).max()
        zeros = rng.random((dim, dim)) < 0.4
        a.real[zeros] = -0.0
        a.imag[rng.random((dim, dim)) < 0.4] = -0.0
        slices.append(a)
        slices.append(np.where(rng.random((dim, dim)) < 0.4, -0.0, a.real).astype(complex))
    nilpotent = np.triu(rng.normal(size=(dim, dim)), 1).astype(complex)
    nilpotent[np.tril_indices(dim)] = complex(-0.0, -0.0)
    slices += [nilpotent, np.zeros((dim, dim), dtype=complex), np.full((dim, dim), complex(-0.0, -0.0))]
    slices.append(np.diag([701.0] + [0.0] * (dim - 1)).astype(complex))
    stack = np.array(slices)
    out = expm_stack(stack)
    for a, e in zip(stack[:-1], out[:-1]):
        assert e.tobytes() == _expm_reference(a).tobytes()
    assert np.isnan(out[-1]).all()


def _expm_stack_reference(A):
    """expm_stack's loop before its screened stopping test, with what it
    saw: (result, each live slice's stopping k, the largest 1-norm of any
    partial sum it formed).  The new kernel must match its bits."""
    n = A.shape[1]
    norms = _one_norms(A)
    out = np.empty_like(A)
    out[norms == 0.0] = np.eye(n)
    out[norms > 700.0] = np.nan
    live = np.flatnonzero((norms > 0.0) & (norms <= 700.0))
    stops = np.zeros(len(A), dtype=int)
    largest = 0.0
    if not live.size:
        return out, stops, largest
    s = np.array([max(0, math.ceil(math.log2(x))) for x in norms[live].tolist()])
    B = A[live] / (2.0 ** s)[:, None, None]
    result = np.empty_like(B)
    todo = np.arange(live.size)
    partial = np.broadcast_to(np.eye(n, dtype=complex), B.shape).copy()
    for k in range(1, 61):
        if k == 1:
            term = B
        else:
            term = term @ B
            term /= k
        partial += term
        partial_norms = _one_norms(partial)
        largest = max(largest, float(partial_norms.max()))
        done = _one_norms(term) < 1e-18 * partial_norms
        if done.any():
            result[todo[done]] = partial[done]
            stops[live[todo[done]]] = k
            going = ~done
            todo, term, B, partial = todo[going], term[going], B[going], partial[going]
            if not todo.size:
                break
    result[todo] = partial
    stops[live[todo]] = 60
    for j in range(int(s.max())):
        squaring = np.flatnonzero(s > j)
        R = result[squaring]
        result[squaring] = R @ R
    out[live] = result
    return out, stops, largest


def _with_one_norm(rng, n, norm):
    """A random complex n x n matrix whose computed 1-norm is exactly norm:
    column 0 holds norm alone, and the others sum to about norm / 2."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a *= 0.5 * norm / max(float(_one_norms(a[None])[0]), 1e-300)
    a[:, 0] = 0.0
    a[rng.integers(n), 0] = norm * rng.choice([1.0, -1.0, 1j, -1j])
    return a


_NORM_EDGES = [
    x
    for k in (-1074, -1000, -60, -20, -3, -1, 0, 1, 2, 3, 5, 8, 9)
    for x in (np.nextafter(2.0**k, 0.0), 2.0**k, np.nextafter(2.0**k, np.inf))
    if x > 0.0
] + [2.0**k * (1.0 + 2.0**-30) for k in (-3, 0, 4, 9)] + [
    1e-300, 3e-300, 0.75, 1.5, 600.0, np.nextafter(700.0, 0.0), 700.0,
]
_PAST_700 = [np.nextafter(700.0, np.inf), 701.0, 1e4, 1e300]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16])
def test_expm_stack_has_the_bits_of_the_unscreened_loop(n):
    rng = np.random.default_rng(2200 + n)
    slices = [np.zeros((n, n), dtype=complex), np.full((n, n), complex(-0.0, -0.0))]
    nilpotent = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 1)
    nilpotent[np.tril_indices(n)] = complex(-0.0, -0.0)
    slices += [nilpotent, 40.0 * nilpotent]
    slices += [_with_one_norm(rng, n, norm) for norm in _NORM_EDGES + _PAST_700]
    for scale in (1e-6, 0.2, 1.0, 7.0, 90.0, 650.0):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = scale * a / np.abs(a).sum(axis=0).max()
        a.real[rng.random((n, n)) < 0.3] = -0.0
        a.imag[rng.random((n, n)) < 0.3] = -0.0
        slices += [a, a.real.astype(complex)]
    stack = np.array(slices)
    stack = stack[rng.permutation(len(stack))]
    expected, stops, largest = _expm_stack_reference(stack)
    assert np.array_equal(expm_stack(stack).view(np.uint64), expected.view(np.uint64))
    norms = _one_norms(stack)
    assert np.isnan(expected[norms > 700.0]).all()
    assert (stops[(norms > 0.0) & (norms <= 1e-299)] == 1).all()
    # The stack mixes slices with no squaring and with up to ten.
    live = norms[(norms > 0.0) & (norms <= 700.0)]
    assert live.min() < 1.0 and live.max() > 512.0
    # The screen's premise: every partial sum has a 1-norm below 4.
    assert largest < 4.0
    for i in rng.permutation(len(stack))[:8]:
        one = expm_stack(stack[i:i + 1])[0]
        assert np.array_equal(one.view(np.uint64), expected[i].view(np.uint64))


def _taylor_products(stack):
    """(expm_stack of a valid stack, how many Taylor products term @ B it
    made, how many products of either kind): a squaring R @ R is the one
    product with one array on both sides."""
    taylor = []

    class Counted(np.ndarray):
        def __matmul__(self, other):
            taylor.append(self is not other)
            return super().__matmul__(other)

    return np.asarray(matrices._expm_stack(stack.view(Counted))), sum(taylor), len(taylor)


_ONE_ROW_NORMS = [1e-300, 3e-300, 1e-200, 1e-20, 1e-3, 0.3, 0.75, 1.0, 1.5, 7.0, 90.0, 600.0,
                  np.nextafter(700.0, 0.0), 700.0]


def _one_row_stack(rng, n):
    """Real n x n slices with no nonzero entry below the first row: first
    rows of 1-norm 1e-300 to 700, rows of +-5e-324, rows with a zero
    diagonal entry, all-zero rows, and -0.0 in about half of the zero
    real parts and of the imaginary parts."""
    rows = []
    for norm in _ONE_ROW_NORMS:
        row = norm * rng.uniform(-1.0, 1.0, n)
        row[rng.integers(n)] = norm * rng.choice([1.0, -1.0])
        rows.append(row)
    tiny = rng.choice([5e-324, -5e-324], n)
    rows += [tiny, np.concatenate([[3.0], tiny[1:]]), np.zeros(n), np.full(n, -0.0)]
    rows += [np.concatenate([[zero], rng.uniform(-40.0, 40.0, n - 1)]) for zero in (0.0, -0.0)]
    stack = np.zeros((len(rows), n, n), dtype=complex)
    stack[:, 0] = rows
    zero = (stack.real == 0.0) & (rng.random(stack.shape) < 0.5)
    stack.real[zero] = -0.0
    stack.imag[rng.random(stack.shape) < 0.5] = -0.0
    return stack[rng.permutation(len(stack))]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16])
def test_a_real_one_row_stack_takes_no_taylor_product_and_has_the_bytes_of_the_loop(n):
    # Each entry of term @ B is t00 b0j beside exact zeros: the elementwise
    # product rounds it once, as the loop's @ does.
    rng = np.random.default_rng(2600 + n)
    stack = _one_row_stack(rng, n)
    out, taylor, _ = _taylor_products(stack)
    assert taylor == 0
    assert out.tobytes() == _expm_stack_reference(stack)[0].tobytes()
    assert expm_stack(stack).tobytes() == out.tobytes()
    for a, e in zip(stack, out):
        assert expm(a).tobytes() == e.tobytes()


def _zero_corner_stack(rng, n):
    """Real n x n slices with no nonzero entry below the first row and +-0
    in its corner: first rows of 1-norm 1e-300 to 700, so up to ten
    squarings, a row with subnormals beside 650, which underflow when the
    row is scaled, and -0.0 in about half of the zero real parts and of
    the imaginary parts."""
    rows = []
    for norm in _ONE_ROW_NORMS:
        row = norm * rng.uniform(-1.0, 1.0, n)
        row[-1] = norm * rng.choice([1.0, -1.0])
        rows.append(row)
    rows += [np.resize([0.0, 650.0, 5e-324, -2.5e-310, 3e-308], n), np.zeros(n)]
    stack = np.zeros((len(rows), n, n), dtype=complex)
    stack[:, 0] = rows
    stack[:, 0, 0] = 0.0
    zero = (stack.real == 0.0) & (rng.random(stack.shape) < 0.5)
    stack.real[zero] = -0.0
    stack.imag[rng.random(stack.shape) < 0.5] = -0.0
    return stack[rng.permutation(len(stack))]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16])
def test_a_one_row_slice_with_a_zero_corner_takes_no_product_and_has_the_bytes_of_the_loop(n):
    # Such a slice squares to zero: its loop stops on I plus its scaled
    # first row, and each squaring doubles that row's entries j > 0.
    rng = np.random.default_rng(2640 + n)
    stack = _zero_corner_stack(rng, n)
    if n > 1:
        assert _one_norms(stack).max() == 700.0
    out, _, products = _taylor_products(stack)
    assert products == 0
    assert out.tobytes() == _expm_stack_reference(stack)[0].tobytes()
    # Beside slices with a nonzero corner, each slice keeps its bytes.
    others = _one_row_stack(rng, n)
    others = others[others[:, 0, 0] != 0.0]
    order = rng.permutation(len(stack) + len(others))
    mixed = np.concatenate([stack, others])[order]
    expected = np.concatenate([out, expm_stack(others)])[order]
    assert expm_stack(mixed).tobytes() == expected.tobytes()
    assert expected.tobytes() == _expm_stack_reference(mixed)[0].tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16])
def test_a_complex_or_two_row_slice_sends_the_stack_to_matmul_with_the_same_bytes(n):
    rng = np.random.default_rng(2620 + n)
    one_row = _one_row_stack(rng, n)
    # Two slices well inside the limit, so that neither leaves the stack.
    i, j = np.flatnonzero((_one_norms(one_row) > 0.1) & (_one_norms(one_row) < 100.0))[:2]
    stacks = [one_row.copy()]
    stacks[0][i, 0, -1] += 1e-3j
    if n > 1:
        stacks.append(one_row.copy())
        stacks[1][j, n - 1, 0] = 0.25
    for stack in stacks:
        out, taylor, _ = _taylor_products(stack)
        assert taylor > 0
        assert out.tobytes() == _expm_stack_reference(stack)[0].tobytes()
        for a, e in zip(stack, out):
            assert expm(a).tobytes() == e.tobytes()
    # The real one-row slices kept their bits through the other path.
    same = np.ones(len(one_row), dtype=bool)
    same[[i, j]] = False
    assert out[same].tobytes() == _taylor_products(one_row)[0][same].tobytes()


_SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e-300]


def _awkward_stack(rng, N, n, scale=1.0):
    """N complex n x n matrices whose parts span 40 decades times scale, a
    third of the slices with no special value, the others with NaN, +-inf,
    -0.0 or subnormal parts at a rate of 1 % or 20 %."""
    parts = rng.normal(size=(N, n, 2 * n)) * 10.0 ** rng.uniform(-20.0, 20.0, size=(N, n, 2 * n)) * scale
    rate = rng.choice([0.0, 0.01, 0.2], size=(N, 1, 1))
    special = rng.random(parts.shape) < rate
    parts[special] = rng.choice(_SPECIALS, size=int(special.sum()))
    return parts.view(complex)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 16, 64])
def test_one_norms_has_the_bits_of_the_reduction_within_each_slice(n):
    rng = np.random.default_rng(2500 + n)
    stacks = [_awkward_stack(rng, N, n) for N in (1, 3, 40)]
    stacks.append(_awkward_stack(rng, 40, n, 1e-290))  # subnormal column sums
    # A finite, an infinite and a NaN norm, whatever the draws gave.
    stacks.append(np.ones((3, n, n), dtype=complex))
    stacks[-1][0, -1, 0], stacks[-1][1, 0, -1] = complex(-np.inf, 1.0), complex(0.0, np.nan)
    # Real stacks, as a one-row stack's loop passes, here as strided views
    # of their real parts.
    stacks += [A.real for A in stacks]
    # expm_stack's buffer of terms and partial sums, cut by np.compress.
    buf = np.stack([_awkward_stack(rng, 40, n), _awkward_stack(rng, 40, n)])
    cut = rng.random(40) < 0.5
    stacks += [np.compress(cut, buf, axis=1), np.compress(cut, buf.real, axis=1)]
    for A in stacks:
        expected = np.maximum.reduce(np.add.reduce(np.abs(A), axis=-2), axis=-1).ravel()
        assert np.array_equal(_one_norms(A).view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("shape", [(0, 2, 2), (1, 1, 1), (7, 2, 2), (5, 3, 3), (4, 8, 8), (3, 2, 64, 64), (2, 2)])
def test_per_slice_is_all_and_any_over_each_matrix(shape):
    rng = np.random.default_rng(2520 + len(shape) + shape[-1])
    for rate in (0.0, 0.02, 0.5, 0.98, 1.0):
        mask = rng.random(shape) < rate
        for ufunc, reduce in ((np.logical_and, mask.all), (np.logical_or, mask.any)):
            got, expected = _per_slice(ufunc, mask), reduce(axis=(-2, -1))
            assert got.shape == expected.shape and got.dtype == expected.dtype
            assert np.array_equal(got, expected)


def test_rel_residuals_flags_a_non_finite_pair_as_the_reduction_within_each_pair_does():
    rng = np.random.default_rng(2530)
    for shape_a, shape_b in (((9, 2, 2), (9, 2, 2)), ((3, 3), (6, 3, 3)), ((2, 5, 4, 4), (5, 4, 4))):
        A, B = (_awkward_stack(rng, int(np.prod(s[:-2])), s[-1]).reshape(s) for s in (shape_a, shape_b))
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(_rel_residuals(A, B))
        expected = np.isfinite(A).all(axis=(-2, -1)) & np.isfinite(B).all(axis=(-2, -1))
        assert finite.shape == expected.shape and np.array_equal(finite, expected)


def test_expm_stack_validates_its_input():
    assert expm_stack(np.zeros((0, 2, 2))).shape == (0, 2, 2)
    with pytest.raises(DimensionMismatch):
        expm_stack(np.zeros((2, 2)))
    with pytest.raises(DimensionMismatch):
        expm_stack(np.zeros((3, 2, 4)))


# -------------------------------------------------------- conjugate_series


def test_conjugate_series_zero_terms_returns_target():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3)).astype(complex)
    b = rng.normal(size=(3, 3)).astype(complex)
    assert np.array_equal(conjugate_series(a, b, 0.9, 0), b)


def test_conjugate_series_commuting_case_is_constant():
    a = np.diag([1.0, 2.0]).astype(complex)
    b = np.diag([3.0, 4.0]).astype(complex)
    out = conjugate_series(a, b, 2.5, 12)
    assert np.array_equal(out, b)


def test_conjugate_series_matches_triple_product():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    t = 0.5
    series = conjugate_series(a, b, t, 40)
    direct = expm(-t * a) @ b @ expm(t * a)
    assert np.linalg.norm(series - direct) <= 1e-12 * np.linalg.norm(direct)


def test_conjugate_series_rejects_negative_terms():
    with pytest.raises(ValueError):
        conjugate_series(E12, E21, 1.0, -1)


# ------------------------------------------------------------ rel_residual


def test_rel_residual_identical_inputs():
    a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert rel_residual(a, a) == 0.0


def test_rel_residual_zero_matrices():
    z = np.zeros((2, 2), dtype=complex)
    assert rel_residual(z, z) == 0.0


def test_rel_residual_identity_vs_twice_identity():
    # ||I - 2I||_F = sqrt(2); max(1, sqrt(2), 2 sqrt(2)) = 2 sqrt(2); ratio 1/2
    out = rel_residual(np.eye(2), 2.0 * np.eye(2))
    assert abs(out - 0.5) < 1e-15


def test_rel_residual_scale_guard_for_tiny_matrices():
    a = np.zeros((2, 2), dtype=complex)
    b = np.full((2, 2), 1e-18, dtype=complex)
    # denominator clamps at 1, so the residual stays tiny instead of O(1)
    assert rel_residual(a, b) < 1e-17


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_rel_residual_past_the_range_of_the_squared_norms():
    # Every entry is finite but a sum of squares is not: the residual is
    # the one of the same matrices scaled by a power of two, bit for bit.
    rng = np.random.default_rng(5)
    A = 1e200 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    B = A * (1.0 + 1e-9 * rng.standard_normal((3, 3)))
    small = rel_residual(A * 2.0**-600, B * 2.0**-600)
    assert 1e-11 < small < 1e-8
    assert _bits(rel_residual(A, B)) == _bits(small)
    residuals = _rel_residuals(np.stack([A, A]), np.stack([B, A]))
    assert np.isfinite(residuals).all() and [_bits(r) for r in residuals] == [_bits(small), _bits(0.0)]
    # ||A||^2 and ||B||^2 are in range and ||A - B||^2 is not.
    A = np.diag([1.3e154, 0.0]).astype(complex)
    assert rel_residual(A, -A) == 2.0
    assert _rel_residuals(A[None], -A[None]).tolist() == [2.0]


# --------------------------------------------------------------- infer_uvc


def test_infer_uvc_recovers_affine_structure():
    pair = affine_2x2(1.0, -2.0, 1.0, 1.0)
    u, v, c, fit = infer_uvc(pair.X, pair.Y)
    assert abs(u - 1.0) < 1e-12
    assert abs(v + 2.0) < 1e-12
    assert abs(c) < 1e-12
    assert fit <= 1e-14


def test_infer_uvc_on_equal_inputs_gives_zero_commutator():
    a = np.array([[1.0, 2.0], [0.0, -1.0]], dtype=complex)
    u, v, c, fit = infer_uvc(a, a)
    assert (u, v, c) == (0, 0, 0)
    assert fit == 0.0


@pytest.mark.parametrize("s", [1.0, 1e-5])
def test_infer_uvc_flags_pairs_outside_the_class(s):
    # [sE12, sE21] = s^2 diag(1, -1) is not spanned by {E12, E21, I}, and is
    # as far from that span at s = 1e-5 as at s = 1: a fit floored at 1
    # read 1.4e-10 there.
    _, _, _, fit = infer_uvc(s * E12, s * E21)
    assert fit > 1


def test_infer_uvc_on_nearly_parallel_inputs():
    # [X, Y] = 1e-7 diag(1, -1) is nearly in span{X, Y, I}; the fit says
    # how nearly, relative to ||X|| ||Y||.
    x = E12
    y = E12 + 1e-7 * E21
    u, v, c, fit = infer_uvc(x, y)
    assert np.isfinite(fit)
    assert fit <= 1e-6


def _uvc_error(pair, s, inferred):
    # The error of the (u, v, c) inferred for (sX, Y/s), each weighted by
    # the norm of its basis matrix and taken relative to the true ones.
    n = pair.dim
    weights = np.array([np.linalg.norm(s * pair.X), np.linalg.norm(pair.Y / s), math.sqrt(n)])
    true = np.array([pair.u / s, pair.v * s, pair.c])
    return np.linalg.norm((np.array(inferred) - true) * weights) / np.linalg.norm(true * weights)


@pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-12])
def test_infer_uvc_recovers_a_pair_with_a_small_v(eps):
    # X = [[eps, eps], [0, 0]] is small beside Y: a Gram system of
    # {X, Y, I} squared its conditioning and lost u.
    pair = affine_2x2(1.0, eps, eps, 1.0)
    u, v, c, fit = infer_uvc(pair.X, pair.Y)
    assert _uvc_error(pair, 1.0, (u, v, c)) <= 1e-14
    assert fit <= 1e-14


@pytest.mark.parametrize("s", [1e-6, 1e-3, 1e3, 1e4, 1e6])
@pytest.mark.parametrize(
    "build",
    [
        lambda: affine_2x2(1, 2, 1, 1),
        lambda: su11_pair(Ladder.LOWER_SQ, 8),
        lindblad_pair,
        lambda: shift_center(affine_2x2(1, 2, 1, 1), 0.3),
    ],
    ids=["affine2", "su11-lower", "lindblad", "shifted-affine2"],
)
def test_infer_uvc_recovers_a_scaled_pair(build, s):
    # [sX, Y/s] = [X, Y] = (u/s) sX + (vs) Y/s + c.
    pair = build()
    u, v, c, fit = infer_uvc(s * pair.X, pair.Y / s)
    assert _uvc_error(pair, s, (u, v, c)) <= 1e-14
    assert fit <= 1e-14


def test_infer_uvc_fits_a_commutator_that_cancels():
    # [X, Y] = (1 + v) E12 with v = -1 + 1e-9: X and Y are nearly parallel,
    # so u and v are ill-determined, but the fit is not.
    pair = affine_2x2(1.0, -1.0 + 1e-9, 1.0, 1.0)
    assert infer_uvc(pair.X, pair.Y)[3] <= 1e-14


@pytest.mark.parametrize(
    "x, y",
    [
        ([[0.0, 1e200], [0.0, 0.0]], [[1.0, 1e200], [0.0, 0.0]]),
        ([[1.0, 1e200], [0.0, 0.0]], [[0.0, 1e200], [0.0, 0.0]]),
        ([[1.0, 1.0], [0.0, 0.0]], [[1.0 + 1e-15, 1.0], [0.0, 0.0]]),
    ],
)
def test_infer_uvc_refuses_a_dependent_basis_with_a_nonzero_commutator(x, y):
    # [X, Y] = -X, Y and Y - (1 + 1e-15) X: in the class, but X and Y
    # differ only far below their norm, so lstsq's rank is 2.  Its
    # minimum-norm solution had u = v, with a fit below 4e-16.
    with pytest.raises(ValueError, match=r"^X, Y and the identity are numerically dependent"):
        infer_uvc(x, y)


def test_infer_uvc_accepts_a_dependent_basis_whose_commutator_is_zero():
    # Rank 1: X, Y and I are all multiples of I, and [X, Y] = 0.
    assert infer_uvc(2.0 * np.eye(3), -np.eye(3))[3] == 0.0


def test_infer_uvc_refuses_a_commutator_that_is_not_finite():
    x = np.array([[1e160, 1e160], [0.0, 0.0]])
    y = np.array([[0.0, 1e160], [0.0, 1e160]])
    with pytest.raises(ValueError, match=r"^\[X, Y\] is not finite"):
        infer_uvc(x, y)


# ------------------------------------------------------------- load_matrix


def test_load_matrix_round_trip(tmp_path):
    path = tmp_path / "m.json"
    payload = {
        "dim": 2,
        "re": [[1.0, 2.0], [3.0, 4.0]],
        "im": [[0.0, -1.0], [0.5, 0.0]],
    }
    path.write_text(json.dumps(payload))
    out = load_matrix(path)
    expected = np.array([[1.0, 2.0 - 1.0j], [3.0 + 0.5j, 4.0]])
    assert np.array_equal(out, expected)


def test_load_matrix_imaginary_part_defaults_to_zero(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"dim": 2, "re": [[0.0, 1.0], [0.0, 0.0]]}))
    assert np.array_equal(load_matrix(path), E12)


def test_load_matrix_rejects_malformed_payload(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"re": [[1.0]]}))
    with pytest.raises(ValueError):
        load_matrix(path)


@pytest.mark.parametrize(
    ("payload", "field"),
    [
        ({"dim": True, "re": [[2.0]], "im": [[0.5]]}, "dim"),
        ({"dim": True, "re": [[2.0]]}, "dim"),
        ({"dim": False, "re": [[2.0]]}, "dim"),
        ({"dim": 2, "re": [[True, 2], [3, 4]]}, "re"),
        ({"dim": 2, "re": [[1, 2], [3, 4]], "im": [[0, 0], [False, 0]]}, "im"),
        ({"dim": 1, "re": [["2.5"]]}, "re"),
        ({"dim": 1, "re": [[2.5]], "im": [[None]]}, "im"),
    ],
)
def test_load_matrix_rejects_entries_that_are_not_json_numbers(tmp_path, payload, field):
    # numpy reads true and false as 1.0 and 0.0, "2.5" as 2.5 and null as nan.
    path = tmp_path / "m.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: '{field}' "):
        load_matrix(path)


@pytest.mark.parametrize(
    ("text", "field"),
    [
        ('{"dim": 2, "re": [[1, 2], [3]]}', "re"),
        ('{"dim": 2, "re": [[1, 2], [3, 4], [5, 6]]}', "re"),
        ('{"dim": 2, "re": [[1, 2], [3, 4]], "im": [[0, 0], 0]}', "im"),
        ('{"dim": 1, "re": [[[1.0]]]}', "re"),
        ('{"dim": 2, "re": [1, 2]}', "re"),
    ],
    ids=["short-row", "extra-row", "row-not-a-list", "nested-entry", "flat"],
)
def test_load_matrix_reports_a_ragged_part_as_a_shape_fault(tmp_path, text, field):
    # numpy read [[1, 2], [3]] as "setting an array element with a sequence".
    path = tmp_path / "m.json"
    path.write_text(text)
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(str(path))}: '{field}' must be a "):
        load_matrix(path)


@pytest.mark.parametrize(
    ("text", "field"),
    [
        ('{"dim": 1, "re": [[NaN]]}', "re"),
        ('{"dim": 2, "re": [[1, 2], [Infinity, 4]]}', "re"),
        ('{"dim": 1, "re": [[1]], "im": [[-Infinity]]}', "im"),
        ('{"dim": 1, "re": [[1' + "0" * 400 + ']]}', "re"),
    ],
    ids=["nan", "infinity", "minus-infinity", "integer-past-double-range"],
)
def test_load_matrix_names_the_file_for_an_entry_that_is_not_finite(tmp_path, text, field):
    # The NaN and infinities raised "matrix entries must be finite" without
    # the file, and the integer an OverflowError.
    path = tmp_path / "m.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: '{field}' entries must be finite JSON numbers$"):
        load_matrix(path)


def test_load_matrix_rejects_shape_mismatch(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"dim": 3, "re": [[1.0, 0.0], [0.0, 1.0]]}))
    with pytest.raises((ValueError, DimensionMismatch)):
        load_matrix(path)


# ------------------------------------------------------- Frobenius norms


def _bits(x):
    return np.float64(x).tobytes()


def _seeded_matrices():
    rng = np.random.default_rng(2024)
    for d in (1, 2, 3, 4, 8, 16):
        yield np.zeros((d, d), dtype=complex)
        for exponent in (-300, -150, -8, 0, 8, 150, 300):
            A = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) * 10.0**exponent
            yield A
            yield A.T  # a transposed view: not C-contiguous
        # Entries from 1e-300 to 1e300 in one matrix.
        spread = 10.0 ** rng.uniform(-300.0, 300.0, (2, d, d))
        A = rng.standard_normal((d, d)) * spread[0] + 1j * rng.standard_normal((d, d)) * spread[1]
        yield A
        yield A.T


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_frobenius_has_the_bits_of_numpy_norm():
    matrices = list(_seeded_matrices())
    assert len(matrices) == 6 * 17
    for A in matrices:
        assert _bits(_frobenius(A)) == _bits(np.linalg.norm(A))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 16, 64])
def test_stacked_norms_and_residuals_have_the_bits_of_each_slice(d):
    rng = np.random.default_rng(d)
    N = 12
    scale = 10.0 ** rng.uniform(-300.0, 300.0, (N, 1, 1))
    A = (rng.standard_normal((N, d, d)) + 1j * rng.standard_normal((N, d, d))) * scale
    B = A * (1.0 + 1e-12 * rng.standard_normal((N, d, d)))
    B[1] = rng.standard_normal((d, d))  # unrelated
    B[2, 0, 0] = np.inf  # rel_residual raises; the kernels give NaN
    B[3, -1, -1] = np.nan
    A[4] = 0.0
    B[4] = 0.0
    for i in range(N):
        assert _bits(_frobenius_stack(A)[i]) == _bits(_frobenius(A[i]))
    residuals = _rel_residuals(A, B)
    for i in range(N):
        want = _rel_residual(A[i], B[i])
        if i in (2, 3):
            assert math.isnan(want) and math.isnan(residuals[i])
            with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                rel_residual(A[i], B[i])
        else:
            assert _bits(residuals[i]) == _bits(want)
    assert np.isfinite(residuals).tolist() == [i not in (2, 3) for i in range(N)]


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_broadcast_residuals_have_the_bits_of_each_pair(d):
    # One matrix, or a stack, against several of each: a product's partial
    # products checked in one call, for one pair or a block of points.
    rng = np.random.default_rng(d)
    A = rng.standard_normal((4, d, d)) + 1j * rng.standard_normal((4, d, d))
    B = A * (1.0 + 1e-12 * rng.standard_normal((5, 4, d, d)))
    residuals = _rel_residuals(A, B)
    assert residuals.shape == (5, 4) and np.isfinite(residuals).all()
    for j in range(5):
        for i in range(4):
            assert _bits(residuals[j, i]) == _bits(_rel_residual(A[i], B[j, i]))
    residuals = _rel_residuals(A[0], np.ascontiguousarray(B[:, 0]))
    assert residuals.shape == (5,) and np.isfinite(residuals).all()
    for j in range(5):
        assert _bits(residuals[j]) == _bits(_rel_residual(A[0], B[j, 0]))


@pytest.mark.parametrize(
    "a_shape, b_shape",
    [((1680, 2, 2), (1680, 2, 2))] + [((1, n, n), (29, 1, n, n)) for n in (2, 3, 4, 8)],
)
def test_rel_residuals_takes_the_distance_before_either_scale_norm(monkeypatch, a_shape, b_shape):
    # A sweep block's stack, and the product check's 29 partial products
    # against one e^{X+Y}.  The complex subtract runs before the first
    # Frobenius pass, so no pass runs in the slow register state a BLAS
    # product leaves; the bits stay those of _rel_residual.
    rng = np.random.default_rng(len(b_shape) * b_shape[-1])
    A = rng.standard_normal(a_shape) + 1j * rng.standard_normal(a_shape)
    B = A * (1.0 + 1e-13 * rng.standard_normal(b_shape))
    seen = []

    def spy(x):
        seen.append(x.copy())
        return _frobenius_stack(x)

    monkeypatch.setattr(matrices, "_frobenius_stack", spy)
    residuals = _rel_residuals(A, B)
    monkeypatch.undo()
    assert len(seen) == 3
    assert seen[0].shape == np.broadcast_shapes(a_shape, b_shape)
    assert seen[0].tobytes() == (A - B).tobytes()
    assert residuals.shape == b_shape[:-2]
    A, B = np.broadcast_arrays(A, B)
    for index in np.ndindex(residuals.shape):
        assert _bits(residuals[index]) == _bits(_rel_residual(A[index], B[index]))
