"""Matrix kernel: exponentials, commutators, residuals, inference, loading."""

import json
import math
import re

import numpy as np
import pytest
import scipy.linalg

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
from zassenhaus.matrices import _frobenius_stack, _rel_residuals

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
    rng = np.random.default_rng(31)
    stack = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    stack[2] = np.diag([701.0, 0.0, 0.0])
    out = expm_stack(stack)
    assert np.isnan(out[2]).all()
    for i in (0, 1, 3, 4):
        assert np.array_equal(out[i], expm(stack[i]))
        assert np.array_equal(out[i], expm_stack(stack[i:i + 1])[0])
    with pytest.raises(OverflowError, match="exceeds 700"):
        expm(stack[2])


def test_expm_stack_validates_its_input():
    assert expm_stack(np.zeros((0, 2, 2))).shape == (0, 2, 2)
    with pytest.raises(DimensionMismatch):
        expm_stack(np.zeros((2, 2)))
    with pytest.raises(DimensionMismatch):
        expm_stack(np.zeros((3, 2, 4)))
    with pytest.raises(ValueError, match="finite"):
        expm_stack(np.full((1, 2, 2), np.inf))


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


# --------------------------------------------------------------- infer_uvc


def test_infer_uvc_recovers_affine_structure():
    from zassenhaus.realizations import affine_2x2

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


def test_infer_uvc_flags_pairs_outside_the_class():
    # [E12, E21] = diag(1, -1) is not spanned by {E12, E21, I}
    _, _, _, fit = infer_uvc(E12, E21)
    assert fit > 0.1


def test_infer_uvc_min_norm_fallback_on_degenerate_gram():
    # nearly parallel inputs make the Gram matrix ill-conditioned
    x = E12
    y = E12 + 1e-7 * E21
    u, v, c, fit = infer_uvc(x, y)
    assert np.isfinite(fit)
    assert fit <= 1e-6


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
    B[2, 0, 0] = np.inf  # rel_residual raises
    B[3, -1, -1] = np.nan
    A[4] = 0.0
    B[4] = 0.0
    for i in range(N):
        assert _bits(_frobenius_stack(A)[i]) == _bits(_frobenius(A[i]))
    residuals, finite = _rel_residuals(A, B)
    for i in range(N):
        try:
            want = _rel_residual(A[i], B[i])
        except ValueError:
            assert not finite[i]
        else:
            assert finite[i]
            assert _bits(residuals[i]) == _bits(want)
    assert finite.tolist() == [i not in (2, 3) for i in range(N)]


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_broadcast_residuals_have_the_bits_of_each_pair(d):
    # One matrix, or a stack, against several of each: a product's partial
    # products checked in one call, for one pair or a block of points.
    rng = np.random.default_rng(d)
    A = rng.standard_normal((4, d, d)) + 1j * rng.standard_normal((4, d, d))
    B = A * (1.0 + 1e-12 * rng.standard_normal((5, 4, d, d)))
    residuals, finite = _rel_residuals(A, B)
    assert residuals.shape == finite.shape == (5, 4) and finite.all()
    for j in range(5):
        for i in range(4):
            assert _bits(residuals[j, i]) == _bits(_rel_residual(A[i], B[j, i]))
    residuals, finite = _rel_residuals(A[0], np.ascontiguousarray(B[:, 0]))
    assert residuals.shape == finite.shape == (5,) and finite.all()
    for j in range(5):
        assert _bits(residuals[j]) == _bits(_rel_residual(A[0], B[j, 0]))
