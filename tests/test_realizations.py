"""Concrete matrix pairs: structure relations, builders, validation."""

import math
import warnings

import numpy as np
import pytest

from zassenhaus.matrices import commutator, expm, infer_uvc, rel_residual
from zassenhaus.realizations import (
    AlgebraPair,
    DegenerateError,
    DimensionError,
    Ladder,
    affine_2x2,
    heisenberg_3x3,
    lindblad_pair,
    shift_center,
    su11_pair,
)


def _all_named_pairs():
    return [
        affine_2x2(1.0, 2.0, 1.0, 1.0),
        affine_2x2(-1.0, 0.5, 1.0, -1.0),
        affine_2x2(1.0 + 1.0j, -2.0, 1.0, 1.0),
        shift_center(affine_2x2(1.0, 2.0, 1.0, 1.0), -1.0),
        shift_center(affine_2x2(1.0, 2.0, 1.0, 1.0), 2.0),
        heisenberg_3x3(1.0),
        heisenberg_3x3(-0.75),
        su11_pair(Ladder.RAISE_SQ, 8),
        su11_pair(Ladder.LOWER_SQ, 8),
        lindblad_pair(),
    ]


# -------------------------------------------------------------- AlgebraPair


def test_pair_arrays_are_read_only():
    pair = affine_2x2(1.0, 2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        pair.X[0, 0] = 99.0


def test_pair_dim_property():
    assert heisenberg_3x3(1.0).dim == 3
    assert lindblad_pair().dim == 4


def test_pair_validates_member_shapes():
    with pytest.raises(Exception):
        AlgebraPair(
            X=np.zeros((2, 2), dtype=complex),
            Y=np.zeros((3, 3), dtype=complex),
            u=0j,
            v=0j,
            c=0j,
            W=np.zeros((2, 2), dtype=complex),
            name="bad",
        )


# --------------------------------------------------------------- affine_2x2


@pytest.mark.parametrize(
    "u,v,b,d",
    [
        (1.0, 2.0, 1.0, 1.0),
        (-2.0, 1.0, 0.5, 1.5),
        (1.0 + 1.0j, -1.0 + 2.0j, 1.0, 1.0),
        (0.0, 3.0, 1.0, 1.0),
        (3.0, 0.0, 1.0, 1.0),
    ],
)
def test_affine_commutator_matches_declared_structure(u, v, b, d):
    pair = affine_2x2(u, v, b, d)
    lhs = commutator(pair.X, pair.Y)
    rhs = pair.u * pair.X + pair.v * pair.Y + pair.c * np.eye(2)
    assert rel_residual(lhs, rhs) <= 1e-15
    assert np.array_equal(pair.W, lhs)  # stored bracket is the exact product


def test_affine_rejects_degenerate_bracket():
    with pytest.raises(DegenerateError):
        affine_2x2(1.0, -1.0, 1.0, 1.0)  # u*b + v*d == 0


@pytest.mark.parametrize(
    "build",
    [
        lambda: affine_2x2(math.inf, 1.0, 1.0, 1.0),
        lambda: affine_2x2(1.0, complex(0.0, math.nan), 1.0, 1.0),
        lambda: affine_2x2(1.0, 2.0, -math.inf, 1.0),
        lambda: affine_2x2(1.0, 2.0, 1.0, math.nan),
        lambda: heisenberg_3x3(math.inf),
        lambda: heisenberg_3x3(complex(1.0, math.nan)),
    ],
)
def test_a_non_finite_entry_raises_without_a_warning(build):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^matrix entries must be finite$"):
            build()


def test_affine_round_trips_through_inference():
    pair = affine_2x2(1.5, -0.5, 2.0, 1.0)
    u, v, c, fit = infer_uvc(pair.X, pair.Y)
    assert abs(u - 1.5) < 1e-12 and abs(v + 0.5) < 1e-12 and abs(c) < 1e-12
    assert fit <= 1e-14


# ------------------------------------------------------------- shift_center


def test_shift_center_zero_returns_same_object():
    pair = affine_2x2(1.0, 2.0, 1.0, 1.0)
    assert shift_center(pair, 0.0) is pair


def test_shift_center_reproduces_requested_central_charge():
    pair = shift_center(affine_2x2(1.0, 2.0, 1.0, 1.0), 5.0)
    u, v, c, fit = infer_uvc(pair.X, pair.Y)
    assert abs(u - 1.0) < 1e-12
    assert abs(v - 2.0) < 1e-12
    assert abs(c - 5.0) < 1e-12
    assert fit <= 1e-14
    assert pair.c == 5.0 + 0.0j


def test_shift_center_uses_second_generator_when_u_vanishes():
    base = affine_2x2(0.0, 3.0, 1.0, 1.0)
    pair = shift_center(base, 2.0)
    u, v, c, fit = infer_uvc(pair.X, pair.Y)
    assert abs(u) < 1e-12 and abs(v - 3.0) < 1e-12 and abs(c - 2.0) < 1e-12
    assert fit <= 1e-14
    assert np.array_equal(pair.X, base.X)  # only Y was moved


def test_shift_center_keeps_bracket_matrix():
    base = affine_2x2(1.0, 2.0, 1.0, 1.0)
    pair = shift_center(base, -1.0)
    assert np.array_equal(pair.W, base.W)
    assert rel_residual(commutator(pair.X, pair.Y), pair.W) <= 1e-15


def test_shift_center_rejects_pure_central_bracket():
    with pytest.raises(DegenerateError):
        shift_center(heisenberg_3x3(1.0), 1.0)  # u = v = 0, nothing to absorb


# ------------------------------------------------------------ heisenberg_3x3


def test_heisenberg_bracket_is_central():
    pair = heisenberg_3x3(1.0)
    zero = np.zeros((3, 3), dtype=complex)
    assert np.array_equal(commutator(pair.X, pair.W), zero)
    assert np.array_equal(commutator(pair.Y, pair.W), zero)
    assert (pair.u, pair.v) == (0j, 0j)
    assert pair.c == 1.0 + 0.0j


def test_heisenberg_central_charge_is_linear():
    assert np.array_equal(heisenberg_3x3(2.0).W, 2.0 * heisenberg_3x3(1.0).W)
    assert heisenberg_3x3(2.0).c == 2.0 + 0.0j


def test_heisenberg_rejects_vanishing_center():
    with pytest.raises(DegenerateError):
        heisenberg_3x3(0.0)


def test_heisenberg_splitting_with_central_correction():
    pair = heisenberg_3x3(1.0)
    lhs = expm(pair.X + pair.Y)
    rhs = expm(pair.X) @ expm(pair.Y) @ expm(-0.5 * pair.W)
    assert np.linalg.norm(lhs - rhs) <= 1e-14


# ----------------------------------------------------------------- su11_pair


@pytest.mark.parametrize("which", [Ladder.RAISE_SQ, Ladder.LOWER_SQ])
@pytest.mark.parametrize("N", [6, 8, 12])
def test_su11_bracket_is_exact_multiple_of_x(which, N):
    pair = su11_pair(which, N)
    assert np.array_equal(pair.W, pair.u * pair.X)  # bitwise by construction
    assert pair.v == 0j and pair.c == 0j
    # and the stored bracket agrees with the actual matrix product
    assert np.abs(commutator(pair.X, pair.Y) - pair.W).max() <= 1e-13


def test_su11_signs_distinguish_the_ladders():
    up = su11_pair(Ladder.RAISE_SQ, 8)
    down = su11_pair(Ladder.LOWER_SQ, 8)
    assert up.u == -2.0 + 0.0j
    assert down.u == 2.0 + 0.0j
    assert up.name == "su11_raise_sq(N=8)"
    assert down.name == "su11_lower_sq(N=8)"


def test_su11_accepts_string_flavor():
    pair = su11_pair("RaiseSq", 6)
    assert pair.name == "su11_raise_sq(N=6)"


def test_su11_rejects_out_of_range_dimension():
    with pytest.raises(DimensionError):
        su11_pair(Ladder.RAISE_SQ, 3)
    with pytest.raises(DimensionError):
        su11_pair(Ladder.RAISE_SQ, 17)
    with pytest.raises(DimensionError):
        su11_pair(Ladder.RAISE_SQ, 8.0)  # non-integer dimension


def test_su11_round_trips_through_inference():
    pair = su11_pair(Ladder.RAISE_SQ, 8)
    u, v, c, fit = infer_uvc(pair.X, pair.Y)
    assert abs(u + 2.0) < 1e-12 and abs(v) < 1e-12 and abs(c) < 1e-12
    assert fit <= 1e-13


# -------------------------------------------------------------- lindblad_pair


def test_lindblad_convention_is_pinned():
    pair = lindblad_pair()
    assert pair.name == "lindblad(scale=1/sqrt2, product=lk)"


def test_lindblad_bracket_structure():
    pair = lindblad_pair()
    lhs = commutator(pair.X, pair.Y)
    rhs = pair.u * pair.X + pair.v * pair.Y
    assert rel_residual(lhs, rhs) <= 1e-12
    assert (pair.u, pair.v, pair.c) == (1.0 + 0.0j, -1.0 + 0.0j, 0j)


def _dissipator_pair(scale, order):
    # The dissipator pair under one normalization convention: jump
    # operators scaled by `scale`, non-jump terms from sigma_l sigma_k
    # ("lk") or sigma_k sigma_l ("kl").
    paulis = (
        scale * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        scale * np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    )
    eye = np.eye(2, dtype=complex)

    def dissipator(sk, sl):
        last = sl @ sk if order == "lk" else sk @ sl
        return np.kron(sl.T, sk) - 0.5 * np.kron(eye, sl @ sk) - 0.5 * np.kron(last.T, eye)

    (d11, d12), (d21, d22) = [[dissipator(a, b) for b in paulis] for a in paulis]
    d_up = 0.5 * (d11 + d22 + 1j * (-d12 + d21))
    d_dn = 0.5 * (d11 + d22 + 1j * (d12 - d21))
    return d_up, d_dn


def test_lindblad_pair_is_the_one_convention_that_closes():
    pair = lindblad_pair()
    d_up, d_dn = _dissipator_pair(1.0 / math.sqrt(2.0), "lk")
    assert np.array_equal(pair.X, d_up) and np.array_equal(pair.Y, d_dn)
    for scale, order in ((1.0, "lk"), (1.0 / math.sqrt(2.0), "kl"), (1.0, "kl")):
        d_up, d_dn = _dissipator_pair(scale, order)
        assert rel_residual(commutator(d_up, d_dn), d_up - d_dn) > 1e-3


def test_lindblad_inference_round_trip():
    pair = lindblad_pair()
    u, v, c, fit = infer_uvc(pair.X, pair.Y)
    assert abs(u - 1.0) < 1e-10
    assert abs(v + 1.0) < 1e-10
    assert abs(c) < 1e-10
    assert fit <= 1e-12


def test_lindblad_is_deterministic():
    a, b = lindblad_pair(), lindblad_pair()
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.Y, b.Y)


# ------------------------------------------------------- structure relations


@pytest.mark.parametrize("pair", _all_named_pairs(), ids=lambda p: p.name)
def test_adjoint_action_on_bracket(pair):
    # [X, W] = v W and [Y, W] = -u W for every realization in the class
    lhs_x = commutator(pair.X, pair.W)
    lhs_y = commutator(pair.Y, pair.W)
    assert rel_residual(lhs_x, pair.v * pair.W) <= 1e-12
    assert rel_residual(lhs_y, -pair.u * pair.W) <= 1e-12


@pytest.mark.parametrize("pair", _all_named_pairs(), ids=lambda p: p.name)
def test_stored_bracket_matches_matrix_product(pair):
    # W is the matrix commutator for every realization; the central term is
    # represented by the identity only in the affine family, so the span
    # decomposition with identity is checked separately above.
    assert rel_residual(pair.W, commutator(pair.X, pair.Y)) <= 1e-12


@pytest.mark.parametrize("c", [-1.0, 0.0, 2.0])
def test_affine_center_is_realized_by_the_identity(c):
    base = affine_2x2(1.0, 2.0, 1.0, 1.0)
    pair = shift_center(base, c) if c else base
    expected = pair.u * pair.X + pair.v * pair.Y + pair.c * np.eye(pair.dim)
    assert rel_residual(commutator(pair.X, pair.Y), expected) <= 1e-12
