"""A sweep block's array form of g_right: the scalar bits at every point it computes."""

import math
import struct
import tracemalloc

import numpy as np
import pytest

from zassenhaus import coeffs, sweep, verify
from zassenhaus.coeffs import g_left, g_right
from zassenhaus.realizations import affine_2x2, heisenberg_3x3
from zassenhaus.sweep import lattice_points, lattice_residuals

_RNG_SEED = 21
_BOUND = sweep._ARRAY_BOUND


def _lattice():
    grid = np.linspace(-2.0, 2.0, 41)
    return np.repeat(grid, 41), np.tile(grid, 41)


def _random_box():
    rng = np.random.default_rng(_RNG_SEED)
    return rng.uniform(-30.0, 30.0, 2000), rng.uniform(-30.0, 30.0, 2000)


def _near_diagonal():
    # |u - v| < SWITCH up to the bound: the kernel squares up to 9 times.
    rng = np.random.default_rng(_RNG_SEED + 1)
    u = np.concatenate([rng.uniform(-_BOUND, _BOUND, 1500), [_BOUND, -_BOUND, 255.0, -255.0]])
    return u, np.clip(u + rng.uniform(-0.25, 0.25, len(u)), -_BOUND, _BOUND)


def _near_axis():
    # One of u, v within 1e-12..SWITCH of 0, the other anywhere in the bound.
    rng = np.random.default_rng(_RNG_SEED + 2)
    small = rng.choice([-1.0, 1.0], 1000) * 10.0 ** rng.uniform(-12.0, math.log10(0.25), 1000)
    large = rng.uniform(-_BOUND, _BOUND, 1000)
    return np.concatenate([small, large]), np.concatenate([large, small])


def _zeros():
    # Both signs of zero, the seams and the bound, each against each.
    z = np.array([0.0, -0.0, 0.25, -0.25, 0.5, -1.0, 1e-300, -5e-324, _BOUND, -_BOUND])
    return np.repeat(z, len(z)), np.tile(z, len(z))


SETS = {
    "lattice-41x41": _lattice,
    "box-30": _random_box,
    "near-diagonal": _near_diagonal,
    "near-axis": _near_axis,
    "zeros": _zeros,
}


def _bits(z: complex) -> bytes:
    return struct.pack("2d", z.real, z.imag)


def _complex(re, im):
    z = np.array(re, dtype=complex)
    z.imag = im
    return z


@pytest.mark.parametrize("imag", [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)])
@pytest.mark.parametrize("fn", [g_right, g_left], ids=["g_right", "g_left"])
@pytest.mark.parametrize("name", sorted(SETS))
def test_the_array_form_has_the_scalar_bits(name, fn, imag):
    ur, vr = SETS[name]()
    u, v = _complex(ur, imag[0]), _complex(vr, imag[1])
    values, done = sweep._ARRAYS[fn](u, v)
    assert done.all()
    want = [_bits(fn(a, b).value) for a, b in zip(u.tolist(), v.tolist())]
    assert [_bits(z) for z in values.tolist()] == want


def test_the_sets_reach_both_paths_and_nine_squarings():
    methods, squarings = set(), []
    for make in SETS.values():
        for a, b in zip(*make()):
            cv = g_right(a, b)
            methods.add(cv.method)
            squarings.append(cv.terms_used - coeffs._DD_TERMS if cv.terms_used else 0)
    assert methods == set(coeffs.EvalMethod)
    assert max(squarings) == 9


def test_the_array_form_leaves_complex_large_and_non_finite_points():
    u = np.array([1.0, 1.0 + 1e-300j, 1.0, _BOUND, -_BOUND * (1 + 1e-15), math.inf, math.nan, 2.0])
    v = np.array([0.5, 0.5, 0.5j, 0.1, 0.1, 0.1, 0.1, 700.0], dtype=complex)
    values, done = sweep._g_right_array(u.astype(complex), v)
    assert done.tolist() == [True, False, False, True, False, False, False, False]
    assert values[~done].tolist() == [0j] * 6


def _scalar_residuals(check, us, vs, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(sweep, "_ARRAYS", {})
        return list(lattice_residuals(check, us, vs))


@pytest.mark.parametrize("check", ["disentangle-right", "disentangle-left", "ab-structure"])
def test_a_block_across_the_bound_mixes_both_paths_with_the_scalar_bits(check, monkeypatch):
    # v runs from 296 to 304: the array form computes the points up to the
    # bound, and the scalar function the rest, in one block.
    us, vs = [-0.1, 0.0, 1.0, 299.9], np.linspace(296.0, 304.0, 9).tolist()
    calls = []

    def counted(u, v):
        values, done = sweep._g_right_array(u, v)
        calls.append(done.tolist())
        return values, done

    monkeypatch.setitem(sweep._ARRAYS, g_right, counted)
    monkeypatch.setitem(sweep._ARRAYS, g_left, lambda u, v: counted(v, u))
    residuals = list(lattice_residuals(check, us, vs))
    assert len(calls) == 1 and 0 < sum(calls[0]) < len(calls[0])
    assert [r.hex() for r in residuals] == [r.hex() for r in _scalar_residuals(check, us, vs, monkeypatch)]


@pytest.mark.parametrize("check", sorted(verify.CHECKS))
def test_only_a_check_that_reads_g_right_or_g_left_computes_the_array_form(check, monkeypatch):
    calls = []
    for fn, form in list(sweep._ARRAYS.items()):
        monkeypatch.setitem(sweep._ARRAYS, fn, lambda u, v, fn=fn, form=form: calls.append(fn) or form(u, v))
    grid = np.linspace(-2.0, 2.0, 5).tolist()
    residuals = list(lattice_residuals(check, grid, grid))
    # The 2x2 points form one subject, which takes the array form, and the
    # origin another, which takes the scalar functions.
    reads = {
        "disentangle-right": [g_right],
        "integral": [g_right],
        "product": [g_right],
        "disentangle-left": [g_left],
        "ab-structure": [g_left],
    }
    assert calls == reads.get(check, [])
    assert [r.hex() for r in residuals] == [r.hex() for r in _scalar_residuals(check, grid, grid, monkeypatch)]


# Zeros of both signs, the smallest subnormal, 1.3e154 (uv stays finite,
# 1.69e308), 1.4e154 and 1e308 (uv overflows, so W[0, 0] is NaN; with
# u + v = 0, vd + u = 2e308 does too), each against each.
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1.3e154, -1.3e154, 1.4e154, -1.4e154, 1e308, -1e308, 1.0, -2.5]


def _realization(u, v):
    """The pair of a lattice point, or None where it cannot be built."""
    if u == 0.0 and v == 0.0:
        return heisenberg_3x3(1)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return affine_2x2(u, v, 1, 1 if u + v != 0.0 else -1)
    except ValueError:
        return None


def test_lattice_points_have_the_bytes_of_the_realizations_and_refuse_the_same_points():
    u, v = np.repeat(_EDGES, len(_EDGES)), np.tile(_EDGES, len(_EDGES))
    pairs = [_realization(a, b) for a, b in zip(u.tolist(), v.tolist())]
    positions, stack = lattice_points(u, v)
    # The origin points, in no position, read the origin pair's one-point stack.
    origin = np.flatnonzero((u == 0.0) & (v == 0.0)).tolist()
    s = verify._subject(heisenberg_3x3(1))
    at_origin = (s.X[0], s.Y[0], s.W[0], s.u.item(), s.v.item())
    points = [*zip(positions.tolist(), zip(*stack)), *((i, at_origin) for i in origin)]
    for i, (X, Y, W, us, vs) in points:
        pair = pairs[i]
        for got, want in ((X, pair.X), (Y, pair.Y), (W, pair.W)):
            assert got.tobytes() == want.tobytes()
        assert (complex(us), complex(vs)) == (pair.u, pair.v)
    assert len(origin) == 4 and not set(origin) & set(positions.tolist())
    assert sorted(i for i, _ in points) == [i for i, pair in enumerate(pairs) if pair is not None]
    # Both overflows refuse points, and 1.3e154 squared does not.
    assert pairs[_EDGES.index(1.4e154) * (len(_EDGES) + 1)] is None
    assert pairs[_EDGES.index(1e308) * len(_EDGES) + _EDGES.index(-1e308)] is None
    assert pairs[_EDGES.index(1.3e154) * (len(_EDGES) + 1)] is not None


@pytest.mark.parametrize("check", sorted(verify.CHECKS))
def test_a_lattice_of_edges_has_the_public_residual_at_each_point(check):
    residuals = list(lattice_residuals(check, _EDGES, _EDGES))
    expected = []
    for a in _EDGES:
        for b in _EDGES:
            pair = _realization(a, b)
            try:
                expected.append(verify.CHECKS[check](pair, verify.DEFAULT_TOL).residual if pair else math.inf)
            except Exception:  # noqa: BLE001 - the sweep writes inf where the check raises
                expected.append(math.inf)
    assert [r.hex() for r in residuals] == [r.hex() for r in expected]


@pytest.mark.parametrize("check", sorted(verify.CHECKS))
def test_a_block_of_origin_points_has_the_public_residual_of_the_origin_pair(check):
    # Six origin points, with both zero signs, in one block, which holds no
    # 2x2 point: they share the one-point subject of heisenberg_3x3(1).
    us, vs = [-0.0, 0.0, -0.0], [0.0, -0.0]
    assert lattice_points(np.repeat(us, 2), np.tile(vs, 3))[0].tolist() == []
    public = verify.CHECKS[check](heisenberg_3x3(1), verify.DEFAULT_TOL).residual
    assert [r.hex() for r in lattice_residuals(check, us, vs)] == [public.hex()] * 6


def test_a_failure_at_the_origin_fails_each_origin_point(monkeypatch):
    def raising(u, v):
        if u == 0.0 and v == 0.0:
            raise OverflowError("g_right raises at the origin")
        return g_right(u, v)

    monkeypatch.setattr(verify, "g_right", raising)
    residuals = list(lattice_residuals("disentangle-right", [-0.0, 0.0, 1.0], [0.0, 1.0]))
    assert [r == math.inf for r in residuals] == [True, False, True, False, False, False]


@pytest.mark.parametrize("pair", [affine_2x2(1, 2, 1, 1), heisenberg_3x3(1)], ids=["affine", "origin"])
@pytest.mark.parametrize("check", sorted(verify.CHECKS))
def test_a_check_counts_the_matrices_its_request_names_at_one_point(check, pair):
    # .slices sets the points of a sweep block (BLOCK_SLICES // slices); it
    # is kept by hand, so it is checked here against the request itself.
    entry = verify.CHECKS[check]
    s = verify._Subject(pair.X[None], pair.Y[None], pair.W[None], [pair.u], [pair.v])
    named = entry.request[0](s, *entry.request[1]) if entry.request else {}
    n = pair.X.shape[-1]
    assert sum(np.size(M) // (n * n) for M in named.values()) == entry.slices


# The 41x41 disentangle-right sweep's peak traced memory, in copies of the
# bytes of its 6724 requested 2x2 matrices, run as one block: 2.94 measured
# with numpy 2.4 once the table keeps its NaN exponentials, against 3.36
# with an identity pool and 5.8 before the block's copies were cut.
_PEAK_COPIES = 3.25


def test_a_41_by_41_sweep_peaks_below_a_few_copies_of_its_requests():
    grid = np.linspace(-2.0, 2.0, 41)
    list(lattice_residuals("disentangle-right", grid, grid))
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        residuals = list(lattice_residuals("disentangle-right", grid, grid))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(residuals) == 41 * 41
    # A 2x2 complex matrix takes 64 bytes.
    assert peak < _PEAK_COPIES * 41 * 41 * verify.CHECKS["disentangle-right"].slices * 64
