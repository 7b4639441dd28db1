"""Identity checks and suite aggregation on exact matrix realizations."""

import argparse
import gc
import json
import math
import tempfile
import warnings
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zassenhaus import matrices, sweep, verify
from zassenhaus.sweep import lattice_points, lattice_residuals
from zassenhaus.coeffs import CoeffValue, EvalMethod, g_right
from zassenhaus.cli import (
    _PAIR_BUILDERS,
    _build_parser,
    _fmt_float,
    _json_text,
    _pair_from_files,
    _report_payload,
    main,
)
from zassenhaus.realizations import (
    AlgebraPair,
    Ladder,
    affine_2x2,
    heisenberg_3x3,
    shift_center,
    su11_pair,
)
from zassenhaus.verify import (
    DEFAULT_TOL,
    RELAXED_TOL,
    CheckReport,
    CheckResult,
    Side,
    check_ab_structure,
    check_bch,
    check_disentangle,
    check_hadamard,
    check_integral,
    check_lindblad_application,
    check_swap,
    check_truncated_product,
    quadrature_gr,
    run_suite,
)

AFFINE = affine_2x2(1.0, 2.0, 1.0, 1.0)
HEIS = heisenberg_3x3(1.0)


# ------------------------------------------------------- individual checks


@pytest.mark.parametrize("side", [Side.RIGHT, Side.CENTER, Side.LEFT])
def test_disentangle_all_sides_on_affine(side):
    out = check_disentangle(AFFINE, side)
    assert out.passed
    assert out.residual <= 1e-11
    assert out.metadata["side"] == side.value


def test_disentangle_accepts_side_by_value():
    out = check_disentangle(AFFINE, "Right")
    assert out.name == "disentangle-right"


def test_disentangle_central_case_uses_exact_minus_half():
    out = check_disentangle(HEIS, Side.RIGHT)
    assert out.residual <= 1e-14
    assert out.metadata["coefficient"] == -0.5 + 0.0j


@pytest.mark.parametrize("v", [360.0, 400.0, 688.0])
@pytest.mark.parametrize("u", [-1.0, 0.5, 1.0])
def test_a_residual_whose_squared_norms_overflow_is_neither_zero_nor_nan(u, v):
    # ||e^{X+Y}||_F is about e^v, in double range; its square is not.
    out = check_disentangle(affine_2x2(u, v, 1, 1), Side.RIGHT)
    assert 0.0 < out.residual <= 1e-12 and out.passed
    with np.errstate(over="ignore", invalid="ignore"):
        assert list(lattice_residuals("disentangle-right", [u], [v])) == [out.residual]


def _under(action, call):
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        return repr(call())


# ||e^{X+Y}||_F is about e^688: its sum of squares overflows, and the
# tolerance probe and the residuals rescale it.
_SQUARES_OVERFLOW = affine_2x2(0.5, 688.0, 1, 1)


def test_a_suite_does_not_depend_on_the_warnings_filter():
    suite = _under("error", lambda: run_suite(_SQUARES_OVERFLOW))
    assert suite == _under("ignore", lambda: run_suite(_SQUARES_OVERFLOW))
    assert "RuntimeWarning" not in suite


@pytest.mark.parametrize("check", sorted(verify.CHECKS))
def test_a_check_does_not_depend_on_the_warnings_filter(check):
    def call():
        return _alone(check, lambda: _SQUARES_OVERFLOW, RELAXED_TOL)

    assert _under("error", call) == _under("ignore", call)


def test_swap_on_central_pair_has_unit_coefficient():
    out = check_swap(HEIS)
    assert out.passed and out.residual <= 1e-14
    assert out.metadata["coefficient"] == 1.0 + 0.0j


def test_swap_on_affine():
    assert check_swap(AFFINE).residual <= 1e-11


@pytest.mark.parametrize(
    "pair",
    [affine_2x2(2.0, 0.0, 1.0, 0.0), affine_2x2(1.0, 1.0, 1.0, 1.0), HEIS],
    ids=["v-zero", "diagonal", "central"],
)
def test_bch_merges_the_product(pair):
    out = check_bch(pair)
    assert out.passed
    assert out.residual <= 1e-11


def test_ab_structure_on_diagonal_and_central_pairs():
    # u == v makes [A, B] = 0; the central pair does too
    assert check_ab_structure(affine_2x2(1.0, 1.0, 1.0, 1.0)).residual <= 1e-12
    assert check_ab_structure(HEIS).residual <= 1e-14
    assert check_ab_structure(AFFINE).passed


def test_integral_reports_quadrature_metadata():
    out = check_integral(HEIS)
    assert out.passed
    assert abs(out.metadata["integral_32"] - (-0.5 + 0.0j)) <= 1e-13
    assert out.metadata["quadrature_error_estimate"] <= 1e-13
    assert out.metadata["closed_form"] == -0.5 + 0.0j


def test_quadrature_matches_closed_form_off_center():
    from zassenhaus.coeffs import g_right

    for u, v in [(1.0, 2.0), (-2.0, 0.5), (1.5 + 1.0j, -0.5)]:
        assert abs(quadrature_gr(u, v, 32) - g_right(u, v).value) <= 1e-13


def _reference_quadrature(u, v, nodes):
    # The loop before the sum ran on Python floats: numpy float64 nodes
    # and weights, so each product and sum ran on numpy scalars.
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    total = 0.0 + 0.0j
    with np.errstate(all="ignore"):
        for x, w in zip(0.5 * (xs + 1.0), 0.5 * ws):
            total += w * verify.integrand(x, u, v)
    return complex(total)


def _outcome(compute):
    try:
        z = compute()
    except Exception as exc:  # noqa: BLE001 - compared as an outcome
        return type(exc), str(exc)
    return z.real.hex(), z.imag.hex()


_QUADRATURE_POINTS = [
    *((u, v) for u in (-7.0, -1.5, 0.0, 0.3, 2.0, 6.0) for v in (-4.0, -0.5, 0.0, 1.0, 5.5)),
    (1.5 + 1.0j, -0.5), (-2.0 - 3.0j, 0.25 + 2.0j), (0.5j, -0.5j), (3.0 + 0.1j, 3.0 - 0.1j),
    (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (complex(-0.0, -0.0), complex(0.0, -0.0)),
    (complex(1.0, -0.0), complex(-0.0, 2.0)),
    *((u, v) for u in (700.0, 708.0, 709.0, 709.7, 709.8, 710.0, 712.0, 709.0 + 3.0j) for v in (-5.0, -1.0, 0.0, 2.0)),
]


@pytest.mark.parametrize("nodes", [16, 32])
def test_quadrature_keeps_the_bits_of_the_numpy_scalar_loop(nodes):
    for u, v in _QUADRATURE_POINTS:
        expected = _outcome(lambda: _reference_quadrature(u, v, nodes))
        got = _outcome(lambda: quadrature_gr(u, v, nodes))
        if expected[0] is not OverflowError and not all(math.isfinite(float.fromhex(h)) for h in expected):
            # A sum past double range, where the old loop returned it.
            expected = (OverflowError, f"quadrature_gr overflows at {(u, v)}")
        assert got == expected, (u, v)


def test_quadrature_past_double_range_raises():
    # g_r(709, -5) = -3.39e306 is finite, the integrand near s = 1 is not.
    with pytest.raises(OverflowError, match=r"quadrature_gr overflows at \(709.0, -5.0\)"):
        quadrature_gr(709.0, -5.0, 32)


def _reference_series(A, B, t, K):
    # The series before it stopped at its first zero ad power.
    total = B.copy()
    current = B
    for k in range(1, K + 1):
        current = matrices._commutator(A, current) * (-t / k)
        total = total + current
    return total


@pytest.mark.parametrize("name", sorted(_PAIR_BUILDERS))
def test_hadamard_series_keeps_the_residual_bits(name, monkeypatch):
    pair = _PAIR_BUILDERS[name]()
    series = matrices._conjugate_series(pair.X, pair.Y, 0.5 + 0j, 40)
    reference = _reference_series(pair.X, pair.Y, 0.5 + 0j, 40)
    # Equal up to the sign of a zero entry; -0.0 == 0.0.
    assert np.array_equal(series, reference)
    residual = check_hadamard(pair).residual
    monkeypatch.setattr(verify, "_conjugate_series", _reference_series)
    assert check_hadamard(pair).residual.hex() == residual.hex()


def test_hadamard_series_keeps_the_bits_on_sweep_stacks(monkeypatch):
    us, vs = np.linspace(-2.0, 2.0, 9), np.array([-1.0, -0.25, 0.0, 0.5, 2.0])
    u, v = np.repeat(us, len(vs)), np.tile(vs, len(us))
    stacks = [lattice_points(u[where], v[where])[1] for where in (v == 0.0, v != 0.0, np.ones(len(u), dtype=bool))]
    # The origin's points read its pair's one-point stack.
    origin = verify._subject(heisenberg_3x3(1))
    for X, Y, *_ in [*stacks, (origin.X, origin.Y)]:
        series = matrices._conjugate_series(X, Y, 0.5 + 0j, 40)
        assert np.array_equal(series, _reference_series(X, Y, 0.5 + 0j, 40))
    residuals = list(lattice_residuals("hadamard", us, vs))
    monkeypatch.setattr(verify, "_conjugate_series", _reference_series)
    assert [r.hex() for r in lattice_residuals("hadamard", us, vs)] == [r.hex() for r in residuals]


@pytest.mark.parametrize(
    "name, commutators",
    # v = 0 gives ad_X^2(Y) = vW = 0.  For heisenberg3 it is exactly zero;
    # for su11 [X, Y] is rounded by the matrix product, so ad^2 and ad^3
    # are rounding-sized and ad^4 is zero, X being a nilpotent stripe.
    [("affine2", 40), ("heisenberg3", 2), ("su11-raise", 4), ("su11-lower", 4), ("lindblad", 40)],
)
def test_hadamard_series_stops_at_its_first_zero_ad_power(name, commutators, monkeypatch):
    pair = _PAIR_BUILDERS[name]()
    calls = []
    commutator = matrices._commutator
    monkeypatch.setattr(matrices, "_commutator", lambda A, B: calls.append(1) or commutator(A, B))
    matrices._conjugate_series(pair.X, pair.Y, 0.5 + 0j, 40)
    assert len(calls) == commutators


def test_truncated_product_terminates_immediately_for_central_pair():
    # C_2 = -1/2 is the whole series at u = v = 0
    out = check_truncated_product(HEIS, N=2)
    assert out.residual <= 1e-14
    assert out.metadata["N"] == 2
    assert len(out.metadata["residual_sequence"]) == 1


def test_truncated_product_converges_with_order():
    out = check_truncated_product(affine_2x2(2.0, 1.0, 1.0, 1.0), N=20)
    seq = out.metadata["residual_sequence"]
    assert seq[8] > seq[18]  # N = 10 versus N = 20
    assert abs(out.metadata["coefficient_sum"] - out.metadata["closed_form"]) < 1e-4


def test_truncated_product_tail_bound_is_0_where_the_sum_is_exact():
    # u = v = 0: C_2 = -1/2 = g_r is the whole series, while the bound's
    # exponent ||X|| + ||Y|| + |g_r| ||W|| is past exp's range.  The bound
    # is 0, not 0 * inf.
    meta = check_truncated_product(heisenberg_3x3(500)).metadata
    assert meta["coefficient_sum"] == meta["closed_form"] == -0.5
    assert meta["tail_bound_estimate"] == 0.0


def test_truncated_product_rejects_low_cutoff():
    with pytest.raises(ValueError):
        check_truncated_product(AFFINE, N=1)


def test_hadamard_at_zero_time_is_exact():
    assert check_hadamard(AFFINE, t=0.0, K=10).residual == 0.0


def test_hadamard_terminating_series_on_central_pair():
    # ad_X(Y) is central, ad_X^2(Y) = 0: five terms are already exact
    assert check_hadamard(HEIS, t=1.0, K=5).residual <= 1e-14


def test_hadamard_generic_pair():
    out = check_hadamard(AFFINE, t=0.5, K=40)
    assert out.passed and out.residual <= 1e-12
    assert out.metadata == {"t": 0.5 + 0.0j, "K": 40}


# -------------------------------------------------- lindblad adjudication


def test_lindblad_application_small_coupling():
    report = check_lindblad_application(0.3, 0.7)
    assert isinstance(report, CheckReport)
    names = [r.name for r in report.results]
    assert names == ["lindblad-coupling-product", "lindblad-structure-constants"]
    forms = report.results[0].metadata["passing_forms"]
    assert "structure-constants" in forms
    assert len(forms) >= 1


def test_lindblad_application_unit_coupling():
    report = check_lindblad_application(1.0, 1.0)
    forms = report.results[0].metadata["passing_forms"]
    assert len(forms) >= 1


def test_lindblad_application_is_deterministic():
    a = check_lindblad_application(0.3, 0.7)
    b = check_lindblad_application(0.3, 0.7)
    assert [r.residual for r in a.results] == [r.residual for r in b.results]
    assert (
        a.results[0].metadata["passing_forms"]
        == b.results[0].metadata["passing_forms"]
    )


def test_lindblad_forms_agree_in_the_weak_limit():
    # both candidate coefficients collapse to -alpha*beta/2 as the
    # couplings shrink, so both must pass there
    report = check_lindblad_application(1e-6, 1e-6)
    assert report.all_passed
    for r in report.results:
        assert abs(r.metadata["coefficient"] - (-0.5e-12)) <= 1e-3 * 0.5e-12


def test_lindblad_rejects_zero_coupling():
    with pytest.raises(ValueError):
        check_lindblad_application(0.0, 1.0)


# -------------------------------------------------------------- run_suite


def test_run_suite_passes_on_reference_pairs():
    for pair in [HEIS, AFFINE, shift_center(AFFINE, 2.0)]:
        report = run_suite(pair)
        assert report.all_passed, report
        assert len(report.results) == 9


def test_run_suite_runs_the_check_table_in_order():
    assert [r.name for r in run_suite(AFFINE).results] == list(verify.CHECKS)


def test_sweep_offers_exactly_the_checks_of_the_table():
    commands = next(
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    check = next(a for a in commands.choices["sweep"]._actions if a.dest == "check")
    assert list(check.choices) == sorted(verify.CHECKS)


def test_run_suite_default_tolerance_on_small_norms():
    report = run_suite(AFFINE)
    assert all(r.tolerance == DEFAULT_TOL for r in report.results)


def test_run_suite_relaxes_tolerance_on_large_norms():
    report = run_suite(su11_pair(Ladder.LOWER_SQ, 16))
    assert all(r.tolerance == RELAXED_TOL for r in report.results)


def test_run_suite_explicit_tolerance_wins():
    report = run_suite(AFFINE, tol=1e-3)
    assert all(r.tolerance == 1e-3 for r in report.results)


def test_run_suite_converts_errors_into_failed_results():
    # u - v = 2*pi*i puts the merged-form coefficient on a genuine pole;
    # the suite must still report all nine checks
    pair = affine_2x2(complex(1.0, 2.0 * math.pi), 1.0, 1.0, 1.0)
    report = run_suite(pair)
    assert len(report.results) == 9
    assert not report.all_passed
    by_name = {r.name: r for r in report.results}
    for name in ("bch", "ab-structure"):
        failed = by_name[name]
        assert not failed.passed
        assert failed.residual == math.inf
        assert failed.metadata["error"].startswith("PoleError")
    for name in ("disentangle-right", "disentangle-center", "disentangle-left",
                 "swap", "integral", "hadamard"):
        assert by_name[name].passed, name


def test_run_suite_reports_every_check_where_x_plus_y_is_not_finite():
    # X + Y holds 2e308 = inf: the tolerance probe's e^{X+Y} raised its
    # ValueError out of run_suite instead of relaxing the tolerance.
    X = np.array([[0, 1e308], [0, 0]], dtype=complex)
    Y = np.array([[1, 1e308], [0, 0]], dtype=complex)
    report = run_suite(AlgebraPair(X, Y, -1, 0, 0, matrices.commutator(X, Y), "huge"))
    assert [r.name for r in report.results] == list(verify.CHECKS)
    assert not any(r.passed for r in report.results)
    assert all(r.tolerance == RELAXED_TOL and r.residual == math.inf for r in report.results)
    errors = {r.name: r.metadata["error"] for r in report.results}
    assert all(error.startswith(("OverflowError", "ValueError")) for error in errors.values())
    reads_x_plus_y = [name for name, error in errors.items() if error == "ValueError: matrix entries must be finite"]
    assert reads_x_plus_y == ["ab-structure", "integral", "product"]


def test_passed_flag_is_consistent_with_residual():
    for pair in [AFFINE, HEIS, su11_pair(Ladder.RAISE_SQ, 6)]:
        for r in run_suite(pair).results:
            assert r.passed == (r.residual <= r.tolerance)


# -------------------------------------------------------------- reporting


def test_report_round_trips_through_json():
    report = run_suite(HEIS)
    back = json.loads(_json_text(_report_payload(report)))
    assert back["pair"] == "heisenberg_3x3(1)"
    assert back["all_passed"] is True
    assert len(back["checks"]) == 9
    assert back["checks"][0]["name"] == "disentangle-right"
    assert back["checks"][0]["metadata"]["coefficient"] == {"re": -0.5, "im": 0.0}


def test_report_serializes_numpy_scalars():
    result = CheckResult(
        "synthetic",
        0.0,
        1.0,
        True,
        {"np_complex": np.complex128(1 + 2j), "np_float": np.float64(0.25), "xs": [np.int64(3)]},
    )
    payload = _report_payload(CheckReport("synthetic", (result,), True))
    meta = json.loads(_json_text(payload))["checks"][0]["metadata"]
    assert meta["np_complex"] == {"re": 1.0, "im": 2.0}
    assert meta["np_float"] == 0.25
    assert meta["xs"] == [3]


# ------------------------------------ requests gathered into one stack


@pytest.fixture
def expm_calls(monkeypatch):
    calls = []

    def counting_expm(A):
        calls.append(A)
        return matrices.expm(A)

    monkeypatch.setattr(verify, "expm", counting_expm)
    return calls


@pytest.fixture
def expm_stack_calls(monkeypatch):
    calls = []

    def counting_expm_stack(A):
        calls.append(A)
        return matrices.expm_stack(A)

    monkeypatch.setattr(verify, "expm_stack", counting_expm_stack)
    return calls


# Distinct matrices among a built-in pair's 40 requested ones: affine2's
# C_n W for odd n >= 3 are one matrix; heisenberg3's g W of every side,
# I_32 W and C_2 W are -W/2, and its C_n W vanish for n >= 3.
_DISTINCT_PER_SUITE = {
    "affine2": 27,
    "heisenberg3": 9,
    "lindblad": 39,
    "su11-lower": 38,
    "su11-raise": 38,
}


def _overflow_pair():
    """X + Y has 1-norm 800, past expm's limit; X, Y and W are within it."""
    X = np.array([[1.0, 400.0], [0.0, 0.0]])
    Y = np.array([[0.0, 400.0], [0.0, 0.0]])
    return AlgebraPair(X, Y, 0.0, 1.0, 0.0, Y, "overflow")


@pytest.fixture
def subjects(monkeypatch):
    """Every subject that verify builds while the test runs."""
    made = []

    class Recorded(verify._Subject):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(verify, "_Subject", Recorded)
    return made


@pytest.mark.parametrize("name", sorted(_PAIR_BUILDERS))
def test_run_suite_makes_40_expm_calls_per_builtin_pair(name, expm_calls, expm_stack_calls, subjects):
    # e^X, e^Y, e^{X+Y}; one e^{cW} for each of the three disentangle
    # checks, swap, bch and integral; 29 for the product; 2 for hadamard:
    # 40 exponentials from one expm_stack call of the distinct matrices,
    # and no scalar expm.
    pair = _PAIR_BUILDERS[name]()
    assert run_suite(pair).all_passed
    assert expm_calls == []
    distinct = _DISTINCT_PER_SUITE[name]
    assert [a.shape for a in expm_stack_calls] == [(distinct, pair.dim, pair.dim)]
    # One subject serves the nine checks.
    (s,) = subjects
    exps = s.exps
    assert len(exps) == 40
    # Each exponential is a slice of that one stack, and each slice is used.
    stacked = {e.tobytes() for e in matrices.expm_stack(expm_stack_calls[0])}
    assert {e.tobytes() for e in exps.values()} == stacked


def test_a_fresh_pair_recomputes_every_exponential(expm_calls, expm_stack_calls):
    run_suite(affine_2x2(1.0, 2.0, 1.0, 1.0))
    assert len(expm_stack_calls) == 1
    run_suite(affine_2x2(1.0, 2.0, 1.0, 1.0))
    assert len(expm_stack_calls) == 2
    pair = affine_2x2(1.0, 2.0, 1.0, 1.0)
    run_suite(pair)
    run_suite(pair)  # nothing is kept between calls, so the same pair stacks again
    assert len(expm_stack_calls) == 4
    assert expm_calls == []


def test_shared_exponentials_are_read_only(subjects):
    run_suite(affine_2x2(1.0, 2.0, 1.0, 1.0))
    (s,) = subjects
    arrays = [s.exp(key) for key in s.exps]
    assert len(arrays) == 40
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 0.0


@pytest.mark.parametrize("build", [lambda: affine_2x2(1.0, 2.0, 1.0, 1.0), _overflow_pair])
def test_verify_keeps_no_reference_to_a_checked_pair(build):
    # The overflow pair's checks raise, and their errors are recorded.
    pair = build()
    run_suite(pair)
    for check in verify.CHECKS.values():
        try:
            check(pair, DEFAULT_TOL)
        except OverflowError:
            pass
    ref = weakref.ref(pair)
    del pair
    gc.collect()
    assert ref() is None
    assert not any(isinstance(o, verify._Subject) for o in gc.get_objects())


def test_overflow_is_raised_by_every_check_that_needs_it(expm_calls):
    pair = _overflow_pair()
    for _ in range(2):
        with pytest.raises(OverflowError):
            check_disentangle(pair, Side.RIGHT)
    report = run_suite(pair)
    errors = [r.name for r in report.results if "OverflowError" in r.metadata.get("error", "")]
    assert errors == [
        "disentangle-right",
        "disentangle-center",
        "disentangle-left",
        "bch",
        "integral",
        "product",
    ]
    assert all(r.tolerance == RELAXED_TOL for r in report.results)


# Each suite entry as a direct call of its public check.
_ALONE = {
    "disentangle-right": lambda pair, tol: check_disentangle(pair, Side.RIGHT, tol),
    "disentangle-center": lambda pair, tol: check_disentangle(pair, Side.CENTER, tol),
    "disentangle-left": lambda pair, tol: check_disentangle(pair, Side.LEFT, tol),
    "swap": lambda pair, tol: check_swap(pair, tol),
    "bch": lambda pair, tol: check_bch(pair, tol),
    "ab-structure": lambda pair, tol: check_ab_structure(pair, tol),
    "integral": lambda pair, tol: check_integral(pair, tol),
    "product": lambda pair, tol: check_truncated_product(pair, 30, tol),
    "hadamard": lambda pair, tol: check_hadamard(pair, 0.5, 40, tol),
}


def _alone(name, build, tol):
    try:
        return _ALONE[name](build(), tol)
    except Exception as exc:  # noqa: BLE001 - compared with run_suite's error result
        return CheckResult(name, math.inf, tol, False, {"error": f"{type(exc).__name__}: {exc}"})


# The golden file pairs, X and Y by file name: X + Y past the 1-norm
# limit; u = 2 pi i and v about 0, an f_bch pole; X + Y not finite.
_FILE_PAIRS = {
    "overflow-file": ("overflow_x.json", "overflow_y.json"),
    "pole-file": ("pole_x.json", "pole_y.json"),
    "sum-overflow-file": ("sum_overflow.json", "sum_overflow.json"),
}


def _file_pair(name):
    golden = Path(__file__).resolve().parent / "golden"
    pair, error = _pair_from_files(*(str(golden / path) for path in _FILE_PAIRS[name]))
    assert error is None
    return pair


@pytest.mark.parametrize("name", [*sorted(_PAIR_BUILDERS), *_FILE_PAIRS])
def test_every_suite_result_is_the_result_of_its_check_alone(name):
    # The checks share one subject, and each fails by its own reads alone:
    # the pole pair's PoleError, read by bch, is not carried to the checks
    # after it (ab-structure reads f_bch itself).
    build = _PAIR_BUILDERS.get(name, lambda: _file_pair(name))
    report = run_suite(build())
    assert list(_ALONE) == list(verify.CHECKS)
    for result in report.results:
        assert result == _alone(result.name, build, result.tolerance)
    if name == "pole-file":
        failed = [r.name for r in report.results if "error" in r.metadata]
        assert failed == ["bch", "ab-structure"]


def test_a_pole_fails_only_the_checks_that_need_its_coefficient():
    # u - v = 2*pi*i: f_bch has a genuine pole, and |u - v| ~ 2*pi is past
    # what the fixed N = 30 product cutoff resolves.  Residuals as before
    # the requests were gathered into one stack.
    pair = affine_2x2(complex(1.0, 2.0 * math.pi), 1.0, 1.0, 1.0)
    pole = (
        "PoleError: f_bch pole: exp(u) == exp(v) with u != v "
        "(u - v within 1e-08 of 2*pi*i*1)"
    )
    expected = {
        "disentangle-right": 1.5980298604371527e-15,
        "disentangle-center": 1.3338999471885264e-15,
        "disentangle-left": 1.3351150739459775e-15,
        "swap": 6.256947923416927e-16,
        "bch": math.inf,
        "ab-structure": math.inf,
        "integral": 4.202183320177827e-15,
        "product": 8.78884382750589e-10,
        "hadamard": 3.9558002283370163e-16,
    }
    report = run_suite(pair)
    assert {r.name: r.residual for r in report.results} == expected
    for r in report.results:
        assert r.passed == (r.name not in ("bch", "ab-structure", "product"))
        assert r.metadata.get("error") == (pole if r.name in ("bch", "ab-structure") else None)


def _overflowing(u, v):
    raise OverflowError("divided difference of exp overflows")


@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
@pytest.mark.parametrize(
    "coefficient, replacement, failing, error, stacked",
    [
        # gamma W past double range is stacked, and its exponential comes
        # back NaN: expm raises on it as on the check alone.
        (
            "gamma_swap",
            lambda u, v: CoeffValue(1e308 + 0j, EvalMethod.CLOSED_FORM, 0),
            "swap",
            "ValueError: matrix entries must be finite",
            _DISTINCT_PER_SUITE["affine2"],
        ),
        # A coefficient that raises is 0 in its request, so g_c W is a zero
        # matrix, the one the vanishing odd C_n W already stack.
        (
            "g_center",
            _overflowing,
            "disentangle-center",
            "OverflowError: divided difference of exp overflows",
            _DISTINCT_PER_SUITE["affine2"] - 1,
        ),
    ],
)
def test_a_request_that_cannot_be_built_fails_only_its_own_check(
    coefficient, replacement, failing, error, stacked, monkeypatch, expm_stack_calls
):
    # The distinct exponentials are still stacked, and every other check
    # gives what it gives on an untouched pair.
    expected = run_suite(affine_2x2(1.0, 2.0, 1.0, 1.0))
    monkeypatch.setattr(verify, coefficient, replacement)
    expm_stack_calls.clear()
    report = run_suite(affine_2x2(1.0, 2.0, 1.0, 1.0))
    assert [a.shape[0] for a in expm_stack_calls] == [stacked]
    for got, want in zip(report.results, expected.results):
        if got.name == failing:
            assert got.metadata == {"error": error}
            assert not got.passed
        else:
            assert got == want


# Each suite entry's public check, with the arguments the registry gives it.
_REGISTRY_CALLS = [
    ("check_disentangle", (Side.RIGHT,)),
    ("check_disentangle", (Side.CENTER,)),
    ("check_disentangle", (Side.LEFT,)),
    ("check_swap", ()),
    ("check_bch", ()),
    ("check_ab_structure", ()),
    ("check_integral", ()),
    ("check_truncated_product", (30,)),
    ("check_hadamard", (0.5, 40)),
]


def test_the_registry_calls_each_public_check_through_the_module_globals(monkeypatch):
    # A wrapper put in verify's globals, as a tracer's or a test's, sees
    # every call of the suite and of a CHECKS entry, with the registry's
    # arguments and the tolerance.
    calls = []
    for public in {name for name, _ in _REGISTRY_CALLS}:
        def recording(pair, *args, public=public, check=getattr(verify, public)):
            calls.append((public, args))
            return check(pair, *args)

        monkeypatch.setattr(verify, public, recording)
    expected = [(public, (*args, DEFAULT_TOL)) for public, args in _REGISTRY_CALLS]
    pair = affine_2x2(1.0, 2.0, 1.0, 1.0)
    report = run_suite(pair)
    assert report.all_passed
    assert calls == expected
    calls.clear()
    for name, result in zip(verify.CHECKS, report.results):
        assert verify.CHECKS[name](pair, DEFAULT_TOL) == result
    assert calls == expected


def test_a_sweep_reads_no_16_node_quadrature(monkeypatch):
    # Only check_integral's metadata reads I_16: the sweep's arithmetic
    # takes I_32 alone, and the public check still takes both.
    calls = Counter()

    def counted(u, v, nodes=32):
        calls[nodes] += 1
        return quadrature_gr(u, v, nodes)

    monkeypatch.setattr(verify, "quadrature_gr", counted)
    grid = [-1.0, 0.0, 0.5]
    residuals = list(lattice_residuals("integral", grid, grid))
    assert calls == {32: 9}
    calls.clear()
    out = check_integral(affine_2x2(1.0, 2.0, 1.0, 1.0))
    assert calls == {32: 1, 16: 1}
    assert out.metadata["integral_16"] == quadrature_gr(1.0, 2.0, 16)
    assert [_bits(r) for r in residuals] == [
        _bits(check_integral(_lattice_pair(u, v)).residual) for u in grid for v in grid
    ]


def test_each_coefficient_and_quadrature_is_computed_once_per_suite(monkeypatch):
    calls = Counter()

    def count(name, fn):
        def counted(*args):
            # quadrature_gr is counted per node count, the rest per name.
            calls[(name, *args[2:])] += 1
            return fn(*args)

        monkeypatch.setattr(verify, name, counted)

    for name in ("g_right", "g_center", "g_left", "f_bch", "gamma_swap", "quadrature_gr"):
        count(name, getattr(verify, name))
    run_suite(su11_pair(Ladder.LOWER_SQ, 8))
    assert calls == {
        ("g_right",): 1,
        ("g_center",): 1,
        ("g_left",): 1,
        ("f_bch",): 1,
        ("gamma_swap",): 1,
        ("quadrature_gr", 32): 1,
        ("quadrature_gr", 16): 1,
    }


def test_every_check_table_entry_requests_what_its_check_reads(expm_calls, expm_stack_calls):
    # A check run on a subject that gathered its own request stacks
    # nothing more, needs no scalar expm and reads only what it requested
    # (a read of any other matrix is a KeyError).
    for name, entry in verify.CHECKS.items():
        s = verify._subject(affine_2x2(1.0, 2.0, 1.0, 1.0))
        s.gather([entry.request])
        stacked = len(expm_stack_calls)
        requested = dict(s.exps)
        assert entry(s, DEFAULT_TOL).passed, name
        assert len(expm_stack_calls) == stacked, name
        assert all(s.exps[key] is e for key, e in requested.items()) and len(s.exps) == len(requested), name
    assert expm_calls == []


# ------------------------------------------ a sweep's lattice as stacks


def _lattice_pair(u, v):
    """The pair of one sweep lattice point, as the public checks take it.

    affine_2x2(u, v, 1, 1) except where u + v = 0 makes it degenerate:
    then b = 1, d = -1 (nonzero since u = -v != 0), and the origin falls
    back to the central 3x3 pair.
    """
    if u == 0.0 and v == 0.0:
        return heisenberg_3x3(1)
    if u + v != 0.0:
        return affine_2x2(u, v, 1, 1)
    return affine_2x2(u, v, 1, -1)


def _bits(x):
    return np.float64(x).tobytes()


def _stack(pairs):
    """Pairs of one shape as one stack, the way a block subject takes it."""
    return (
        np.stack([p.X for p in pairs]),
        np.stack([p.Y for p in pairs]),
        np.stack([p.W for p in pairs]),
        [p.u for p in pairs],
        [p.v for p in pairs],
    )


def _gathered(check, pairs):
    """A block subject of the pairs once the check's request is gathered."""
    s = verify._Subject(*_stack(pairs))
    s.gather([verify.CHECKS[check].request])
    return s


def _points(rows, vs):
    """The lattice points of the rows u in rows, as lattice_points takes them."""
    u = np.repeat(np.array(rows, dtype=float), len(vs))
    return u, np.tile(np.array(vs, dtype=float), len(rows))


def _row_residuals(check, u, vs):
    """lattice_residuals over the lattice row u, one block."""
    return list(lattice_residuals(check, [u], vs))


def _alone_residuals(check, u, vs):
    """The public check's residual on each point's pair; inf where it raises."""
    return [
        _alone(check, lambda v=v: _lattice_pair(u, v), DEFAULT_TOL).residual for v in vs
    ]


# The u = 0 row of the 9x9 sweep: eight 2x2 points and the 3x3 origin.
_ORIGIN_ROW = np.linspace(-2.0, 2.0, 9).tolist()
# Exponentials per pair that each check reads.
_SLICES = {"ab-structure": 0, "bch": 3, "swap": 3, "hadamard": 2, "product": 32}
# Distinct matrices the u = 0 row stacks, 2x2 then 3x3: the eight 2x2
# pairs share one Y = [[-0, 1], [0, 0]], and the origin's C_n W vanish
# for n >= 3.
_ROW_SLICES = {"bch": [17, 3], "swap": [17, 3], "hadamard": [16, 2], "product": [248, 5]}


def test_a_block_holds_the_matrices_of_its_pairs():
    # Five rows at once: every u + v = 0 point (d = -1), the origin and
    # u = 0 (Y[0, 0] = -0).
    u, v = _points([-2.0, -0.5, 0.0, 1.5, 2.0], _ORIGIN_ROW)
    positions, stack = lattice_points(u, v)
    # The origin, in no position, reads its pair's one-point stack.
    origin = np.flatnonzero((u == 0.0) & (v == 0.0)).tolist()
    s = verify._subject(heisenberg_3x3(1))
    at_origin = (s.X[0], s.Y[0], s.W[0], s.u.item(), s.v.item())
    points = [*zip(positions.tolist(), zip(*stack)), *((i, at_origin) for i in origin)]
    assert sorted(i for i, _ in points) == list(range(45))
    for i, (X, Y, W, us, vs) in points:
        pair = _lattice_pair(u.tolist()[i], v.tolist()[i])
        for got, want in ((X, pair.X), (Y, pair.Y), (W, pair.W)):
            assert got.tobytes() == want.tobytes()
        assert (complex(us), complex(vs)) == (pair.u, pair.v)
    assert (len(positions), len(origin)) == (44, 1)
    assert len(lattice_points(*_points([0.0], _ORIGIN_ROW))[0]) == 8


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_point_whose_pair_cannot_be_built_is_in_no_stack():
    # u = v = 5e199: uv overflows, so W[0, 0] = -uv + uv is NaN and
    # AlgebraPair refuses the pair.
    with pytest.raises(ValueError):
        _lattice_pair(5e199, 5e199)
    positions, _ = lattice_points(*_points([5e199], [0.0, 5e199, 1.0]))
    assert positions.tolist() == [0, 2]


@pytest.mark.parametrize("check", sorted(verify.CHECKS))
def test_a_block_is_sized_by_what_its_check_requests(check):
    request = verify.CHECKS[check].request
    named = request[0](verify._subject(affine_2x2(1.0, 2.0, 1.0, 1.0)), *request[1]) if request else {}
    assert verify.CHECKS[check].slices == len(named)


@pytest.mark.parametrize("check", sorted(verify.CHECKS))
def test_a_shared_row_gives_the_per_pair_results(check, expm_stack_calls):
    # The mixed-shape u = 0 row: every slice's residual has the bits of the
    # public check's on that point's pair.
    row = _row_residuals(check, 0.0, _ORIGIN_ROW)
    stacked = len(expm_stack_calls)
    alone = _alone_residuals(check, 0.0, _ORIGIN_ROW)
    assert [_bits(r) for r in row] == [_bits(r) for r in alone]
    assert all(r < DEFAULT_TOL for r in row)
    # One call per shape for the whole row, then one per pair alone.
    slices = _SLICES.get(check, 4)
    if slices:
        assert [a.shape[0] for a in expm_stack_calls[:stacked]] == _ROW_SLICES.get(check, [25, 4])
        per_pair = [slices] * 9
        if check == "product":
            per_pair[4] = 5  # the origin
        assert [a.shape[0] for a in expm_stack_calls[stacked:]] == per_pair
    else:
        assert expm_stack_calls == []


def _g_right_raising_at_half(u, v):
    if v == 0.5:
        raise OverflowError("divided difference of exp overflows")
    return g_right(u, v)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "check, u, vs, error",
    [
        # The coefficient raises.
        ("disentangle-right", 1.0, [-1.0, 0.5, 2.0], "OverflowError: divided difference"),
        # f(218.75, 525) = 2.68e92, so X + Y + fW is past the 1-norm limit.
        ("bch", 218.75, [0.0, 525.0, 1.0], "OverflowError: matrix 1-norm"),
        # gW is past the 1-norm limit, so its exponential comes back NaN.
        ("disentangle-right", 4.0, [-6.0, 168.0], "OverflowError: matrix 1-norm"),
        # e^X e^Y overflows, so the residual raises; the others are NaN.
        ("swap", -700.0, [700.0, 0.0, 1.0], "ValueError: matrix entries must be finite"),
        # An ad power of the series is past double range, and so is the
        # 1-norm of -tX, whose exponential the check reads first.
        ("hadamard", 1.0, [0.5, 1e200], "OverflowError: matrix 1-norm"),
    ],
)
def test_a_point_that_cannot_be_computed_fails_alone(check, u, vs, error, monkeypatch):
    monkeypatch.setattr(verify, "g_right", _g_right_raising_at_half)
    row = _row_residuals(check, u, vs)
    results = [_alone(check, lambda v=v: _lattice_pair(u, v), DEFAULT_TOL) for v in vs]
    assert [_bits(r) for r in row] == [_bits(r.residual) for r in results]
    # One point raises alone, and the rest of the row is still computed.
    assert any(r.metadata.get("error", "").startswith(error) for r in results)
    assert any("error" not in r.metadata for r in results)


# The value functions a check reads, by the check's name in CHECKS.
_VALUES_READ = {
    "disentangle-right": {"g_right"},
    "disentangle-center": {"g_center"},
    "disentangle-left": {"g_left"},
    "swap": {"gamma_swap"},
    "bch": {"f_bch"},
    "ab-structure": {"g_left", "f_bch"},
    "integral": {"quadrature_gr", "g_right"},
    "product": {"c_sequence", "g_right"},
    "hadamard": set(),
}


@pytest.mark.parametrize(
    "name", ["g_right", "g_center", "g_left", "f_bch", "gamma_swap", "quadrature_gr", "c_sequence"]
)
@pytest.mark.parametrize("check", sorted(verify.CHECKS))
def test_a_check_reads_each_value_its_matrices_are_built_from(check, name, monkeypatch):
    # The value raises at the middle point of a 3-point block.  A matrix
    # built from its fill is exponentiated as any other, so only the
    # check's own read of the value can fail that point.
    planted = OverflowError(f"{name} raises at v = 0.5")
    compute = getattr(verify, name)

    def raising(*args):
        # (u, v), (u, v, nodes) or (N, u, v): only v is ever 0.5.
        if 0.5 in args:
            raise planted
        return compute(*args)

    monkeypatch.setattr(verify, name, raising)
    pairs = [_lattice_pair(1.0, v) for v in (-0.5, 0.5, 2.0)]
    residuals = _block_residuals(check, pairs).tolist()
    alone = [_alone(check, lambda pair=pair: pair, DEFAULT_TOL).residual for pair in pairs]
    assert [_bits(r) for r in residuals] == [_bits(r) for r in alone]
    reads = name in _VALUES_READ[check]
    assert [r == math.inf for r in residuals] == [False, reads, False]
    if reads:
        with pytest.raises(OverflowError) as raised:
            _ALONE[check](pairs[1], DEFAULT_TOL)
        assert raised.value is planted


def test_stacked_exponentials_are_read_only():
    # What a gathered stack of the u = 0 row's 2x2 points holds, for every
    # check that reads an exponential.
    pairs = [_lattice_pair(0.0, v) for v in _ORIGIN_ROW if v]
    for check in sorted(verify.CHECKS):
        if verify.CHECKS[check].request is None:
            continue
        s = _gathered(check, pairs)
        assert len(s.exps) == verify.CHECKS[check].slices
        for e in s.exps.values():
            assert e.shape == (8, 2, 2)
            assert not e.flags.writeable
            with pytest.raises(ValueError):
                e[0, 0, 0] = 0.0


def test_a_stacked_slice_past_the_norm_limit_still_raises(expm_calls):
    overflow = _overflow_pair()
    X, Y = overflow.X, overflow.Y
    row = [affine_2x2(1.0, 2.0, 1.0, 1.0), overflow, affine_2x2(-1.0, 0.5, 1.0, 1.0)]
    residuals = _block_residuals("disentangle-right", row)
    assert expm_calls == []
    assert residuals[1] == math.inf
    for i in (0, 2):
        assert residuals[i] == check_disentangle(row[i], Side.RIGHT).residual
    # On its own, only the scalar e^{X+Y} that raised in place of the NaN slice.
    with pytest.raises(OverflowError):
        check_disentangle(overflow, Side.RIGHT)
    assert len(expm_calls) == 1
    assert np.array_equal(expm_calls[0], X + Y)


def _block_residuals(check, pairs):
    """The check's residual at each of the pairs, checked as one sweep block."""
    entry = verify.CHECKS[check]
    s = verify._Subject(*_stack(pairs))
    with np.errstate(over="ignore", invalid="ignore"):
        s.gather([entry.request])
        residuals = entry.residual(s).reshape(len(pairs))
    residuals[list(s.errors)] = math.inf
    return residuals


def test_a_check_fails_at_the_first_failed_exponential_it_reads(monkeypatch):
    # g W (1-norm 400000) and X + Y (1-norm 800) are both past the limit.
    # The right-sided check reads e^{gW} before e^{X+Y}, so its error names
    # g W's norm alone, in a suite as alone, and the block's point is inf.
    monkeypatch.setattr(verify, "g_right", lambda u, v: CoeffValue(1000 + 0j, EvalMethod.CLOSED_FORM, 0))
    overflow = _overflow_pair()
    error = (
        "OverflowError: matrix 1-norm 400000 exceeds 700; "
        "the exponential would overflow double precision"
    )
    with pytest.raises(OverflowError) as raised:
        check_disentangle(overflow, Side.RIGHT)
    assert f"{type(raised.value).__name__}: {raised.value}" == error
    (result, *_) = run_suite(overflow).results
    assert (result.name, result.metadata) == ("disentangle-right", {"error": error})
    assert _block_residuals("disentangle-right", [overflow]).tolist() == [math.inf]


def test_a_block_point_keeps_the_first_failure_its_check_reads(monkeypatch):
    # As above: the point's recorded failure is g W, whose expm names its
    # 1-norm, not X + Y, although the gather met both.
    monkeypatch.setattr(verify, "g_right", lambda u, v: CoeffValue(1000 + 0j, EvalMethod.CLOSED_FORM, 0))
    s = _gathered("disentangle-right", [_overflow_pair()])
    assert set(s.failed) == {"x+y", Side.RIGHT}
    verify.CHECKS["disentangle-right"].residual(s)
    assert list(s.errors) == [0]
    with pytest.raises(OverflowError, match="matrix 1-norm 400000 exceeds 700"):
        matrices.expm(s.errors[0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [None, 1], ids=["all-finite", "one-nan"])
def test_a_subject_residual_records_only_its_non_finite_points(bad):
    # Both branches of the residual's finiteness test on a 3-point block:
    # every residual finite records nothing, and one NaN residual records
    # its point alone.
    s = verify._Subject(*_stack([_lattice_pair(1.0, v) for v in (-0.5, 0.5, 2.0)]))
    B = s.Y.copy()
    if bad is not None:
        B[bad, 0, 0] = math.nan
    residuals = s.residual(s.X, B)
    assert residuals.shape == (3, 1, 1)
    for i in range(3):
        if i == bad:
            assert math.isnan(residuals[i, 0, 0])
        else:
            assert _bits(residuals[i, 0, 0]) == _bits(matrices.rel_residual(s.X[i], B[i]))
    errors = {i: f"{type(e).__name__}: {e}" for i, e in s.errors.items()}
    assert errors == ({} if bad is None else {bad: "ValueError: matrix entries must be finite"})


def _sweep_argv(check, steps, out, window=(-2.0, 2.0, -2.0, 2.0)):
    u_min, u_max, v_min, v_max = (f"{x!r}" for x in window)
    return ["sweep", "--check", check, f"--u-min={u_min}", f"--u-max={u_max}",
            f"--v-min={v_min}", f"--v-max={v_max}", "--steps", str(steps), "--out", str(out)]


@pytest.mark.parametrize("check", ["ab-structure"])
def test_a_sweep_that_needs_no_shared_exponential_stacks_nothing(check, expm_stack_calls, tmp_path):
    assert main(_sweep_argv(check, 5, tmp_path / "s.csv")) == 0
    assert expm_stack_calls == []


def test_a_hadamard_sweep_stacks_only_its_own_exponentials(expm_calls, expm_stack_calls, tmp_path):
    # e^{-tX} and e^{tX}, no e^X, e^Y or e^{X+Y}.  The 5x5 lattice is one
    # block; X depends on v alone, so the 24 2x2 points have five distinct
    # X, and the origin's 3x3 pair has its own two.
    assert main(_sweep_argv("hadamard", 5, tmp_path / "s.csv")) == 0
    assert [a.shape[0] for a in expm_stack_calls] == [10, 2]
    assert expm_calls == []


def _held():
    """How many pairs and subjects are alive."""
    gc.collect()
    return sum(isinstance(o, (AlgebraPair, verify._Subject)) for o in gc.get_objects())


def test_a_sweep_leaves_no_lattice_pair_behind(expm_calls, expm_stack_calls, tmp_path):
    held = _held()
    assert main(_sweep_argv("disentangle-right", 5, tmp_path / "s.csv")) == 0
    # One block, one call per shape: the distinct X (5), Y (9), X+Y (11)
    # and gW (24) of the 24 2x2 points, then the origin's X, Y, X+Y and gW.
    assert [a.shape[0] for a in expm_stack_calls] == [49, 4]
    assert expm_calls == []
    assert _held() == held


def test_a_41_by_41_sweep_stacks_each_distinct_exponential_once(
    expm_calls, expm_stack_calls, tmp_path, monkeypatch
):
    # 6724 requested exponentials (X, Y, X+Y and gW of 1681 points), of
    # which 1983 are distinct: 1979 2x2 and the origin's four 3x3.  When the
    # lattice is one block, each is stacked once, in one call per shape.
    monkeypatch.setattr(sweep, "BLOCK_SLICES", 4 * 41 * 41)
    assert main(_sweep_argv("disentangle-right", 41, tmp_path / "s.csv")) == 0
    assert [a.shape for a in expm_stack_calls] == [(1979, 2, 2), (4, 3, 3)]
    assert expm_calls == []


def test_a_41_by_41_sweep_runs_in_one_block(expm_calls, expm_stack_calls, tmp_path):
    # 6724 requests (4 per point) fit the budget: one call per shape stacks
    # the 1979 distinct 2x2 matrices, then the origin's four 3x3.
    assert sweep.BLOCK_SLICES == 8192
    assert main(_sweep_argv("disentangle-right", 41, tmp_path / "s.csv")) == 0
    assert [a.shape[0] for a in expm_stack_calls] == [1979, 4]
    assert expm_calls == []


# The 2x2 stacks of each sweep, block by block.
_BUDGET_SIZES = {
    ("disentangle-right", 60): [2418, 1860],
    ("product", 20): [7330, 4183],
    # Each block holds a whole row or more, so each stacks the same e^{-tX}
    # and e^{tX} (v alone) of the 70 columns.
    ("hadamard", 70): [140, 140],
}


@pytest.mark.parametrize("check, steps", list(_BUDGET_SIZES))
def test_no_stack_holds_more_than_the_block_budget(check, steps, expm_stack_calls, tmp_path):
    # More requested matrices than one block may hold; a product block of
    # 256 points ends inside a row of 20.
    assert main(_sweep_argv(check, steps, tmp_path / "s.csv")) == 0
    sizes = [a.shape[0] for a in expm_stack_calls if a.shape[1] == 2]
    assert sizes == _BUDGET_SIZES[check, steps]
    assert steps * steps * verify.CHECKS[check].slices > sweep.BLOCK_SLICES
    assert max(sizes) <= sweep.BLOCK_SLICES


def _stacked(calls):
    """How many times each matrix was stacked, by its raw bytes."""
    return Counter(M.tobytes() for A in calls for M in A)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_nan_exponential_fails_its_point_in_every_block(expm_stack_calls, tmp_path, monkeypatch):
    # X = [[v, 1], [0, 0]] has 1-norm v, so e^X is NaN at v = 702 and 704.
    # Blocks of 12 points split the 9x9 lattice; the last column (v = 704)
    # is in each of the seven blocks, and each block stacks its own NaN e^X.
    monkeypatch.setattr(sweep, "BLOCK_SLICES", 4 * 12)
    window = (-1.0, 1.0, 688.0, 704.0)
    out = tmp_path / "s.csv"
    assert main(_sweep_argv("disentangle-right", 9, out, window)) == 1
    X = np.array([[704.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert _stacked(expm_stack_calls)[X.tobytes()] == 7
    assert out.read_bytes().decode("utf-8") == _per_pair_csv("disentangle-right", window, 9)
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert [r[4:] for r in rows if float(r[2]) > 700.0] == [["inf", "false"]] * 18
    # The NaN fails the point that reads it, and no other.
    s = _gathered("disentangle-right", [_lattice_pair(1.0, 704.0), _lattice_pair(1.0, 688.0)])
    assert np.array_equal(s.failed["x"][0], X)
    assert 1 not in s.failed["x"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_failed_point_keeps_a_copy_of_its_own_matrix():
    # Point 0's e^X and e^{X+Y} are NaN (1-norms 704 and 703), and point 1's
    # X has a NaN entry, so its X + Y does too.  gather drops its stack of
    # the requested matrices before expm_stack; each failure owns the bytes
    # of its matrix.
    X, Y, W, u, v = _stack([_lattice_pair(1.0, 704.0), _lattice_pair(1.0, 688.0), _lattice_pair(1.0, 2.0)])
    X[1, 1, 0] = np.nan
    s = verify._Subject(X, Y, W, u, v)
    s.gather([verify.CHECKS["disentangle-right"].request])
    assert {key: sorted(rows) for key, rows in s.failed.items()} == {"x": [0, 1], "x+y": [0, 1]}
    for key, M in (("x", X), ("x+y", X + Y)):
        for i in (0, 1):
            assert s.failed[key][i].flags.owndata
            assert s.failed[key][i].tobytes() == M[i].tobytes()


def test_nothing_is_carried_from_one_sweep_to_the_next(expm_stack_calls, tmp_path):
    assert main(_sweep_argv("disentangle-right", 41, tmp_path / "a.csv")) == 0
    first = [a.shape for a in expm_stack_calls]
    expm_stack_calls.clear()
    assert main(_sweep_argv("disentangle-right", 41, tmp_path / "b.csv")) == 0
    assert [a.shape for a in expm_stack_calls] == first
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_a_matrix_is_stacked_once_in_each_block_that_names_it(expm_stack_calls, monkeypatch):
    # Blocks of two points over the 3x3 lattice read v in the order
    # (v0, v1), (v2, v0), (v1, v2), (v0, v1), (v2).  Nothing is carried
    # from block to block, so each e^{-tX} and e^{tX} (v alone) is stacked
    # in each of the three blocks that name its v.
    monkeypatch.setattr(sweep, "BLOCK_SLICES", 2 * 2)
    us = vs = [1.0, 2.0, 3.0]
    residuals = list(lattice_residuals("hadamard", us, vs))
    assert [a.shape[0] for a in expm_stack_calls] == [4, 4, 4, 4, 2]
    assert sorted(_stacked(expm_stack_calls).values()) == [3] * 6
    assert [_bits(r) for r in residuals] == [
        _bits(_alone("hadamard", lambda u=u, v=v: _lattice_pair(u, v), DEFAULT_TOL).residual)
        for u in us for v in vs
    ]


@pytest.mark.parametrize(
    "window, steps",
    [
        ((-0.0, 3.0, -3.0, 3.0), 7),
        ((-3.0, 3.0, -0.0, 3.0), 7),
        ((-0.0, 3.0, -0.0, 3.0), 1),
        ((-0.0, -0.0, -3.0, 3.0), 3),
    ],
)
@pytest.mark.parametrize("check", sorted(verify.CHECKS))
def test_a_lower_bound_of_minus_zero_keeps_its_sign(check, window, steps, tmp_path):
    # np.linspace starts at +0.0 from a start of -0.0, and puts +0.0 inside
    # [-0.0, -0.0]; the sweep checks and writes the points it was given.
    out = tmp_path / "s.csv"
    main(_sweep_argv(check, steps, out, window))
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    first = rows[0]
    u, v = window[0], window[2]
    assert (first[0], first[2]) == (_fmt_float(u, 17), _fmt_float(v, 17))
    assert "-0" in (first[0], first[2])
    alone = _alone(check, lambda: _lattice_pair(u, v), DEFAULT_TOL)
    assert _bits(float(first[4])) == _bits(alone.residual)
    if window[0] == window[1]:
        # Every row of a zero-width u axis is the row u = -0.
        assert {row[0] for row in rows} == {"-0"}
        assert [row[2:] for row in rows] == [row[2:] for row in rows[:steps]] * steps


def test_a_sweep_into_a_missing_directory_computes_nothing(expm_stack_calls, tmp_path, capsys):
    out = tmp_path / "missing" / "s.csv"
    assert main(_sweep_argv("disentangle-right", 41, out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --out: ") and str(out) in captured.err
    assert "Traceback" not in captured.err
    assert expm_stack_calls == []
    assert not out.parent.exists()


def _per_pair_csv(check, window, steps):
    """The sweep's CSV as the public check on each point's pair gives it."""
    u_min, u_max, v_min, v_max = window
    lines = ["u_re,u_im,v_re,v_im,residual,passed"]
    for u in np.linspace(u_min, u_max, steps).tolist():
        for v in np.linspace(v_min, v_max, steps).tolist():
            try:
                result = verify.CHECKS[check](_lattice_pair(u, v), DEFAULT_TOL)
                residual, passed = result.residual, result.passed
            except Exception:  # noqa: BLE001 - a failed point, as the sweep writes it
                residual, passed = math.inf, False
            fields = (u, 0.0, v, 0.0, residual)
            lines.append(",".join([*(_fmt_float(x, 17) for x in fields), str(passed).lower()]))
    return "".join(line + "\r\n" for line in lines)


_WINDOWS = [
    (-2.0, 2.0, -2.0, 2.0),  # the origin and u + v = 0
    (-4.0, 12.0, -6.0, 690.0),  # exponentials past the 1-norm limit, infinite residuals
    (0.0, 1e200, 0.0, 1e200),  # pairs that cannot be built
    (-1.0, 1.0, 0.0, 0.0),  # v = 0 at every point: five origins in the u = 0 row
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("window", _WINDOWS)
@pytest.mark.parametrize("check", sorted(verify.CHECKS))
def test_a_sweep_writes_what_the_public_checks_give_point_by_point(check, window, tmp_path):
    out = tmp_path / "s.csv"
    main(_sweep_argv(check, 5, out, window))
    assert out.read_bytes().decode("utf-8") == _per_pair_csv(check, window, 5)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    check=st.sampled_from(sorted(verify.CHECKS)),
    window=st.sampled_from([*_WINDOWS, (-400.0, 400.0, -400.0, 400.0), (-0.3, 0.3, -0.3, 0.3)]),
    steps=st.integers(1, 6),
    budget=st.integers(1, 70),
)
def test_a_lattice_in_many_blocks_writes_what_the_public_checks_give(check, window, steps, budget):
    # A budget this small splits the lattice into blocks of 1 to 70 points,
    # which end inside rows and split the origin's row.
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        patch.setattr(sweep, "BLOCK_SLICES", budget)
        out = Path(tmp) / "s.csv"
        main(_sweep_argv(check, steps, out, window))
        assert out.read_bytes().decode("utf-8") == _per_pair_csv(check, window, steps)


def test_equal_matrices_share_one_exponential(expm_stack_calls):
    # Y depends on u alone; X + Y = [[v - u, 2], [0, 0]] on v - u alone.
    a = affine_2x2(1.0, 2.0, 1.0, 1.0)
    b = affine_2x2(1.0, 3.0, 1.0, 1.0)
    c = affine_2x2(2.0, 3.0, 1.0, 1.0)
    s = _gathered("disentangle-right", [a, b, c])
    # Two X, two Y, two X+Y and three gW, in one call.
    assert [a.shape[0] for a in expm_stack_calls] == [9]
    for i, pair in enumerate((a, b, c)):
        for key, M in (("x", pair.X), ("y", pair.Y), ("x+y", pair.X + pair.Y)):
            assert s.exp(key)[i].tobytes() == matrices.expm(M).tobytes()
    residuals = _block_residuals("disentangle-right", [a, b, c])
    for pair, residual in zip((a, b, c), residuals.tolist()):
        assert residual == check_disentangle(pair, Side.RIGHT).residual


def test_plus_and_minus_zero_are_not_merged(expm_stack_calls):
    # affine_2x2(0, ...) has Y = [[-0, 1], [0, 0]]; the same pair with +0.
    minus = affine_2x2(0.0, 1.0, 1.0, 1.0)
    assert math.copysign(1.0, minus.Y[0, 0].real) == -1.0
    plus_y = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    plus = AlgebraPair(minus.X, plus_y, minus.u, minus.v, minus.c, minus.W, "plus-zero")
    s = _gathered("swap", [minus, plus])
    # One X, one gamma W and the two Y.
    assert [a.shape[0] for a in expm_stack_calls] == [4]
    assert s.exp("y")[0].tobytes() == matrices.expm(minus.Y).tobytes()
    assert s.exp("y")[1].tobytes() == matrices.expm(plus_y).tobytes()
    # One pair whose X and Y are the two: its e^X, e^Y and e^{gamma W}.
    expm_stack_calls.clear()
    both = AlgebraPair(minus.Y, plus_y, minus.u, minus.v, minus.c, minus.W, "both-zeros")
    verify._subject(both, verify._request_swap)
    assert [a.shape[0] for a in expm_stack_calls] == [3]


def test_a_block_shares_exponentials_across_its_rows(expm_stack_calls):
    first = [affine_2x2(1.0, v, 1.0, 1.0) for v in (0.5, 1.5, 2.0)]
    second = [affine_2x2(2.0, v, 1.0, 1.0) for v in (0.5, 1.5, 2.0)]
    residuals = _block_residuals("disentangle-right", first + second)
    # The first row's three X, one Y, three X+Y and three gW; the second
    # row shares every X and adds one Y, two X+Y and three gW: X + Y at
    # v = 1.5 (v - u = -0.5) is the first row's at v = 0.5.
    assert [a.shape[0] for a in expm_stack_calls] == [16]
    for pair, residual in zip(first + second, residuals.tolist()):
        assert residual == check_disentangle(affine_2x2(pair.u, pair.v, 1.0, 1.0), Side.RIGHT).residual


@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
def test_a_nan_exponential_stays_nan_in_the_table(expm_stack_calls):
    # e^{X+Y} of the overflow pair comes back NaN from a block's stack and
    # stays NaN in the table.  Nothing fails until the point reads it: the
    # read records the point's failure, before any arithmetic.
    overflow = _overflow_pair()
    others = [affine_2x2(1.0, 2.0, 1.0, 1.0), affine_2x2(-1.0, 0.5, 1.0, 1.0)]
    block = [overflow, *others]
    s = _gathered("disentangle-right", block)
    assert {key: list(rows) for key, rows in s.failed.items()} == {"x+y": [0]}
    assert np.isnan(s.exps["x+y"][0]).all()
    assert s.errors == {}
    s.exp("x+y")
    assert list(s.errors) == [0]
    # The block's other points keep their bits: each exponential is expm's
    # of its matrix, and each residual the public check's.
    for i, pair in enumerate(others, start=1):
        for key, M in (("x", pair.X), ("y", pair.Y), ("x+y", pair.X + pair.Y)):
            assert s.exps[key][i].tobytes() == matrices.expm(M).tobytes()
    residuals = _block_residuals("disentangle-right", block).tolist()
    assert residuals[0] == math.inf
    assert [_bits(r) for r in residuals[1:]] == [_bits(check_disentangle(p, Side.RIGHT).residual) for p in others]
    # A pair is a block of one point: its table holds the NaN too, its read
    # fails the point in the same way, and the public check raises what
    # expm raises alone.
    s = verify._subject(overflow, verify._request_disentangle, Side.RIGHT)
    assert list(s.failed) == ["x+y"]
    assert np.isnan(s.exps["x+y"][0]).all()
    assert s.errors == {}
    s.exp("x+y")
    assert list(s.errors) == [0]
    with pytest.raises(OverflowError, match="matrix 1-norm 800 exceeds 700"):
        check_disentangle(overflow, Side.RIGHT)
    # t X has an entry past double range: both are stacked, their
    # exponentials stay NaN, each read fails the point, and the check
    # raises expm's error.
    expm_stack_calls.clear()
    pair = affine_2x2(1.0, 2.0, 1.0, 1.0)
    s = verify._subject(pair, verify._request_hadamard, 1e308 + 0j, 40)
    assert [a.shape[0] for a in expm_stack_calls] == [2]
    assert list(s.failed) == [("-tX", 1e308 + 0j), ("tX", 1e308 + 0j)]
    for key in s.failed:
        assert np.isnan(s.exps[key][0]).all()
    assert s.errors == {}
    for key in s.failed:
        s.exp(key)
        assert list(s.errors) == [0]
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        check_hadamard(pair, t=1e308)


def _nan(payload: int, negative: bool = False) -> float:
    """The quiet NaN with this payload (below 2**51) and sign."""
    return np.array([(int(negative) << 63) | (0xFFF << 51) | payload], dtype=np.uint64).view(float)[0]


def _rows_of_parts(parts) -> np.ndarray:
    # Complex rows with exactly these (re, im) bits: a product like 1j * -0.0
    # would not keep the sign of every zero.
    return np.array(parts, dtype=float).view(complex)


@pytest.mark.parametrize("k", [1, 4, 9, 64])
def test_unique_rows_is_np_unique_of_the_raw_bytes(k):
    rng = np.random.default_rng(2540 + k)
    base = rng.normal(size=2 * k)
    variants = [base.copy() for _ in range(8)]
    # Keys that differ only in the sign of a zero, or a NaN's payload or
    # sign, and subnormal and infinite parts.
    variants[0][0], variants[1][0] = 0.0, -0.0
    variants[2][-1], variants[3][-1], variants[4][-1] = _nan(0), _nan(1), _nan(0, negative=True)
    variants[5][k - 1], variants[6][k - 1] = 5e-324, -np.inf
    variants += [rng.normal(size=2 * k) for _ in range(4)]
    pool = _rows_of_parts(variants)
    cases = [pool[:0], pool[:1], pool, pool[rng.integers(len(pool), size=200)]]
    for rows in cases:
        keys = rows.view(np.dtype((np.void, rows.itemsize * k))).ravel()
        expected = np.unique(keys, return_index=True, return_inverse=True)
        got = verify._unique_rows(rows)
        assert len(got) == 2 and keys[got[0]].tobytes() == expected[0].tobytes()
        for a, b in zip(got, expected[1:]):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    # Each variant is a key of its own, though as numbers 0.0 == -0.0 and NaN != NaN.
    assert len(verify._unique_rows(pool)[0]) == len(pool)
    assert len(verify._unique_rows(cases[-1])[0]) == len(np.unique(cases[-1].view(np.uint64), axis=0))
