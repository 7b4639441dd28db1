"""Identity checks and suite aggregation on exact matrix realizations."""

import argparse
import gc
import json
import math
import weakref

import numpy as np
import pytest

from zassenhaus import matrices, verify
from zassenhaus.cli import (
    _PAIR_BUILDERS,
    _build_parser,
    _json_text,
    _lattice_pair,
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
    share_exponentials,
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


# --------------------------------------- exponentials shared within a pair


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


@pytest.mark.parametrize("name", sorted(_PAIR_BUILDERS))
def test_run_suite_makes_40_expm_calls_per_builtin_pair(name, expm_calls, expm_stack_calls):
    # e^X, e^Y, e^{X+Y} once each; one e^{cW} in each of the three
    # disentangle checks, swap, bch and integral; 29 in the product; 2 in
    # hadamard.  Nothing is stacked outside a sweep.
    assert run_suite(_PAIR_BUILDERS[name]()).all_passed
    assert len(expm_calls) == 40
    assert expm_stack_calls == []


def test_a_fresh_pair_recomputes_every_exponential(expm_calls):
    run_suite(affine_2x2(1.0, 2.0, 1.0, 1.0))
    assert len(expm_calls) == 40
    run_suite(affine_2x2(1.0, 2.0, 1.0, 1.0))
    assert len(expm_calls) == 80
    pair = affine_2x2(1.0, 2.0, 1.0, 1.0)
    run_suite(pair)
    run_suite(pair)  # the same pair again reuses its three exponentials
    assert len(expm_calls) == 80 + 40 + 37


def test_shared_exponentials_are_read_only():
    pair = affine_2x2(1.0, 2.0, 1.0, 1.0)
    run_suite(pair)
    exps = verify._exponentials(pair)
    for name in ("x", "y", "x_plus_y", "x_times_y"):
        array = getattr(exps, name)
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 0.0


def test_shared_exponentials_die_with_their_pair():
    pair = affine_2x2(1.0, 2.0, 1.0, 1.0)
    check_swap(pair)
    assert pair in verify._EXPONENTIALS
    held = len(verify._EXPONENTIALS)
    ref = weakref.ref(pair)
    del pair
    gc.collect()
    assert ref() is None
    assert len(verify._EXPONENTIALS) <= held - 1


def test_overflow_is_raised_by_every_check_that_needs_it(expm_calls):
    X = np.array([[1.0, 400.0], [0.0, 0.0]])
    Y = np.array([[0.0, 400.0], [0.0, 0.0]])
    pair = AlgebraPair(X, Y, 0.0, 1.0, 0.0, Y, "overflow")
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


# ------------------------------------- exponentials stacked over a sweep row


def _origin_row():
    # The u = 0 row of the 9x9 sweep: eight 2x2 pairs and the 3x3 origin.
    return [_lattice_pair(0.0, float(v)) for v in np.linspace(-2.0, 2.0, 9)]


@pytest.mark.parametrize("check", sorted(verify.CHECKS))
def test_a_shared_row_gives_the_per_pair_results(check, expm_stack_calls):
    check_fn = verify.CHECKS[check]
    row = _origin_row()
    assert sorted({p.dim for p in row}) == [2, 3]
    share_exponentials(row)
    shared = [check_fn(pair, DEFAULT_TOL) for pair in row]
    alone = [check_fn(pair, DEFAULT_TOL) for pair in _origin_row()]
    assert [(r.residual, r.passed) for r in shared] == [(r.residual, r.passed) for r in alone]
    # One call per shape for each of e^X, e^Y, e^{X+Y} that the check uses.
    expected = {"ab-structure": 0, "hadamard": 0, "bch": 4, "swap": 4}.get(check, 6)
    assert len(expm_stack_calls) == expected
    assert all(len(a) in (1, 8) for a in expm_stack_calls)


def test_stacked_exponentials_are_read_only():
    row = _origin_row()
    share_exponentials(row)
    for pair in row:
        exps = verify._exponentials(pair)
        for name in ("x", "y", "x_plus_y", "x_times_y"):
            array = getattr(exps, name)
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 0.0


def test_a_stacked_slice_past_the_norm_limit_still_raises(expm_calls):
    X = np.array([[1.0, 400.0], [0.0, 0.0]])
    Y = np.array([[0.0, 400.0], [0.0, 0.0]])
    overflow = AlgebraPair(X, Y, 0.0, 1.0, 0.0, Y, "overflow")
    row = [affine_2x2(1.0, 2.0, 1.0, 1.0), overflow, affine_2x2(-1.0, 0.5, 1.0, 1.0)]
    share_exponentials(row)
    with pytest.raises(OverflowError):
        check_disentangle(overflow, Side.RIGHT)
    # e^{gW}, then the scalar e^{X+Y} that raised in place of the NaN slice.
    assert len(expm_calls) == 2
    assert np.array_equal(expm_calls[1], X + Y)
    assert check_disentangle(row[2], Side.RIGHT).passed
    assert check_disentangle(row[0], Side.RIGHT).passed
    assert len(expm_calls) == 4  # only e^{gW} of each of the two


@pytest.mark.parametrize("check", ["ab-structure", "hadamard"])
def test_a_sweep_that_needs_no_shared_exponential_stacks_nothing(check, expm_stack_calls, tmp_path):
    argv = ["sweep", "--check", check, "--u-min", "-2", "--u-max", "2",
            "--v-min", "-2", "--v-max", "2", "--steps", "5", "--out", str(tmp_path / "s.csv")]
    assert main(argv) == 0
    assert expm_stack_calls == []


def test_a_sweep_leaves_no_lattice_pair_behind(expm_stack_calls, tmp_path):
    held = list(verify._EXPONENTIALS.keys())
    argv = ["sweep", "--check", "disentangle-right", "--u-min", "-2", "--u-max", "2",
            "--v-min", "-2", "--v-max", "2", "--steps", "5", "--out", str(tmp_path / "s.csv")]
    assert main(argv) == 0
    assert len(expm_stack_calls) == 5 * 3 + 3  # the u = 0 row has two shapes
    gc.collect()
    assert len(verify._EXPONENTIALS) == len(held)
