"""Acceptance gate: every shipped guarantee, one verdict line per criterion.

Each test exercises one numbered guarantee end to end at its stated
tolerance and emits a single "[PASS] criterion N: ..." line (replayed in
the terminal summary by conftest.py).  A failure prints the corresponding
[FAIL] line and the assertion detail.
"""

import cmath
import math

from conftest import ACCEPTANCE_LINES

from zassenhaus.coeffs import (
    SWITCH,
    EvalMethod,
    g_center,
    g_left,
    g_right,
    zass_coeff,
)
from zassenhaus.matrices import conjugate_series, expm, rel_residual
from zassenhaus.realizations import (
    Ladder,
    affine_2x2,
    heisenberg_3x3,
    shift_center,
    su11_pair,
)
from zassenhaus.recurrence import c_contour, c_sequence
from zassenhaus.verify import (
    check_hadamard,
    check_lindblad_application,
    quadrature_gr,
    run_suite,
)

REAL_GRID = (-2.0, -1.0, 0.0, 1.0, 2.0)
IMAG_GRID = (-1.0, 0.0, 1.0)


def _g_right_closed(u: complex, v: complex) -> complex:
    # The paper's quotient, unguarded, for the dual-path seam comparison.
    eu = cmath.exp(u)
    return (u * (cmath.exp(u - v) - eu) + v * (eu - 1.0)) / (u * v * (u - v))


def _criterion(num: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, f"{line}  {detail}"


def _complex_grid():
    for ur in REAL_GRID:
        for ui in IMAG_GRID:
            for vr in REAL_GRID:
                for vi in IMAG_GRID:
                    yield complex(ur, ui), complex(vr, vi)


def _suite_pairs():
    """Every pair (with its suite tolerance) named by the matrix criterion."""
    pairs = [(heisenberg_3x3(1.0), 1e-10)]
    for u, v in _complex_grid():
        if u + v == 0:  # degenerate: u*1 + v*1 = 0 has no affine realization
            continue
        pairs.append((affine_2x2(u, v, 1.0, 1.0), 1e-10))
    base = affine_2x2(1.0, 2.0, 1.0, 1.0)
    for c in (-1.0, 2.0):
        pairs.append((shift_center(base, c), 1e-10))
    for which in (Ladder.RAISE_SQ, Ladder.LOWER_SQ):
        for N in (6, 8, 12):
            pairs.append((su11_pair(which, N), 1e-9 if N == 12 else 1e-10))
    return pairs


def test_criterion_1_printed_coefficient_values():
    origin = g_right(0.0, 0.0)
    exact = origin.value == -0.5 + 0.0j and origin.method is not EvalMethod.CLOSED_FORM

    neg = g_right(-2.0, 0.0).value
    neg_ref = (3.0 * math.exp(-2.0) - 1.0) / 4.0
    pos = g_right(2.0, 0.0).value
    pos_ref = -(math.exp(2.0) + 1.0) / 4.0
    ok_neg = abs(neg - neg_ref) <= 1e-14 * abs(neg_ref)
    ok_pos = abs(pos - pos_ref) <= 1e-14 * abs(pos_ref)
    _criterion(
        1,
        "right coefficient at (0,0), (-2,0), (2,0) matches the exact values",
        exact and ok_neg and ok_pos,
        f"origin={origin.value} ({origin.method}), g(-2,0)={neg}, g(2,0)={pos}",
    )


def test_criterion_2_closed_form_equals_contour():
    worst = 0.0
    ok = True
    for u in REAL_GRID:
        for v in REAL_GRID:
            for n in range(2, 13):
                closed = zass_coeff(n, u, v)
                contour = c_contour(n, u, v)
                err = abs(closed - contour)
                bound = 1e-12 * (1.0 + abs(closed))
                worst = max(worst, err)
                ok = ok and err <= bound
    _criterion(
        2,
        "closed-form product coefficients agree with a contour integral of g_right "
        "for n = 2..12",
        ok,
        f"worst |difference| = {worst:.3e}",
    )


def test_criterion_3_series_sums_to_the_coefficient():
    worst = 0.0
    for u in REAL_GRID:
        for v in REAL_GRID:
            err = abs(sum(c_sequence(30, u, v)) - g_right(u, v).value)
            worst = max(worst, err)
    _criterion(
        3,
        "sum of the first 29 product coefficients reaches the closed form",
        worst <= 1e-10,
        f"worst |difference| = {worst:.3e}",
    )


def test_criterion_4_quadrature_is_an_independent_route():
    worst = 0.0
    for u in REAL_GRID:
        for v in REAL_GRID:
            err = abs(quadrature_gr(u, v, 32) - g_right(u, v).value)
            worst = max(worst, err)
    _criterion(
        4,
        "32-node quadrature agrees with the closed form to 1e-12",
        worst <= 1e-12,
        f"worst |difference| = {worst:.3e}",
    )


def test_criterion_5_matrix_identity_suite():
    failures = []
    for pair, tol in _suite_pairs():
        report = run_suite(pair, tol)
        if not report.all_passed:
            bad = [(r.name, r.residual) for r in report.results if not r.passed]
            failures.append((pair.name, tol, bad))
    _criterion(
        5,
        "full identity suite passes on every named realization",
        not failures,
        f"failing pairs: {failures[:5]}",
    )


def test_criterion_6_coefficient_relations_and_seams():
    grid = [complex(a, b) for a in range(-3, 4) for b in IMAG_GRID]
    swap_exact = True
    center_exact = True
    worst_rc = 0.0
    for u in grid:
        for v in grid:
            gr = g_right(u, v).value
            gl = g_left(u, v).value
            gc = g_center(u, v).value
            swap_exact = swap_exact and gl == g_right(v, u).value
            center_exact = center_exact and gc == cmath.exp(-v) * gl
            rc = abs(gr - cmath.exp(u) * g_center(v, u).value)
            if rc > 1e-13 * (1.0 + abs(gr)):
                worst_rc = max(worst_rc, rc / (1.0 + abs(gr)))
    ok_rc = worst_rc == 0.0

    # seam continuity: dual evaluation paths agree just inside each
    # singular line's switch radius, where the dispatcher has left the
    # generic closed form but the closed form is still well conditioned
    seam_ok = True
    worst_seam = 0.0
    inside = 0.996 * SWITCH
    for t in (1.0, -1.5, 2.0, 0.7):
        for point in (
            (inside, t),  # near u = 0
            (t, inside),  # near v = 0
            (t, t + inside),  # near u = v
        ):
            dispatched = g_right(*point).value
            closed = _g_right_closed(complex(point[0]), complex(point[1]))
            rel = abs(dispatched - closed) / abs(closed)
            worst_seam = max(worst_seam, rel)
            seam_ok = seam_ok and rel <= 1e-9
    _criterion(
        6,
        "left/center/right coefficient relations hold; seams are continuous",
        swap_exact and center_exact and ok_rc and seam_ok,
        f"swap_exact={swap_exact} center_exact={center_exact} "
        f"worst_rc_rel={worst_rc:.3e} worst_seam_rel={worst_seam:.3e}",
    )


def test_criterion_7_lindblad_adjudication():
    ok = True
    details = []
    for alpha, beta in ((0.3, 0.7), (1.0, 1.0)):
        first = check_lindblad_application(alpha, beta)
        second = check_lindblad_application(alpha, beta)
        deterministic = [r.residual for r in first.results] == [
            r.residual for r in second.results
        ]
        forms = first.results[0].metadata["passing_forms"]
        recorded = all(
            r.metadata["passing_forms"] == forms for r in first.results
        )
        attained = any(r.residual <= 1e-10 for r in first.results)
        ok = ok and deterministic and recorded and attained and len(forms) >= 1
        details.append(
            f"(alpha,beta)=({alpha},{beta}) passing_forms={forms} "
            f"residuals={[f'{r.residual:.2e}' for r in first.results]}"
        )
    _criterion(
        7,
        "dissipator adjudication is deterministic and at least one form passes",
        ok,
        "; ".join(details),
    )


def test_criterion_8_adjoint_series_matches_conjugation():
    worst = 0.0
    ok = True
    for pair, _ in _suite_pairs():
        result = check_hadamard(pair, t=0.5, K=40, tol=1e-12)
        worst = max(worst, result.residual)
        ok = ok and result.passed
    _criterion(
        8,
        "40-term adjoint series equals the conjugation product at t = 0.5",
        ok,
        f"worst residual = {worst:.3e}",
    )


def test_acceptance_engine_consistency():
    # belt-and-braces: the series/conjugation agreement above is not an
    # artifact of rel_residual's scale guard
    pair = affine_2x2(1.0, 2.0, 1.0, 1.0)
    series = conjugate_series(pair.X, pair.Y, 0.5, 40)
    direct = expm(-0.5 * pair.X) @ pair.Y @ expm(0.5 * pair.X)
    assert rel_residual(series, direct) <= 1e-13
