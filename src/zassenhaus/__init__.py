"""Disentangling operator exponentials for [X, Y] = uX + vY + c*identity.

Scalar coefficients (coeffs), the product coefficients C_n with an
independent contour route to them (recurrence), a dense-matrix kernel
(matrices), exact finite-dimensional realizations (realizations), an
identity-check engine (verify), and a CLI (cli).
"""

from .coeffs import (
    CoeffValue,
    EvalMethod,
    PoleError,
    f_bch,
    g_center,
    g_left,
    g_right,
    gamma_swap,
    integrand,
    phi1,
    zass_coeff,
)
from .matrices import (
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
from .realizations import (
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
from .recurrence import c_contour, c_sequence
from .verify import (
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

__version__ = "0.1.0"

__all__ = [
    "AlgebraPair",
    "CheckReport",
    "CheckResult",
    "CoeffValue",
    "DegenerateError",
    "DimensionError",
    "DimensionMismatch",
    "EvalMethod",
    "Ladder",
    "PoleError",
    "Side",
    "__version__",
    "affine_2x2",
    "as_matrix",
    "c_contour",
    "c_sequence",
    "check_ab_structure",
    "check_bch",
    "check_disentangle",
    "check_hadamard",
    "check_integral",
    "check_lindblad_application",
    "check_swap",
    "check_truncated_product",
    "commutator",
    "conjugate_series",
    "expm",
    "expm_stack",
    "f_bch",
    "g_center",
    "g_left",
    "g_right",
    "gamma_swap",
    "heisenberg_3x3",
    "infer_uvc",
    "integrand",
    "lindblad_pair",
    "load_matrix",
    "phi1",
    "quadrature_gr",
    "rel_residual",
    "run_suite",
    "shift_center",
    "su11_pair",
    "zass_coeff",
]
