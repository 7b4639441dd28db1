"""Disentangling operator exponentials for [X, Y] = uX + vY + c*identity.

Scalar coefficients (coeffs), the product coefficients C_n with an
independent contour route to them (recurrence), a dense-matrix kernel
(matrices), exact finite-dimensional realizations (realizations), an
identity-check engine (verify), and a CLI (cli).

Each name below loads its submodule when it is first read, so the
coefficients and C_n, which need only the standard library, do not
import numpy or compile the matrix harness.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "coeffs": (
        "CoeffValue", "EvalMethod", "PoleError", "f_bch", "g_center", "g_left",
        "g_right", "gamma_swap", "integrand", "phi1", "zass_coeff",
    ),
    "matrices": (
        "DimensionMismatch", "as_matrix", "commutator", "conjugate_series", "expm",
        "expm_stack", "infer_uvc", "load_matrix", "rel_residual",
    ),
    "realizations": (
        "AlgebraPair", "DegenerateError", "DimensionError", "Ladder", "affine_2x2",
        "heisenberg_3x3", "lindblad_pair", "shift_center", "su11_pair",
    ),
    "recurrence": ("c_contour", "c_sequence"),
    "verify": (
        "CheckReport", "CheckResult", "Side", "check_ab_structure", "check_bch",
        "check_disentangle", "check_hadamard", "check_integral",
        "check_lindblad_application", "check_swap", "check_truncated_product",
        "quadrature_gr", "run_suite",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, "__version__"])


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Stored, so a later read skips this hook and code that rebinds a
    # name in vars(zassenhaus) (the benchmark's tracer) finds it there.
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
