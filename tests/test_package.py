"""Public surface: every exported name resolves and removed names stay gone."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = [
    "zassenhaus",
    "zassenhaus.cli",
    "zassenhaus.coeffs",
    "zassenhaus.matrices",
    "zassenhaus.realizations",
    "zassenhaus.recurrence",
    "zassenhaus.sweep",
    "zassenhaus.verify",
]

REMOVED = (
    "TruncatedSeries",
    "beta_step",
    "OrderError",
    "DEFAULT_ORDER",
    "report_to_jsonable",
    "share_exponentials",
    "prepare",
    "lattice_row",
    "stack_residuals",
    "_Memo",
    "_MEMOS",
    "_memo",
    "_prepared",
    "_gather",
    "_exponentials",
    "_Stack",
    "_CHECKS",
    "beta1_series",
    "c_from_recurrence",
    "partial_sum_gr",
    "_phi1_series",
    "_phi1_counted",
    "REL_EPS",
    "MAX_TERMS",
)

# What ``import zassenhaus`` adds to sys.modules in a fresh interpreter
# that has imported numpy: the package alone, whose names load their
# submodules when first read.  Importing the package does no more than
# this: a new module here is set-up time for every command.
PACKAGE_IMPORTS = ["zassenhaus"]

# What reading ``zassenhaus.g_right`` adds after that: the coefficients
# need the standard library and no other submodule.
G_RIGHT_IMPORTS = ["__future__", "cmath", "copy", "dataclasses", "zassenhaus.coeffs"]

SUBMODULES = ["coeffs", "matrices", "realizations", "recurrence", "verify"]

# The package's public names: the lazy table may neither drop nor add one.
PACKAGE_ALL = [
    "AlgebraPair", "CheckReport", "CheckResult", "CoeffValue", "DegenerateError",
    "DimensionError", "DimensionMismatch", "EvalMethod", "Ladder", "PoleError", "Side",
    "__version__", "affine_2x2", "as_matrix", "c_contour", "c_sequence",
    "check_ab_structure", "check_bch", "check_disentangle", "check_hadamard",
    "check_integral", "check_lindblad_application", "check_swap",
    "check_truncated_product", "commutator", "conjugate_series", "expm", "expm_stack",
    "f_bch", "g_center", "g_left", "g_right", "gamma_swap", "heisenberg_3x3",
    "infer_uvc", "integrand", "lindblad_pair", "load_matrix", "phi1", "quadrature_gr",
    "rel_residual", "run_suite", "shift_center", "su11_pair", "zass_coeff",
]


def _tracer_layers() -> tuple[str, ...]:
    """``LAYERS`` from perfbench/tracer.py, read without importing perfbench."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYERS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py assigns no LAYERS")


# The benchmark's tracer imports zassenhaus.<layer> for each of its LAYERS
# and wraps the names in its __all__; a missing one ends every traced run.
PUBLIC_MODULES = sorted(set(MODULES) | {f"zassenhaus.{layer}" for layer in _tracer_layers()})


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [public for public in module.__all__ if not hasattr(module, public)]
    assert missing == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


@pytest.mark.parametrize("name", MODULES)
def test_removed_names_are_gone(name):
    module = importlib.import_module(name)
    assert [removed for removed in REMOVED if hasattr(module, removed)] == []
    assert not set(REMOVED) & set(module.__all__)


def _run(code: str) -> str:
    """stdout of code in a fresh interpreter that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code, src], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout


def test_importing_the_package_adds_only_the_modules_it_always_added():
    code = (
        "import sys, numpy; before = set(sys.modules); import zassenhaus; "
        "assert zassenhaus.__file__.startswith(sys.argv[1]), zassenhaus.__file__; "
        "print(sorted(set(sys.modules) - before))"
    )
    assert ast.literal_eval(_run(code).strip()) == PACKAGE_IMPORTS


def test_a_verify_command_does_not_import_the_sweep_module():
    # Set-up time counts compiling, so the block code of a sweep stays out
    # of every other command.
    code = "\n".join([
        "import contextlib, io, sys",
        "import zassenhaus.cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code = zassenhaus.cli.main(['verify', '--pair', 'affine2', '--format', 'json'])",
        "assert zassenhaus.cli.__file__.startswith(sys.argv[1]), zassenhaus.cli.__file__",
        "print(code, 'zassenhaus.sweep' in sys.modules)",
    ])
    assert _run(code).split() == ["0", "False"]


def test_reading_g_right_adds_only_the_coefficient_module():
    code = (
        "import sys, numpy, zassenhaus; before = set(sys.modules); zassenhaus.g_right; "
        "print(sorted(set(sys.modules) - before))"
    )
    assert ast.literal_eval(_run(code).strip()) == G_RIGHT_IMPORTS


def test_the_scalar_functions_import_neither_numpy_nor_the_matrix_harness():
    code = "\n".join([
        "import sys",
        "from zassenhaus import (c_contour, c_sequence, f_bch, g_center, g_left, g_right,",
        "                        gamma_swap, integrand, phi1, zass_coeff)",
        "for fn in (f_bch, g_center, g_left, g_right, gamma_swap):",
        "    fn(0.3, -0.2)",
        "phi1(0.3); integrand(0.5, 0.3, -0.2); zass_coeff(3, 0.3, -0.2)",
        "c_sequence(4, 0.3, -0.2); c_contour(3, 0.3, -0.2)",
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('zassenhaus.')))",
    ])
    assert ast.literal_eval(_run(code).strip()) == ["zassenhaus.coeffs", "zassenhaus.recurrence"]


def test_every_package_name_is_its_submodule_export():
    import zassenhaus

    assert zassenhaus.__all__ == PACKAGE_ALL
    for name in zassenhaus.__all__:
        if name == "__version__":
            continue
        owners = [
            sub for sub in SUBMODULES
            if name in importlib.import_module(f"zassenhaus.{sub}").__all__
        ]
        assert len(owners) == 1, (name, owners)
        module = importlib.import_module(f"zassenhaus.{owners[0]}")
        assert getattr(zassenhaus, name) is getattr(module, name)


def test_dir_lists_every_name_before_any_is_read():
    code = (
        "import sys, zassenhaus; names = dir(zassenhaus); "
        "print(sorted(set(zassenhaus.__all__) - set(names)), 'zassenhaus.coeffs' in sys.modules)"
    )
    assert _run(code).split() == ["[]", "False"]


@pytest.mark.parametrize("sub", SUBMODULES)
def test_a_submodule_is_an_attribute_of_the_imported_package(sub):
    code = (
        f"import sys, zassenhaus; module = zassenhaus.{sub}; "
        f"print(module is sys.modules['zassenhaus.{sub}'], all(hasattr(module, n) for n in module.__all__))"
    )
    assert _run(code).split() == ["True", "True"]


def test_an_unknown_name_raises_attribute_error_naming_the_package():
    import zassenhaus

    with pytest.raises(AttributeError, match="^module 'zassenhaus' has no attribute 'g_rigth'$"):
        zassenhaus.g_rigth  # noqa: B018


def test_a_name_read_once_is_stored_in_the_package_namespace():
    # The benchmark's tracer rebinds the functions it finds in vars(zassenhaus).
    code = (
        "import zassenhaus; before = 'g_left' in vars(zassenhaus); fn = zassenhaus.g_left; "
        "print(before, vars(zassenhaus)['g_left'] is fn is zassenhaus.coeffs.g_left)"
    )
    assert _run(code).split() == ["False", "True"]
