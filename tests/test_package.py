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
)

# What ``import zassenhaus`` adds to sys.modules in a fresh interpreter
# that has imported numpy, as captured before the sweep rows were checked
# as stacks.  Importing the package does no more than this: a new module
# here is set-up time for every command.
PACKAGE_IMPORTS = [
    "__future__",
    "_json",
    "cmath",
    "copy",
    "dataclasses",
    "json",
    "json.decoder",
    "json.encoder",
    "json.scanner",
    "zassenhaus",
    "zassenhaus.coeffs",
    "zassenhaus.matrices",
    "zassenhaus.realizations",
    "zassenhaus.recurrence",
    "zassenhaus.verify",
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
