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


@pytest.mark.parametrize("name", MODULES)
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


def test_importing_the_package_adds_only_the_modules_it_always_added():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, numpy; before = set(sys.modules); import zassenhaus; "
        "assert zassenhaus.__file__.startswith(sys.argv[1]), zassenhaus.__file__; "
        "print(sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, src], env=env, capture_output=True, text=True, check=True
    )
    assert ast.literal_eval(proc.stdout.strip()) == PACKAGE_IMPORTS
