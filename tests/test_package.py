"""Public surface: every exported name resolves and removed names stay gone."""

import importlib

import pytest

MODULES = [
    "zassenhaus",
    "zassenhaus.cli",
    "zassenhaus.coeffs",
    "zassenhaus.matrices",
    "zassenhaus.realizations",
    "zassenhaus.recurrence",
    "zassenhaus.verify",
]

REMOVED = (
    "TruncatedSeries",
    "beta_step",
    "OrderError",
    "DEFAULT_ORDER",
    "report_to_jsonable",
    "share_exponentials",
)


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
