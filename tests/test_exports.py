"""Every module's __all__ names something that exists."""

import importlib
import pkgutil

import pytest

import olsrtune

MODULES = sorted(m.name for m in pkgutil.iter_modules(olsrtune.__path__))


def test_modules_found():
    assert {"analysis", "cli", "evo", "olsr", "scenario", "sim"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"olsrtune.{name}")
    exported = getattr(module, "__all__", [])
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []
    namespace: dict = {}
    exec(f"from olsrtune.{name} import *", namespace)
    assert set(exported) <= set(namespace)
