"""Every module of the package star-imports: a name left in ``__all__``
after its definition is gone fails here, not at a user's import."""

import importlib
import pkgutil

import pytest

import elicit

MODULES = ["elicit"] + sorted(f"elicit.{m.name}" for m in pkgutil.iter_modules(elicit.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    namespace = {}
    exec(f"from {module} import *", namespace)
    exported = getattr(importlib.import_module(module), "__all__", ())
    assert set(exported) <= set(namespace)
