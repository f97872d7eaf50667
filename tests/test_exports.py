"""Every module of the package star-imports: a name left in ``__all__``
after its definition is gone fails here, not at a user's import.  And
each module exports only what it defines: a name it imports is exported
by the module that defines it."""

import ast
import importlib
import inspect
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


@pytest.mark.parametrize("module", MODULES)
def test_exports_are_defined_in_their_module(module):
    mod = importlib.import_module(module)
    defined = set()
    for node in ast.parse(inspect.getsource(mod)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {t.id for t in targets if isinstance(t, ast.Name)}
    assert [name for name in getattr(mod, "__all__", ()) if name not in defined] == []
