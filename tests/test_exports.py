"""Every public name resolves: each module's ``__all__`` and the names the
package imports into ``thermint``."""

import ast
import importlib
import pkgutil

import pytest

import thermint

MODULES = sorted(f"thermint.{m.name}" for m in pkgutil.iter_modules(thermint.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_package_imports_resolve():
    with open(thermint.__file__) as fh:
        tree = ast.parse(fh.read())
    imports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(f"thermint.{module}"), name), (module, name)
        assert hasattr(thermint, name), name
