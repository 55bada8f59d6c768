"""Every public module of ``etau`` declares ``__all__``, and every entry resolves.

A stale entry, left behind when a name is deleted, otherwise fails only at
a user's ``from module import *``.  A module is public when no part of its
dotted name after ``etau`` starts with an underscore.  No module keeps a
module-level import that it never uses.
"""

import ast
import importlib
import pkgutil
import types

import pytest

import etau

MODULES = ["etau"] + sorted(m.name for m in pkgutil.walk_packages(etau.__path__, "etau."))
PUBLIC = [m for m in MODULES if not any(p.startswith("_") for p in m.split(".")[1:])]


def test_every_module_is_covered():
    assert {"etau._kernels", "etau._kernels.mesh_numpy", "etau.plateau"} <= set(MODULES)
    assert {"etau", "etau.numerics", "etau.errors", "etau.catenoid", "etau.cli"} <= set(PUBLIC)
    assert "etau._csvio" not in PUBLIC and "etau._kernels.mesh_numpy" not in PUBLIC


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert missing == []
    exec(f"from {name} import *", {})


@pytest.mark.parametrize("name", PUBLIC)
def test_public_module_declares_all(name):
    assert isinstance(importlib.import_module(name).__all__, list)


def test_package_all_lists_exactly_its_reexports():
    reexports = {
        name
        for name, value in vars(etau).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(etau.__all__) == sorted(reexports)


def unused_imports(source: str) -> list[str]:
    """Module-level imported names that the module neither uses nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, numpy as np\nfrom a import b\n"
    assert unused_imports(source + "__all__ = ['b']\nnp.zeros(1)\n") == ["os"]


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_module_level_imports(name):
    path = importlib.import_module(name).__file__
    with open(path, encoding="utf-8") as f:
        assert unused_imports(f.read()) == []
