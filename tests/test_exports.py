"""Every public module of ``etau`` declares ``__all__``, and every entry resolves.

A stale entry, left behind when a name is deleted, otherwise fails only at
a user's ``from module import *``.  A module is public when no part of its
dotted name after ``etau`` starts with an underscore.
"""

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
