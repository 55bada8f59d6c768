"""Every name that a module of ``etau`` lists in ``__all__`` resolves.

A stale entry, left behind when a name is deleted, otherwise fails only at
a user's ``from module import *``.
"""

import importlib
import pkgutil

import pytest

import etau

MODULES = ["etau"] + sorted(m.name for m in pkgutil.walk_packages(etau.__path__, "etau."))


def test_every_module_is_covered():
    assert {"etau._kernels", "etau._kernels.mesh_numpy", "etau.plateau"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert missing == []
    exec(f"from {name} import *", {})
