"""Mesh area/gradient kernels with compiled and reference backends.

The compiled backend is used when its extension module built; setting
the environment variable ``ETAU_PURE_PYTHON`` (to anything nonempty)
before import forces the numpy reference implementation.  Both expose
the same ``area_and_grad`` contract; the test suite holds them to
agreement within a relative 1e-13 on areas and 1e-10 on gradients.
"""

from __future__ import annotations

import os

from . import mesh_numpy

__all__ = ["area_and_grad", "ACTIVE_BACKEND", "available_backends", "get_backend"]

_BACKENDS = {"numpy": mesh_numpy.area_and_grad}

if not os.environ.get("ETAU_PURE_PYTHON"):
    try:
        from . import _mesh_cy

        _BACKENDS["cython"] = _mesh_cy.area_and_grad
    except ImportError:
        pass

ACTIVE_BACKEND = "cython" if "cython" in _BACKENDS else "numpy"
area_and_grad = _BACKENDS[ACTIVE_BACKEND]


def available_backends() -> tuple[str, ...]:
    return tuple(sorted(_BACKENDS))


def get_backend(name: str):
    """Kernel function for an explicitly named backend (for tests/benchmarks)."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; available: {sorted(_BACKENDS)}"
        ) from None
