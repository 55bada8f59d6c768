"""Mesh area/gradient kernel.

``evaluate`` and ``area_and_grad`` are the numpy kernel of
:mod:`.mesh_numpy`.  The Plateau solver calls ``evaluate`` through this
module attribute, once per line-search candidate, and takes the gradient
from the accepted evaluation's ``gradient()``; a caller may wrap
``evaluate`` (to count or time the solver's kernel work) by replacing the
attribute.  ``area_and_grad`` is ``evaluate`` plus an optional
``gradient()``, for callers that want both at once.  ``vertical_graph``
builds the kernel of a mesh whose vertices move only in t; the solver
builds it once per vertical solve, through this module attribute, and
calls its ``evaluate`` in place of ``evaluate``.

``ACTIVE_BACKEND``, ``available_backends`` and ``get_backend`` name the
single kernel for ``perfbench``, which records and times kernels by
backend name.
"""

from __future__ import annotations

from . import mesh_numpy

__all__ = [
    "evaluate",
    "area_and_grad",
    "vertical_graph",
    "ACTIVE_BACKEND",
    "available_backends",
    "get_backend",
]

ACTIVE_BACKEND = "numpy"
evaluate = mesh_numpy.evaluate
area_and_grad = mesh_numpy.area_and_grad
vertical_graph = mesh_numpy.vertical_graph


def available_backends() -> tuple[str, ...]:
    return (ACTIVE_BACKEND,)


def get_backend(name: str):
    """Kernel function for a named backend; only ``"numpy"`` exists."""
    if name != ACTIVE_BACKEND:
        raise KeyError(f"unknown backend {name!r}; available: [{ACTIVE_BACKEND!r}]")
    return mesh_numpy.area_and_grad
