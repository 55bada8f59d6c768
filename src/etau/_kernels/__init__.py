"""Mesh area/gradient kernel.

``plan`` and ``area_and_grad`` are the numpy kernel of :mod:`.mesh_numpy`.
The Plateau solver builds one plan per solve through the ``plan`` module
attribute, free or (``vertical=True``) for a mesh whose vertices move
only in t.  It calls the plan's ``evaluate`` once per line-search
candidate and takes the gradient from the accepted evaluation's
``gradient()``.  A caller may wrap ``plan``, and the ``evaluate`` of the
plan it returns, by replacing the attribute, to count or time the
solver's kernel work.  ``area_and_grad`` is a one-shot free plan plus an
optional ``gradient()``, for callers that want both at once.

``ACTIVE_BACKEND``, ``available_backends`` and ``get_backend`` name the
single kernel for ``perfbench``, which records and times kernels by
backend name.
"""

from __future__ import annotations

from . import mesh_numpy

__all__ = [
    "plan",
    "area_and_grad",
    "ACTIVE_BACKEND",
    "available_backends",
    "get_backend",
]

ACTIVE_BACKEND = "numpy"
plan = mesh_numpy.plan
area_and_grad = mesh_numpy.area_and_grad


def available_backends() -> tuple[str, ...]:
    return (ACTIVE_BACKEND,)


def get_backend(name: str):
    """Kernel function for a named backend; only ``"numpy"`` exists."""
    if name != ACTIVE_BACKEND:
        raise KeyError(f"unknown backend {name!r}; available: [{ACTIVE_BACKEND!r}]")
    return mesh_numpy.area_and_grad
