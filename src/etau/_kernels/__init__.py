"""Mesh area/gradient kernel.

``area_and_grad`` is the numpy kernel of :mod:`.mesh_numpy`; the Plateau
solver calls it through this module attribute, so a caller may wrap it
(to count or time kernel calls) by replacing the attribute.

``ACTIVE_BACKEND``, ``available_backends`` and ``get_backend`` name the
single kernel for ``perfbench``, which records and times kernels by
backend name.
"""

from __future__ import annotations

from . import mesh_numpy

__all__ = ["area_and_grad", "ACTIVE_BACKEND", "available_backends", "get_backend"]

ACTIVE_BACKEND = "numpy"
area_and_grad = mesh_numpy.area_and_grad


def available_backends() -> tuple[str, ...]:
    return (ACTIVE_BACKEND,)


def get_backend(name: str):
    """Kernel function for a named backend; only ``"numpy"`` exists."""
    if name != ACTIVE_BACKEND:
        raise KeyError(f"unknown backend {name!r}; available: [{ACTIVE_BACKEND!r}]")
    return mesh_numpy.area_and_grad
