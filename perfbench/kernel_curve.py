"""Mesh-kernel cost curve: ns per triangle against mesh size, per backend.

Times area-only and area+gradient evaluations of every backend in
``etau._kernels.available_backends()`` on catenoid annulus meshes of
about 1.5k, 6k, 25k and 98k triangles, checks that backends agree when
more than one exists, and computes the bytes of temporaries one
area+gradient call of the active backend allocates per triangle
(tracemalloc peak at 25k: a computed figure, not a measured bandwidth).
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

import numpy as np

from etau import _kernels
from etau.catenoid import CatenoidProfile, TruncatedCatenoid, annulus_vertex_grid
from etau.models import AmbientSpace
from etau.plateau import mesh_from_grid

TAU = 0.5
# label -> (rows, columns) of the annulus grid; triangles = 2 (rows - 1) columns
SIZES = {"1.5k": (17, 48), "6k": (33, 96), "25k": (65, 192), "98k": (129, 384)}
BYTES_SIZE = "25k"
# the tolerances tests/test_kernels.py holds the backends to
AGREE_RTOL, AGREE_ATOL = 1e-13, 1e-15
AGREE_GRAD_RTOL, AGREE_GRAD_ATOL = 1e-10, 1e-12


def _meshes():
    trunc = TruncatedCatenoid(CatenoidProfile(AmbientSpace(TAU), 10.0), 3.5)
    for label, (rows, cols) in SIZES.items():
        mesh = mesh_from_grid(annulus_vertex_grid(trunc, rows, cols))
        yield label, mesh.vertices, mesh.triangles


def _median_seconds(fn, vertices, triangles, want_grad: bool, budget_s: float) -> tuple[float, int]:
    times = []
    spent = 0.0
    while len(times) < 3 or (spent < budget_s and len(times) < 200):
        start = time.perf_counter()
        fn(TAU, vertices, triangles, want_grad)
        times.append(time.perf_counter() - start)
        spent += times[-1]
    return statistics.median(times), len(times)


def _allocated_bytes(fn, vertices, triangles) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(TAU, vertices, triangles, True)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def agreement_rows(label: str, results: dict) -> list[dict]:
    """Compare each backend's ``(areas, degenerate, grad)`` with the first one's."""
    names = sorted(results)
    ref_areas, ref_degen, ref_grad = results[names[0]]
    rows = []
    for name in names[1:]:
        areas, degen, grad = results[name]
        rows.append(
            {
                "size": label,
                "backends": [names[0], name],
                "area_max_abs_diff": float(np.max(np.abs(areas - ref_areas))),
                "grad_max_abs_diff": float(np.max(np.abs(np.asarray(grad) - ref_grad))),
                "ok": bool(
                    np.allclose(areas, ref_areas, rtol=AGREE_RTOL, atol=AGREE_ATOL)
                    and (np.asarray(degen) == np.asarray(ref_degen)).all()
                    and np.allclose(grad, ref_grad, rtol=AGREE_GRAD_RTOL, atol=AGREE_GRAD_ATOL)
                ),
            }
        )
    return rows


def measure(budget_s: float = 0.25) -> dict:
    """Kernel curve as ``{"metrics": {name: (value, unit, samples)}, "agreement": ...}``."""
    backends = _kernels.available_backends()
    metrics: dict[str, tuple[float, str, int]] = {}
    agreement = []
    for label, vertices, triangles in _meshes():
        n_tri = len(triangles)
        results = {}
        for name in backends:
            fn = _kernels.get_backend(name)
            for mode, want_grad in (("grad", True), ("area", False)):
                sec, n = _median_seconds(fn, vertices, triangles, want_grad, budget_s)
                metrics[f"kernel.{name}.{mode}_ns_per_tri.{label}"] = (sec / n_tri * 1e9, "ns", n)
            results[name] = fn(TAU, vertices, triangles, True)
        if label == BYTES_SIZE:
            metrics["kernel.computed_bytes_per_tri"] = (
                _allocated_bytes(_kernels.area_and_grad, vertices, triangles) / n_tri,
                "B",
                1,
            )
        agreement += agreement_rows(label, results)
    return {"metrics": metrics, "agreement": agreement}
