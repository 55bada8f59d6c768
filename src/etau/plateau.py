"""Discrete area minimization with fixed boundary in the ambient metric.

Surfaces are triangle meshes inside the open unit disk times R.  The
discrete area evaluates the metric once per triangle at the barycenter
and sums ``sqrt(det Gram) / 2`` over triangles; the analytic gradient
with respect to interior vertex positions drives a gradient descent
with backtracking line search, so the area history is non-increasing by
construction.  Steps that would push a vertex onto the degenerate
model boundary ``x^2 + y^2 = 1`` or collapse a triangle are rejected
and retried shorter.

Topology never changes during a solve.  The connected-versus-disks
experiment therefore races two fixed topologies spanning the same pair
of circles: an annulus initialized on the sampled catenoid and a pair
of flat disks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from . import _kernels
from .catenoid import (
    AreaComparison,
    CatenoidProfile,
    TruncatedCatenoid,
    annulus_vertex_grid,
    connected_boundary_for_height,
    disk_area_closed_form,
)
from .errors import DomainError, UsageError
from .models import AmbientSpace, CylinderPoint

__all__ = [
    "DISK_BARRIER",
    "TriMesh",
    "SolverConfig",
    "SolveReport",
    "PlateauComparison",
    "discrete_area",
    "discrete_area_report",
    "area_gradient",
    "minimize",
    "minimize_with_refinement",
    "subdivide",
    "mesh_disk",
    "mesh_annulus",
    "mesh_from_grid",
    "circle_loop",
    "circle_projector",
    "compare_connected_vs_disks",
    "export_off",
]

DISK_BARRIER = 1e-9

# line search of minimize: first trial step (the step grows at most 100-fold
# from it), shrink factor on rejection, Armijo constant, trials per iteration
_INITIAL_STEP = 0.05
_LINE_SEARCH_SHRINK = 0.5
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 60


def _loop_array(loop) -> np.ndarray:
    if isinstance(loop, np.ndarray):
        arr = np.asarray(loop, dtype=np.float64)
    else:
        pts = list(loop)
        if pts and isinstance(pts[0], CylinderPoint):
            arr = np.array([[p.x, p.y, p.t] for p in pts], dtype=np.float64)
        else:
            arr = np.asarray(pts, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3 or len(arr) < 3:
        raise DomainError("boundary loop must be an (n, 3) array with n >= 3")
    return arr


class TriMesh:
    """Triangle mesh with marked fixed-boundary vertices.

    ``vertices`` is ``(n, 3)`` float64, ``triangles`` ``(m, 3)`` int64
    with consistent orientation, ``boundary_mask`` ``(n,)`` bool.  When
    the mask is omitted it is derived from the topology (vertices of
    edges incident to exactly one triangle).  Vertices must stay
    strictly inside the unit disk by the barrier margin.
    """

    def __init__(
        self,
        vertices: np.ndarray,
        triangles: np.ndarray,
        boundary_mask: np.ndarray | None = None,
    ) -> None:
        v = np.ascontiguousarray(vertices, dtype=np.float64)
        t = np.ascontiguousarray(triangles, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] != 3:
            raise DomainError("vertices must have shape (n, 3)")
        if t.ndim != 2 or t.shape[1] != 3 or len(t) == 0:
            raise DomainError("triangles must have shape (m, 3) with m >= 1")
        if t.min() < 0 or t.max() >= len(v):
            raise DomainError("triangle indices out of range")
        r2 = v[:, 0] ** 2 + v[:, 1] ** 2
        if not (r2 < 1.0 - DISK_BARRIER).all():
            raise DomainError(
                "vertices must satisfy x^2 + y^2 < 1 - 1e-9 (model boundary barrier)"
            )
        n = len(v)
        # the edges of triangle (a, b, c) run a->b, b->c, c->a
        src = t.ravel()
        dst = t[:, [1, 2, 0]].ravel()
        bad = np.flatnonzero(src == dst)
        if bad.size:
            e = (int(src[bad[0]]), int(dst[bad[0]]))
            raise DomainError(f"degenerate edge {e!r} in triangle")
        # integer keys lo * n + hi name the undirected edges
        keys, counts = np.unique(
            np.minimum(src, dst) * n + np.maximum(src, dst), return_counts=True
        )
        over = np.flatnonzero(counts > 2)
        if over.size:
            e = divmod(int(keys[over[0]]), n)
            raise DomainError(f"edge {e!r} belongs to more than two triangles")
        directed, repeats = np.unique(src * n + dst, return_counts=True)
        rep = np.flatnonzero(repeats > 1)
        if rep.size:
            e = divmod(int(directed[rep[0]]), n)
            raise DomainError(
                f"directed edge {e!r} repeats: inconsistent orientation "
                "or duplicate triangle"
            )
        lo, hi = np.divmod(keys[counts == 1], n)
        self._boundary_edges = frozenset(zip(lo.tolist(), hi.tolist()))
        self._n_edges = len(keys)
        if boundary_mask is None:
            mask = np.zeros(n, dtype=bool)
            mask[lo] = True
            mask[hi] = True
        else:
            mask = np.asarray(boundary_mask, dtype=bool)
            if mask.shape != (len(v),):
                raise DomainError("boundary_mask must have one entry per vertex")
        self.vertices = v
        self.triangles = t
        self.boundary_mask = mask

    def copy(self) -> "TriMesh":
        return TriMesh(self.vertices.copy(), self.triangles, self.boundary_mask.copy())

    def boundary_edges(self) -> frozenset[tuple[int, int]]:
        return self._boundary_edges

    def euler_characteristic(self) -> int:
        return len(self.vertices) - self._n_edges + len(self.triangles)

    def as_cylinder_points(self) -> list[CylinderPoint]:
        return [CylinderPoint(float(x), float(y), float(t)) for x, y, t in self.vertices]


@dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 400
    gradient_tol: float = 1e-4
    refinement_levels: int = 0

    def __post_init__(self) -> None:
        if self.max_iterations <= 0:
            raise UsageError("max_iterations must be positive")
        if self.gradient_tol <= 0.0:
            raise UsageError("gradient_tol must be positive")
        if self.refinement_levels < 0:
            raise UsageError("refinement_levels must be nonnegative")


@dataclass(frozen=True)
class SolveReport:
    final_area: float
    iterations: int
    converged: bool
    gradient_norm: float
    area_history: tuple[float, ...]
    degenerate_triangles: int = 0


def discrete_area_report(
    amb: AmbientSpace, mesh: TriMesh
) -> tuple[float, np.ndarray, int]:
    """Total area, per-triangle areas, and the count of degenerate triangles."""
    tri_areas, degen, _ = _kernels.area_and_grad(
        amb.tau, mesh.vertices, mesh.triangles, False
    )
    return float(np.sum(tri_areas)), tri_areas, int(np.sum(degen))


def discrete_area(amb: AmbientSpace, mesh: TriMesh) -> float:
    """Sum of per-triangle areas under the ambient metric."""
    total, _, _ = discrete_area_report(amb, mesh)
    return total


def area_gradient(amb: AmbientSpace, mesh: TriMesh) -> np.ndarray:
    """Gradient of the discrete area; rows of fixed boundary vertices are zero."""
    _, _, grad = _kernels.area_and_grad(amb.tau, mesh.vertices, mesh.triangles, True)
    grad = np.asarray(grad)
    grad[mesh.boundary_mask] = 0.0
    return grad


def minimize(
    amb: AmbientSpace, mesh: TriMesh, config: SolverConfig | None = None
) -> tuple[TriMesh, SolveReport]:
    """Gradient descent with backtracking on the interior vertices.

    A trial step is rejected (and shortened) when it fails the Armijo
    decrease, moves an interior vertex past the disk barrier, or newly
    degenerates a triangle.  Trial steps are evaluated area-only; the
    gradient is computed once at the start and once per accepted step.
    The input mesh is left untouched.
    """
    cfg = config or SolverConfig()
    if not mesh.boundary_mask.any():
        raise DomainError("mesh has no fixed boundary vertices")
    if mesh.boundary_mask.all():
        raise DomainError("mesh has no interior vertices to move")
    tau = amb.tau
    v = mesh.vertices.copy()
    tri = mesh.triangles
    fixed = mesh.boundary_mask

    tri_areas, degen, grad = _kernels.area_and_grad(tau, v, tri, True)
    area = float(np.sum(tri_areas))
    base_degen = int(np.sum(degen))
    grad = np.asarray(grad)
    grad[fixed] = 0.0
    history = [area]
    gnorm = float(np.linalg.norm(grad))
    step = _INITIAL_STEP
    converged = False
    iterations = 0

    for iterations in range(1, cfg.max_iterations + 1):
        if gnorm < cfg.gradient_tol:
            converged = True
            iterations -= 1
            break
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            cand = v - step * grad
            r2 = cand[~fixed, 0] ** 2 + cand[~fixed, 1] ** 2
            if not (r2 < 1.0 - DISK_BARRIER).all():
                step *= _LINE_SEARCH_SHRINK
                continue
            c_areas, c_degen, _ = _kernels.area_and_grad(tau, cand, tri, False)
            if int(np.sum(c_degen)) > base_degen:
                step *= _LINE_SEARCH_SHRINK
                continue
            c_area = float(np.sum(c_areas))
            if c_area <= area - _ARMIJO * step * gnorm * gnorm:
                v = cand
                area = c_area
                _, _, grad = _kernels.area_and_grad(tau, v, tri, True)
                grad = np.asarray(grad)
                grad[fixed] = 0.0
                gnorm = float(np.linalg.norm(grad))
                history.append(area)
                step = min(step * 2.0, _INITIAL_STEP * 100.0)
                accepted = True
                break
            step *= _LINE_SEARCH_SHRINK
        if not accepted:
            break
    else:
        iterations = cfg.max_iterations

    out = TriMesh(v, tri, fixed.copy())
    report = SolveReport(
        final_area=area,
        iterations=iterations,
        converged=converged,
        gradient_norm=gnorm,
        area_history=tuple(history),
        degenerate_triangles=base_degen,
    )
    return out, report


def minimize_with_refinement(
    amb: AmbientSpace,
    mesh: TriMesh,
    config: SolverConfig | None = None,
    boundary_project: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[TriMesh, list[SolveReport]]:
    """Solve, subdivide, and re-solve ``refinement_levels`` times.

    The area history is monotone within each returned report; the jump
    between levels reflects the re-discretization.
    """
    cfg = config or SolverConfig()
    current = mesh
    reports = []
    for level in range(cfg.refinement_levels + 1):
        current, rep = minimize(amb, current, cfg)
        reports.append(rep)
        if level < cfg.refinement_levels:
            current = subdivide(current, boundary_project)
    return current, reports


def subdivide(
    mesh: TriMesh,
    boundary_project: Callable[[np.ndarray], np.ndarray] | None = None,
) -> TriMesh:
    """Split every triangle in four at edge midpoints.

    Midpoints of boundary edges are marked boundary and, when a
    projector is supplied, snapped onto the true boundary curve.
    """
    v = mesh.vertices
    tri = mesh.triangles
    n, m = len(v), len(tri)
    # the edges of triangle (a, b, c) run a->b, b->c, c->a; midpoints are
    # numbered in the order their edges are first met
    src = tri.ravel()
    dst = tri[:, [1, 2, 0]].ravel()
    _, first, inverse, counts = np.unique(
        np.minimum(src, dst) * n + np.maximum(src, dst),
        return_index=True,
        return_inverse=True,
        return_counts=True,
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    first = first[order]
    extra_pts = 0.5 * (v[src[first]] + v[dst[first]])
    extra_mask = counts[order] == 1
    if boundary_project is not None:
        for k in np.flatnonzero(extra_mask):
            extra_pts[k] = np.asarray(boundary_project(extra_pts[k]), dtype=np.float64)
    mab, mbc, mca = (n + rank[inverse]).reshape(m, 3).T
    a, b, c = tri.T
    new_tris = np.stack(
        [a, mab, mca, mab, b, mbc, mca, mbc, c, mab, mbc, mca], axis=1
    ).reshape(4 * m, 3)
    all_v = np.vstack([v, extra_pts])
    mask = np.concatenate([mesh.boundary_mask, extra_mask])
    return TriMesh(all_v, new_tris, mask)


def circle_loop(radius: float, t: float, n: int) -> np.ndarray:
    """Horizontal circle of euclidean radius ``radius`` at height ``t``."""
    if not (0.0 < radius < 1.0):
        raise DomainError(f"euclidean radius must lie in (0, 1), got {radius!r}")
    if n < 3:
        raise UsageError("need at least 3 samples on the circle")
    ang = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return np.column_stack([radius * np.cos(ang), radius * np.sin(ang), np.full(n, t)])


def circle_projector(radius: float, t: float) -> Callable[[np.ndarray], np.ndarray]:
    """Projector snapping a point to the horizontal circle, for refinement."""

    def project(p: np.ndarray) -> np.ndarray:
        x, y = p[0], p[1]
        norm = math.hypot(x, y)
        if norm == 0.0:
            return np.array([radius, 0.0, t])
        return np.array([radius * x / norm, radius * y / norm, t])

    return project


def hyperbolic_ring_fractions(R: float, n_r: int) -> np.ndarray:
    """Ring blend fractions spaced uniformly in hyperbolic radius up to ``R``.

    For a centered circle boundary this puts ring ``j`` at euclidean
    radius ``tanh(j R / (2 n_r))``, keeping the metric variation per
    ring band bounded; euclidean-linear rings badly under-resolve the
    rim where the area concentrates.
    """
    if n_r < 1:
        raise UsageError("need at least one ring")
    if not (R > 0.0):
        raise DomainError(f"hyperbolic radius must be positive, got {R!r}")
    s = np.arange(1, n_r + 1) * (R / n_r)
    return np.tanh(0.5 * s) / math.tanh(0.5 * R)


def mesh_disk(boundary, n_r: int, ring_fractions: np.ndarray | None = None) -> TriMesh:
    """Fan-plus-rings disk mesh spanning an ordered boundary loop.

    Ring ``j`` sits at blend fraction ``ring_fractions[j - 1]`` between
    the loop centroid and the boundary samples (default: linear);
    vertex 0 is the centroid and ring ``j`` vertex ``i`` sits at index
    ``1 + (j - 1) n + i``, so grid structure is recoverable from
    indices.  The outer ring is exactly the input loop.
    """
    loop = _loop_array(boundary)
    if n_r < 1:
        raise UsageError("need at least one ring")
    if ring_fractions is None:
        fractions = np.arange(1, n_r + 1) / n_r
    else:
        fractions = np.asarray(ring_fractions, dtype=np.float64)
        if fractions.shape != (n_r,) or not (np.diff(fractions) > 0).all():
            raise UsageError("ring_fractions must be strictly increasing with n_r entries")
        if abs(fractions[-1] - 1.0) > 1e-12:
            raise UsageError("the last ring fraction must be 1 (the boundary loop)")
    n = len(loop)
    center = loop.mean(axis=0)
    verts = [center]
    for f in fractions:
        verts.extend(center + f * (loop - center))
    vertices = np.vstack(verts)
    i = np.arange(n, dtype=np.int64)
    i2 = (i + 1) % n
    fan = np.column_stack([np.zeros_like(i), 1 + i, 1 + i2])
    # band k joins ring k + 1 to ring k + 2, two triangles per loop sample
    base_in = 1 + n * np.arange(n_r - 1, dtype=np.int64)[:, None]
    base_out = base_in + n
    bands = np.stack(
        [
            np.stack([base_in + i, base_out + i, base_out + i2], axis=-1),
            np.stack([base_in + i, base_out + i2, base_in + i2], axis=-1),
        ],
        axis=2,
    )
    return TriMesh(vertices, np.vstack([fan, bands.reshape(-1, 3)]))


def mesh_from_grid(grid: np.ndarray) -> TriMesh:
    """Mesh a ``(n_rows, n_cols, 3)`` vertex grid, periodic in the column direction.

    Vertex ``(row, col)`` has index ``row * n_cols + col``; the first
    and last rows form the fixed boundary.
    """
    g = np.asarray(grid, dtype=np.float64)
    if g.ndim != 3 or g.shape[2] != 3 or g.shape[0] < 2 or g.shape[1] < 3:
        raise DomainError("grid must have shape (n_rows >= 2, n_cols >= 3, 3)")
    n_rows, n_cols, _ = g.shape
    vertices = g.reshape(-1, 3)
    row = n_cols * np.arange(n_rows - 1, dtype=np.int64)[:, None]
    col = np.arange(n_cols, dtype=np.int64)
    a = row + col
    b = row + (col + 1) % n_cols
    d = a + n_cols
    e = b + n_cols
    tris = np.stack([np.stack([a, e, b], axis=-1), np.stack([a, d, e], axis=-1)], axis=2)
    return TriMesh(vertices, tris.reshape(-1, 3))


def mesh_annulus(c1, c2, n_v: int) -> TriMesh:
    """Ruled annulus between two loops with equal sample counts.

    Rows interpolate linearly from ``c1`` to ``c2``; use
    :func:`mesh_from_grid` with an analytic grid when a better
    initializer is known.
    """
    a = _loop_array(c1)
    b = _loop_array(c2)
    if len(a) != len(b):
        raise DomainError("annulus boundary loops must have equal sample counts")
    if n_v < 2:
        raise UsageError("need at least 2 rows")
    w = np.linspace(0.0, 1.0, n_v)[:, None, None]
    grid = (1.0 - w) * a[None, :, :] + w * b[None, :, :]
    return mesh_from_grid(grid)


@dataclass(frozen=True)
class PlateauComparison:
    """Optimized connected annulus versus optimized disk pair."""

    h: float
    analytic: AreaComparison
    optimized_annulus_area: float
    optimized_disks_area: float
    annulus_report: SolveReport
    disks_report: SolveReport
    annulus_mesh: TriMesh = field(repr=False)
    disks_mesh: TriMesh = field(repr=False)

    @property
    def connected_wins(self) -> bool:
        return self.optimized_annulus_area < self.optimized_disks_area


def _two_disk_mesh(radius: float, h: float, n_r: int, n_theta: int) -> TriMesh:
    R = 2.0 * math.atanh(radius)
    fractions = hyperbolic_ring_fractions(R, n_r)
    top = mesh_disk(circle_loop(radius, h, n_theta), n_r, fractions)
    bot = mesh_disk(circle_loop(radius, -h, n_theta), n_r, fractions)
    offset = len(top.vertices)
    vertices = np.vstack([top.vertices, bot.vertices])
    tris = np.vstack([top.triangles, bot.triangles + offset])
    mask = np.concatenate([top.boundary_mask, bot.boundary_mask])
    return TriMesh(vertices, tris, mask)


def compare_connected_vs_disks(
    amb: AmbientSpace,
    h: float,
    config: SolverConfig | None = None,
    n_theta: int = 160,
    n_rows: int = 49,
    n_r: int = 48,
) -> PlateauComparison:
    """Race the annulus topology against two disks over the same circle pair.

    The boundary is the circle pair at heights ``+-h`` produced by
    ``connected_boundary_for_height``; the annulus starts on the sampled
    catenoid, the disks start flat.  Both topologies are minimized with
    the same configuration and compared by optimized discrete area.
    """
    cfg = config or SolverConfig()
    analytic = connected_boundary_for_height(amb, h)
    profile = CatenoidProfile(amb, analytic.d)
    trunc = TruncatedCatenoid(profile, analytic.R)
    grid = annulus_vertex_grid(trunc, n_rows, n_theta)
    annulus = mesh_from_grid(grid)
    radius = math.tanh(0.5 * analytic.R)
    disks = _two_disk_mesh(radius, h, n_r, n_theta)

    annulus_opt, annulus_rep = minimize(amb, annulus, cfg)
    disks_opt, disks_rep = minimize(amb, disks, cfg)
    return PlateauComparison(
        h=h,
        analytic=analytic,
        optimized_annulus_area=annulus_rep.final_area,
        optimized_disks_area=disks_rep.final_area,
        annulus_report=annulus_rep,
        disks_report=disks_rep,
        annulus_mesh=annulus_opt,
        disks_mesh=disks_opt,
    )


def export_off(mesh: TriMesh, path) -> None:
    """Write the mesh as OFF text: header, vertex lines, then face lines."""
    lines = ["OFF", f"{len(mesh.vertices)} {len(mesh.triangles)} 0"]
    for x, y, t in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r} {float(t)!r}")
    for a, b, c in mesh.triangles:
        lines.append(f"3 {a} {b} {c}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
