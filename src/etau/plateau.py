"""Discrete area minimization with fixed boundary in the ambient metric.

Surfaces are triangle meshes inside the open unit disk times R.  The
discrete area evaluates the metric once per triangle at the barycenter
and sums ``sqrt(det Gram) / 2`` over triangles; the analytic gradient
with respect to interior vertex positions drives a gradient descent
with an Armijo line search, so the area history is non-increasing by
construction.  A step with too little decrease is shortened by
safeguarded quadratic backtracking (Nocedal and Wright, *Numerical
Optimization*, 2nd ed., section 3.5): the next trial minimizes the
quadratic through the area, its slope and the trial's area, within a
tenth to a half of the rejected step.  Steps that would push a vertex
onto the degenerate model boundary ``x^2 + y^2 = 1`` or collapse a
triangle are rejected and retried at half the step.  A solve stops as
``converged`` when the gradient norm falls below the tolerance, and as
``stalled`` when its last
accepted steps have stopped lowering the area (a relative-decrease
test, far below the mesh's discretization error): a free annulus slides
its vertices along the surface without ever bringing the gradient norm
down.  Each solve builds one kernel plan for its mesh.  A
mesh that spans its boundary as a vertical graph ``t = u(x, y)`` can be
solved as one (``vertical=True``): its vertices then move only in t, and
the plan computes the metric once per mesh.

Topology never changes during a solve.  The connected-versus-disks
experiment therefore races two fixed topologies spanning the same pair
of circles: an annulus initialized on the sampled catenoid, whose
vertices move freely, and a pair of flat disks solved as vertical graphs.
The mesh constructors build their vertex and triangle arrays as whole
arrays, with no per-ring or per-triangle Python loop.  A ``TriMesh``
checks its topology once, with one sort of its directed edges, when it
is built; a copy and a solve's output share that checked topology and
check only their vertices.  The structured builders
(:func:`mesh_from_grid`, :func:`mesh_disk` and the race's disk pair)
keep one checked, read-only topology per integer shape, so only the
first race of a mesh shape checks its two topologies.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _kernels
from .catenoid import (
    AreaComparison,
    CatenoidProfile,
    TruncatedCatenoid,
    annulus_vertex_grid,
    connected_boundary_for_height,
)
from .errors import DomainError, UsageError
from .models import AmbientSpace

__all__ = [
    "DISK_BARRIER",
    "TriMesh",
    "SolverConfig",
    "SolveReport",
    "PlateauComparison",
    "discrete_area",
    "discrete_area_report",
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
# from it), Armijo constant, trials per iteration.  A trial that fails the
# Armijo test is followed by the minimizer of the quadratic through the area,
# its slope -|g|^2 and the trial's area, kept within [_BACKTRACK_MIN,
# _LINE_SEARCH_SHRINK] times the failed step; a trial rejected by the barrier
# or for degeneracy has no area to fit and is halved.  A step doubles only
# after it passed on its first trial, and one that passed after backtracking
# is carried into the next iteration as it is: halving on every rejection
# and doubling on every acceptance spent 18-25 of the default race annulus
# solve's 29-39 evaluations on Armijo rejections (the first step halved 8-9
# times from 0.05, and each doubled step failed and was halved back), where
# this rule spends 5-10 of 16-35
_INITIAL_STEP = 0.05
_LINE_SEARCH_SHRINK = 0.5
_BACKTRACK_MIN = 0.1
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 60
# stall test of minimize (the relative-decrease stop of L-BFGS-B's ftol):
# stop when the last _STALL_WINDOW accepted steps lowered the area by less
# than _STALL_REL * _STALL_WINDOW * area.  5e-8 relative per step sits
# above the 1-3e-8 at which a free race annulus slides its vertices, so
# the annulus stops after 10-24 steps within 1.2e-5 relative of the area
# that 400 steps reach (measured at 12 (tau, h) of the race workload's
# range), far below the default race mesh's discretization error of about
# 1e-2; a smaller threshold sits on the slide rate and leaves some annuli
# sliding to the iteration cap
_STALL_WINDOW = 10
_STALL_REL = 5e-8


def _loop_array(loop) -> np.ndarray:
    arr = np.asarray(loop, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3 or len(arr) < 3:
        raise DomainError("boundary loop must be an (n, 3) array with n >= 3")
    return arr


def _check_vertices(v: np.ndarray) -> None:
    """Raise unless every row of ``v`` is finite and inside the disk barrier."""
    nonfinite = np.flatnonzero(~np.isfinite(v).all(axis=1))
    if nonfinite.size:
        k = int(nonfinite[0])
        raise DomainError(f"vertex {k} is not finite: {tuple(v[k].tolist())!r}")
    r2 = v[:, 0] ** 2 + v[:, 1] ** 2
    if not (r2 < 1.0 - DISK_BARRIER).all():
        raise DomainError(
            "vertices must satisfy x^2 + y^2 < 1 - 1e-9 (model boundary barrier)"
        )


class TriMesh:
    """Triangle mesh with marked fixed-boundary vertices.

    ``vertices`` is ``(n, 3)`` float64, ``triangles`` ``(m, 3)`` int64
    with consistent orientation, ``boundary_mask`` ``(n,)`` bool.  When
    the mask is omitted it is derived from the topology (vertices of
    edges incident to exactly one triangle).  Vertices must be finite
    and stay strictly inside the unit disk by the barrier margin.

    The topology is checked once, when the mesh is built; a copy, and a
    solve's output, share the checked triangles and boundary edges and
    check only their vertices.  The structured builders
    (:func:`mesh_from_grid`, :func:`mesh_disk` and the race's disk pair)
    keep one checked, read-only topology per integer shape: every mesh
    they build of that shape shares its ``triangles`` (not writeable),
    checks only its vertices and gets its own writable copy of the
    boundary mask.
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
        _check_vertices(v)
        n = len(v)
        # the edges of triangle (a, b, c) run a->b, b->c, c->a
        src = t.ravel()
        dst = t[:, [1, 2, 0]].ravel()
        bad = np.flatnonzero(src == dst)
        if bad.size:
            e = (int(src[bad[0]]), int(dst[bad[0]]))
            raise DomainError(f"degenerate edge {e!r} in triangle")
        # integer keys lo * n + hi name the undirected edges; one sort of
        # key * 2 + direction groups each edge's uses, its forward uses first
        code = (np.minimum(src, dst) * n + np.maximum(src, dst)) * 2 + (src > dst)
        code.sort()
        key = code >> 1
        first = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
        keys = key[first]
        counts = np.diff(np.append(first, len(key)))
        over = np.flatnonzero(counts > 2)
        if over.size:
            e = divmod(int(keys[over[0]]), n)
            raise DomainError(f"edge {e!r} belongs to more than two triangles")
        rep = np.flatnonzero(code[1:] == code[:-1])
        if rep.size:
            # report the repeat of least directed key src * n + dst
            lo, hi = np.divmod(key[rep], n)
            directed = np.where(code[rep] & 1, hi * n + lo, key[rep])
            e = divmod(int(directed.min()), n)
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

    def _with_vertices(self, vertices: np.ndarray) -> "TriMesh":
        """This mesh's topology and a copy of its mask on new vertices.

        Only the vertices are checked (finite, inside the disk barrier);
        the triangles, boundary edges and edge count are shared.
        """
        v = np.ascontiguousarray(vertices, dtype=np.float64)
        if v.shape != self.vertices.shape:
            raise DomainError("vertices must have shape (n, 3)")
        _check_vertices(v)
        out = TriMesh.__new__(TriMesh)
        out._boundary_edges = self._boundary_edges
        out._n_edges = self._n_edges
        out.vertices = v
        out.triangles = self.triangles
        out.boundary_mask = self.boundary_mask.copy()
        return out

    def copy(self) -> "TriMesh":
        return self._with_vertices(self.vertices.copy())

    def boundary_edges(self) -> frozenset[tuple[int, int]]:
        return self._boundary_edges

    def euler_characteristic(self) -> int:
        return len(self.vertices) - self._n_edges + len(self.triangles)


@dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 400
    gradient_tol: float = 1e-4
    refinement_levels: int = 0

    def __post_init__(self) -> None:
        if self.max_iterations <= 0:
            raise UsageError("max_iterations must be positive")
        if not 0.0 < self.gradient_tol < math.inf:
            raise UsageError("gradient_tol must be positive and finite")
        if self.refinement_levels < 0:
            raise UsageError("refinement_levels must be nonnegative")


@dataclass(frozen=True)
class SolveReport:
    """Outcome and cost of one :func:`minimize` run.

    ``iterations`` counts accepted steps, ``len(area_history) - 1``, for
    every termination.  ``evaluations`` counts kernel evaluations (one per
    line-search candidate that passes the disk barrier, plus the start),
    ``gradients`` the gradients finished from them (the start and each
    accepted step).  Rejected trial steps are counted by cause:
    ``rejected_barrier`` (a vertex past the disk barrier; not evaluated),
    ``rejected_degenerate`` (a triangle newly degenerate) and
    ``rejected_armijo`` (too little decrease), so ``evaluations == 1 +
    iterations + rejected_degenerate + rejected_armijo``.
    ``termination`` is one of

    - ``"converged"``: gradient norm below tolerance; for a vertical
      solve the norm of the t-gradient, the only nonzero column;
    - ``"stalled"``: the gradient norm is above tolerance, but the last
      ``_STALL_WINDOW`` accepted steps lowered the area by less than
      ``_STALL_REL * _STALL_WINDOW`` times the area; never ``converged``;
    - ``"iteration_cap"``;
    - ``"line_search_failed"``: no acceptable step within the
      backtracking budget.
    """

    final_area: float
    iterations: int
    converged: bool
    gradient_norm: float
    area_history: tuple[float, ...]
    degenerate_triangles: int
    evaluations: int
    gradients: int
    termination: str
    rejected_barrier: int
    rejected_degenerate: int
    rejected_armijo: int


def discrete_area_report(
    amb: AmbientSpace, mesh: TriMesh
) -> tuple[float, np.ndarray, int]:
    """Total area, per-triangle areas, and the count of degenerate triangles."""
    ev = _kernels.plan(amb.tau, mesh.vertices, mesh.triangles).evaluate(mesh.vertices)
    return float(np.sum(ev.tri_areas)), ev.tri_areas, int(np.sum(ev.degenerate))


def discrete_area(amb: AmbientSpace, mesh: TriMesh) -> float:
    """Sum of per-triangle areas under the ambient metric."""
    total, _, _ = discrete_area_report(amb, mesh)
    return total


def _backtrack(step: float, area: float, c_area: float, slope: float) -> float:
    """Next trial after ``step`` failed the Armijo test with area ``c_area``.

    The quadratic through ``area`` with slope ``-slope`` at 0 and through
    ``c_area`` at ``step`` rises ``rise`` above its tangent line there and
    has its minimum at ``slope * step**2 / (2 * rise)``, which is clamped
    to ``[_BACKTRACK_MIN, _LINE_SEARCH_SHRINK] * step``.  When the trial
    area is not finite there is no model, and the step is halved.
    """
    rise = c_area - area + slope * step
    if not (math.isfinite(rise) and rise > 0.0):
        return step * _LINE_SEARCH_SHRINK
    model = slope * step * step / (2.0 * rise)
    return min(max(model, _BACKTRACK_MIN * step), _LINE_SEARCH_SHRINK * step)


def minimize(
    amb: AmbientSpace,
    mesh: TriMesh,
    config: SolverConfig | None = None,
    *,
    vertical: bool = False,
) -> tuple[TriMesh, SolveReport]:
    """Gradient descent with safeguarded backtracking on the interior vertices.

    A trial step is rejected (and shortened) when it fails the Armijo
    decrease, moves an interior vertex past the disk barrier, or newly
    degenerates a triangle.  An Armijo rejection is followed by the
    clamped quadratic step of :func:`_backtrack`, the other two by half
    the step.  A step accepted on the first trial of its iteration is
    doubled for the next one, up to 100 times the first step; a step
    accepted after backtracking is kept.  One kernel plan is built per
    call, through ``_kernels.plan``; each candidate that passes the barrier is evaluated
    once, through the plan's ``evaluate``, and the gradient is finished
    from the evaluation of the start and of each accepted step.  The input
    mesh is left untouched.

    Before each step the gradient test runs first (``converged``), then
    the stall test (``stalled``; see :class:`SolveReport`), for free and
    vertical solves alike.

    With ``vertical`` the mesh is solved as a vertical graph
    ``t = u(x, y)``: the plan is vertical, so the interior vertices move
    only in t, and x and y are returned bit for bit as given.  Its
    gradient has zero x and y columns; ``converged`` means that the
    t-gradient norm fell below the tolerance.
    """
    cfg = config or SolverConfig()
    if not mesh.boundary_mask.any():
        raise DomainError("mesh has no fixed boundary vertices")
    if mesh.boundary_mask.all():
        raise DomainError("mesh has no interior vertices to move")
    v = mesh.vertices.copy()
    tri = mesh.triangles
    fixed = mesh.boundary_mask
    evaluate = _kernels.plan(amb.tau, v, tri, vertical=vertical).evaluate

    # an evaluation stays alive until the next one replaces it: freeing it
    # first lets the allocator hand its pages back to the system, and the
    # next evaluation then faults them in again
    ev = evaluate(v)
    area = float(np.sum(ev.tri_areas))
    base_degen = np.count_nonzero(ev.degenerate)
    grad = ev.gradient()
    grad[fixed] = 0.0
    history = [area]
    gnorm = float(np.linalg.norm(grad))
    step = _INITIAL_STEP
    evaluations = gradients = 1
    rejected_barrier = rejected_degenerate = rejected_armijo = 0
    termination = "iteration_cap"

    for _ in range(cfg.max_iterations):
        if gnorm < cfg.gradient_tol:
            termination = "converged"
            break
        if (
            len(history) > _STALL_WINDOW
            and history[-1 - _STALL_WINDOW] - area < _STALL_REL * _STALL_WINDOW * area
        ):
            termination = "stalled"
            break
        accepted = False
        for trial in range(_MAX_BACKTRACKS):
            cand = v - step * grad
            r2 = cand[:, 0] ** 2 + cand[:, 1] ** 2
            if not ((r2 < 1.0 - DISK_BARRIER) | fixed).all():
                rejected_barrier += 1
                step *= _LINE_SEARCH_SHRINK
                continue
            ev = evaluate(cand)
            evaluations += 1
            if np.count_nonzero(ev.degenerate) > base_degen:
                rejected_degenerate += 1
                step *= _LINE_SEARCH_SHRINK
                continue
            c_area = float(np.sum(ev.tri_areas))
            if c_area <= area - _ARMIJO * step * gnorm * gnorm:
                v = cand
                area = c_area
                grad = ev.gradient()
                gradients += 1
                grad[fixed] = 0.0
                gnorm = float(np.linalg.norm(grad))
                history.append(area)
                if trial == 0:
                    step = min(step * 2.0, _INITIAL_STEP * 100.0)
                accepted = True
                break
            rejected_armijo += 1
            step = _backtrack(step, area, c_area, gnorm * gnorm)
        if not accepted:
            termination = "line_search_failed"
            break

    out = mesh._with_vertices(v)
    report = SolveReport(
        final_area=area,
        iterations=len(history) - 1,
        converged=termination == "converged",
        gradient_norm=gnorm,
        area_history=tuple(history),
        degenerate_triangles=base_degen,
        evaluations=evaluations,
        gradients=gradients,
        termination=termination,
        rejected_barrier=rejected_barrier,
        rejected_degenerate=rejected_degenerate,
        rejected_armijo=rejected_armijo,
    )
    return out, report


def minimize_with_refinement(
    amb: AmbientSpace,
    mesh: TriMesh,
    config: SolverConfig | None = None,
    boundary_project: Callable[[np.ndarray], np.ndarray] | None = None,
    *,
    vertical: bool = False,
) -> tuple[TriMesh, list[SolveReport]]:
    """Solve, subdivide, and re-solve ``refinement_levels`` times.

    The area history is monotone within each returned report; the jump
    between levels reflects the re-discretization.  ``vertical`` is
    passed to each level's :func:`minimize`.
    """
    cfg = config or SolverConfig()
    current = mesh
    reports = []
    for level in range(cfg.refinement_levels + 1):
        current, rep = minimize(amb, current, cfg, vertical=vertical)
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
    if not (0.0 < R < math.inf):
        raise DomainError(f"hyperbolic radius must be positive and finite, got {R!r}")
    s = np.arange(1, n_r + 1) * (R / n_r)
    return np.tanh(0.5 * s) / math.tanh(0.5 * R)


def mesh_disk(boundary, n_r: int, ring_fractions: np.ndarray | None = None) -> TriMesh:
    """Fan-plus-rings disk mesh spanning an ordered boundary loop.

    Ring ``j`` sits at blend fraction ``ring_fractions[j - 1]`` between
    the loop centroid and the boundary samples (default: linear);
    vertex 0 is the centroid and ring ``j`` vertex ``i`` sits at index
    ``1 + (j - 1) n + i``, so grid structure is recoverable from
    indices.  The outer ring is the input loop up to rounding: it is
    blended as ``center + 1.0 * (loop - center)``, which can move a
    coordinate by an ulp (1.1e-16 on a 12-sample circle of radius 0.6).
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
        if not fractions[0] > 0.0:
            raise UsageError(f"the first ring fraction must be positive, got {fractions[0]!r}")
        if abs(fractions[-1] - 1.0) > 1e-12:
            raise UsageError("the last ring fraction must be 1 (the boundary loop)")
    return _shared_topology(_disk_triangles, len(loop), n_r)._with_vertices(
        _disk_vertices(loop, fractions)
    )


def _disk_vertices(loop: np.ndarray, fractions: np.ndarray) -> np.ndarray:
    """Vertices of :func:`mesh_disk` for a checked loop and fractions."""
    center = loop.mean(axis=0)
    rings = center + fractions[:, None, None] * (loop - center)
    return np.concatenate([center[None, :], rings.reshape(-1, 3)])


def _disk_triangles(n: int, n_r: int) -> tuple[int, np.ndarray]:
    """Vertex count and triangles of :func:`mesh_disk` on ``n`` samples and ``n_r`` rings."""
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
    return 1 + n * n_r, np.vstack([fan, bands.reshape(-1, 3)])


def _disk_pair_triangles(n: int, n_r: int) -> tuple[int, np.ndarray]:
    """Vertex count and triangles of :func:`_two_disk_mesh`: two disks, top first."""
    n_disk, tris = _disk_triangles(n, n_r)
    return 2 * n_disk, np.concatenate([tris, tris + n_disk])


def _grid_triangles(n_rows: int, n_cols: int) -> tuple[int, np.ndarray]:
    """Vertex count and triangles of :func:`mesh_from_grid` on an (n_rows, n_cols) grid."""
    row = n_cols * np.arange(n_rows - 1, dtype=np.int64)[:, None]
    col = np.arange(n_cols, dtype=np.int64)
    a = row + col
    b = row + (col + 1) % n_cols
    d = a + n_cols
    e = b + n_cols
    tris = np.stack([np.stack([a, e, b], axis=-1), np.stack([a, d, e], axis=-1)], axis=2)
    return n_rows * n_cols, tris.reshape(-1, 3)


@functools.lru_cache(maxsize=8)
def _shared_topology(triangles_of: Callable, *shape: int) -> TriMesh:
    """The checked topology of a structured builder's mesh of one shape.

    ``triangles_of(*shape)`` gives the vertex count and the triangles.  The
    ``TriMesh`` check runs here, once per shape, on placeholder vertices at
    the origin.  The returned mesh's arrays are read-only, and a builder
    puts its own vertices on it with ``_with_vertices``, which checks them
    and copies the mask.  The default race's two shapes keep about 1.1 MB
    of triangles; eight entries leave room for a few other shapes.
    """
    n, triangles = triangles_of(*shape)
    mesh = TriMesh(np.zeros((n, 3)), triangles)
    # a read-only view of one zero stands in for the placeholders, so the
    # cache holds no vertex memory
    mesh.vertices = np.broadcast_to(0.0, (n, 3))
    mesh.triangles.flags.writeable = False
    mesh.boundary_mask.flags.writeable = False
    return mesh


def mesh_from_grid(grid: np.ndarray) -> TriMesh:
    """Mesh a ``(n_rows, n_cols, 3)`` vertex grid, periodic in the column direction.

    Vertex ``(row, col)`` has index ``row * n_cols + col``; the first
    and last rows form the fixed boundary.
    """
    g = np.asarray(grid, dtype=np.float64)
    if g.ndim != 3 or g.shape[2] != 3 or g.shape[0] < 2 or g.shape[1] < 3:
        raise DomainError("grid must have shape (n_rows >= 2, n_cols >= 3, 3)")
    n_rows, n_cols, _ = g.shape
    return _shared_topology(_grid_triangles, n_rows, n_cols)._with_vertices(g.reshape(-1, 3))


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
    top = _disk_vertices(circle_loop(radius, h, n_theta), fractions)
    bot = _disk_vertices(circle_loop(radius, -h, n_theta), fractions)
    return _shared_topology(_disk_pair_triangles, n_theta, n_r)._with_vertices(
        np.concatenate([top, bot])
    )


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
    the same configuration and compared by optimized discrete area.  The
    disks are solved as vertical graphs (``minimize(..., vertical=True)``),
    the annulus with free vertices.
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
    disks_opt, disks_rep = minimize(amb, disks, cfg, vertical=True)
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
