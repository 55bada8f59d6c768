import math
from typing import NamedTuple

import numpy as np
import pytest

from helpers import fd_mesh_gradient, record_plans
from reference_checks import (
    reference_minimize,
    reference_mesh_disk,
    reference_topology,
    reference_two_disk_mesh,
)

from etau import _kernels
from etau import plateau
from etau.catenoid import (
    CatenoidProfile,
    TruncatedCatenoid,
    annulus_area,
    annulus_vertex_grid,
    connected_boundary_for_height,
    disk_area_closed_form,
)
from etau.errors import DomainError, UsageError
from etau.models import AmbientSpace


def wobbled_disk(n_theta=16, n_r=3, seed=3, amplitude=0.02):
    mesh = plateau.mesh_disk(plateau.circle_loop(0.7, 0.4, n_theta), n_r)
    rng = np.random.default_rng(seed)
    interior = ~mesh.boundary_mask
    mesh.vertices[interior] += amplitude * rng.standard_normal((interior.sum(), 3))
    return mesh


def edge_triangle_counts(mesh):
    """Undirected edge -> number of triangles, by a loop over the triangles."""
    counts = {}
    for a, b, c in mesh.triangles.tolist():
        for e in ((a, b), (b, c), (c, a)):
            key = (min(e), max(e))
            counts[key] = counts.get(key, 0) + 1
    return counts


def disk_triangles_by_loop(n, n_r):
    """Triangle list of mesh_disk(loop of n samples, n_r), built one by one."""
    tris = []
    for i in range(n):
        tris.append((0, 1 + i, 1 + (i + 1) % n))
    for j in range(1, n_r):
        base_in = 1 + (j - 1) * n
        base_out = 1 + j * n
        for i in range(n):
            i2 = (i + 1) % n
            tris.append((base_in + i, base_out + i, base_out + i2))
            tris.append((base_in + i, base_out + i2, base_in + i2))
    return np.array(tris, dtype=np.int64)


def grid_triangles_by_loop(n_rows, n_cols):
    """Triangle list of mesh_from_grid on an (n_rows, n_cols) grid, one by one."""
    tris = []
    for r in range(n_rows - 1):
        for c in range(n_cols):
            c2 = (c + 1) % n_cols
            a = r * n_cols + c
            b = r * n_cols + c2
            d = (r + 1) * n_cols + c
            e = (r + 1) * n_cols + c2
            tris.append((a, e, b))
            tris.append((a, d, e))
    return np.array(tris, dtype=np.int64)


def test_trimesh_validation():
    with pytest.raises(DomainError):
        plateau.TriMesh(np.zeros((4, 2)), np.array([[0, 1, 2]]))
    with pytest.raises(DomainError):
        plateau.TriMesh(np.zeros((4, 3)), np.array([[0, 1, 9]]))
    with pytest.raises(DomainError):
        plateau.TriMesh(np.zeros((3, 3)), np.zeros((0, 3), dtype=int))
    far = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.5, 0.0]])
    with pytest.raises(DomainError):
        plateau.TriMesh(far, np.array([[0, 1, 2]]))
    v = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.1, 0.0], [0.1, 0.1, 0.0]])
    with pytest.raises(DomainError, match=r"directed edge \(1, 2\) repeats"):
        # both triangles run the shared edge the same way
        plateau.TriMesh(v, np.array([[0, 1, 2], [1, 2, 3]]))
    with pytest.raises(DomainError, match=r"degenerate edge \(1, 1\)"):
        plateau.TriMesh(v, np.array([[0, 1, 1]]))
    with pytest.raises(DomainError, match=r"edge \(0, 1\) belongs to more than two"):
        plateau.TriMesh(v, np.array([[0, 1, 2], [1, 0, 3], [0, 1, 3]]))
    mask = np.zeros(5, dtype=bool)
    with pytest.raises(DomainError):
        plateau.TriMesh(v, np.array([[0, 1, 2]]), mask)
    for bad in (math.nan, math.inf):
        w = v.copy()
        w[2, 2] = bad
        with pytest.raises(DomainError, match="vertex 2 is not finite"):
            plateau.TriMesh(w, np.array([[0, 1, 2]]))


def test_boundary_detection_and_euler():
    disk = plateau.mesh_disk(plateau.circle_loop(0.5, 0.0, 12), 3)
    assert disk.euler_characteristic() == 1
    assert disk.boundary_mask.sum() == 12
    # boundary vertices are exactly the outermost ring
    r = np.hypot(disk.vertices[:, 0], disk.vertices[:, 1])
    assert r[disk.boundary_mask] == pytest.approx(0.5, abs=1e-12)
    assert (r[~disk.boundary_mask] < 0.5 - 1e-6).all()

    ann = plateau.mesh_annulus(
        plateau.circle_loop(0.5, -1.0, 12), plateau.circle_loop(0.5, 1.0, 12), 5
    )
    assert ann.euler_characteristic() == 0
    assert ann.boundary_mask.sum() == 24


def test_boundary_matches_edge_count_reference():
    disk = plateau.mesh_disk(plateau.circle_loop(0.5, 0.0, 12), 3)
    meshes = [
        disk,
        plateau.mesh_annulus(
            plateau.circle_loop(0.5, -1.0, 12), plateau.circle_loop(0.5, 1.0, 12), 5
        ),
        plateau._two_disk_mesh(0.6, 1.0, 4, 16),
        plateau.subdivide(disk, plateau.circle_projector(0.5, 0.0)),
    ]
    for mesh in meshes:
        counts = edge_triangle_counts(mesh)
        edges = {e for e, c in counts.items() if c == 1}
        mask = np.zeros(len(mesh.vertices), dtype=bool)
        for a, b in edges:
            mask[a] = mask[b] = True
        assert mesh.boundary_edges() == frozenset(edges)
        np.testing.assert_array_equal(mesh.boundary_mask, mask)
        assert mesh.euler_characteristic() == (
            len(mesh.vertices) - len(counts) + len(mesh.triangles)
        )


def test_topology_check_matches_reference():
    # small random triangle lists meet every error of the check in turn, and
    # valid meshes; the error, or else the boundary, matches the reference
    rng = np.random.default_rng(7)
    lists = [
        # repeats 2->1 and 1->3: the reported one has the least src * n + dst
        (7, np.array([[2, 1, 0], [2, 1, 4], [1, 3, 5], [1, 3, 6]])),
    ]
    for _ in range(600):
        n = int(rng.integers(3, 8))
        tris = np.array([rng.permutation(n)[:3] for _ in range(int(rng.integers(1, 9)))])
        if rng.random() < 0.1:
            tris[int(rng.integers(len(tris))), 2] = tris[0, 0]
        lists.append((n, tris))
    seen = set()
    for n, tris in lists:
        v = rng.uniform(-0.5, 0.5, (n, 3))
        try:
            edges, n_edges, mask = reference_topology(tris, n)
        except DomainError as err:
            seen.add(str(err).split(" ")[0])
            with pytest.raises(DomainError) as got:
                plateau.TriMesh(v, tris)
            assert str(got.value) == str(err)
            continue
        seen.add("valid")
        mesh = plateau.TriMesh(v, tris)
        assert mesh.boundary_edges() == edges
        assert mesh.euler_characteristic() == n - n_edges + len(tris)
        np.testing.assert_array_equal(mesh.boundary_mask, mask)
    assert seen == {"degenerate", "edge", "directed", "valid"}
    with pytest.raises(DomainError, match=r"directed edge \(1, 3\) repeats"):
        plateau.TriMesh(rng.uniform(-0.5, 0.5, (7, 3)), lists[0][1])


def assert_same_mesh(got, ref):
    for a, b in (
        (got.vertices, ref.vertices),
        (got.triangles, ref.triangles),
        (got.boundary_mask, ref.boundary_mask),
    ):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    assert got.boundary_edges() == ref.boundary_edges()
    assert got.euler_characteristic() == ref.euler_characteristic()


@pytest.mark.parametrize("n, n_r", [(3, 1), (12, 3), (160, 48)])
def test_disk_meshes_match_ring_loop_reference(n, n_r):
    ang = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    # the race's circle, and an off-center loop whose centroid has no zero
    wobbly = np.column_stack(
        [0.1 + 0.5 * np.cos(ang), -0.05 + 0.4 * np.sin(ang), 0.3 + 0.2 * np.sin(3 * ang)]
    )
    fractions = plateau.hyperbolic_ring_fractions(2.0 * math.atanh(0.6), n_r)
    for loop in (plateau.circle_loop(0.6, 1.1, n), wobbly):
        assert_same_mesh(plateau.mesh_disk(loop, n_r), reference_mesh_disk(loop, n_r))
        assert_same_mesh(
            plateau.mesh_disk(loop, n_r, fractions), reference_mesh_disk(loop, n_r, fractions)
        )
    assert_same_mesh(
        plateau._two_disk_mesh(0.6, 1.1, n_r, n), reference_two_disk_mesh(0.6, 1.1, n_r, n)
    )


def test_minimize_output_shares_the_checked_topology():
    amb = AmbientSpace(0.3)
    mesh = wobbled_disk()
    for vertical in (False, True):
        out, _ = plateau.minimize(amb, mesh, vertical=vertical)
        assert out.triangles is mesh.triangles
        assert out.boundary_edges() == mesh.boundary_edges()
        assert out.euler_characteristic() == mesh.euler_characteristic()
        np.testing.assert_array_equal(out.boundary_mask, mesh.boundary_mask)
        assert not np.shares_memory(out.boundary_mask, mesh.boundary_mask)
        assert not np.shares_memory(out.vertices, mesh.vertices)
    # the vertex-only path keeps the vertex checks and their messages
    bad = [
        ((5, 2), math.nan, r"vertex 5 is not finite"),
        ((5, 0), math.inf, r"vertex 5 is not finite"),
        ((5, 0), 1.0, r"x\^2 \+ y\^2 < 1 - 1e-9 \(model boundary barrier\)"),
    ]
    for index, value, message in bad:
        w = mesh.vertices.copy()
        w[index] = value
        with pytest.raises(DomainError, match=message):
            mesh._with_vertices(w)
        moved = mesh.copy()
        moved.vertices[index] = value
        with pytest.raises(DomainError, match=message):
            moved.copy()
    with pytest.raises(DomainError, match=r"vertices must have shape"):
        mesh._with_vertices(mesh.vertices[:-1])


def test_race_checks_each_topology_once(monkeypatch):
    calls = []
    init = plateau.TriMesh.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(plateau.TriMesh, "__init__", counting_init)
    plateau._shared_topology.cache_clear()
    amb = AmbientSpace(0.05)
    cfg = plateau.SolverConfig(max_iterations=20)

    def race(n_theta, n_rows, n_r):
        calls.clear()
        return plateau.compare_connected_vs_disks(
            amb, 1.1, cfg, n_theta=n_theta, n_rows=n_rows, n_r=n_r
        )

    def checked(result):
        # the annulus grid and the disk pair, in that order
        return [len(args[1]) for args in calls] == [
            len(result.annulus_mesh.triangles),
            len(result.disks_mesh.triangles),
        ]

    first = race(48, 13, 12)
    assert checked(first)
    again = race(48, 13, 12)
    assert calls == []
    assert again.optimized_annulus_area == first.optimized_annulus_area
    assert again.optimized_disks_area == first.optimized_disks_area
    assert checked(race(40, 9, 8))
    calls.clear()
    out, _ = plateau.minimize(amb, first.disks_mesh, cfg, vertical=True)
    out.copy()
    assert calls == []


def test_structured_builders_share_one_checked_topology():
    plateau._shared_topology.cache_clear()
    loop = plateau.circle_loop(0.6, 0.2, 12)
    grid = np.stack([plateau.circle_loop(0.5, t, 12) for t in (-1.0, 0.0, 1.0)])
    builders = [
        (lambda: plateau.mesh_from_grid(grid), (plateau._grid_triangles, 3, 12)),
        (lambda: plateau.mesh_disk(loop, 3), (plateau._disk_triangles, 12, 3)),
        (lambda: plateau._two_disk_mesh(0.6, 1.1, 3, 12), (plateau._disk_pair_triangles, 12, 3)),
    ]
    for build, key in builders:
        first, second = build(), build()
        shared = plateau._shared_topology(*key)
        assert first.triangles is second.triangles is shared.triangles
        assert not shared.triangles.flags.writeable
        assert not shared.boundary_mask.flags.writeable
        with pytest.raises(ValueError):
            first.triangles[0, 0] = 1
        # each mesh owns a writable copy of the mask
        for mesh in (first, second):
            assert mesh.boundary_mask.flags.writeable
            assert not np.shares_memory(mesh.boundary_mask, shared.boundary_mask)
        first.boundary_mask[:] = False
        np.testing.assert_array_equal(second.boundary_mask, shared.boundary_mask)
        assert second.boundary_mask.any()


def test_structured_builders_keep_the_vertex_errors():
    # on a cache miss and on a hit, each builder raises the DomainError that
    # TriMesh raises on the same vertices
    loop = plateau.circle_loop(0.6, 0.2, 12)
    grid = np.stack([plateau.circle_loop(0.5, t, 12) for t in (-1.0, 0.0, 1.0)])
    nonfinite_grid, outside_grid = grid.copy(), grid.copy()
    nonfinite_grid[1, 4, 2] = math.nan
    outside_grid[1, 4, 0] = 1.0
    nonfinite_loop, outside_loop = loop.copy(), loop.copy()
    nonfinite_loop[4, 2] = math.nan
    outside_loop[4, 0] = 1.0
    cases = [
        (
            plateau.mesh_from_grid,
            lambda g: plateau.TriMesh(g.reshape(-1, 3), grid_triangles_by_loop(3, 12)),
            [nonfinite_grid, outside_grid],
        ),
        (
            lambda lp: plateau.mesh_disk(lp, 3),
            lambda lp: reference_mesh_disk(lp, 3),
            [nonfinite_loop, outside_loop],
        ),
        (
            lambda rh: plateau._two_disk_mesh(*rh, 3, 12),
            lambda rh: reference_two_disk_mesh(*rh, 3, 12),
            [(0.6, math.nan), (1.0 - 1e-10, 1.1)],
        ),
    ]
    for build, reference, (nonfinite, outside) in cases:
        plateau._shared_topology.cache_clear()
        for bad, message in [(nonfinite, "is not finite"), (outside, "model boundary barrier")] * 2:
            with pytest.raises(DomainError, match=message) as want:
                reference(bad)
            with pytest.raises(DomainError) as got:
                build(bad)
            assert str(got.value) == str(want.value)


def test_gradient_matches_finite_differences():
    meshes = [
        wobbled_disk(),
        plateau.mesh_annulus(
            plateau.circle_loop(0.6, -0.8, 20), plateau.circle_loop(0.6, 0.8, 20), 5
        ),
    ]
    rng = np.random.default_rng(11)
    for mesh in meshes:
        interior = np.flatnonzero(~mesh.boundary_mask)
        probe = rng.choice(interior, size=min(8, len(interior)), replace=False)
        for tau in (0.0, 0.7):

            def area_of(verts):
                areas, _, _ = _kernels.area_and_grad(tau, verts, mesh.triangles, False)
                return float(np.sum(areas))

            grad = _kernels.area_and_grad(tau, mesh.vertices, mesh.triangles, True)[2]
            fd = fd_mesh_gradient(area_of, mesh.vertices, probe)
            scale = max(1.0, float(np.abs(fd).max()))
            assert np.abs(grad[probe] - fd).max() / scale < 1e-4


def race_annulus(amb, h=1.2):
    analytic = connected_boundary_for_height(amb, h)
    trunc = TruncatedCatenoid(CatenoidProfile(amb, analytic.d), analytic.R)
    return plateau.mesh_from_grid(annulus_vertex_grid(trunc, 49, 160))


def collapsed_disk():
    # an interior vertex moved onto a neighbour flattens the two triangles
    # that share their edge
    mesh = wobbled_disk()
    i = int(np.flatnonzero(~mesh.boundary_mask)[0])
    tri = mesh.triangles[np.any(mesh.triangles == i, axis=1)][0]
    j = int(tri[tri != i][0])
    mesh.vertices[i] = mesh.vertices[j]
    return mesh


@pytest.mark.parametrize(
    "tau, build",
    [(0.3, lambda amb: wobbled_disk()), (0.1, race_annulus), (0.3, lambda amb: collapsed_disk())],
    ids=["disk", "race-annulus", "collapsed-disk"],
)
def test_discrete_area_report_matches_the_solver_start(tau, build):
    amb = AmbientSpace(tau)
    mesh = build(amb)
    total, areas, degenerate = plateau.discrete_area_report(amb, mesh)
    _, rep = plateau.minimize(amb, mesh, plateau.SolverConfig(max_iterations=1))
    assert total == rep.area_history[0]
    assert plateau.discrete_area(amb, mesh) == total
    assert areas.shape == (len(mesh.triangles),)
    assert float(np.sum(areas)) == total
    assert degenerate == rep.degenerate_triangles


def test_minimize_flattens_wobbled_disk():
    amb = AmbientSpace(0.0)
    mesh = wobbled_disk(n_theta=20, n_r=4, amplitude=0.05)
    cfg = plateau.SolverConfig(max_iterations=2000)
    out, rep = plateau.minimize(amb, mesh, cfg)
    hist = np.array(rep.area_history)
    assert (np.diff(hist) <= 1e-12).all()
    assert rep.final_area <= hist[0]
    # at tau = 0 the height decouples: the wobble flattens back out
    assert np.abs(out.vertices[:, 2] - 0.4).max() < 0.02
    assert rep.degenerate_triangles == 0


def test_minimize_reports_termination_and_cost(monkeypatch):
    amb = AmbientSpace(0.3)
    mesh = wobbled_disk()
    _, rep = plateau.minimize(amb, mesh, plateau.SolverConfig(gradient_tol=1.0))
    assert (rep.termination, rep.converged) == ("converged", True)
    assert rep.gradient_norm < 1.0
    assert rep.iterations == len(rep.area_history) - 1
    # the gradient test runs before the stall test: with a one-step window
    # that always stalls, both hold after the first step, which converged
    monkeypatch.setattr(plateau, "_STALL_WINDOW", 1)
    monkeypatch.setattr(plateau, "_STALL_REL", math.inf)
    _, both = plateau.minimize(amb, mesh, plateau.SolverConfig(gradient_tol=1.0))
    assert (both.termination, both.converged, both.iterations) == ("converged", True, 1)
    monkeypatch.undo()

    _, rep = plateau.minimize(amb, mesh, plateau.SolverConfig(max_iterations=3))
    assert (rep.termination, rep.converged, rep.iterations) == ("iteration_cap", False, 3)
    assert rep.gradients == len(rep.area_history) == 4
    assert rep.evaluations >= rep.gradients


def test_minimize_reports_line_search_failure(monkeypatch):
    # every candidate reports more area than the start, so no step passes
    # the Armijo test and the line search gives up after its backtracks
    class Inflated:
        def __init__(self, ev):
            self.tri_areas = ev.tri_areas + 1.0
            self.degenerate = ev.degenerate

    plans = record_plans(monkeypatch, lambda ev, k: ev if k == 0 else Inflated(ev))
    mesh = wobbled_disk()
    out, rep = plateau.minimize(AmbientSpace(0.3), mesh)
    assert (rep.termination, rep.converged, rep.iterations) == ("line_search_failed", False, 0)
    assert rep.area_history == (rep.final_area,)
    assert rep.gradients == 1
    assert rep.evaluations == 1 + plateau._MAX_BACKTRACKS
    assert rep.rejected_armijo == plateau._MAX_BACKTRACKS
    assert (rep.rejected_barrier, rep.rejected_degenerate) == (0, 0)
    assert len(plans) == 1
    assert len(plans[0]["candidates"]) == rep.evaluations
    np.testing.assert_array_equal(out.vertices, mesh.vertices)


def assert_stalled_by_rule(rep):
    """The solve ended stalled, at the first window that met the stall test."""
    w = plateau._STALL_WINDOW
    hist = rep.area_history
    assert (rep.termination, rep.converged) == ("stalled", False)
    assert rep.iterations >= w
    assert hist[-1 - w] - hist[-1] < plateau._STALL_REL * w * hist[-1]
    for k in range(w, rep.iterations):
        assert hist[k - w] - hist[k] >= plateau._STALL_REL * w * hist[k]


def rejecting_disk():
    """A wobbled free disk near the rim whose line search meets every rejection cause."""
    R = 4.0
    rho = math.tanh(0.5 * R)
    mesh = plateau.mesh_disk(
        plateau.circle_loop(rho, 0.0, 24), 6, plateau.hyperbolic_ring_fractions(R, 6)
    )
    rng = np.random.default_rng(1)
    interior = ~mesh.boundary_mask
    mesh.vertices[interior, 2] += 0.05 * rng.standard_normal(int(interior.sum()))
    return mesh


def assert_evaluations_by_cause(rep):
    """Every evaluated candidate was accepted or rejected for one cause."""
    assert rep.evaluations == 1 + rep.iterations + rep.rejected_degenerate + rep.rejected_armijo


def test_minimize_counts_rejections_by_cause():
    _, rep = plateau.minimize(AmbientSpace(0.0), rejecting_disk())
    assert min(rep.rejected_barrier, rep.rejected_degenerate, rep.rejected_armijo) > 0
    assert_evaluations_by_cause(rep)


def test_stalled_solve_is_not_converged():
    _, rep = plateau.minimize(AmbientSpace(0.0), rejecting_disk())
    assert rep.gradient_norm >= plateau.SolverConfig().gradient_tol
    assert_stalled_by_rule(rep)


@pytest.mark.parametrize("tau, h", [(0.0, 1.0), (0.1, 1.2)])
def test_race_annulus_stalls_near_the_capped_area(tau, h):
    # criterion 11's races: the default-mesh annulus slides its vertices at
    # 1-3e-8 relative per step; it stops stalled, on the area history of the
    # solve without a stall test, close to where that one reaches its cap
    amb = AmbientSpace(tau)
    result = plateau.compare_connected_vs_disks(amb, h)
    rep = result.annulus_report
    assert_stalled_by_rule(rep)
    analytic = connected_boundary_for_height(amb, h)
    trunc = TruncatedCatenoid(CatenoidProfile(amb, analytic.d), analytic.R)
    annulus = plateau.mesh_from_grid(annulus_vertex_grid(trunc, 49, 160))
    _, ref = reference_minimize(amb, annulus)
    assert ref.termination == "iteration_cap"
    assert ref.area_history[: rep.iterations + 1] == rep.area_history
    assert abs(rep.final_area - ref.final_area) / ref.final_area < 1e-5
    # the safeguarded quadratic backtracking: 17 and 21 evaluations, where
    # halving the step on every rejection took 31 and 36
    assert rep.evaluations <= 24
    assert result.disks_report.termination in ("converged", "stalled")
    for solve in (rep, result.disks_report):
        assert_evaluations_by_cause(solve)


EPS = np.finfo(float).eps


class Trial(NamedTuple):
    """One evaluated line-search candidate, as :func:`line_search_replay` sees it.

    ``kind`` is ``"armijo"`` or ``"degenerate"`` (rejected), ``"first"``
    (accepted on the first trial of its iteration) or ``"accepted"``;
    ``ratio`` is the step over the step of the candidate before it, exact
    to a relative ``err``, and ``barrier`` the barrier halvings between them.
    """

    kind: str
    step: float
    ratio: float
    barrier: int
    err: float


def line_search_replay(monkeypatch, amb, mesh, config=None, *, vertical=False, wrap=None):
    """Solve while recording every candidate, and replay the step rule on them.

    The step of each evaluated candidate is recovered as ``(v - cand) . g /
    |g|^2`` from the current iterate ``v`` and its gradient ``g``.  The
    replay predicts each step from the trials before it: a first trial
    doubles the step accepted on its first try (up to the 100-fold cap) and
    carries any other accepted step; an Armijo rejection is followed by the
    clamped quadratic step and a degenerate one by half the step.  Barrier
    rejections are not evaluated, so each recovered step must be the
    prediction times ``0.5**b`` for a whole ``b >= 0``: the halvings by the
    barrier.  A recovered step is exact to a relative ``err``, from the
    rounding of ``cand``: about 1e-12 at a step of 1e-4 on a unit disk, but
    past 1e-6 below steps of 1e-9, so a replayed solve must stop before.
    Returns the report and one :class:`Trial` per evaluated candidate after
    the start.
    """
    evaluations = []

    def keep(ev, k):
        ev = ev if wrap is None else wrap(ev, k)
        evaluations.append(ev)
        return ev

    plans = record_plans(monkeypatch, keep)
    _, rep = plateau.minimize(amb, mesh, config, vertical=vertical)
    monkeypatch.undo()
    candidates = plans[0]["candidates"]
    fixed = mesh.boundary_mask

    def gradient(ev):
        g = ev.gradient()
        g[fixed] = 0.0
        return g

    v, g = candidates[0], gradient(evaluations[0])
    area = float(np.sum(evaluations[0].tri_areas))
    base_degen = np.count_nonzero(evaluations[0].degenerate)
    accepted_areas = iter(rep.area_history[1:])
    next_accepted = next(accepted_areas, None)
    predicted, rejected = plateau._INITIAL_STEP, False
    previous = previous_err = math.nan
    records = []
    for cand, ev in zip(candidates[1:], evaluations[1:]):
        g2 = float(np.sum(g * g))
        step = float(np.sum((v - cand) * g)) / g2
        err = 1e-12 + 8.0 * EPS * float(np.sum(np.abs(v * g))) / (g2 * step)
        b = round(math.log2(predicted / step))
        assert err < 1e-6 and b >= 0 and abs(predicted / 2.0**b / step - 1.0) <= err
        rejected = rejected or b > 0
        c_area = float(np.sum(ev.tri_areas))
        if np.count_nonzero(ev.degenerate) > base_degen:
            kind = "degenerate"
            predicted = 0.5 * step
        elif c_area == next_accepted:
            # the Armijo test holds, and the area never rises
            assert c_area <= area - plateau._ARMIJO * step * g2 * (1.0 - 1e-6)
            kind = "accepted" if rejected else "first"
            predicted = step if rejected else min(2.0 * step, 100.0 * plateau._INITIAL_STEP)
            v, g, area = cand, gradient(ev), c_area
            next_accepted = next(accepted_areas, None)
        else:
            kind = "armijo"
            rise = c_area - area + g2 * step
            if math.isfinite(rise):
                predicted = min(max(g2 * step * step / (2.0 * rise), 0.1 * step), 0.5 * step)
            else:
                predicted = 0.5 * step
        records.append(Trial(kind, step, step / previous, b, err + previous_err))
        previous, previous_err = step, err
        rejected = kind in ("armijo", "degenerate")
    assert next_accepted is None
    assert sum(r.barrier for r in records) <= rep.rejected_barrier
    return rep, records


def replayed_solves(monkeypatch):
    """Solves whose line searches meet every rule but degeneracy: a free disk
    near the rim (its degenerate trials come only after 150 steps, at steps
    below 1e-7), a wobbled disk, and a coarse race annulus and its disks."""
    amb = AmbientSpace(0.1)
    analytic = connected_boundary_for_height(amb, 1.2)
    trunc = TruncatedCatenoid(CatenoidProfile(amb, analytic.d), analytic.R)
    annulus = plateau.mesh_from_grid(annulus_vertex_grid(trunc, 13, 48))
    disks = plateau._two_disk_mesh(math.tanh(0.5 * analytic.R), 1.2, 12, 48)
    cfg = plateau.SolverConfig(max_iterations=60)
    return [
        line_search_replay(monkeypatch, AmbientSpace(0.0), rejecting_disk(), cfg),
        line_search_replay(monkeypatch, AmbientSpace(0.3), wobbled_disk()),
        line_search_replay(monkeypatch, amb, annulus, cfg),
        line_search_replay(monkeypatch, amb, disks, cfg, vertical=True),
    ]


def steps_after(records, kinds):
    """(ratio of the next step to this one, net of barrier halvings, and its
    error) for each trial of the given kinds that another trial follows."""
    return [
        (after.ratio * 2.0**after.barrier, after.err)
        for trial, after in zip(records, records[1:])
        if trial.kind in kinds
    ]


def test_armijo_backtracks_shorten_by_the_clamped_quadratic(monkeypatch):
    factors = []
    for rep, records in replayed_solves(monkeypatch):
        assert_evaluations_by_cause(rep)
        assert all(b <= a for a, b in zip(rep.area_history, rep.area_history[1:]))
        factors += steps_after(records, ("armijo",))
    assert len(factors) > 20
    assert all(0.1 * (1.0 - err) <= f <= 0.5 * (1.0 + err) for f, err in factors)
    # the model is used inside the clamp, and clamped at both ends
    assert any(0.11 < f < 0.49 for f, _ in factors)
    assert any(abs(f - 0.5) <= 0.5 * err for f, err in factors)
    assert any(abs(f - 0.1) <= 0.1 * err for f, err in factors)


def test_barrier_and_degeneracy_rejections_halve(monkeypatch):
    cfg = plateau.SolverConfig(max_iterations=60)
    rep, records = line_search_replay(monkeypatch, AmbientSpace(0.0), rejecting_disk(), cfg)
    # every barrier rejection shows as one halving between evaluated trials
    assert rep.rejected_barrier > 0
    assert sum(r.barrier for r in records) == rep.rejected_barrier

    # evaluated trials 1, 2 and 6 report a newly degenerate triangle
    class Degenerate:
        def __init__(self, ev):
            self.tri_areas = ev.tri_areas
            self.degenerate = np.ones_like(ev.degenerate)

    def wrap(ev, k):
        return Degenerate(ev) if k in (1, 2, 6) else ev

    # capped at 20 iterations, before the solve slides, so the only
    # degenerate trials are the three forced ones
    cfg = plateau.SolverConfig(max_iterations=20)
    rep, records = line_search_replay(
        monkeypatch, AmbientSpace(0.3), wobbled_disk(), cfg, wrap=wrap
    )
    assert [r.kind for r in records[:3]] == ["degenerate", "degenerate", "accepted"]
    assert records[5].kind == "degenerate" and rep.rejected_degenerate == 3
    halved = steps_after(records, ("degenerate",))
    assert len(halved) == 3
    assert all(abs(f - 0.5) <= 0.5 * err for f, err in halved)
    assert_evaluations_by_cause(rep)


def test_step_doubles_only_after_first_try_acceptance(monkeypatch):
    doubled = carried = 0
    for _, records in replayed_solves(monkeypatch):
        for trial, after in zip(records, records[1:]):
            f = after.ratio * 2.0**after.barrier
            if trial.kind == "first":
                want = min(2.0, 100.0 * plateau._INITIAL_STEP / trial.step)
                doubled += 1
            elif trial.kind == "accepted":
                want = 1.0
                carried += 1
            else:
                continue
            assert abs(f - want) <= want * after.err
    assert doubled > 10 and carried > 10


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_trial_area_halves_the_step(monkeypatch, bad):
    # the first trial reports a non-finite area: it fails the Armijo test,
    # and with no quadratic to fit the second trial is half the first
    class NonFinite:
        def __init__(self, ev):
            self.tri_areas = np.full_like(ev.tri_areas, bad)
            self.degenerate = ev.degenerate

        def gradient(self):
            raise AssertionError("a rejected trial has no gradient")

    def wrap(ev, k):
        return NonFinite(ev) if k == 1 else ev

    rep, records = line_search_replay(
        monkeypatch, AmbientSpace(0.3), wobbled_disk(), wrap=wrap
    )
    first, second = records[:2]
    assert (first.kind, first.barrier, second.barrier) == ("armijo", 0, 0)
    assert first.step == pytest.approx(plateau._INITIAL_STEP, rel=1e-9)
    assert second.ratio == pytest.approx(0.5, rel=1e-9)
    assert rep.rejected_armijo >= 1 and rep.iterations > 0
    assert_evaluations_by_cause(rep)
    assert plateau._backtrack(0.2, 1.0, bad, 3.0) == 0.1


def test_backtrack_minimizes_the_quadratic_within_the_clamp():
    # q(s) = 1 - 3 s + 10 s^2 has its minimum at 0.15 and q(0.4) = 1.4
    assert plateau._backtrack(0.4, 1.0, 1.4, 3.0) == pytest.approx(0.15, rel=1e-12)
    # a trial barely above the tangent line: the model step is clamped to half
    assert plateau._backtrack(0.4, 1.0, 1.0 - 1.2 + 1e-9, 3.0) == 0.2
    # a trial far above it: clamped to a tenth
    assert plateau._backtrack(0.4, 1.0, 1e6, 3.0) == pytest.approx(0.04, rel=1e-12)


def test_minimize_requires_mixed_mask():
    v = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.1, 0.0]])
    tri = np.array([[0, 1, 2]])
    amb = AmbientSpace(0.5)
    with pytest.raises(DomainError):
        plateau.minimize(amb, plateau.TriMesh(v, tri, np.zeros(3, dtype=bool)))
    with pytest.raises(DomainError):
        plateau.minimize(amb, plateau.TriMesh(v, tri))  # every vertex fixed


def test_solver_config_validation():
    with pytest.raises(UsageError):
        plateau.SolverConfig(max_iterations=0)
    for tol in (0.0, math.inf, math.nan):
        with pytest.raises(UsageError, match="gradient_tol must be positive and finite"):
            plateau.SolverConfig(gradient_tol=tol)
    with pytest.raises(UsageError):
        plateau.SolverConfig(refinement_levels=-1)


def test_subdivide_counts_and_projection():
    mesh = plateau.mesh_disk(plateau.circle_loop(0.6, 0.2, 12), 2)
    n_v, n_t = len(mesh.vertices), len(mesh.triangles)
    n_e = len(edge_triangle_counts(mesh))
    fine = plateau.subdivide(mesh, plateau.circle_projector(0.6, 0.2))
    assert len(fine.triangles) == 4 * n_t
    assert len(fine.vertices) == n_v + n_e
    assert fine.euler_characteristic() == mesh.euler_characteristic()
    rim = np.hypot(fine.vertices[fine.boundary_mask, 0], fine.vertices[fine.boundary_mask, 1])
    assert rim == pytest.approx(0.6, abs=1e-12)
    assert (fine.vertices[fine.boundary_mask, 2] == 0.2).all()


def subdivide_by_loop(mesh, boundary_project):
    """Midpoint subdivision with one dict lookup per triangle edge."""
    v = mesh.vertices
    boundary_edges = mesh.boundary_edges()
    mid_index = {}
    extra_pts, extra_mask = [], []

    def midpoint(a, b):
        key = (min(a, b), max(a, b))
        if key not in mid_index:
            p = 0.5 * (v[a] + v[b])
            if key in boundary_edges and boundary_project is not None:
                p = np.asarray(boundary_project(p), dtype=np.float64)
            extra_pts.append(p)
            extra_mask.append(key in boundary_edges)
            mid_index[key] = len(v) + len(extra_pts) - 1
        return mid_index[key]

    new_tris = []
    for a, b, c in mesh.triangles.tolist():
        mab, mbc, mca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        new_tris.extend([(a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)])
    vertices = np.vstack([v, np.array(extra_pts)])
    mask = np.concatenate([mesh.boundary_mask, np.array(extra_mask, dtype=bool)])
    return vertices, np.array(new_tris, dtype=np.int64), mask


def test_subdivide_matches_loop_construction():
    disk = plateau.mesh_disk(plateau.circle_loop(0.5, 0.0, 12), 3)
    meshes = [
        disk,
        plateau.mesh_annulus(
            plateau.circle_loop(0.5, -1.0, 12), plateau.circle_loop(0.5, 1.0, 12), 5
        ),
        plateau.subdivide(disk, plateau.circle_projector(0.5, 0.0)),
    ]

    def recording(calls):
        def project(p):
            calls.append(np.array(p))
            scale = 0.5 / math.hypot(p[0], p[1])
            return np.array([scale * p[0], scale * p[1], p[2]])

        return project

    for mesh in meshes:
        for with_projector in (False, True):
            calls, ref_calls = [], []
            fine = plateau.subdivide(mesh, recording(calls) if with_projector else None)
            vertices, triangles, mask = subdivide_by_loop(
                mesh, recording(ref_calls) if with_projector else None
            )
            np.testing.assert_array_equal(fine.vertices, vertices)
            np.testing.assert_array_equal(fine.triangles, triangles)
            np.testing.assert_array_equal(fine.boundary_mask, mask)
            np.testing.assert_array_equal(np.array(calls), np.array(ref_calls))
            assert len(calls) == (mask[len(mesh.vertices):].sum() if with_projector else 0)


def test_mesh_from_grid_layout():
    with pytest.raises(DomainError):
        plateau.mesh_from_grid(np.zeros((1, 8, 3)))
    grid = np.zeros((4, 8, 3))
    ang = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    for r, rad in enumerate((0.2, 0.3, 0.4, 0.5)):
        grid[r, :, 0] = rad * np.cos(ang)
        grid[r, :, 1] = rad * np.sin(ang)
        grid[r, :, 2] = float(r)
    mesh = plateau.mesh_from_grid(grid)
    assert len(mesh.vertices) == 32
    assert len(mesh.triangles) == 2 * 3 * 8
    assert mesh.boundary_mask.sum() == 16
    assert mesh.boundary_mask[:8].all() and mesh.boundary_mask[-8:].all()


def test_mesh_triangles_match_loop_construction():
    for n, n_r in ((3, 1), (12, 1), (12, 3), (160, 48)):
        disk = plateau.mesh_disk(plateau.circle_loop(0.5, 0.0, n), n_r)
        np.testing.assert_array_equal(disk.triangles, disk_triangles_by_loop(n, n_r))
    for n_rows, n_cols in ((2, 3), (5, 12), (49, 160)):
        annulus = plateau.mesh_annulus(
            plateau.circle_loop(0.5, -1.0, n_cols), plateau.circle_loop(0.5, 1.0, n_cols), n_rows
        )
        np.testing.assert_array_equal(
            annulus.triangles, grid_triangles_by_loop(n_rows, n_cols)
        )


def test_mesh_annulus_validation():
    a = plateau.circle_loop(0.5, 0.0, 12)
    b = plateau.circle_loop(0.5, 1.0, 16)
    with pytest.raises(DomainError):
        plateau.mesh_annulus(a, b, 4)
    with pytest.raises(UsageError):
        plateau.mesh_annulus(a, plateau.circle_loop(0.5, 1.0, 12), 1)


def test_hyperbolic_ring_fractions():
    R = 3.0
    f = plateau.hyperbolic_ring_fractions(R, 10)
    assert f.shape == (10,)
    assert (np.diff(f) > 0).all()
    assert f[-1] == pytest.approx(1.0, abs=1e-15)
    assert f[4] == pytest.approx(math.tanh(0.5 * 1.5) / math.tanh(1.5))
    with pytest.raises(UsageError):
        plateau.hyperbolic_ring_fractions(R, 0)
    with pytest.raises(DomainError):
        plateau.hyperbolic_ring_fractions(0.0, 4)
    loop = plateau.circle_loop(0.6, 0.0, 12)
    with pytest.raises(UsageError):
        plateau.mesh_disk(loop, 4, np.array([0.5, 0.25, 0.75, 1.0]))
    with pytest.raises(UsageError):
        plateau.mesh_disk(loop, 4, np.array([0.25, 0.5, 0.75]))
    with pytest.raises(UsageError):
        plateau.mesh_disk(loop, 4, np.array([0.2, 0.4, 0.6, 0.8]))


def test_flat_disk_refinement_accuracy():
    # two refinement rounds from the coarse base already lands inside 1%
    rho = 0.6
    R = 2.0 * math.atanh(rho)
    for tau in (0.0, 0.5):
        amb = AmbientSpace(tau)
        base = plateau.mesh_disk(
            plateau.circle_loop(rho, 0.3, 24), 6, plateau.hyperbolic_ring_fractions(R, 6)
        )
        rng = np.random.default_rng(5)
        interior = ~base.boundary_mask
        base.vertices[interior, 2] += 0.03 * rng.standard_normal(interior.sum())
        cfg = plateau.SolverConfig(refinement_levels=2)
        out, reports = plateau.minimize_with_refinement(
            amb, base, cfg, plateau.circle_projector(rho, 0.3)
        )
        assert len(reports) == 3
        for rep in reports:
            hist = np.array(rep.area_history)
            assert (np.diff(hist) <= 1e-12).all()
        expected = disk_area_closed_form(amb, R)
        rel = abs(reports[-1].final_area - expected) / expected
        assert rel < 0.01


def test_catenoid_annulus_matches_analytic_area():
    amb = AmbientSpace(0.0)
    analytic = connected_boundary_for_height(amb, 1.0)
    trunc = TruncatedCatenoid(CatenoidProfile(amb, analytic.d), analytic.R)
    target = annulus_area(trunc)
    mesh = plateau.mesh_from_grid(annulus_vertex_grid(trunc, 49, 160))
    out, rep = plateau.minimize(amb, mesh)
    assert abs(rep.final_area - target) / target < 0.02
    hist = np.array(rep.area_history)
    assert (np.diff(hist) <= 1e-12).all()


def test_compare_connected_vs_disks_small():
    amb = AmbientSpace(0.0)
    result = plateau.compare_connected_vs_disks(
        amb, 1.0, n_theta=96, n_rows=25, n_r=24
    )
    assert result.connected_wins
    assert result.optimized_annulus_area < result.optimized_disks_area
    assert result.analytic.connected_wins
    assert result.h == 1.0
    # optimized disk pair tracks the closed form at this coarse resolution
    expected = 2.0 * disk_area_closed_form(amb, result.analytic.R)
    assert abs(result.optimized_disks_area - expected) / expected < 0.03


def test_compare_solves_disks_as_graphs_and_annulus_as_before():
    # without the stall test the coarse disks need 854 iterations to bring
    # the t-gradient norm below the absolute tolerance, more than the
    # default cap of 400; they stall after 10, 1.5e-9 from that area
    amb = AmbientSpace(0.1)
    cfg = plateau.SolverConfig(max_iterations=1000)
    result = plateau.compare_connected_vs_disks(amb, 1.2, cfg, n_theta=96, n_rows=25, n_r=24)
    assert result.disks_report.termination in ("converged", "stalled")
    radius = math.tanh(0.5 * result.analytic.R)
    disks = plateau._two_disk_mesh(radius, 1.2, 24, 96)
    _, ref = reference_minimize(amb, disks, cfg, vertical=True)
    assert ref.termination == "converged"
    assert abs(result.optimized_disks_area - ref.final_area) / ref.final_area < 1e-6
    analytic = connected_boundary_for_height(amb, 1.2)
    trunc = TruncatedCatenoid(CatenoidProfile(amb, analytic.d), analytic.R)
    annulus = plateau.mesh_from_grid(annulus_vertex_grid(trunc, 25, 96))
    out, rep = plateau.minimize(amb, annulus, cfg)
    assert result.optimized_annulus_area == rep.final_area
    assert result.annulus_report == rep
    np.testing.assert_array_equal(result.annulus_mesh.vertices, out.vertices)


def test_circle_loop_validation():
    with pytest.raises(DomainError):
        plateau.circle_loop(1.0, 0.0, 16)
    with pytest.raises(UsageError):
        plateau.circle_loop(0.5, 0.0, 2)


def test_export_off(tmp_path):
    mesh = plateau.mesh_disk(plateau.circle_loop(0.5, 0.1, 6), 1)
    path = tmp_path / "disk.off"
    plateau.export_off(mesh, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "OFF"
    n_v, n_t, _ = (int(s) for s in lines[1].split())
    assert n_v == len(mesh.vertices) and n_t == len(mesh.triangles)
    got = np.array([[float(x) for x in ln.split()] for ln in lines[2 : 2 + n_v]])
    np.testing.assert_allclose(got, mesh.vertices, rtol=0, atol=0)
