import math

import numpy as np
import pytest

from helpers import fd_mesh_gradient

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
            amb = AmbientSpace(tau)

            def area_of(verts):
                areas, _, _ = _kernels.area_and_grad(tau, verts, mesh.triangles, False)
                return float(np.sum(areas))

            grad = plateau.area_gradient(amb, mesh)
            fd = fd_mesh_gradient(area_of, mesh.vertices, probe)
            scale = max(1.0, float(np.abs(fd).max()))
            assert np.abs(grad[probe] - fd).max() / scale < 1e-4
            assert np.abs(grad[mesh.boundary_mask]).max() == 0.0


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
    with pytest.raises(UsageError):
        plateau.SolverConfig(gradient_tol=0.0)
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
