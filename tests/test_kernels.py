import math

import numpy as np
import pytest

from helpers import record_plans
from reference_checks import (
    reference_backtrack,
    reference_kernel_evaluate,
    reference_scatter,
    reference_vertical_graph,
)

from etau import _kernels
from etau import plateau
from etau._kernels import mesh_numpy
from etau.catenoid import (
    CatenoidProfile,
    TruncatedCatenoid,
    annulus_vertex_grid,
    connected_boundary_for_height,
)
from etau.models import AmbientSpace, fiber_form, metric_cylinder, pullback_metric


def sample_meshes():
    """A few small valid meshes with varied shape and scale."""
    rng = np.random.default_rng(7)
    disk = plateau.mesh_disk(plateau.circle_loop(0.8, 0.3, 24), 6)
    wobbled = disk.copy()
    interior = ~wobbled.boundary_mask
    wobbled.vertices[interior] += 1e-3 * rng.standard_normal((interior.sum(), 3))
    annulus = plateau.mesh_annulus(
        plateau.circle_loop(0.6, -1.0, 40), plateau.circle_loop(0.6, 1.0, 40), 9
    )
    return [disk, wobbled, annulus]


def test_numpy_backend_always_available():
    assert "numpy" in _kernels.available_backends()
    assert _kernels.ACTIVE_BACKEND in _kernels.available_backends()


def test_kernel_area_uses_the_model_metric():
    # each triangle's area is sqrt(det(E^T G E)) / 2 with G the cylinder
    # metric of etau.models at the barycenter and E its two edge vectors
    rng = np.random.default_rng(11)
    m = 50
    radius = 0.9 * np.sqrt(rng.uniform(size=(m, 1)))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=(m, 1))
    center = np.hstack([radius * np.cos(angle), radius * np.sin(angle), rng.normal(size=(m, 1))])
    vertices = (center[:, None, :] + 0.05 * rng.normal(size=(m, 3, 3))).reshape(3 * m, 3)
    triangles = np.arange(3 * m).reshape(m, 3)
    for tau in (0.0, 0.3, 1.0):
        amb = AmbientSpace(tau)
        areas, degen, _ = _kernels.area_and_grad(tau, vertices, triangles, False)
        assert not degen.any()
        p0, p1, p2 = vertices.reshape(m, 3, 3).transpose(1, 0, 2)
        g = metric_cylinder(amb, (p0 + p1 + p2) / 3.0)
        e = np.stack([p1 - p0, p2 - p0], axis=-1)
        expected = 0.5 * np.sqrt(np.linalg.det(pullback_metric(g, e)))
        assert areas == pytest.approx(expected, rel=1e-12)


def add_at_gradient(tau, vertices, triangles):
    """The reference kernel's gradient, scattered by three successive np.add.at calls."""
    corner1, corner2, corner0 = reference_kernel_evaluate(tau, vertices, triangles)._terms()
    grad = np.zeros_like(vertices)
    np.add.at(grad, triangles[:, 1], corner1)
    np.add.at(grad, triangles[:, 2], corner2)
    np.add.at(grad, triangles[:, 0], corner0)
    return grad


def test_numpy_scatter_matches_add_at_exactly():
    for mesh in sample_meshes():
        for tau in (0.0, 0.3, 1.0):
            _, _, grad = mesh_numpy.area_and_grad(tau, mesh.vertices, mesh.triangles, True)
            np.testing.assert_array_equal(
                grad, add_at_gradient(tau, mesh.vertices, mesh.triangles)
            )


def reference_evaluate(tau, vertices, triangles):
    """The kernel's formula with the full metric G: the Gram entries are
    quadratic forms of G·e₁ and G·e₂, and the position term differentiates
    every entry of G.  Returns ``(tri_areas, degenerate, grad)``."""
    v = np.asarray(vertices, dtype=np.float64)
    tri = np.asarray(triangles)
    p0 = v[tri[:, 0]]
    p1 = v[tri[:, 1]]
    p2 = v[tri[:, 2]]
    e1 = p1 - p0
    e2 = p2 - p0
    cx = (p0[:, 0] + p1[:, 0] + p2[:, 0]) / 3.0
    cy = (p0[:, 1] + p1[:, 1] + p2[:, 1]) / 3.0

    lam, a, b = fiber_form(tau, cx, cy)
    lam2 = lam * lam
    g11 = lam2 + a * a
    g12 = a * b
    g13 = a
    g22 = lam2 + b * b
    g23 = b

    def apply_g(w):
        out = np.empty_like(w)
        out[:, 0] = g11 * w[:, 0] + g12 * w[:, 1] + g13 * w[:, 2]
        out[:, 1] = g12 * w[:, 0] + g22 * w[:, 1] + g23 * w[:, 2]
        out[:, 2] = g13 * w[:, 0] + g23 * w[:, 1] + w[:, 2]
        return out

    ge1 = apply_g(e1)
    ge2 = apply_g(e2)
    q11 = np.einsum("ij,ij->i", e1, ge1)
    q12 = np.einsum("ij,ij->i", e1, ge2)
    q22 = np.einsum("ij,ij->i", e2, ge2)
    det = q11 * q22 - q12 * q12
    scale = q11 * q22 + q12 * q12
    degenerate = (det <= mesh_numpy._DEGEN_REL * scale) | (scale == 0.0)
    det_safe = np.where(degenerate, 1.0, det)
    tri_areas = np.where(degenerate, 0.0, 0.5 * np.sqrt(det_safe))

    factor = np.where(degenerate, 0.0, 0.25 / np.sqrt(det_safe))
    dd_e1 = 2.0 * q22[:, None] * ge1 - 2.0 * q12[:, None] * ge2
    dd_e2 = 2.0 * q11[:, None] * ge2 - 2.0 * q12[:, None] * ge1

    # metric derivatives at the barycenter
    dlam_dx = lam2 * cx
    dlam_dy = lam2 * cy
    da_dx = 2.0 * tau * cy * dlam_dx
    da_dy = 2.0 * tau * (lam + cy * dlam_dy)
    db_dx = -2.0 * tau * (lam + cx * dlam_dx)
    db_dy = -2.0 * tau * cx * dlam_dy
    two_lam = 2.0 * lam

    def quad_form(hxx, hxy, hxt, hyy, hyt, u, w):
        # u^T H w for symmetric H with zero tt entry
        return (
            hxx * u[:, 0] * w[:, 0]
            + hyy * u[:, 1] * w[:, 1]
            + hxy * (u[:, 0] * w[:, 1] + u[:, 1] * w[:, 0])
            + hxt * (u[:, 0] * w[:, 2] + u[:, 2] * w[:, 0])
            + hyt * (u[:, 1] * w[:, 2] + u[:, 2] * w[:, 1])
        )

    def position_term(dlam, da, db):
        hxx = two_lam * dlam + 2.0 * a * da
        hxy = da * b + a * db
        hxt = da
        hyy = two_lam * dlam + 2.0 * b * db
        hyt = db
        dq11 = quad_form(hxx, hxy, hxt, hyy, hyt, e1, e1)
        dq12 = quad_form(hxx, hxy, hxt, hyy, hyt, e1, e2)
        dq22 = quad_form(hxx, hxy, hxt, hyy, hyt, e2, e2)
        return q22 * dq11 + q11 * dq22 - 2.0 * q12 * dq12

    dd_x = position_term(dlam_dx, da_dx, db_dx)
    dd_y = position_term(dlam_dy, da_dy, db_dy)
    edge1 = factor[:, None] * dd_e1
    edge2 = factor[:, None] * dd_e2
    pos = np.column_stack([factor * dd_x / 3.0, factor * dd_y / 3.0, np.zeros(len(tri))])
    grad = reference_scatter(len(v), tri, edge1 + pos, edge2 + pos, pos - (edge1 + edge2))
    return tri_areas, degenerate.astype(np.uint8), grad


def test_factored_kernel_matches_full_metric_reference():
    # G = λ² I_xy + ωωᵀ reassociates the arithmetic, so the tolerances
    # are a few hundred ulps of the areas and of the largest gradient entry
    meshes = sample_meshes()
    meshes += [t_jittered(mesh, k) for k, mesh in enumerate(meshes)]
    for mesh in meshes:
        v, tri = mesh.vertices, mesh.triangles
        for tau in (0.0, 0.3, 1.0):
            areas, degen, grad = reference_evaluate(tau, v, tri)
            ev = _kernels.plan(tau, v, tri).evaluate(v)
            np.testing.assert_array_equal(ev.degenerate, degen)
            np.testing.assert_allclose(ev.tri_areas, areas, rtol=1e-13, atol=0.0)
            assert np.abs(ev.gradient() - grad).max() <= 1e-12 * np.abs(grad).max()


def test_evaluation_gradient_matches_area_and_grad_exactly():
    for mesh in sample_meshes():
        for tau in (0.0, 0.3, 1.0):
            areas, degen, grad = _kernels.area_and_grad(tau, mesh.vertices, mesh.triangles, True)
            ev = _kernels.plan(tau, mesh.vertices, mesh.triangles).evaluate(mesh.vertices)
            np.testing.assert_array_equal(ev.tri_areas, areas)
            np.testing.assert_array_equal(ev.degenerate, degen)
            assert ev.degenerate.dtype == degen.dtype == np.uint8
            np.testing.assert_array_equal(ev.gradient(), grad)


def reference_minimize(amb, mesh, config):
    """The solver loop before evaluations were shared: every trial runs the
    kernel area-only, and each accepted step calls it again with the gradient."""
    tau = amb.tau
    v = mesh.vertices.copy()
    tri = mesh.triangles
    fixed = mesh.boundary_mask
    calls = {True: 1, False: 0}
    tri_areas, degen, grad = _kernels.area_and_grad(tau, v, tri, True)
    area = float(np.sum(tri_areas))
    base_degen = int(np.sum(degen))
    grad[fixed] = 0.0
    history = [area]
    gnorm = float(np.linalg.norm(grad))
    step = plateau._INITIAL_STEP
    for _ in range(config.max_iterations):
        if gnorm < config.gradient_tol:
            break
        accepted = False
        for trial in range(plateau._MAX_BACKTRACKS):
            cand = v - step * grad
            r2 = cand[~fixed, 0] ** 2 + cand[~fixed, 1] ** 2
            if not (r2 < 1.0 - plateau.DISK_BARRIER).all():
                step *= plateau._LINE_SEARCH_SHRINK
                continue
            c_areas, c_degen, _ = _kernels.area_and_grad(tau, cand, tri, False)
            calls[False] += 1
            if int(np.sum(c_degen)) > base_degen:
                step *= plateau._LINE_SEARCH_SHRINK
                continue
            c_area = float(np.sum(c_areas))
            if c_area <= area - plateau._ARMIJO * step * gnorm * gnorm:
                v = cand
                area = c_area
                _, _, grad = _kernels.area_and_grad(tau, v, tri, True)
                calls[True] += 1
                grad[fixed] = 0.0
                gnorm = float(np.linalg.norm(grad))
                history.append(area)
                if trial == 0:
                    step = min(step * 2.0, plateau._INITIAL_STEP * 100.0)
                accepted = True
                break
            step = reference_backtrack(step, area, c_area, gnorm * gnorm)
        if not accepted:
            break
    return v, tuple(history), gnorm, calls


def test_minimize_matches_two_call_reference_exactly():
    wobbled, annulus = sample_meshes()[1:]
    cases = [(wobbled, tau) for tau in (0.0, 0.3, 1.0)] + [(annulus, 0.3)]
    config = plateau.SolverConfig(max_iterations=40)
    for mesh, tau in cases:
        amb = AmbientSpace(tau)
        out, rep = plateau.minimize(amb, mesh, config)
        v, history, gnorm, calls = reference_minimize(amb, mesh, config)
        assert len(history) > 1
        np.testing.assert_array_equal(out.vertices, v)
        np.testing.assert_array_equal(rep.area_history, history)
        assert rep.gradient_norm == gnorm
        # the same gradients, and one evaluation per area-only call plus the start
        assert (rep.evaluations, rep.gradients) == (calls[False] + 1, calls[True])


def test_minimize_computes_gradient_only_at_accepted_steps(monkeypatch):
    counts = {"area_and_grad": 0}

    def forbidden(*args, **kwargs):
        counts["area_and_grad"] += 1
        return mesh_numpy.area_and_grad(*args, **kwargs)

    plans = record_plans(monkeypatch)
    monkeypatch.setattr(_kernels, "area_and_grad", forbidden)
    mesh = sample_meshes()[1]
    _, rep = plateau.minimize(
        AmbientSpace(0.3), mesh, plateau.SolverConfig(max_iterations=30)
    )
    assert len(rep.area_history) > 1
    assert counts["area_and_grad"] == 0
    # one free plan per solve
    assert [p["vertical"] for p in plans] == [False]
    candidates = plans[0]["candidates"]
    # a gradient at the start, then one per accepted step
    assert plans[0]["gradients"] == rep.gradients == len(rep.area_history)
    assert len(candidates) == rep.evaluations
    # no candidate that passes the barrier is evaluated twice
    assert len({c.tobytes() for c in candidates}) == len(candidates)


def t_jittered(mesh, seed):
    """A copy of the mesh with its interior heights jittered."""
    out = mesh.copy()
    interior = ~out.boundary_mask
    rng = np.random.default_rng(seed)
    out.vertices[interior, 2] += 0.05 * rng.standard_normal(int(interior.sum()))
    return out


def test_vertical_graph_matches_evaluate():
    # both cases of a plan share one arithmetic path, so they agree exactly
    for k, base in enumerate(sample_meshes()):
        mesh = t_jittered(base, k)
        v, tri = mesh.vertices, mesh.triangles
        for tau in (0.0, 0.3, 1.0):
            ev = _kernels.plan(tau, v, tri).evaluate(v)
            gv = _kernels.plan(tau, v, tri, vertical=True).evaluate(v)
            np.testing.assert_array_equal(gv.tri_areas, ev.tri_areas)
            np.testing.assert_array_equal(gv.degenerate, ev.degenerate)
            assert gv.degenerate.dtype == np.uint8
            grad, graph_grad = ev.gradient(), gv.gradient()
            assert not graph_grad[:, :2].any()
            np.testing.assert_array_equal(graph_grad[:, 2], grad[:, 2])


def race_meshes():
    """The race's default annulus (15,360 triangles) and disk pair (30,400)
    at (τ, h) = (0.1, 1.2)."""
    amb = AmbientSpace(0.1)
    h = 1.2
    analytic = connected_boundary_for_height(amb, h)
    trunc = TruncatedCatenoid(CatenoidProfile(amb, analytic.d), analytic.R)
    annulus = plateau.mesh_from_grid(annulus_vertex_grid(trunc, 49, 160))
    disks = plateau._two_disk_mesh(math.tanh(0.5 * analytic.R), h, 48, 160)
    return annulus, disks


def assert_same_evaluation(ev, ref):
    np.testing.assert_array_equal(ev.tri_areas, ref.tri_areas)
    np.testing.assert_array_equal(ev.degenerate, ref.degenerate)
    assert ev.degenerate.dtype == ref.degenerate.dtype == np.uint8
    np.testing.assert_array_equal(ev.gradient(), ref.gradient())


def test_plan_matches_reference_kernels_exactly():
    meshes = sample_meshes()
    meshes += [t_jittered(mesh, k) for k, mesh in enumerate(meshes)]
    annulus, disks = race_meshes()
    assert (len(annulus.triangles), len(disks.triangles)) == (15360, 30400)
    meshes += [annulus, disks]
    for k, mesh in enumerate(meshes):
        v, tri = mesh.vertices, mesh.triangles
        # a vertical plan is evaluated at heights other than those it was built at
        moved = t_jittered(mesh, 100 + k).vertices
        for tau in (0.0, 0.3, 1.0):
            assert_same_evaluation(
                _kernels.plan(tau, v, tri).evaluate(v), reference_kernel_evaluate(tau, v, tri)
            )
            assert_same_evaluation(
                _kernels.plan(tau, v, tri, vertical=True).evaluate(moved),
                reference_vertical_graph(tau, v, tri).evaluate(moved),
            )


def test_free_gradient_keeps_areas_flags_and_t_column():
    # the per-corner x and y columns changed nothing else: the free plan's
    # areas, flags and t column equal, bit for bit, the kernel's before it
    # (the oracle keeps that arithmetic), the vertical-graph reference and
    # a vertical plan
    meshes = sample_meshes()
    meshes += [t_jittered(mesh, k) for k, mesh in enumerate(meshes)]
    meshes += list(race_meshes())
    for mesh in meshes:
        v, tri = mesh.vertices, mesh.triangles
        for tau in (0.0, 0.3, 1.0):
            ev = _kernels.plan(tau, v, tri).evaluate(v)
            t_column = ev.gradient()[:, 2]
            for other in (
                reference_kernel_evaluate(tau, v, tri),
                reference_vertical_graph(tau, v, tri).evaluate(v),
                _kernels.plan(tau, v, tri, vertical=True).evaluate(v),
            ):
                np.testing.assert_array_equal(ev.tri_areas, other.tri_areas)
                np.testing.assert_array_equal(ev.degenerate, other.degenerate)
                np.testing.assert_array_equal(t_column, other.gradient()[:, 2])


def test_vertical_minimize_builds_one_vertical_plan(monkeypatch):
    plans = record_plans(monkeypatch)
    mesh = t_jittered(sample_meshes()[1], 3)
    out, rep = plateau.minimize(
        AmbientSpace(0.3), mesh, plateau.SolverConfig(max_iterations=30), vertical=True
    )
    assert [p["vertical"] for p in plans] == [True]
    candidates = plans[0]["candidates"]
    assert plans[0]["gradients"] == rep.gradients == len(rep.area_history)
    assert len(candidates) == rep.evaluations
    assert len({c.tobytes() for c in candidates}) == len(candidates)
    assert len(rep.area_history) > 1
    assert (np.diff(rep.area_history) <= 0.0).all()
    np.testing.assert_array_equal(out.vertices[:, :2], mesh.vertices[:, :2])
    assert not np.array_equal(out.vertices[:, 2], mesh.vertices[:, 2])


def test_want_grad_false_skips_gradient():
    mesh = sample_meshes()[0]
    areas, degen, grad = _kernels.area_and_grad(0.5, mesh.vertices, mesh.triangles, False)
    assert grad is None
    assert len(areas) == len(mesh.triangles)
    assert not np.asarray(degen).any()


def test_degenerate_triangles_flagged():
    # a collapsed and a collinear triangle contribute nothing, flagged
    vertices = np.array(
        [
            [0.1, 0.0, 0.0],
            [0.1, 0.0, 0.0],
            [0.2, 0.1, 0.5],
            [0.0, 0.0, 0.0],
            [0.1, 0.1, 0.1],
            [0.2, 0.2, 0.2],
        ]
    )
    triangles = np.array([[0, 1, 2], [3, 4, 5]])
    areas, degen, grad = _kernels.area_and_grad(0.5, vertices, triangles, True)
    assert np.asarray(degen).all()
    assert (areas == 0.0).all()
    assert np.isfinite(np.asarray(grad)).all()
    assert np.abs(np.asarray(grad)).max() == 0.0


def test_unknown_backend_rejected():
    with pytest.raises(KeyError):
        _kernels.get_backend("fortran")

