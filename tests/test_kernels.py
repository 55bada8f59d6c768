import os
import subprocess
import sys

import numpy as np
import pytest

from etau import _kernels
from etau import plateau
from etau._kernels import mesh_numpy
from etau.models import AmbientSpace


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


def test_compiled_backend_preferred_when_built():
    if "cython" not in _kernels.available_backends():
        pytest.skip("compiled extension not built")
    assert _kernels.ACTIVE_BACKEND == "cython"


def test_backends_agree():
    if "cython" not in _kernels.available_backends():
        pytest.skip("compiled extension not built")
    ref = _kernels.get_backend("numpy")
    cy = _kernels.get_backend("cython")
    for mesh in sample_meshes():
        for tau in (0.0, 0.3, 1.0):
            a_ref, d_ref, g_ref = ref(tau, mesh.vertices, mesh.triangles, True)
            a_cy, d_cy, g_cy = cy(tau, mesh.vertices, mesh.triangles, True)
            np.testing.assert_allclose(a_cy, a_ref, rtol=1e-13, atol=1e-15)
            assert (np.asarray(d_cy) == np.asarray(d_ref)).all()
            np.testing.assert_allclose(g_cy, g_ref, rtol=1e-10, atol=1e-12)


def add_at_gradient(tau, vertices, triangles):
    """The numpy kernel's gradient, scattered by six successive np.add.at calls."""
    _, _, (edge1, edge2, pos_x, pos_y) = mesh_numpy._triangle_terms(
        tau, vertices, triangles, True
    )
    grad = np.zeros_like(vertices)
    np.add.at(grad, triangles[:, 1], edge1)
    np.add.at(grad, triangles[:, 2], edge2)
    np.add.at(grad, triangles[:, 0], -(edge1 + edge2))
    pos = np.zeros((len(triangles), 3))
    pos[:, 0] = pos_x
    pos[:, 1] = pos_y
    for k in range(3):
        np.add.at(grad, triangles[:, k], pos)
    return grad


def test_numpy_scatter_matches_add_at_exactly():
    for mesh in sample_meshes():
        for tau in (0.0, 0.3, 1.0):
            _, _, grad = mesh_numpy.area_and_grad(tau, mesh.vertices, mesh.triangles, True)
            np.testing.assert_array_equal(
                grad, add_at_gradient(tau, mesh.vertices, mesh.triangles)
            )


def test_minimize_computes_gradient_only_at_accepted_steps(monkeypatch):
    calls = {True: 0, False: 0}
    kernel = _kernels.area_and_grad

    def counting(tau, vertices, triangles, want_grad=True):
        calls[bool(want_grad)] += 1
        return kernel(tau, vertices, triangles, want_grad)

    monkeypatch.setattr(_kernels, "area_and_grad", counting)
    mesh = sample_meshes()[1]
    _, rep = plateau.minimize(
        AmbientSpace(0.3), mesh, plateau.SolverConfig(max_iterations=30)
    )
    assert len(rep.area_history) > 1
    # once at the start, then once per accepted step
    assert calls[True] == len(rep.area_history)
    assert calls[False] >= len(rep.area_history) - 1


def test_want_grad_false_skips_gradient():
    mesh = sample_meshes()[0]
    for name in _kernels.available_backends():
        areas, degen, grad = _kernels.get_backend(name)(
            0.5, mesh.vertices, mesh.triangles, False
        )
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
    for name in _kernels.available_backends():
        areas, degen, grad = _kernels.get_backend(name)(0.5, vertices, triangles, True)
        assert np.asarray(degen).all()
        assert (areas == 0.0).all()
        assert np.isfinite(np.asarray(grad)).all()
        assert np.abs(np.asarray(grad)).max() == 0.0


def test_unknown_backend_rejected():
    with pytest.raises(KeyError):
        _kernels.get_backend("fortran")


def test_env_flag_forces_reference_backend():
    code = (
        "from etau import _kernels\n"
        "print(_kernels.ACTIVE_BACKEND, ','.join(_kernels.available_backends()))\n"
    )
    env = dict(os.environ, ETAU_PURE_PYTHON="1")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    active, names = out.stdout.split()
    assert active == "numpy"
    assert names == "numpy"
