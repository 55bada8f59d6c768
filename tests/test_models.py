import math

import numpy as np
import pytest

from etau.errors import DomainError, UsageError
from etau.models import (
    AmbientSpace,
    CylinderPoint,
    HalfSpacePoint,
    conformal_factor,
    metric_cylinder,
    metric_halfspace,
    patch_area,
    pullback_metric,
    to_disk_jacobian,
    to_disk_model,
    to_halfspace_model,
)
from helpers import fd_jacobian


def test_ambient_rejects_negative_tau():
    with pytest.raises(UsageError):
        AmbientSpace(-0.5)


def test_cylinder_point_must_be_inside_disk():
    with pytest.raises(DomainError):
        CylinderPoint(1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        CylinderPoint(0.8, 0.7, 0.0)


def test_halfspace_point_needs_positive_y():
    with pytest.raises(DomainError):
        HalfSpacePoint(0.0, 0.0, 0.0)


def test_conformal_factor_center_and_known_point():
    assert conformal_factor(0.0, 0.0) == 2.0
    assert abs(conformal_factor(0.5, 0.0) - 8.0 / 3.0) < 1e-15
    for x, y in [(1.0, 0.0), (0.6, 0.8), (np.float64(0.0), np.float64(-1.0)), (1.5, 0.0)]:
        with pytest.raises(DomainError):
            conformal_factor(x, y)


def test_cylinder_metric_known_components():
    # at (1/2, 0), tau = 1: lam = 8/3, A = 0, B = -8/3
    amb = AmbientSpace(1.0)
    g = metric_cylinder(amb, CylinderPoint(0.5, 0.0, 0.0)).matrix
    expected = np.array(
        [
            [64.0 / 9.0, 0.0, 0.0],
            [0.0, 128.0 / 9.0, -8.0 / 3.0],
            [0.0, -8.0 / 3.0, 1.0],
        ]
    )
    assert np.allclose(g, expected, atol=1e-13)


def test_cylinder_metric_determinant_is_lambda_fourth():
    # the fiber direction contributes a unipotent factor, so det g = lam^4
    amb = AmbientSpace(0.7)
    for x, y in [(0.0, 0.0), (0.3, -0.4), (-0.8, 0.1), (0.05, 0.9)]:
        g = metric_cylinder(amb, CylinderPoint(x, y, 0.0)).matrix
        lam = conformal_factor(x, y)
        assert abs(np.linalg.det(g) - lam**4) < 1e-8 * lam**4


def test_halfspace_metric_known_components():
    amb = AmbientSpace(1.0)
    g = metric_halfspace(amb, HalfSpacePoint(0.0, 1.0, 0.0)).matrix
    expected = np.array([[5.0, 0.0, -2.0], [0.0, 1.0, 0.0], [-2.0, 0.0, 1.0]])
    assert np.allclose(g, expected, atol=1e-14)


def test_product_case_has_no_cross_terms():
    g = metric_cylinder(AmbientSpace(0.0), CylinderPoint(0.3, 0.2, 1.0)).matrix
    assert g[0, 2] == 0.0 and g[1, 2] == 0.0 and g[0, 1] == 0.0


@pytest.mark.parametrize("tau", [0.0, 0.1, 0.5, 1.0])
def test_model_change_roundtrip(tau):
    amb = AmbientSpace(tau)
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = HalfSpacePoint(rng.normal(), math.exp(rng.normal()), rng.normal())
        q = to_disk_model(amb, p)
        back = to_halfspace_model(amb, q)
        assert abs(back.x - p.x) < 1e-9 * max(1.0, abs(p.x))
        assert abs(back.y - p.y) < 1e-9 * max(1.0, abs(p.y))
        assert abs(back.t - p.t) < 1e-9


def test_model_change_sends_i_to_origin():
    q = to_disk_model(AmbientSpace(0.5), HalfSpacePoint(0.0, 1.0, 0.0))
    assert abs(q.x) < 1e-15 and abs(q.y) < 1e-15 and abs(q.t) < 1e-15


def test_model_change_jacobian_matches_finite_differences():
    amb = AmbientSpace(0.5)
    p = HalfSpacePoint(0.7, 1.3, -0.2)

    def fn(arr):
        q = to_disk_model(amb, HalfSpacePoint(arr[0], arr[1], arr[2]))
        return q.as_array()

    j = to_disk_jacobian(amb, p)
    j_fd = fd_jacobian(fn, p.as_array())
    assert np.allclose(j, j_fd, atol=1e-6)


@pytest.mark.parametrize("tau", [0.0, 0.1, 0.5, 1.0])
def test_model_change_is_isometry(tau):
    amb = AmbientSpace(tau)
    rng = np.random.default_rng(7)
    for _ in range(25):
        p = HalfSpacePoint(2.0 * rng.normal(), math.exp(rng.normal()), rng.normal())
        q = to_disk_model(amb, p)
        j = to_disk_jacobian(amb, p)
        pulled = pullback_metric(metric_cylinder(amb, q), j)
        assert np.allclose(pulled, metric_halfspace(amb, p).matrix, atol=1e-8)


def test_patch_area_flat_hyperbolic_disk():
    # the t = 0 slice over a euclidean disk of radius tanh(R/2) has
    # hyperbolic area 2 pi (cosh R - 1) when tau = 0
    amb = AmbientSpace(0.0)
    R = 1.0
    r_eu = math.tanh(0.5 * R)

    def immersion(u, w):
        return CylinderPoint(u * r_eu * math.cos(w), u * r_eu * math.sin(w), 0.0)

    res = patch_area(amb, immersion, (0.0, 1.0), (0.0, 2.0 * math.pi), n_u=96, n_w=96)
    exact = 2.0 * math.pi * (math.cosh(R) - 1.0)
    assert res.degenerate_samples == 0
    assert abs(res.value - exact) < 2e-3 * exact


def test_patch_area_flags_degenerate_cells():
    amb = AmbientSpace(0.0)
    res = patch_area(
        amb,
        lambda u, w: CylinderPoint(0.1 * u, 0.0, 0.0),  # collapses the w direction
        (0.0, 1.0),
        (0.0, 1.0),
        n_u=4,
        n_w=4,
    )
    assert res.degenerate_samples == 16
    assert res.value == 0.0
