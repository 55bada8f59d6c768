import math

import numpy as np
import pytest

from etau.errors import DomainError, UsageError
from etau.models import (
    AmbientSpace,
    BOUNDARY_MARGIN,
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


def test_ambient_takes_tolerances_only_as_a_config():
    # a bare float fails at construction, not inside the first quadrature
    with pytest.raises(UsageError, match="ToleranceConfig"):
        AmbientSpace(0.5, 1e-8)


CYLINDER_FUNCTIONS = [metric_cylinder, to_halfspace_model]
HALFSPACE_FUNCTIONS = [metric_halfspace, to_disk_model, to_disk_jacobian]


def test_cylinder_point_must_be_inside_disk():
    amb = AmbientSpace(0.5)
    edge = 1.0 - 0.25 * BOUNDARY_MARGIN  # inside the unit circle but within the margin
    for bad in ([1.0, 0.0, 0.0], [0.8, 0.7, 0.0], [edge, 0.0, 0.0]):
        for fn in CYLINDER_FUNCTIONS:
            with pytest.raises(DomainError, match=r"vertex row 1 = .* open unit disk"):
                fn(amb, [[0.1, -0.2, 0.3], bad])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("index", [0, 1, 2])
def test_points_reject_non_finite_coordinates(index, bad):
    amb = AmbientSpace(0.5)
    cyl = [0.1, -0.2, 0.3]
    cyl[index] = bad
    for fn in CYLINDER_FUNCTIONS:
        with pytest.raises(DomainError, match=r"vertex row 1 = "):
            fn(amb, [[0.0, 0.0, 0.0], cyl])
    half = [0.1, 1.5, 0.3]
    half[index] = bad
    for fn in HALFSPACE_FUNCTIONS:
        with pytest.raises(DomainError, match=r"vertex row 1 = "):
            fn(amb, [[0.0, 1.0, 0.0], half])


def test_halfspace_point_needs_positive_y():
    amb = AmbientSpace(0.5)
    for y in (0.0, -1.0, 0.25 * BOUNDARY_MARGIN):
        for fn in HALFSPACE_FUNCTIONS:
            with pytest.raises(DomainError, match=r"vertex row 0 = .* half-space"):
                fn(amb, [[0.3, y, 0.0]])


@pytest.mark.parametrize("fn", CYLINDER_FUNCTIONS + HALFSPACE_FUNCTIONS)
def test_model_functions_take_n_by_3_rows(fn):
    amb = AmbientSpace(0.5)
    for shape in [(3,), (2, 2), (1, 3, 1), (4, 3, 3)]:
        with pytest.raises(UsageError, match=r"shape \(n, 3\)"):
            fn(amb, np.full(shape, 0.5))
    assert fn(amb, np.zeros((0, 3))).shape[0] == 0
    assert fn(amb, [[0.1, 0.5, 0.2]] * 4).shape[0] == 4


def test_model_change_names_the_row_whose_image_hits_the_margin():
    # both margins are 1e-12, so each direction of the model change is partial
    amb = AmbientSpace(0.5)
    far = [1e6, 1e-3, 0.0]  # its image lies within the margin of the unit circle
    with pytest.raises(DomainError, match=r"vertex row 1 = \[1000000\.0, 0\.001, 0\.0\] maps"):
        to_disk_model(amb, [[0.0, 1.0, 0.0], far])
    near = [-math.sqrt(1.0 - 1.5e-12), 0.0, 0.0]  # its image has y = 3.75e-13
    with pytest.raises(DomainError, match=r"vertex row 0 = \[%r, 0\.0, 0\.0\] maps" % near[0]):
        to_halfspace_model(amb, [near])


def test_conformal_factor_center_and_known_point():
    assert conformal_factor(0.0, 0.0) == 2.0
    assert abs(conformal_factor(0.5, 0.0) - 8.0 / 3.0) < 1e-15
    for x, y in [(1.0, 0.0), (0.6, 0.8), (np.float64(0.0), np.float64(-1.0)), (1.5, 0.0)]:
        with pytest.raises(DomainError):
            conformal_factor(x, y)


def test_cylinder_metric_known_components():
    # at (1/2, 0), tau = 1: lam = 8/3, A = 0, B = -8/3
    amb = AmbientSpace(1.0)
    g = metric_cylinder(amb, [[0.5, 0.0, 0.0]])[0]
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
        g = metric_cylinder(amb, [[x, y, 0.0]])[0]
        lam = conformal_factor(x, y)
        assert abs(np.linalg.det(g) - lam**4) < 1e-8 * lam**4


def test_halfspace_metric_known_components():
    amb = AmbientSpace(1.0)
    g = metric_halfspace(amb, [[0.0, 1.0, 0.0]])[0]
    expected = np.array([[5.0, 0.0, -2.0], [0.0, 1.0, 0.0], [-2.0, 0.0, 1.0]])
    assert np.allclose(g, expected, atol=1e-14)


def test_product_case_has_no_cross_terms():
    g = metric_cylinder(AmbientSpace(0.0), [[0.3, 0.2, 1.0]])[0]
    assert g[0, 2] == 0.0 and g[1, 2] == 0.0 and g[0, 1] == 0.0


@pytest.mark.parametrize("tau", [0.0, 0.1, 0.5, 1.0])
def test_model_change_roundtrip(tau):
    amb = AmbientSpace(tau)
    rng = np.random.default_rng(11)
    p = np.array([(rng.normal(), math.exp(rng.normal()), rng.normal()) for _ in range(50)])
    back = to_halfspace_model(amb, to_disk_model(amb, p))
    assert (np.abs(back[:, :2] - p[:, :2]) < 1e-9 * np.maximum(1.0, np.abs(p[:, :2]))).all()
    assert (np.abs(back[:, 2] - p[:, 2]) < 1e-9).all()


def test_model_change_sends_i_to_origin():
    q = to_disk_model(AmbientSpace(0.5), [[0.0, 1.0, 0.0]])
    assert q.shape == (1, 3) and (np.abs(q) < 1e-15).all()


def test_model_change_jacobian_matches_finite_differences():
    amb = AmbientSpace(0.5)
    p = np.array([0.7, 1.3, -0.2])
    j = to_disk_jacobian(amb, p[None])[0]
    j_fd = fd_jacobian(lambda arr: to_disk_model(amb, arr[None])[0], p)
    assert np.allclose(j, j_fd, atol=1e-6)


def isometry_draws(rng):
    """25 half-space rows (2 N(0, 1), exp N(0, 1), N(0, 1)), drawn row by row."""
    return np.array(
        [(2.0 * rng.normal(), math.exp(rng.normal()), rng.normal()) for _ in range(25)]
    )


@pytest.mark.parametrize("tau", [0.0, 0.1, 0.5, 1.0])
def test_model_change_is_isometry(tau):
    amb = AmbientSpace(tau)
    rng = np.random.default_rng(7)
    p = isometry_draws(rng)
    pulled = pullback_metric(metric_cylinder(amb, to_disk_model(amb, p)), to_disk_jacobian(amb, p))
    assert np.allclose(pulled, metric_halfspace(amb, p), atol=1e-8)


@pytest.mark.parametrize("tau", [0.0, 0.1, 0.5, 1.0])
def test_metrics_are_symmetric_positive_definite(tau):
    # the points of test_model_change_is_isometry, in both models
    amb = AmbientSpace(tau)
    rng = np.random.default_rng(7)
    p = isometry_draws(rng)
    for g in (metric_halfspace(amb, p), metric_cylinder(amb, to_disk_model(amb, p))):
        assert g.shape == (25, 3, 3)
        assert np.array_equal(g, np.swapaxes(g, 1, 2))
        assert (np.linalg.eigvalsh(g) > 0.0).all()


def test_patch_area_flat_hyperbolic_disk():
    # the t = 0 slice over a euclidean disk of radius tanh(R/2) has
    # hyperbolic area 2 pi (cosh R - 1) when tau = 0
    amb = AmbientSpace(0.0)
    R = 1.0
    r_eu = math.tanh(0.5 * R)

    def immersion(u, w):
        return np.stack([u * r_eu * np.cos(w), u * r_eu * np.sin(w), np.zeros_like(u)], axis=-1)

    res = patch_area(amb, immersion, (0.0, 1.0), (0.0, 2.0 * math.pi), n_u=96, n_w=96)
    exact = 2.0 * math.pi * (math.cosh(R) - 1.0)
    assert res.degenerate_samples == 0
    assert abs(res.value - exact) < 2e-3 * exact


def test_patch_area_flags_degenerate_cells():
    amb = AmbientSpace(0.0)
    res = patch_area(
        amb,
        # collapses the w direction
        lambda u, w: np.stack([0.1 * u, np.zeros_like(u), np.zeros_like(u)], axis=-1),
        (0.0, 1.0),
        (0.0, 1.0),
        n_u=4,
        n_w=4,
    )
    assert res.degenerate_samples == 16
    assert res.value == 0.0


def test_patch_area_checks_the_immersion():
    amb = AmbientSpace(0.0)
    with pytest.raises(UsageError, match="immersion"):
        patch_area(amb, lambda u, w: np.stack([u, w], axis=-1), (0.0, 1.0), (0.0, 1.0), 2, 2)
    # the one cell is centred at x = 0.9, and its +u probe at x = 1.1 leaves the disk
    with pytest.raises(DomainError, match=r"vertex row 1 = \[1\.1"):
        patch_area(
            amb,
            lambda u, w: np.stack([u, np.zeros_like(u), w], axis=-1),
            (0.5, 1.3),
            (0.0, 1.0),
            1,
            1,
        )
