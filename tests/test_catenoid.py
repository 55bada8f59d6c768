import math

import numpy as np
import pytest

from etau import catenoid as cat
from etau.errors import DomainError, QuadratureError
from etau.models import AmbientSpace, CylinderPoint, patch_area
from etau.numerics import ToleranceConfig

# high-precision reference values, frozen from an independent multiprecision
# quadrature of the defining integrals (40 digits, tanh-sinh rule)
U_REF = [
    (0.5, 2.0, 3.0, 1.5796418736745025),
    (0.0, 1.0, 2.0, 1.0351484796736075),
    (1.0, 0.5, 4.0, 1.3643424569930909),
]
H_REF = [
    (0.0, 1.0, 1.3110287771460599),
    (0.5, 1e6, 2.2214407619722631),
    (0.1, 2.0, 1.5012115444233521),
]
GAP_AT_1E4 = {
    0.0: 0.020001337500387956,
    0.1: 0.020401363278512163,
    0.5: 0.028356855127853398,
    1.0: 0.044903191518995677,
}
ANNULUS_REF = (0.5, 2.0, 3.0, 153.41007433517589)
DISK_REF = (0.7, 3.0, 84.528152347275948)


def profile(tau, d):
    return cat.CatenoidProfile(AmbientSpace(tau), d)


def test_neck_radius():
    assert cat.neck_radius(1.0) == pytest.approx(math.asinh(1.0), abs=1e-15)
    assert profile(0.0, 2.5).neck == pytest.approx(math.asinh(2.5), abs=1e-15)


def test_profile_rejects_bad_neck_parameter():
    with pytest.raises(DomainError):
        profile(0.0, 0.0)
    with pytest.raises(DomainError):
        profile(0.0, -1.0)


@pytest.mark.parametrize("tau, d, s, want", U_REF)
def test_profile_height_reference_values(tau, d, s, want):
    assert cat.profile_height(profile(tau, d), s) == pytest.approx(want, abs=1e-11)


def test_profile_height_below_neck_raises():
    p = profile(0.0, 1.0)
    with pytest.raises(DomainError):
        cat.profile_height(p, 0.5 * p.neck)


def test_profile_height_vanishes_at_neck():
    p = profile(0.3, 2.0)
    assert cat.profile_height(p, p.neck) == 0.0


def test_product_profile_matches_tau_zero():
    for d, s in [(1.0, 2.0), (3.0, 2.5), (0.2, 1.0)]:
        a = cat.product_profile_height(d, s)
        b = cat.profile_height(profile(0.0, d), s)
        assert a == pytest.approx(b, abs=1e-12)


@pytest.mark.parametrize("tau, d, want", H_REF)
def test_asymptotic_height_reference_values(tau, d, want):
    assert cat.asymptotic_height(profile(tau, d)) == pytest.approx(want, abs=1e-10)


def test_asymptotic_height_increasing_and_bounded():
    amb = AmbientSpace(0.5)
    sup = cat.asymptotic_height_supremum(amb)
    assert sup == pytest.approx(0.5 * math.pi * math.sqrt(2.0), abs=1e-15)
    grid = np.geomspace(1e-2, 1e4, 15)
    values = [cat.asymptotic_height(cat.CatenoidProfile(amb, float(d))) for d in grid]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(v < sup for v in values)


def test_profile_height_increasing_in_radius():
    p = profile(0.2, 1.5)
    ss = np.linspace(p.neck + 1e-6, p.neck + 5.0, 12)
    us = [cat.profile_height(p, float(s)) for s in ss]
    assert all(b > a for a, b in zip(us, us[1:]))


@pytest.mark.parametrize("tau", sorted(GAP_AT_1E4))
def test_height_gap_at_reference_radius(tau):
    amb = AmbientSpace(tau)
    p = cat.CatenoidProfile(amb, 1e4)
    gap = cat.asymptotic_height_supremum(amb) - cat.profile_height(p, cat.truncation_radius(1e4))
    assert gap == pytest.approx(GAP_AT_1E4[tau], abs=1e-10)
    # relative to the supremum the truncated height is within 2 percent
    assert gap < 0.02 * cat.asymptotic_height_supremum(amb)


def test_neck_parameter_for_height_roundtrip():
    amb = AmbientSpace(0.25)
    for target in (0.2, 1.0, 1.5):
        d = cat.neck_parameter_for_height(amb, target)
        got = cat.asymptotic_height(cat.CatenoidProfile(amb, d))
        assert got == pytest.approx(target, abs=1e-8)


def test_neck_parameter_for_height_rejects_out_of_range():
    amb = AmbientSpace(0.0)
    sup = cat.asymptotic_height_supremum(amb)
    with pytest.raises(DomainError):
        cat.neck_parameter_for_height(amb, sup)
    with pytest.raises(DomainError):
        cat.neck_parameter_for_height(amb, 0.0)


def test_truncation_radius_and_admissibility():
    assert cat.truncation_radius(math.e**2) == pytest.approx(3.0, abs=1e-12)
    assert not cat.truncation_is_admissible(2.0)
    assert cat.truncation_is_admissible(10.0)
    with pytest.raises(DomainError):
        cat.truncation_radius(0.0)


def test_regularized_truncation_consistency():
    # acosh((d^3+1) / (2 sqrt(d^3) sqrt(d^2+1))) is the upper limit of the
    # substituted integral at the reference radius
    for d in (5.0, 20.0, 300.0):
        T = cat.regularized_truncation(d)
        direct = cat._height_upper_limit(d, cat.truncation_radius(d))
        assert T == pytest.approx(direct, abs=1e-12)
    with pytest.raises(DomainError):
        cat.regularized_truncation(2.0)


def test_annulus_area_reference_value():
    tau, d, R, want = ANNULUS_REF
    trunc = cat.TruncatedCatenoid(profile(tau, d), R)
    assert cat.annulus_area(trunc) == pytest.approx(want, rel=1e-11)


def test_truncation_must_clear_the_neck():
    p = profile(0.0, 1.0)
    with pytest.raises(DomainError):
        cat.TruncatedCatenoid(p, p.neck)
    # area vanishes like sqrt(R - neck): the profile leaves the neck vertically
    tiny = cat.annulus_area(cat.TruncatedCatenoid(p, p.neck + 1e-8))
    assert 0.0 < tiny < 1e-2


def test_annulus_area_agrees_with_metric_patch_area():
    # independent check through the ambient metric: parametrize the upper
    # half by (s, theta) and integrate the Gram determinant
    tau, d, R = 0.5, 2.0, 3.0
    amb = AmbientSpace(tau)
    p = cat.CatenoidProfile(amb, d)

    def immersion(s, theta):
        r = math.tanh(0.5 * s)
        return CylinderPoint(
            r * math.cos(theta), r * math.sin(theta), cat.profile_height(p, s)
        )

    res = patch_area(amb, immersion, (p.neck + 1e-4, R), (0.0, 2.0 * math.pi), n_u=80, n_w=48)
    half = 0.5 * cat.annulus_area(cat.TruncatedCatenoid(p, R))
    assert res.value == pytest.approx(half, rel=2e-2)


def test_disk_area_reference_and_closed_form():
    tau, R, want = DISK_REF
    amb = AmbientSpace(tau)
    assert cat.disk_area(amb, R) == pytest.approx(want, rel=1e-11)
    assert cat.disk_area_closed_form(amb, R) == pytest.approx(want, rel=1e-11)


def test_disk_area_product_case():
    amb = AmbientSpace(0.0)
    for R in (0.5, 2.0, 5.0):
        want = 2.0 * math.pi * (math.cosh(R) - 1.0)
        assert cat.disk_area_closed_form(amb, R) == pytest.approx(want, abs=1e-10 * want)


def test_disk_area_zero_radius():
    amb = AmbientSpace(0.3)
    assert cat.disk_area(amb, 0.0) == 0.0
    assert cat.disk_area_closed_form(amb, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_area_upper_bound_holds_and_guards():
    amb = AmbientSpace(0.1)
    chk = cat.check_area_upper_bound(amb, 10.0, cat.truncation_radius(10.0))
    assert chk.holds and chk.area < chk.bound
    with pytest.raises(DomainError):
        cat.check_area_upper_bound(amb, 10.0, 2.0)  # below arcsinh(d + 1)


def test_area_lower_bound_constants_and_condition():
    amb = AmbientSpace(0.5)
    chk = cat.check_area_lower_bound(amb, 100.0)
    assert chk.c1 == pytest.approx(0.5, abs=1e-15)
    assert chk.c2 == pytest.approx(1.2259871559134973, abs=1e-12)
    assert chk.holds
    assert chk.sufficient_condition_holds
    amb0 = AmbientSpace(0.1)
    chk0 = cat.check_area_lower_bound(amb0, 100.0)
    assert chk0.c1 == pytest.approx(0.038461538461538464, abs=1e-15)
    assert chk0.c2 == pytest.approx(1.9352523912293758, abs=1e-12)


def test_compare_areas_infeasible_and_nan_bounds():
    amb = AmbientSpace(0.0)
    row = cat.compare_areas(amb, 5.0, 1.0)  # radius below the neck
    assert not row.feasible and not row.connected_wins
    assert math.isnan(row.area_catenoid)
    small = cat.compare_areas(amb, 1.0, 2.0)  # d^3 < 4: no lower bound
    assert small.feasible
    assert math.isnan(small.lower_bound)


@pytest.mark.parametrize("tau", [0.0, 0.5])
def test_find_crossover(tau):
    amb = AmbientSpace(tau)
    res = cat.find_crossover(amb, cat.default_crossover_grid(9))
    assert res.found and res.monotone
    assert res.crossover_d is not None
    row = next(r for r in res.rows if r.d == res.crossover_d)
    assert row.connected_wins


def test_connected_boundary_reference_solution():
    amb = AmbientSpace(0.0)
    row = cat.connected_boundary_for_height(amb, 1.0)
    assert row.d == pytest.approx(13.794371962547302, rel=1e-6)
    assert row.R == pytest.approx(3.9363910217641287, rel=1e-6)
    assert row.connected_wins
    assert row.area_catenoid == pytest.approx(270.6496105, rel=1e-6)
    assert row.area_two_disks == pytest.approx(309.4650076, rel=1e-6)
    got_h = cat.profile_height(cat.CatenoidProfile(amb, row.d), row.R)
    assert got_h == pytest.approx(1.0, abs=1e-7)


def test_connected_boundary_rejects_unreachable_height():
    amb = AmbientSpace(0.0)
    with pytest.raises(DomainError):
        cat.connected_boundary_for_height(amb, cat.asymptotic_height_supremum(amb) + 0.1)


def test_annulus_vertex_grid_shape_and_symmetry():
    trunc = cat.TruncatedCatenoid(profile(0.2, 3.0), 4.0)
    grid = cat.annulus_vertex_grid(trunc, 9, 12)
    assert grid.shape == (9, 12, 3)
    # antisymmetric heights, mirror-symmetric radii
    assert np.allclose(grid[:, :, 2], -grid[::-1, :, 2], atol=1e-12)
    r = np.hypot(grid[:, 0, 0], grid[:, 0, 1])
    assert np.allclose(r, r[::-1], atol=1e-12)
    assert r[0] == pytest.approx(math.tanh(0.5 * 4.0), abs=1e-12)
    assert r[4] == pytest.approx(math.tanh(0.5 * trunc.profile.neck), abs=1e-12)
    assert np.allclose(grid[0, :, 2], -cat.profile_height(trunc.profile, 4.0), atol=1e-12)


def test_sample_annulus_rows():
    trunc = cat.TruncatedCatenoid(profile(0.0, 1.0), 2.5)
    upper, lower = cat.sample_annulus(trunc, 4, 6)
    assert len(upper) == 4 and len(lower) == 4
    assert all(len(row) == 6 for row in upper)
    assert upper[0][0].t == 0.0  # neck row
    assert upper[-1][0].t == pytest.approx(cat.profile_height(trunc.profile, 2.5))
    assert lower[-1][0].t == pytest.approx(-upper[-1][0].t)



def test_exhausted_quadrature_budget_raises():
    # one Gauss-Kronrod panel (15 evaluations) cannot meet the default tolerance
    amb = AmbientSpace(0.5, tol=ToleranceConfig(max_evals=15))
    profile = cat.CatenoidProfile(amb, 2.0)
    with pytest.raises(QuadratureError, match="profile height"):
        cat.profile_height(profile, 2.5)
    with pytest.raises(QuadratureError, match="asymptotic height"):
        cat.asymptotic_height(profile)
    with pytest.raises(QuadratureError, match="annulus area"):
        cat.annulus_area(cat.TruncatedCatenoid(profile, 3.0))
    with pytest.raises(QuadratureError, match="disk area"):
        cat.disk_area(amb, 8.0)
