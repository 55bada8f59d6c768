import math

import numpy as np
import pytest

from etau import catenoid as cat
from etau.errors import DomainError, QuadratureError
from etau.models import AmbientSpace, CylinderPoint, patch_area
from etau.numerics import ToleranceConfig, integrate
from reference_checks import (
    reference_asymptotic_height,
    reference_lower_lemma,
    reference_regularized_truncation,
)

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
    assert profile(0.0, 1.0).neck == pytest.approx(math.asinh(1.0), abs=1e-15)
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


def _recording(monkeypatch, name, key):
    original = getattr(cat, name)
    calls = []

    def recorder(*args, **kwargs):
        calls.append(key(*args))
        return original(*args, **kwargs)

    monkeypatch.setattr(cat, name, recorder)
    return calls


@pytest.mark.parametrize("tau", [0.0, 0.5, 1.2])
@pytest.mark.parametrize("fraction", [0.05, 0.5, 0.95])
def test_neck_inversion_evaluates_each_height_once(monkeypatch, tau, fraction):
    amb = AmbientSpace(tau)
    target = fraction * cat.asymptotic_height_supremum(amb)
    height = cat.asymptotic_height
    calls = _recording(monkeypatch, "asymptotic_height", lambda p, *rest: p.d)
    d = cat.neck_parameter_for_height(amb, target)
    assert len(set(calls)) == len(calls)
    assert len(calls) <= 20
    assert abs(height(cat.CatenoidProfile(amb, d)) - target) <= 1e-10


def _counting_integrate(monkeypatch):
    evaluations = []
    original = cat.integrate

    def counting(*args, **kwargs):
        res = original(*args, **kwargs)
        evaluations.append(res.evaluations)
        return res

    monkeypatch.setattr(cat, "integrate", counting)
    return evaluations


def test_neck_inversion_evaluation_budget(monkeypatch):
    # the nine inversions above, summed over every quadrature they run, from
    # an empty height memo; 4,020 measured, the bound leaves about 14 %
    cat._memo_asymptotic_height.cache_clear()
    evaluations = _counting_integrate(monkeypatch)
    for tau in (0.0, 0.5, 1.2):
        amb = AmbientSpace(tau)
        for fraction in (0.05, 0.5, 0.95):
            cat.neck_parameter_for_height(amb, fraction * cat.asymptotic_height_supremum(amb))
    assert sum(evaluations) <= 4_600


def _h0_closed_form(d):
    # tau = 0: d times the integral of (d^2 + sin^2)^(-1/2) over [0, pi/2]
    # is k' K(k) = (pi / 2) k' / AGM(1, k') with k' = d / sqrt(1 + d^2).
    # The AGM converges quadratically; a fixed count covers d >= 1e-4.
    kp = d / math.sqrt(1.0 + d * d)
    a, b = 1.0, kp
    for _ in range(12):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * math.pi * kp / a


@pytest.mark.parametrize("tau", [0.0, 0.5, 1.2])
def test_asymptotic_height_matches_improper_reference(tau):
    for d in np.geomspace(1e-4, 1e6, 21):
        d = float(d)
        got = cat.asymptotic_height(profile(tau, d))
        ref = reference_asymptotic_height(tau, d)
        assert ref.converged
        assert got == pytest.approx(ref.value, abs=5e-11)


def test_asymptotic_height_matches_agm_closed_form():
    for d in np.geomspace(1e-4, 1e6, 41):
        d = float(d)
        got = cat.asymptotic_height(profile(0.0, d))
        assert got == pytest.approx(_h0_closed_form(d), abs=1e-14)


# upper limits gd(t(s)) below and above pi / 4 (sinh(t) = 1), and the
# asymptotic height's pi / 2
UPPER_LIMITS = (math.atan(math.sinh(0.5)), math.atan(math.sinh(2.0)), 0.5 * math.pi)


@pytest.mark.parametrize("tau", [0.0, 0.5, 1.2])
def test_split_height_matches_unsplit_integrand(tau):
    # the split quadrature against the plain phi integral, both at 1e-13
    tight = ToleranceConfig(1e-13, 1e-13)
    amb = AmbientSpace(tau, tol=tight)
    for d in np.geomspace(1e-4, cat._SPLIT_NECK, 9, endpoint=False):
        d = float(d)
        r = math.sqrt(1.0 + d * d)
        for phi_max in UPPER_LIMITS:
            ref = integrate(cat._height_integrand(tau, d), 0.0, phi_max, tight)
            assert ref.converged
            if phi_max == 0.5 * math.pi:
                got = cat.asymptotic_height(cat.CatenoidProfile(amb, d))
            else:
                s = math.acosh(math.hypot(1.0, math.tan(phi_max)) * r)
                got = cat.profile_height(cat.CatenoidProfile(amb, d), s)
            # measured: 4.3e-16 relative at worst
            assert got == pytest.approx(ref.value, rel=1e-13)


@pytest.mark.parametrize("tau", [0.0, 0.5, 1.2])
def test_split_height_is_continuous_across_the_split_neck(tau):
    amb = AmbientSpace(tau)
    below = cat.CatenoidProfile(amb, math.nextafter(cat._SPLIT_NECK, 0.0))
    at = cat.CatenoidProfile(amb, cat._SPLIT_NECK)
    # measured: 4.4e-16 at most, against a tolerance of 1e-10 per height
    assert abs(cat.asymptotic_height(below) - cat.asymptotic_height(at)) <= 1e-13
    for s in (math.acosh(math.cosh(0.5) * math.hypot(1.0, cat._SPLIT_NECK)), 3.0):
        assert abs(cat.profile_height(below, s) - cat.profile_height(at, s)) <= 1e-13


@pytest.mark.parametrize(
    "tol", [ToleranceConfig(), ToleranceConfig(1e-6, 0.0), ToleranceConfig(0.0, 1e-12)]
)
def test_split_height_estimate_meets_the_one_integral_target(tol):
    for tau in (0.0, 1.2):
        for d in np.geomspace(1e-4, cat._SPLIT_NECK, 7, endpoint=False):
            for phi_max in UPPER_LIMITS:
                res = cat._height_quadrature(tau, tol, float(d), phi_max)
                assert res.converged
                assert res.error_estimate <= max(tol.abs_tol, tol.rel_tol * abs(res.value))
                assert res.evaluations <= tol.max_evals


@pytest.mark.parametrize("tau", [0.0, 0.7])
def test_unsplit_heights_keep_the_single_integral(tau):
    # from the split neck up both heights are one phi integral, bit for bit,
    # and so are they at a subnormal d, whose u range would overflow
    amb = AmbientSpace(tau)
    for d in (cat._SPLIT_NECK, 3.0, 10.0, 1e4, 1e-310):
        f = cat._height_integrand(tau, d)
        want = integrate(f, 0.0, 0.5 * math.pi, amb.tol).value
        assert cat.asymptotic_height(cat.CatenoidProfile(amb, d)) == want
        s = cat.truncation_radius(1e4)
        T = cat._height_upper_limit(d, s)
        want = integrate(f, 0.0, math.atan(math.sinh(T)), amb.tol).value
        assert cat.profile_height(cat.CatenoidProfile(amb, d), s) == want


def test_memo_hit_is_bit_identical_to_a_fresh_quadrature(monkeypatch):
    evaluations = _counting_integrate(monkeypatch)
    p = profile(0.4, 0.03)
    cat._memo_asymptotic_height.cache_clear()
    first = cat.asymptotic_height(p)
    runs = len(evaluations)
    assert runs > 0
    assert cat.asymptotic_height(profile(0.4, 0.03)) == first
    assert len(evaluations) == runs
    cat._memo_asymptotic_height.cache_clear()
    assert cat.asymptotic_height(p) == first
    assert len(evaluations) == 2 * runs


def test_memo_keeps_one_entry_per_tolerance():
    cat._memo_asymptotic_height.cache_clear()
    loose = ToleranceConfig(1e-6, 1e-6)
    a = cat.asymptotic_height(cat.CatenoidProfile(AmbientSpace(0.5), 0.2))
    b = cat.asymptotic_height(cat.CatenoidProfile(AmbientSpace(0.5, tol=loose), 0.2))
    assert cat._memo_asymptotic_height.cache_info().currsize == 2
    assert abs(a - b) <= 1e-6
    cat.asymptotic_height(cat.CatenoidProfile(AmbientSpace(0.5, tol=ToleranceConfig()), 0.2))
    assert cat._memo_asymptotic_height.cache_info().currsize == 2


def test_split_height_takes_a_tolerance_whose_half_underflows():
    # half of the least subnormal is 0; a request this far below double
    # precision must end as an unconverged quadrature, not a bad config
    amb = AmbientSpace(0.5, tol=ToleranceConfig(5e-324, 0.0, max_evals=300))
    with pytest.raises(QuadratureError, match="asymptotic height"):
        cat.asymptotic_height(cat.CatenoidProfile(amb, 0.5))


def test_memo_does_not_keep_a_budget_failure(monkeypatch):
    evaluations = _counting_integrate(monkeypatch)
    p = cat.CatenoidProfile(AmbientSpace(0.5, tol=ToleranceConfig(max_evals=15)), 0.1)
    for attempt in (1, 2):
        with pytest.raises(QuadratureError, match="asymptotic height"):
            cat.asymptotic_height(p)
        assert len(evaluations) == attempt


@pytest.mark.parametrize("tau", [0.1, 0.5, 1.2])
def test_asymptotic_height_sandwich(tau):
    # the fiber factor sqrt(1 + 4 tau^2 tanh^2) lies in [1, sqrt(1 + 4 tau^2)]
    stretch = math.sqrt(1.0 + 4.0 * tau * tau)
    for d in np.geomspace(1e-4, 1e6, 21):
        d = float(d)
        h0 = cat.asymptotic_height(profile(0.0, d))
        h = cat.asymptotic_height(profile(tau, d))
        assert h0 <= h <= stretch * h0


def test_connected_boundary_evaluates_each_height_once(monkeypatch):
    calls = _recording(monkeypatch, "profile_height", lambda p, s, *rest: (p.d, s))
    row = cat.connected_boundary_for_height(AmbientSpace(0.0), 1.0)
    assert row.connected_wins
    assert len(set(calls)) == len(calls)


def test_neck_parameter_for_height_rejects_out_of_range():
    amb = AmbientSpace(0.0)
    sup = cat.asymptotic_height_supremum(amb)
    with pytest.raises(DomainError):
        cat.neck_parameter_for_height(amb, sup)
    with pytest.raises(DomainError):
        cat.neck_parameter_for_height(amb, 0.0)


def test_truncation_radius_and_admissibility():
    assert cat.truncation_radius(math.e**2) == pytest.approx(3.0, abs=1e-12)
    amb = AmbientSpace(0.0)
    assert not cat.compare_areas(amb, 2.0, cat.truncation_radius(2.0)).feasible
    assert cat.compare_areas(amb, 10.0, cat.truncation_radius(10.0)).feasible
    with pytest.raises(DomainError):
        cat.truncation_radius(0.0)


def test_regularized_truncation_consistency():
    # acosh((d^3+1) / (2 sqrt(d^3) sqrt(d^2+1))) is the upper limit of the
    # substituted integral at the reference radius
    for d in (5.0, 20.0, 300.0):
        T = reference_regularized_truncation(d)
        direct = cat._height_upper_limit(d, cat.truncation_radius(d))
        assert T == pytest.approx(direct, abs=1e-12)
    with pytest.raises(DomainError):
        reference_regularized_truncation(2.0)


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
    row = cat.compare_areas(amb, 10.0, cat.truncation_radius(10.0))
    assert row.upper_holds and row.area_catenoid < row.upper_bound
    low = cat.compare_areas(amb, 10.0, 2.0)  # inside the neck, so below arcsinh(d + 1)
    assert math.isnan(low.upper_bound) and not low.upper_holds


def test_area_lower_bound_constants_and_condition():
    amb = AmbientSpace(0.5)
    chk = reference_lower_lemma(amb, 100.0)
    assert chk.c1 == pytest.approx(0.5, abs=1e-15)
    assert chk.c2 == pytest.approx(1.2259871559134973, abs=1e-12)
    assert chk.holds
    assert chk.sufficient_condition_holds
    amb0 = AmbientSpace(0.1)
    chk0 = reference_lower_lemma(amb0, 100.0)
    assert chk0.c1 == pytest.approx(0.038461538461538464, abs=1e-15)
    assert chk0.c2 == pytest.approx(1.9352523912293758, abs=1e-12)


def test_compare_areas_infeasible_and_nan_bounds():
    amb = AmbientSpace(0.0)
    row = cat.compare_areas(amb, 5.0, 1.0)  # radius below the neck
    assert not row.feasible and not row.connected_wins
    assert math.isnan(row.area_catenoid)
    assert not row.upper_holds and not row.lower_holds
    small = cat.compare_areas(amb, 1.0, 2.0)  # d^3 < 4: no lower bound
    assert small.feasible
    assert math.isnan(small.lower_bound) and not small.lower_holds
    # neck < R <= arcsinh(d + 1): feasible, but no upper bound
    near = cat.compare_areas(amb, 10.0, 3.05)
    assert math.asinh(10.0) < near.R <= math.asinh(11.0)
    assert near.feasible
    assert math.isnan(near.upper_bound) and not near.upper_holds


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


def test_exhausted_quadrature_budget_raises():
    # one Gauss-Kronrod panel (15 evaluations) cannot meet the default
    # tolerance across the narrow neck of a small-d catenoid
    amb = AmbientSpace(0.5, tol=ToleranceConfig(max_evals=15))
    profile = cat.CatenoidProfile(amb, 0.1)
    with pytest.raises(QuadratureError, match="profile height"):
        cat.profile_height(profile, 2.5)
    with pytest.raises(QuadratureError, match="asymptotic height"):
        cat.asymptotic_height(profile)
    with pytest.raises(QuadratureError, match="annulus area"):
        cat.annulus_area(cat.TruncatedCatenoid(profile, 3.0))
    with pytest.raises(QuadratureError, match="disk area"):
        cat.disk_area(amb, 8.0)
