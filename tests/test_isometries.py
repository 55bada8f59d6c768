import cmath
import math

import numpy as np
import pytest

from etau.errors import DomainError, UsageError
from etau import isometries
from etau.isometries import (
    NEGATIVE,
    POSITIVE,
    LiftedIsometry,
    MobiusIsometry,
    apply_lift_array,
    arg_fprime,
    bounded_lift,
    compute_branch_sector,
    disk_rotation,
    hyperbolic_mobius,
    hyperbolic_translation,
    lift_jacobian_array,
    make_lift,
    mobius_apply,
    mobius_compose,
    mobius_derivative,
    mobius_identity,
    rotation_lift,
    sampled_sup_shift,
    t_shift,
    vertical_translation,
)
from etau.models import (
    BOUNDARY_MARGIN,
    AmbientSpace,
    metric_cylinder,
    pullback_metric,
)
from helpers import criterion_01_draws, fd_jacobian
from reference_checks import (
    reference_apply_lift,
    reference_lift_jacobian,
    reference_metric_cylinder,
    reference_sampled_sup_shift,
    reference_sup_shift_samples,
)

TWO_PI = 2.0 * math.pi


def random_isometry(rng):
    # |w1|^2 - |w2|^2 = 1 via cosh/sinh of a random rapidity
    r = rng.uniform(0.0, 3.0)
    a1 = rng.uniform(0.0, TWO_PI)
    a2 = rng.uniform(0.0, TWO_PI)
    return MobiusIsometry(cmath.rect(math.cosh(r), a1), cmath.rect(math.sinh(r), a2))


def test_normalization_enforced():
    with pytest.raises(UsageError):
        MobiusIsometry(2.0 + 0j, 0j)


def test_identity_and_rotation():
    assert mobius_apply(mobius_identity(), 0.3 + 0.1j) == pytest.approx(0.3 + 0.1j)
    w = mobius_apply(disk_rotation(math.pi / 3.0), 0.5 + 0j)
    assert abs(w - 0.5 * cmath.exp(1j * math.pi / 3.0)) < 1e-14


def test_hyperbolic_origin_image_and_derivative():
    # f fixes -1 and +1, sends 0 to tanh(r), with f'(0) = 1/cosh(r)^2
    r = 0.8
    m = hyperbolic_mobius(r)
    assert abs(mobius_apply(m, 0j) - math.tanh(r)) < 1e-14
    assert m.origin_image_magnitude() == pytest.approx(math.tanh(r))
    assert abs(mobius_apply(m, 1.0 + 0j) - 1.0) < 1e-12
    assert abs(mobius_apply(m, -1.0 + 0j) + 1.0) < 1e-12
    assert abs(mobius_derivative(m, 0j) - 1.0 / math.cosh(r) ** 2) < 1e-14


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = random_isometry(rng)
        z = 0.6 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        h = 1e-7
        fd = (mobius_apply(m, z + h) - mobius_apply(m, z - h)) / (2.0 * h)
        assert abs(mobius_derivative(m, z) - fd) < 1e-6


def test_composition_closure():
    rng = np.random.default_rng(9)
    for _ in range(30):
        a = random_isometry(rng)
        b = random_isometry(rng)
        c = mobius_compose(a, b)
        n = abs(c.w1) ** 2 - abs(c.w2) ** 2
        assert abs(n - 1.0) < 1e-9
        for z in (0j, 0.4 + 0.2j, -0.7j):
            assert abs(mobius_apply(c, z) - mobius_apply(a, mobius_apply(b, z))) < 1e-9


def test_disk_maps_into_disk():
    rng = np.random.default_rng(2)
    for _ in range(200):
        m = random_isometry(rng)
        z = math.sqrt(rng.uniform(0, 1)) * cmath.exp(1j * rng.uniform(0, TWO_PI))
        assert abs(mobius_apply(m, z)) < 1.0 + 1e-12


def test_sector_width_formula():
    rng = np.random.default_rng(4)
    for _ in range(30):
        m = random_isometry(rng)
        sector = compute_branch_sector(m)
        want = 4.0 * math.asin(m.origin_image_magnitude())
        assert abs(sector.width - want) < 1e-12


def test_sector_degenerates_for_rotations():
    sector = compute_branch_sector(disk_rotation(1.2))
    assert sector.width == 0.0


def test_arg_fprime_is_a_branch_of_the_argument():
    rng = np.random.default_rng(6)
    for _ in range(10):
        m = random_isometry(rng)
        sector = compute_branch_sector(m)
        for _ in range(20):
            z = 0.95 * math.sqrt(rng.uniform(0, 1)) * cmath.exp(1j * rng.uniform(0, TWO_PI))
            a = arg_fprime(m, z, sector)
            fp = mobius_derivative(m, z)
            assert abs(cmath.exp(1j * a) - fp / abs(fp)) < 1e-10
            assert sector.theta1 - 1e-12 <= a <= sector.theta2 + 1e-12


def test_arg_fprime_continuous_along_boundary_hugging_loop():
    # the principal value jumps on such a loop; the sector branch must not
    m = hyperbolic_mobius(2.5)
    sector = compute_branch_sector(m)
    ang = np.linspace(0.0, TWO_PI, 200_000)
    vals = arg_fprime(m, 0.999 * np.exp(1j * ang), sector)
    # a lost branch would jump by about 2 pi; smooth variation stays tiny
    assert np.abs(np.diff(vals)).max() < 0.01
    assert vals[0] == pytest.approx(vals[-1])


def test_vertical_translation_and_rotation_lift():
    amb = AmbientSpace(0.7)
    p = np.array([[0.3, -0.2, 0.5]])
    q = apply_lift_array(vertical_translation(amb, 1.25), p)
    assert q.shape == (1, 3)
    assert q[0, :2].tolist() == p[0, :2].tolist() and abs(q[0, 2] - p[0, 2] - 1.25) < 1e-14
    q = apply_lift_array(rotation_lift(amb, 1.0), p)
    w = complex(0.3, -0.2) * cmath.exp(1j)
    assert abs(complex(q[0, 0], q[0, 1]) - w) < 1e-14
    assert abs(q[0, 2] - p[0, 2]) < 1e-14


def test_t_shift_requires_positive_lift():
    amb = AmbientSpace(0.5)
    lift = make_lift(amb, hyperbolic_mobius(1.0), 0.0, NEGATIVE)
    with pytest.raises(UsageError):
        t_shift(lift, 0j)


@pytest.mark.parametrize("tau", [0.1, 0.5, 1.0])
def test_bounded_lift_strict_bound(tau):
    amb = AmbientSpace(tau)
    rng = np.random.default_rng(12)
    bound = 2.0 * tau * math.pi
    for _ in range(15):
        lift = bounded_lift(amb, random_isometry(rng))
        sup, _ = sampled_sup_shift(lift, n_random=2000, ring_samples=512)
        assert sup < bound


def test_bounded_lift_sharpness():
    amb = AmbientSpace(0.5)
    m = hyperbolic_mobius(2.0 * math.atanh(1.0 - 1e-6))
    sup, _ = sampled_sup_shift(bounded_lift(amb, m))
    assert sup > 0.99 * 2.0 * amb.tau * math.pi


def test_lift_jacobian_matches_finite_differences():
    amb = AmbientSpace(0.5)
    rng = np.random.default_rng(8)
    for orientation in ("positive", "negative"):
        for _ in range(5):
            m = random_isometry(rng)
            lift = make_lift(amb, m, 0.3, orientation)
            p = np.array([0.2, -0.4, 0.7])
            j = lift_jacobian_array(lift, p[None])[0]
            fd = fd_jacobian(lambda arr: apply_lift_array(lift, arr[None])[0], p)
            assert np.allclose(j, fd, atol=1e-6)


@pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("orientation", ["positive", "negative"])
def test_lift_pullback_is_isometry(tau, orientation):
    amb = AmbientSpace(tau)
    rng = np.random.default_rng(21)
    for _ in range(10):
        lift = make_lift(amb, random_isometry(rng), rng.normal(), orientation)
        z = 0.9 * math.sqrt(rng.uniform(0, 1)) * cmath.exp(1j * rng.uniform(0, TWO_PI))
        p = np.array([[z.real, z.imag, rng.normal()]])
        q = apply_lift_array(lift, p)
        j = lift_jacobian_array(lift, p)
        pulled = pullback_metric(metric_cylinder(amb, q), j)
        assert np.allclose(pulled, metric_cylinder(amb, p), atol=1e-7)


@pytest.mark.parametrize("orientation", [POSITIVE, NEGATIVE])
def test_array_lift_matches_scalar_reference(orientation):
    # Criterion 1's 40,000 points.  Measured worst deviations: 7.1e-15 on the
    # images (t adds the shift in another order), 2.1e-14 on the Jacobians
    # (numpy and Python divide complex numbers differently) and 4.2e-11 on
    # pullbacks whose entries reach 465; both orientations alike.
    worst_image = worst_jacobian = worst_pullback = 0.0
    for tau, m, c, v in criterion_01_draws():
        lift = make_lift(AmbientSpace(tau), m, c, orientation)
        images = apply_lift_array(lift, v)
        jacobians = lift_jacobian_array(lift, v)
        pulled = pullback_metric(metric_cylinder(AmbientSpace(tau), images), jacobians)
        qs = [reference_apply_lift(lift, p) for p in v]
        js = [reference_lift_jacobian(lift, p) for p in v]
        gs = [j.T @ reference_metric_cylinder(tau, q[0], q[1]) @ j for q, j in zip(qs, js)]
        worst_image = max(worst_image, np.abs(images - np.array(qs)).max())
        worst_jacobian = max(worst_jacobian, np.abs(jacobians - np.array(js)).max())
        worst_pullback = max(worst_pullback, np.abs(pulled - np.array(gs)).max())
    assert worst_image < 5e-14
    assert worst_jacobian < 1e-13
    assert worst_pullback < 2e-10


def test_scalar_metric_and_pullback_keep_their_bits():
    rng = np.random.default_rng(5)
    for tau in (0.0, 0.3, 1.0):
        amb = AmbientSpace(tau)
        for _ in range(50):
            z = 0.99 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0.0, TWO_PI))
            p = np.array([[z.real, z.imag, rng.normal()]])
            g = reference_metric_cylinder(tau, z.real, z.imag)
            assert np.array_equal(metric_cylinder(amb, p)[0], g)
            j = rng.normal(size=(3, 3))
            assert np.array_equal(pullback_metric(metric_cylinder(amb, p)[0], j), j.T @ g @ j)


@pytest.mark.parametrize("orientation", [POSITIVE, NEGATIVE])
def test_array_lift_names_the_bad_row(orientation):
    lift = make_lift(AmbientSpace(0.5), hyperbolic_mobius(0.7), 0.2, orientation)
    edge = 1.0 - 0.25 * BOUNDARY_MARGIN  # inside the unit circle but within the margin
    for bad in ([edge, 0.0, 0.0], [0.1, 0.2, math.inf], [math.nan, 0.0, 0.0]):
        v = np.array([[0.1, 0.2, 0.3], [0.0, 0.0, 0.0], bad])
        for core in (apply_lift_array, lift_jacobian_array):
            with pytest.raises(DomainError, match="vertex row 2 = "):
                core(lift, v)
    with pytest.raises(UsageError, match=r"shape \(n, 3\)"):
        apply_lift_array(lift, np.zeros(3))
    assert apply_lift_array(lift, np.zeros((0, 3))).shape == (0, 3)
    assert lift_jacobian_array(lift, np.zeros((0, 3))).shape == (0, 3, 3)


def test_sampled_sup_is_deterministic():
    lift = hyperbolic_translation(AmbientSpace(0.3), 1.7)
    a = sampled_sup_shift(lift)
    b = sampled_sup_shift(lift)
    assert a == b


@pytest.mark.parametrize(
    "tau, distance, n_random, seed, ring_depths, ring_samples",
    [
        (0.3, 1.7, 10_000, 0, (1e-3, 1e-6, 1e-9), 2048),
        (0.5, 4.0, 2000, 7, (1e-3, 1e-6, 1e-9), 512),
        (1.2, 0.2, 500, 123456789, [1e-2], 64),
        (0.1, 3.0, 0, 3, (1e-4, 1e-8), 100),
        (0.7, 2.3, 1, 2**31 - 1, (), 2048),
    ],
)
def test_sampled_sup_matches_reference_bit_for_bit(
    tau, distance, n_random, seed, ring_depths, ring_samples
):
    lift = hyperbolic_translation(AmbientSpace(tau), distance)
    got = isometries._sup_shift_samples(n_random, seed, ring_depths, ring_samples)
    want = reference_sup_shift_samples(n_random, seed, ring_depths, ring_samples)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(float), want.view(float))
    assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))
    args = dict(n_random=n_random, seed=seed, ring_depths=ring_depths, ring_samples=ring_samples)
    assert sampled_sup_shift(lift, **args) == reference_sampled_sup_shift(lift, **args)
    # a second call reads the cached rings and gives the same bits
    again = isometries._sup_shift_samples(n_random, seed, ring_depths, ring_samples)
    assert np.array_equal(again.view(float), got.view(float))


@pytest.mark.parametrize(
    "args",
    [
        dict(n_random=-1),
        dict(seed=-1),
        dict(ring_samples=-1),
        dict(n_random=0, ring_samples=0),
        dict(n_random=0, ring_depths=()),
        dict(ring_depths=(-0.5,)),
        dict(ring_depths=(0.0,)),
        dict(ring_depths=(1e-3, float("nan"))),
        dict(ring_depths=(1.5,)),
        dict(ring_depths=(float("inf"),)),
    ],
)
def test_sampled_sup_rejects_negative_counts_and_empty_samples(args):
    lift = hyperbolic_translation(AmbientSpace(0.3), 1.7)
    bad = [d for d in args.get("ring_depths", ()) if not 0.0 < d <= 1.0]
    with pytest.raises(DomainError, match=repr(bad[0]) if bad else None):
        sampled_sup_shift(lift, **args)


def test_sampled_sup_accepts_the_deepest_ring():
    # depth 1 is the ring of radius 0, the disk's center
    lift = hyperbolic_translation(AmbientSpace(0.5), 2.0)
    sup, z = sampled_sup_shift(lift, n_random=0, ring_depths=(1.0,), ring_samples=4)
    assert z == 0j and sup < 2.0 * 0.5 * math.pi


def test_sampled_sup_rings_are_built_once_and_read_only():
    rings = isometries._boundary_rings((1e-3, 1e-6), 256)
    assert rings is isometries._boundary_rings((1e-3, 1e-6), 256)
    assert not rings.flags.writeable
    with pytest.raises(ValueError):
        rings[0] = 0.0


def test_lifted_isometry_rejects_bad_orientation():
    amb = AmbientSpace(0.1)
    with pytest.raises(UsageError):
        LiftedIsometry(amb.tau, mobius_identity(), 0.0, "sideways", compute_branch_sector(mobius_identity()))
