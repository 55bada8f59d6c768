import math

import numpy as np
import pytest

from etau import barriers as bar
from etau.errors import DomainError, UsageError
from etau.models import AmbientSpace
from helpers import dense_polyline, same_bits
from reference_checks import (
    reference_containment_sweep,
    reference_gamma_curves,
    reference_horizontal_circle,
    reference_raw_fiber_shift,
    reference_rectangle_boundary,
    reference_rotated,
    reference_translated,
)

SQRT2 = math.sqrt(2.0)
TWO_PI = 2.0 * math.pi


def test_half_angle_identity():
    # -4 tau arctan(sin t / (1 + cos t)) collapses to -2 tau t on (-pi, pi)
    tau = 0.7
    for th in np.linspace(-3.1, 3.1, 101):
        assert abs(reference_raw_fiber_shift(tau, th) + 2.0 * tau * th) < 1e-12


def test_min_rectangle_height():
    assert bar.min_rectangle_height(AmbientSpace(0.0)) == pytest.approx(math.pi)
    assert bar.min_rectangle_height(AmbientSpace(0.5)) == pytest.approx(math.pi * SQRT2)


def test_boundary_curve_validation():
    with pytest.raises(DomainError):
        bar.BoundaryCurve([0.0], [0.0], closed=False)
    with pytest.raises(DomainError):
        bar.BoundaryCurve([0.0, 0.1], [0.0, 0.0], closed=False)
    # closed curves must also satisfy the resolution contract on the wrap pair
    bad = [k * 0.01 for k in range(100)]
    bar.BoundaryCurve(bad, np.zeros(100), closed=False)
    with pytest.raises(DomainError):
        bar.BoundaryCurve(bad, np.zeros(100), closed=True)


def test_boundary_curve_names_first_wide_pair():
    # two wide gaps, 0.03 -> 0.1 and 0.2 -> 0.3; the message names the first
    theta = [0.0, 0.01, 0.02, 0.03, 0.1, 0.11, 0.2, 0.3]
    with pytest.raises(DomainError, match=r"contract: 0\.03 to 0\.1$"):
        bar.BoundaryCurve(theta, np.zeros(8), closed=False)
    # closed: only the wrap pair is wide, and it is named last sample first
    wrap = [k * 0.01 for k in range(100)]
    with pytest.raises(DomainError, match=r"contract: 0\.99 to 0\.0$"):
        bar.BoundaryCurve(wrap, np.zeros(100), closed=True)


def test_boundary_curve_arrays_are_stored_read_only():
    c = bar.horizontal_circle(1.0, 360)
    assert c.theta_array() is c.theta_array() and c.t_array() is c.t_array()
    np.testing.assert_array_equal(c.theta_array(), np.arange(360) * (TWO_PI / 360))
    np.testing.assert_array_equal(c.t_array(), np.ones(360))
    with pytest.raises(ValueError):
        c.t_array()[0] = 2.0
    assert c == bar.horizontal_circle(1.0, 360)


def test_from_arrays_checks_like_the_constructor():
    theta = np.array([0.0, 0.01, 0.02, 0.03, 0.1])
    t = np.zeros(5)
    # the message names plain floats, not numpy scalars
    with pytest.raises(DomainError, match=r"contract: 0\.03 to 0\.1$"):
        bar.BoundaryCurve(theta, t, closed=False)
    with pytest.raises(DomainError, match="at least 2 samples"):
        bar.BoundaryCurve([0.0], [0.0], closed=False)
    for bad in (math.nan, math.inf, -math.inf):
        for coords in (([0.0, bad], [0.0, 0.0]), ([0.0, 0.01], [bad, 0.0])):
            with pytest.raises(UsageError, match="boundary point coordinates must be finite"):
                bar.BoundaryCurve(*coords, closed=False)
    with pytest.raises(UsageError, match="one length"):
        bar.BoundaryCurve([0.0, 0.01], [0.0], closed=False)
    with pytest.raises(UsageError, match="one length"):
        bar.BoundaryCurve(np.zeros((2, 2)), np.zeros((2, 2)), closed=False)


def test_from_arrays_copies_and_matches_the_constructor():
    theta = np.arange(100) * 0.01 - 0.5
    t = np.sin(theta)
    c = bar.BoundaryCurve(theta, t, closed=False)
    theta[:] = 0.0
    t[:] = 0.0
    assert c.theta_array()[0] == pytest.approx(TWO_PI - 0.5)
    assert c.t_array()[0] == math.sin(-0.5)
    with pytest.raises(ValueError):
        c.theta_array()[0] = 1.0
    again = bar.BoundaryCurve(c.theta_array(), c.t_array(), closed=False)
    assert same_bits(again, c) and again.theta_array() is not c.theta_array()
    assert again == c and hash(again) == hash(c)
    assert c != c.translated(1e-12)
    loop = bar.horizontal_circle(0.0, 360)
    assert loop != bar.BoundaryCurve(loop.theta_array(), loop.t_array(), closed=False)


def test_equal_curves_compare_without_points():
    a, b = bar.horizontal_circle(1.0, 360), bar.horizontal_circle(1.0, 360)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, bar.horizontal_circle(-0.0, 360), bar.horizontal_circle(0.0, 360)}) == 2
    assert not hasattr(a, "samples")


def test_angles_stay_below_two_pi():
    # a tiny negative angle leaves a remainder that rounds up to 2 pi itself
    for theta in (-1e-17, -3e-16, -1e-300, -0.0, TWO_PI, -TWO_PI, 2.0 * TWO_PI):
        c = bar.BoundaryCurve([theta, 0.01], [0.0, 0.0], closed=False)
        first = c.theta_array()[0]
        assert first == 0.0 and math.copysign(1.0, first) == 1.0, theta
    c = bar.BoundaryCurve([-1e-15, 0.01], [0.0, 0.0], closed=True)
    assert c.theta_array()[0] == TWO_PI - 1e-15 < TWO_PI
    circle = bar.horizontal_circle(0.0, 720)
    for alpha in (-1e-17, -3e-16, -1e-6, -0.37, -7.0, TWO_PI, TWO_PI + 0.1, 13.0, 2.0 * TWO_PI):
        rot = circle.rotated(alpha)
        theta = rot.theta_array()
        assert ((theta >= 0.0) & (theta < TWO_PI)).all(), alpha
        assert same_bits(rot, reference_rotated(circle, alpha)), alpha
    assert circle.rotated(-1e-17).theta_array()[0] == 0.0


def test_array_builders_match_point_builders():
    for n in (360, 361, 720, 1440, 5000):
        for t in (0.0, -2.5, 7.25, 1e-300):
            c = bar.horizontal_circle(t, n)
            assert same_bits(c, reference_horizontal_circle(t, n)), (n, t)
            for alpha in (0.37, -0.37, 1e-6, -1e-6, TWO_PI + 0.1, -7.0, 13.0):
                assert same_bits(c.rotated(alpha), reference_rotated(c, alpha)), (n, t, alpha)
            for dt in (0.5, -1e-9, 3.3):
                assert same_bits(c.translated(dt), reference_translated(c, dt)), (n, t, dt)
    for tau in (0.0, 0.2, 0.5, 1.2):
        amb = AmbientSpace(tau)
        h = bar.min_rectangle_height(amb) + 0.7
        for r in (0.1, 0.3, 0.8):
            # -pi - r puts the right side on theta = 0, r - pi the left one
            for rotation in (0.0, 1.1, -math.pi - r, r - math.pi, -4.0, 7.0):
                for offset in (0.0, -3.3):
                    rect = bar.TallRectangleBoundary(amb, h, r, rotation, offset)
                    for n in (40, 161):
                        if 2.0 * r / (n - 1) > bar.ANGULAR_RESOLUTION:
                            continue
                        key = (tau, r, rotation, offset, n)
                        got, want = bar.gamma_curves(rect, n), reference_gamma_curves(rect, n)
                        assert all(same_bits(a, b) for a, b in zip(got, want)), key
                        loop = bar.rectangle_boundary(rect, n)
                        assert same_bits(loop, reference_rectangle_boundary(rect, n)), key


def test_containment_sweep_matches_point_loop():
    verdicts = []
    for tau in (0.0, 0.3, 0.5):
        amb = AmbientSpace(tau)
        t1 = -1.0
        t2 = t1 + 2.5 * bar.min_rectangle_height(amb)
        delta = bar.delta_for_slab(amb, t1, t2)
        for th1 in (1.0, 6.2, 3.0):
            th2 = th1 + 0.8 * delta
            rect = bar.place_rectangle(amb, th1, th2, t1, t2)
            # the window itself, a narrower arc, and lower and upper walls moved in
            for window in (
                (th1, th2, t1, t2),
                (th1 + 0.01, th2, t1, t2),
                (th1, th2 - 0.01, t1, t2),
                (th1, th2, t1 + 0.5, t2),
                (th1, th2, t1, t2 - 0.5),
            ):
                got = bar.containment_sweep(rect, *window)
                assert got == reference_containment_sweep(rect, *window), (tau, th1, window)
                verdicts.append(got)
    assert 0.1 < np.mean(verdicts) < 0.9


def test_arc_endpoints_in_either_order_name_the_same_shorter_arc():
    amb = AmbientSpace(0.3)
    t1 = -1.0
    t2 = t1 + 2.5 * bar.min_rectangle_height(amb)
    delta = bar.delta_for_slab(amb, t1, t2)
    verdicts = []
    for th1 in (1.0, 6.2, 3.0):
        th2 = th1 + 0.8 * delta
        fwd = bar.place_rectangle(amb, th1, th2, t1, t2)
        rev = bar.place_rectangle(amb, th2, th1, t1, t2)
        assert rev.r == pytest.approx(fwd.r, rel=1e-12)
        turn = (rev.rotation - fwd.rotation + math.pi) % (2.0 * math.pi) - math.pi
        assert abs(turn) < 1e-12
        for a, b in ((th1, th2), (th1, th2 - 0.01), (th1 + 0.01, th2)):
            got = bar.containment_sweep(fwd, b, a, t1, t2)
            assert got == bar.containment_sweep(fwd, a, b, t1, t2)
            assert got == reference_containment_sweep(fwd, b, a, t1, t2)
            verdicts.append(got)
    assert 0.1 < np.mean(verdicts) < 0.9


def test_boundary_curve_transforms():
    c = bar.horizontal_circle(1.0, 360)
    up = c.translated(0.5)
    assert np.allclose(up.t_array(), 1.5)
    rot = c.rotated(0.25)
    assert np.allclose(
        np.mod(rot.theta_array() - c.theta_array(), 2.0 * math.pi), 0.25
    )


def test_rectangle_parameter_validation():
    amb = AmbientSpace(0.5)
    floor = bar.min_rectangle_height(amb)
    with pytest.raises(DomainError):
        bar.TallRectangleBoundary(amb, floor * 0.9, 0.5)
    with pytest.raises(DomainError):
        bar.TallRectangleBoundary(amb, floor + 1.0, 0.0)
    with pytest.raises(DomainError):
        bar.TallRectangleBoundary(amb, floor + 1.0, math.pi)


def test_gamma_curve_endpoints():
    amb = AmbientSpace(0.5)
    rect = bar.TallRectangleBoundary(amb, bar.min_rectangle_height(amb) + 1.0, 0.5)
    lower, upper = bar.gamma_curves(rect, 80)
    theta, t = lower.theta_array(), lower.t_array()
    assert theta[0] == pytest.approx(math.pi - 0.5)
    assert t[0] == pytest.approx(2.0 * amb.tau * 0.5)  # descending arc
    assert theta[-1] == pytest.approx(math.pi + 0.5)
    assert t[-1] == pytest.approx(-2.0 * amb.tau * 0.5)
    assert (np.abs(t[40 - 1 : 40 + 1]) < 1e-2).any()
    assert np.allclose(upper.t_array() - lower.t_array(), rect.h)


def test_gamma_curves_respect_placement():
    amb = AmbientSpace(0.2)
    rect = bar.TallRectangleBoundary(
        amb, bar.min_rectangle_height(amb) + 0.7, 0.4, rotation=1.1, vertical_offset=-2.0
    )
    lower, _ = bar.gamma_curves(rect, 64)
    assert lower.theta_array()[0] == pytest.approx(math.pi - 0.4 + 1.1)
    assert lower.t_array()[0] == pytest.approx(2.0 * amb.tau * 0.4 - 2.0)


def test_rectangle_boundary_is_closed_and_simple():
    amb = AmbientSpace(0.5)
    rect = bar.TallRectangleBoundary(amb, bar.min_rectangle_height(amb) + 2.0, 0.8)
    loop = bar.rectangle_boundary(rect, 400)
    assert loop.closed
    assert bar.is_simple(loop)
    thetas = loop.theta_array()
    lo = (thetas - (math.pi - 0.8)) % (2.0 * math.pi)
    assert lo.max() <= 1.6 + 1e-9  # footprint is the closed arc of width 2 r


def test_delta_for_slab_values():
    amb = AmbientSpace(0.5)
    delta = bar.delta_for_slab(amb, 0.0, 2.0 * math.pi * SQRT2)
    assert delta == pytest.approx(math.pi * SQRT2 / 4.0, abs=1e-12)
    assert bar.delta_for_slab(AmbientSpace(0.0), 0.0, 4.0) == math.pi
    with pytest.raises(DomainError):
        bar.delta_for_slab(amb, 0.0, 1.0)


def test_delta_is_capped_at_pi():
    # a very thick slab would allow eps / (2 tau) > pi; the footprint cannot
    # exceed the full circle minus nothing, so the width is clamped
    amb = AmbientSpace(0.1)
    assert bar.delta_for_slab(amb, 0.0, 100.0) == math.pi


def test_place_rectangle_and_containment():
    amb = AmbientSpace(0.5)
    t1, t2 = -1.0, -1.0 + 2.0 * math.pi * SQRT2
    delta = bar.delta_for_slab(amb, t1, t2)
    th1, th2 = 1.0, 1.0 + 0.8 * delta
    rect = bar.place_rectangle(amb, th1, th2, t1, t2)
    assert rect.r == pytest.approx(0.4 * delta)
    assert bar.containment_sweep(rect, th1, th2, t1, t2)


def test_place_rectangle_wraparound_arc():
    amb = AmbientSpace(0.3)
    t1, t2 = 0.0, 3.0 * math.pi
    th1, th2 = 6.2, 0.1  # shorter arc crosses theta = 0
    rect = bar.place_rectangle(amb, th1, th2, t1, t2)
    assert bar.containment_sweep(rect, th1, th2, t1, t2)


def test_place_rectangle_rejects_wide_arcs():
    amb = AmbientSpace(0.5)
    t1, t2 = 0.0, 2.0 * math.pi * SQRT2
    delta = bar.delta_for_slab(amb, t1, t2)
    with pytest.raises(DomainError):
        bar.place_rectangle(amb, 0.0, 1.01 * delta, t1, t2)
    with pytest.raises(DomainError):
        bar.place_rectangle(amb, 1.0, 1.0, t1, t2)


def test_horizontal_circle():
    c = bar.horizontal_circle(2.5, 400)
    assert c.closed and len(c.theta_array()) == 400
    assert np.allclose(c.t_array(), 2.5)
    assert bar.is_simple(c)
    with pytest.raises(Exception):
        bar.horizontal_circle(0.0, 2)


def test_catenoid_asymptotic_circles_gap():
    amb = AmbientSpace(0.5)
    lower, upper = bar.catenoid_asymptotic_circles(amb, 3.0, t_offset=1.0, n=720)
    gap = upper.t_array()[0] - lower.t_array()[0]
    assert gap > 0.0
    assert gap < bar.min_rectangle_height(amb)  # always below pi sqrt(1+4 tau^2)
    assert (upper.t_array()[0] + lower.t_array()[0]) / 2.0 == pytest.approx(1.0)


def test_is_simple_detects_bowtie():
    bowtie = dense_polyline(
        [(1.0, 0.0), (2.0, 1.0), (1.0, 1.0), (2.0, 0.0)], closed=True
    )
    assert not bar.is_simple(bowtie)


def test_is_simple_accepts_graph_over_angle():
    wavy = dense_polyline(
        [(0.0, 0.0), (1.5, 0.8), (3.0, -0.4), (4.5, 0.2), (6.0, 0.0)], closed=False
    )
    assert bar.is_simple(wavy)
