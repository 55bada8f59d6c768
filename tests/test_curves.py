import functools
import math

import numpy as np
import pytest

from etau import barriers as bar
from etau import catenoid
from etau import curves as cur
from etau.errors import DomainError, UsageError
from etau.models import AmbientSpace, BoundaryPoint
from helpers import same_bits
from reference_checks import (
    ReferenceTangency,
    reference_catenoid_asymptotic_circles,
    reference_classify,
    reference_crossings,
    reference_graph_curve,
    reference_parallel_circles,
    reference_profile,
    reference_rectangle_boundary,
)


def ellipse_loop(theta_c, a, b, n=256):
    """Small convex loop around (theta_c, 0) with semiaxes (a, b)."""
    pts = [
        BoundaryPoint(theta_c + a * math.cos(s), b * math.sin(s))
        for s in np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    ]
    return bar.BoundaryCurve(pts, closed=True)


def test_parallel_circles_heights():
    curve = cur.parallel_circles([0.0, 2.0])
    for p in (0.0, 1.0, 4.5):
        ts = cur.vertical_line_crossings(curve, p)
        assert len(ts) == 2
        assert ts[0] == pytest.approx(0.0, abs=1e-12)
        assert ts[1] == pytest.approx(2.0, abs=1e-12)
        assert cur.height_at(curve, p) == pytest.approx(2.0)

    three = cur.parallel_circles([0.0, 4.0, 9.0])
    assert cur.vertical_line_crossings(three, 1.3) == pytest.approx([0.0, 4.0, 9.0])
    assert cur.height_at(three, 1.3) == pytest.approx(4.0)


def test_single_circle_has_infinite_height():
    curve = cur.parallel_circles([1.5])
    assert len(cur.vertical_line_crossings(curve, 0.7)) == 1
    assert cur.height_at(curve, 0.7) == math.inf


def test_curve_validation():
    with pytest.raises(UsageError):
        cur.parallel_circles([])
    with pytest.raises(UsageError):
        cur.parallel_circles([2.0, 1.0])
    with pytest.raises(UsageError):
        cur.parallel_circles([0.0, 1.0], n=4)
    with pytest.raises(DomainError):
        cur.AsymptoticCurve([])
    open_arc = bar.BoundaryCurve(
        (BoundaryPoint(0.01 * k, 0.0) for k in range(50)), closed=False
    )
    with pytest.raises(DomainError):
        cur.AsymptoticCurve([open_arc])
    # components closer than the separation floor are rejected
    with pytest.raises(DomainError):
        cur.parallel_circles([0.0, 5e-7])


def test_graph_curve_is_tall():
    amb = AmbientSpace(0.5)
    curve = cur.graph_curve(lambda th: 2.0 * math.sin(th))
    # one transversal crossing per line, so every height is infinite
    grid = cur.height_profile(curve, n=90)
    assert (grid.crossing_counts == 1).all()
    assert np.isinf(grid.heights).all()
    outcome = cur.classify(amb, curve, n=90)
    assert outcome.verdict is cur.Verdict.TALL
    assert outcome.witness is None


def test_crossing_interpolation_accuracy():
    curve = cur.graph_curve(math.sin)
    step = 2.0 * math.pi / 720
    on_grid = 100 * step
    ts = cur.vertical_line_crossings(curve, on_grid)
    assert len(ts) == 1
    assert ts[0] == pytest.approx(math.sin(on_grid), abs=1e-12)
    ts = cur.vertical_line_crossings(curve, 0.5)
    assert ts[0] == pytest.approx(math.sin(0.5), abs=1e-5)


def test_rectangle_profile_and_verdict():
    amb = AmbientSpace(0.5)
    t2 = 2.0 * math.pi * math.sqrt(2.0)
    rect = bar.place_rectangle(amb, 1.0, 1.6, 0.0, t2)
    curve = cur.AsymptoticCurve([bar.rectangle_boundary(rect, 160)])
    grid = cur.height_profile(curve, n=720)
    left = rect.rotation + math.pi - rect.r
    right = rect.rotation + math.pi + rect.r
    inside = (grid.angles > left + 1e-3) & (grid.angles < right - 1e-3)
    outside = (grid.angles < left - 1e-3) | (grid.angles > right + 1e-3)
    assert (grid.crossing_counts[inside] == 2).all()
    assert (grid.crossing_counts[outside] == 0).all()
    assert grid.heights[inside] == pytest.approx(rect.h, abs=1e-9)
    assert np.isinf(grid.heights[outside]).all()

    ts = cur.vertical_line_crossings(curve, rect.rotation + math.pi)
    assert len(ts) == 2
    assert ts[1] - ts[0] == pytest.approx(rect.h, abs=1e-12)
    assert 0.0 < ts[0] < ts[1] < t2

    outcome = cur.classify(amb, curve)
    assert outcome.verdict is cur.Verdict.TALL
    assert outcome.footprint_min_height == pytest.approx(rect.h, abs=1e-9)

    assert cur.global_height(curve) == pytest.approx(rect.h, abs=1e-9)


def test_line_on_vertical_edge_reads_right_limit():
    amb = AmbientSpace(0.5)
    rect = bar.place_rectangle(amb, 1.0, 1.6, 0.0, 2.0 * math.pi * math.sqrt(2.0))
    curve = cur.AsymptoticCurve([bar.rectangle_boundary(rect, 160)])
    g0, _ = bar.gamma_curves(rect, 160)
    left_side, right_side = g0.samples[0].theta, g0.samples[-1].theta
    # the rectangle lies to the right of its left side and to the left of its right side
    assert left_side == pytest.approx(rect.rotation + math.pi - rect.r, abs=1e-15)
    assert cur.height_at(curve, left_side) == pytest.approx(rect.h, abs=1e-9)
    assert cur.vertical_line_crossings(curve, right_side) == []
    assert cur.height_at(curve, right_side) == math.inf


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tau", [0.1, 0.3])
def test_vertical_closing_edge_across_the_seam(tau):
    # a rectangle across angle 0 that closes on its vertical left side.  The
    # running sum of wrapped steps once put that side an ulp right of the
    # first sample, at the same angle: the closing edge then covered the
    # sliver cell between the two at one angle, and the sweep divided by zero
    # (at tau = 0.3 the verdict was Short with nan heights, at tau = 0.1
    # NonexistenceCondition).  Snapping only the closing end left a hook an
    # ulp wide, of height 0.
    amb = AmbientSpace(tau)
    rect = bar.place_rectangle(amb, 6.2, 0.1, 0.0, 9.42477796076938)
    loop = bar.rectangle_boundary(rect, 400)
    theta = loop.theta_array()
    assert (theta[-199:] == theta[0]).all()
    curve = cur.AsymptoticCurve([loop])
    outcome = cur.classify(amb, curve)
    assert outcome.verdict is cur.Verdict.TALL
    assert outcome.footprint_min_height == pytest.approx(rect.h, abs=1e-9)
    assert outcome.global_min_height == pytest.approx(rect.h, abs=1e-9)
    grid = cur.height_profile(curve, n=720)
    crossed = grid.crossing_counts > 0
    assert crossed.any() and np.isfinite(grid.heights[crossed]).all()
    assert cur.height_at(curve, theta[-1]) == pytest.approx(rect.h, abs=1e-9)


def test_line_at_fold_reads_right_limit():
    # ellipse whose rightmost point sits on a profile grid angle
    p_tan = 90 * (2.0 * math.pi / 720)
    loop = ellipse_loop(p_tan - 0.05, 0.05, 0.05)
    curve = cur.AsymptoticCurve([loop])
    rightmost, leftmost = loop.samples[0].theta, loop.samples[128].theta
    assert cur.vertical_line_crossings(curve, rightmost) == []
    assert cur.height_at(curve, rightmost) == math.inf
    # both arcs leave the leftmost sample to the right, from one height
    assert len(cur.vertical_line_crossings(curve, leftmost)) == 2
    assert 0.0 <= cur.height_at(curve, leftmost) <= 1e-12
    grid = cur.height_profile(curve, n=720)
    # inside the shadow of the loop both crossings are seen
    assert grid.crossing_counts[89] == 2
    assert grid.heights[89] == pytest.approx(
        2.0 * 0.05 * math.sin(math.acos((89 * 2.0 * math.pi / 720 - p_tan + 0.05) / 0.05)),
        abs=1e-3,
    )


def test_thresholds():
    assert cur.tall_threshold(AmbientSpace(0.0)) == pytest.approx(math.pi)
    assert cur.tall_threshold(AmbientSpace(0.5)) == pytest.approx(math.pi * math.sqrt(2.0))
    assert cur.nonexistence_threshold(AmbientSpace(0.0)) == pytest.approx(math.pi)
    tau_star = 1.0 / math.sqrt(12.0)
    assert abs(cur.nonexistence_threshold(AmbientSpace(tau_star))) < 1e-12
    assert cur.nonexistence_threshold(AmbientSpace(0.3)) < 0.0
    assert cur.nonexistence_threshold(AmbientSpace(1.0)) < 0.0


def test_classifier_verdicts():
    tall = cur.classify(AmbientSpace(0.5), cur.parallel_circles([0.0, 5.0]), n=180)
    assert tall.verdict is cur.Verdict.TALL

    short = cur.classify(AmbientSpace(0.5), cur.parallel_circles([0.0, 4.0]), n=180)
    assert short.verdict is cur.Verdict.SHORT
    assert isinstance(short.witness, float)
    assert short.footprint_min_height == pytest.approx(4.0)

    nx = cur.classify(AmbientSpace(0.1), cur.parallel_circles([0.0, 1.5]), n=180)
    assert nx.verdict is cur.Verdict.NONEXISTENCE
    assert nx.witness == pytest.approx((0.0, 2.0 * math.pi))

    # past tau = 1/sqrt(12) the nonexistence verdict is out of reach
    low = cur.classify(AmbientSpace(0.3), cur.parallel_circles([0.0, 0.5]), n=180)
    assert low.verdict is cur.Verdict.SHORT

    # at tau = 0 both thresholds coincide at pi
    assert (
        cur.classify(AmbientSpace(0.0), cur.parallel_circles([0.0, 3.0]), n=180).verdict
        is cur.Verdict.NONEXISTENCE
    )
    assert (
        cur.classify(AmbientSpace(0.0), cur.parallel_circles([0.0, 4.0]), n=180).verdict
        is cur.Verdict.TALL
    )


def test_nonexistence_arc_witness():
    amb = AmbientSpace(0.1)
    thr = cur.nonexistence_threshold(amb)
    lower = cur.graph_curve(lambda th: 0.0)
    upper = cur.graph_curve(lambda th: 2.5 + 0.8 * math.cos(th))
    curve = cur.AsymptoticCurve(list(lower.components) + list(upper.components))
    outcome = cur.classify(amb, curve)
    assert outcome.verdict is cur.Verdict.NONEXISTENCE
    a, b = outcome.witness
    assert a < b
    # the dip below the threshold is the arc where 2.5 + 0.8 cos < thr
    edge = math.acos((thr - 2.5) / 0.8)
    assert a == pytest.approx(edge, abs=0.02)
    assert b == pytest.approx(2.0 * math.pi - edge, abs=0.02)
    assert outcome.footprint_min_height == pytest.approx(1.7, abs=1e-4)


def dip_curve():
    """Circle at t = 0 under a loop at t = 4 with a triangular dip to 2.5.

    Both loops have 20,000 samples.  The dip is 0.004 rad wide and centred
    between grid angles 100 and 101 of 720, so no grid angle sees it.
    """
    centre = 100.5 * 2.0 * math.pi / 720
    ang = np.linspace(0.0, 2.0 * math.pi, 20000, endpoint=False)
    off = np.abs((ang - centre + math.pi) % (2.0 * math.pi) - math.pi)
    t = np.where(off < 0.002, 2.5 + 1.5 * off / 0.002, 4.0)
    lower = bar.BoundaryCurve((BoundaryPoint(a, 0.0) for a in ang), closed=True)
    upper = bar.BoundaryCurve((BoundaryPoint(a, v) for a, v in zip(ang, t)), closed=True)
    return cur.AsymptoticCurve([lower, upper]), float(t.min()), centre


def test_narrow_dip_between_grid_angles():
    curve, lowest, centre = dip_curve()
    # at tau = 0 both thresholds are pi, and the dip goes below it
    nx = cur.classify(AmbientSpace(0.0), curve)
    assert nx.verdict is cur.Verdict.NONEXISTENCE
    a, b = nx.witness
    assert centre - 0.002 < a < b < centre + 0.002
    assert nx.footprint_min_height == pytest.approx(lowest, abs=1e-12)
    short = cur.classify(AmbientSpace(0.3), curve)
    assert short.verdict is cur.Verdict.SHORT
    assert abs(short.witness - centre) < 0.002
    assert short.footprint_min_height == pytest.approx(lowest, abs=1e-12)
    assert cur.global_height(curve) == pytest.approx(lowest, abs=1e-12)


def test_verdict_stable_under_grid_refinement():
    cases = [
        (AmbientSpace(0.5), cur.parallel_circles([0.0, 5.0])),
        (AmbientSpace(0.5), cur.parallel_circles([0.0, 4.0])),
        (AmbientSpace(0.1), cur.parallel_circles([0.0, 1.5])),
    ]
    for amb, curve in cases:
        verdicts = {cur.classify(amb, curve, n=n).verdict for n in (90, 180, 360, 720)}
        assert len(verdicts) == 1


def test_far_component_does_not_move_minimum():
    near = cur.parallel_circles([0.0, 2.0])
    padded = cur.parallel_circles([0.0, 2.0, 100.0])
    assert cur.height_at(padded, 1.0) == pytest.approx(cur.height_at(near, 1.0))
    amb = AmbientSpace(0.5)
    a = cur.classify(amb, near, n=90)
    b = cur.classify(amb, padded, n=90)
    assert a.verdict is b.verdict
    assert a.footprint_min_height == pytest.approx(b.footprint_min_height)


def test_invariance_under_rotation_and_translation():
    amb = AmbientSpace(0.5)
    base = bar.TallRectangleBoundary(amb, h=6.0, r=0.25)
    moved = bar.TallRectangleBoundary(
        amb, h=6.0, r=0.25, rotation=2.1, vertical_offset=-3.3
    )
    c0 = cur.AsymptoticCurve([bar.rectangle_boundary(base, 160)])
    c1 = cur.AsymptoticCurve([bar.rectangle_boundary(moved, 160)])
    r0 = cur.classify(amb, c0)
    r1 = cur.classify(amb, c1)
    assert r0.verdict is r1.verdict
    assert r0.footprint_min_height == pytest.approx(r1.footprint_min_height, abs=1e-9)
    p0 = cur.height_profile(c0, n=720)
    p1 = cur.height_profile(c1, n=720)
    assert p0.footprint().sum() == pytest.approx(p1.footprint().sum(), abs=1)


def test_graph_curve_matches_point_builder():
    for fn in (math.sin, lambda th: 0.0, lambda th: 2.5 + 0.8 * math.cos(th), abs):
        for n in (360, 361, 720, 1000):
            got = cur.graph_curve(fn, n).components[0]
            assert same_bits(got, reference_graph_curve(fn, n).components[0]), n


def test_circles_and_their_verdicts_make_no_points(monkeypatch):
    made = []
    check = BoundaryPoint.__post_init__

    def counting(self):
        made.append(self)
        check(self)

    monkeypatch.setattr(BoundaryPoint, "__post_init__", counting)
    amb = AmbientSpace(0.4)
    pair = cur.AsymptoticCurve(bar.catenoid_asymptotic_circles(amb, 3.0))
    raised = cur.parallel_circles([0.0, 1.001 * cur.tall_threshold(amb)])
    assert cur.classify(amb, pair, n=360).verdict is not cur.Verdict.TALL
    assert cur.classify(amb, raised, n=360).verdict is cur.Verdict.TALL
    assert made == []
    circle = raised.components[1]
    points = circle.samples
    assert len(made) == 720
    assert circle.samples is points and len(made) == 720
    assert [p.t for p in points] == circle.t_array().tolist()


def test_radial_projection():
    curve = cur.parallel_circles([-1.0, 1.0], n=512)
    loops = cur.radial_projection(curve, 2.0, 5.0)
    assert len(loops) == 2
    radius = math.tanh(2.0)
    for loop, t in zip(loops, (-1.0, 1.0)):
        assert len(loop) == 512
        for p in loop:
            assert math.hypot(p.x, p.y) == pytest.approx(radius, abs=1e-12)
            assert p.t == t
    with pytest.raises(DomainError):
        cur.radial_projection(curve, 2.0, 0.9)
    with pytest.raises(DomainError):
        cur.radial_projection(curve, -1.0, 5.0)


def test_profile_grid_validation():
    curve = cur.parallel_circles([0.0, 2.0])
    with pytest.raises(UsageError):
        cur.height_profile(curve, n=4)


def test_loop_arrays_are_built_once(monkeypatch):
    calls, tables = [], []
    build, tabulate = cur._closed_arrays, cur._sweep_table

    def counting(component):
        calls.append(component)
        return build(component)

    def counting_tables(curve):
        tables.append(curve)
        return tabulate(curve)

    monkeypatch.setattr(cur, "_closed_arrays", counting)
    monkeypatch.setattr(cur, "_sweep_table", counting_tables)
    curve = cur.parallel_circles([0.0, 2.0])
    assert len(calls) == 2  # one build per loop, at construction
    assert tables == []  # the sweep table is built on first use
    calls.clear()
    result = cur.classify(AmbientSpace(0.5), curve, n=90)
    assert len(result.profile.heights) == 90
    for p in np.linspace(0.0, 2.0 * math.pi, 100):
        assert cur.height_at(curve, float(p)) == 2.0
    cur.height_profile(curve, n=360)
    assert curve.t_range() == (0.0, 2.0)
    assert calls == []
    assert tables == [curve]
    # the profile reads the table for all its angles at once, not line by line
    lines = []
    monkeypatch.setattr(cur, "vertical_line_crossings", lambda *args: lines.append(args))
    cur.height_profile(curve, n=360)
    assert lines == []


def _reference_cases():
    amb = AmbientSpace(0.5)
    rect = bar.place_rectangle(amb, 1.0, 1.6, 0.0, 2.0 * math.pi * math.sqrt(2.0))
    rect_curve = cur.AsymptoticCurve([bar.rectangle_boundary(rect, 160)])
    side = bar.gamma_curves(rect, 160)[0].samples[0].theta
    p_tan = 90 * (2.0 * math.pi / 720)
    ellipse = ellipse_loop(p_tan - 0.05, 0.05, 0.05)
    # touched from the inside at p_tan, so a retried line crosses this one
    # at heights that depend on the retry offset
    mirrored = ellipse_loop(p_tan + 0.05, 0.05, 0.05).translated(1.0)
    return [
        (cur.parallel_circles([0.0, 2.0]), [1.0]),
        (rect_curve, [side, rect.rotation + math.pi]),
        (cur.AsymptoticCurve([ellipse]), [p_tan, ellipse.samples[0].theta]),
        (cur.AsymptoticCurve([ellipse, mirrored]), [p_tan]),
        (cur.graph_curve(lambda th: 2.5 + 0.8 * math.cos(th)), [0.5]),
    ]


@pytest.mark.parametrize("case", range(5))
def test_sweep_matches_reference_crossing_loop(case):
    curve, special = _reference_cases()[case]
    for n in (360, 720):
        got = cur.height_profile(curve, n=n)
        heights, counts, retried = reference_profile(curve, n)
        # only the ellipses' p_tan, grid angle n / 8, touches a curve
        assert np.flatnonzero(retried).tolist() == ([n // 8] if case in (2, 3) else [])
        np.testing.assert_array_equal(got.heights[~retried], heights[~retried])
        np.testing.assert_array_equal(got.crossing_counts[~retried], counts[~retried])
    for p in special:
        try:
            expected = reference_crossings(curve, p)
        except ReferenceTangency:
            continue
        assert cur.vertical_line_crossings(curve, p) == expected


@functools.lru_cache(maxsize=None)
def _classifier_cases(reference: bool = False):
    # (ambient, curve, grid) for every curve the classifier tests use; with
    # reference set, the same curves from the per-point builders
    if reference:
        parallel_circles, graph_curve = reference_parallel_circles, reference_graph_curve
        rectangle_boundary = reference_rectangle_boundary
        catenoid_asymptotic_circles = reference_catenoid_asymptotic_circles
    else:
        parallel_circles, graph_curve = cur.parallel_circles, cur.graph_curve
        rectangle_boundary = bar.rectangle_boundary
        catenoid_asymptotic_circles = bar.catenoid_asymptotic_circles
    cases = []
    for tau in (0.0, 0.1, 0.5, 1.0):
        amb = AmbientSpace(tau)
        thr = cur.tall_threshold(amb)
        for heights in ([0.0, thr * 1.001], [0.0, thr * 0.999], [0.0, thr * 0.999, thr * 2.0]):
            cases.append((amb, parallel_circles(heights), 360))
    for fn in (math.sin, lambda th: 0.0, lambda th: 0.5 + 0.3 * math.sin(3.0 * th)):
        cases.append((AmbientSpace(0.5), graph_curve(fn), 360))
    cases.append((AmbientSpace(0.0), graph_curve(math.sin), 720))
    for tau in (1.0 / math.sqrt(12.0), 0.3, 0.5, 1.0):
        cases.append((AmbientSpace(tau), parallel_circles([0.0, 0.05]), 360))
    for tau, top in ((0.5, 5.0), (0.5, 4.0), (0.1, 1.5), (0.3, 0.5), (0.0, 3.0), (0.0, 4.0)):
        cases.append((AmbientSpace(tau), parallel_circles([0.0, top]), 180))
    amb = AmbientSpace(0.5)
    rect = bar.place_rectangle(amb, 1.0, 1.6, 0.0, 2.0 * math.pi * math.sqrt(2.0))
    cases.append((amb, cur.AsymptoticCurve([rectangle_boundary(rect, 160)]), 720))
    for rotation, offset in ((0.0, 0.0), (2.1, -3.3)):
        moved = bar.TallRectangleBoundary(
            amb, h=6.0, r=0.25, rotation=rotation, vertical_offset=offset
        )
        curve = cur.AsymptoticCurve([rectangle_boundary(moved, 160)])
        cases.append((amb, curve, 720))
    cases.append((amb, parallel_circles([0.0, 2.0, 100.0]), 90))
    wavy = graph_curve(lambda th: 2.5 + 0.8 * math.cos(th)).components
    arc = cur.AsymptoticCurve(list(graph_curve(lambda th: 0.0).components) + list(wavy))
    cases.append((AmbientSpace(0.1), arc, 720))
    # loops with folds, where the height tends to 0 at the turning angle
    for tau in (0.1, 0.5):
        for curve, _ in _reference_cases()[2:4]:
            cases.append((AmbientSpace(tau), curve, 720))
    for tau in (0.0, 0.4, 1.2):
        amb = AmbientSpace(tau)
        sup = catenoid.asymptotic_height_supremum(amb)
        for frac in (0.1, 0.5, 0.9):
            d = catenoid.neck_parameter_for_height(amb, frac * sup)
            pair = cur.AsymptoticCurve(catenoid_asymptotic_circles(amb, d))
            cases.append((amb, pair, 360))
    return tuple(cases)


@pytest.mark.parametrize("case", range(len(_classifier_cases())))
def test_array_built_curves_classify_like_point_built(case):
    amb, curve, n = _classifier_cases()[case]
    _, ref_curve, _ = _classifier_cases(reference=True)[case]
    assert len(curve.components) == len(ref_curve.components)
    for got, want in zip(curve.components, ref_curve.components):
        assert same_bits(got, want)
    a, b = cur.classify(amb, curve, n=n), cur.classify(amb, ref_curve, n=n)
    # repr tells -0.0 from 0.0 and matches nan with nan
    fields = ("verdict", "witness", "footprint_min_height", "global_min_height")
    assert [repr(getattr(a, f)) for f in fields] == [repr(getattr(b, f)) for f in fields]


@pytest.mark.parametrize("case", range(len(_classifier_cases())))
def test_sweep_verdict_matches_grid_reference(case):
    amb, curve, n = _classifier_cases()[case]
    got = cur.classify(amb, curve, n=n)
    verdict, _, grid_min = reference_classify(amb, curve, n)
    assert got.verdict.value == verdict
    # the grid only samples the height, so it never goes below the infimum
    assert got.footprint_min_height <= grid_min + 1e-12


@pytest.mark.parametrize("case", range(len(_classifier_cases())))
def test_sweep_infimum_bounds_sampled_heights(case):
    _, curve, _ = _classifier_cases()[case]
    low, at, side = cur._infimum(*cur._gaps(curve)[:4])
    assert cur.global_height(curve) == low
    rng = np.random.default_rng(1100 + case)
    angles = rng.uniform(0.0, 2.0 * math.pi, 2000)
    heights = cur._lines(curve, angles)[2]
    assert heights.min() >= low - 1e-12
    # one batch reads the same bits as the public single-angle reader
    for i in range(0, len(angles), 100):
        assert cur.height_at(curve, float(angles[i])) == heights[i]
    if math.isfinite(low):
        # 2e-9 inside the argmin cell
        assert cur.height_at(curve, at + side * 2e-9) == pytest.approx(low, abs=1e-6)
