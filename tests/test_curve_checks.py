"""The windowed curve checks against their all-pairs oracles, and their memory.

``barriers.is_simple`` and ``curves._samples_within`` only test pairs of
samples whose angles are close.  Their verdicts must equal those of the
all-pairs forms in ``reference_checks`` on every curve below, including
curves laid across the ``theta = 0`` seam, exact vertex contacts and
random walks that do and do not cross themselves.
"""

import math
import tracemalloc

import numpy as np
import pytest

from etau import barriers as bar
from etau import curves as cur
from etau.errors import DomainError
from etau.models import AmbientSpace
from helpers import dense_polyline
from reference_checks import reference_is_simple, reference_min_sample_distance

DEG = math.pi / 180.0
TWO_PI = 2.0 * math.pi


def _fixtures():
    bowtie = dense_polyline([(1.0, 0.0), (2.0, 1.0), (1.0, 1.0), (2.0, 0.0)], closed=True)
    wavy = dense_polyline(
        [(0.0, 0.0), (1.5, 0.8), (3.0, -0.4), (4.5, 0.2), (6.0, 0.0)], closed=False
    )
    # the vertex (1.25, 0) rests exactly on the horizontal bottom edge
    vertex_on_edge = dense_polyline(
        [(1.0, 0.0), (1.5, 0.0), (1.5, 1.0), (1.25, 1.0), (1.25, 0.0), (1.1, -0.5)],
        closed=True,
    )
    return {"bowtie": bowtie, "wavy": wavy, "vertex_on_edge": vertex_on_edge}


def _rectangles():
    amb = AmbientSpace(0.4)
    h = bar.min_rectangle_height(amb) + 1.0
    r = 0.3
    out = {}
    # rotation -pi - r puts the right side on theta = 0, r - pi the left one
    for n in (40, 160, 400, 1000):
        for name, rot in (("plain", 0.0), ("right_seam", -math.pi - r), ("left_seam", r - math.pi)):
            for eps in (0.0, 1e-6, -1e-6):
                rect = bar.TallRectangleBoundary(amb, h, r, rotation=rot + eps)
                out[f"rect-{n}-{name}-{eps:+g}"] = bar.rectangle_boundary(rect, n)
    return out


def _walk(seed):
    # persistent random walk of 0.9-degree steps from a random start angle;
    # odd seeds close it with a straight sub-degree return to the start
    rng = np.random.default_rng([9, seed])
    closed = seed % 2 == 1
    heading = rng.uniform(0.0, TWO_PI)
    theta = [rng.uniform(0.0, TWO_PI)]
    t = [rng.uniform(-1.0, 1.0)]
    step = 0.9 * DEG
    for _ in range(int(rng.integers(40, 200))):
        heading += rng.normal(0.0, 0.2 if closed else 0.4)
        theta.append(theta[-1] + step * math.cos(heading))
        t.append(t[-1] + step * math.sin(heading))
    if closed:
        k = int(abs(theta[0] - theta[-1]) / step) + 1
        a0, t0 = theta[-1], t[-1]
        for s in range(1, k):
            f = s / k
            theta.append(a0 + f * (theta[0] - a0))
            t.append(t0 + f * (t[0] - t0))
    return bar.BoundaryCurve(theta, t, closed)


@pytest.mark.parametrize("name,curve", list(_fixtures().items()))
def test_is_simple_matches_reference_on_fixtures(name, curve):
    for tol in (0.0, 1e-12, 1e-3, 0.05, 4.0):
        assert bar.is_simple(curve, tol) == reference_is_simple(curve, tol), (name, tol)
    expected = {"bowtie": False, "wavy": True, "vertex_on_edge": False}[name]
    assert bar.is_simple(curve) is expected


def test_is_simple_matches_reference_on_rectangles():
    for name, loop in _rectangles().items():
        # rectangle_boundary already required is_simple to hold
        assert reference_is_simple(loop), name
        # a coarse tolerance makes the stacked sides and the arcs touch
        assert bar.is_simple(loop, 0.02) == reference_is_simple(loop, 0.02), name


@pytest.mark.parametrize("n", [360, 719, 1440, 5000])
def test_is_simple_matches_reference_on_circles(n):
    for rot in (0.0, 1e-6, -1e-6, 0.37):
        c = bar.horizontal_circle(0.25, n).rotated(rot)
        assert bar.is_simple(c) is True
        assert reference_is_simple(c, block=128) is True


def test_is_simple_matches_reference_on_random_walks():
    verdicts = []
    for seed in range(240):
        walk = _walk(seed)
        got = bar.is_simple(walk)
        assert got == reference_is_simple(walk), seed
        verdicts.append(got)
    # the corpus exercises both answers in about equal measure
    assert 0.3 < np.mean(verdicts) < 0.7


# closed loops of 2 or 3 samples, and an open arc, whose segments turn back
# onto their neighbours; in the loops every pair of segments is adjacent
FOLDS = {
    "vertical-3": ([0.5, 0.5, 0.5], [0.0, 1.0, 2.0], True),
    "vertical-2": ([0.5, 0.5], [0.0, 1.0], True),
    "slanted-2": ([0.1, 0.11], [0.2, 0.5], True),
    "slanted-3": ([0.1, 0.115, 0.105], [0.2, 0.5, 0.3], True),
    "open-3": ([0.2, 0.21, 0.205], [0.0, 1.0, 0.5], False),
}
# the same sample counts with no fold
UNFOLDED = {
    "triangle-3": ([0.0, 0.01, 0.005], [0.0, 0.0, 0.01], True),
    "open-2": ([0.5, 0.5], [0.0, 1.0], False),
    "straight-3": ([0.5, 0.5, 0.5], [0.0, 1.0, 2.0], False),
}


def test_is_simple_rejects_folds():
    for name, (theta, t, closed) in {**FOLDS, **UNFOLDED}.items():
        curve = bar.BoundaryCurve(theta, t, closed)
        expected = name in UNFOLDED
        assert bar.is_simple(curve) is expected, name
        assert reference_is_simple(curve) is expected, name
        for tol in (0.0, 1e-3, 0.05):
            assert bar.is_simple(curve, tol) == reference_is_simple(curve, tol), (name, tol)
        if closed and not expected:
            with pytest.raises(DomainError, match="self-intersects"):
                cur.AsymptoticCurve([curve])


def test_window_pairs_cover_every_close_pair():
    rng = np.random.default_rng(3)
    a = rng.uniform(0.0, TWO_PI, 300)
    b = np.concatenate((rng.uniform(0.0, TWO_PI, 200), [0.0, TWO_PI - 1e-12]))
    diff = np.abs(a[:, None] - b[None, :])
    wrapped = np.minimum(diff, TWO_PI - diff)
    for width in (0.0, 1e-3, 0.05, 1.0, 3.0, math.pi, 10.0):
        chunks = list(bar._angular_window_pairs(a, b, width, chunk=1000))
        assert all(len(i) <= 1000 for i, _ in chunks)
        empty = np.empty(0, dtype=np.intp)
        i = np.concatenate([empty] + [c[0] for c in chunks])
        j = np.concatenate([empty] + [c[1] for c in chunks])
        got = np.zeros_like(wrapped, dtype=int)
        np.add.at(got, (i, j), 1)
        assert got.max() <= 1  # no pair twice
        if width >= math.pi:
            assert got.all()
        else:
            assert np.array_equal(got.astype(bool), wrapped <= width)


@pytest.mark.parametrize("gap", [0.0, 1e-7, 5e-7, 1e-6, 2e-6, 1.0])
def test_separation_matches_reference(gap):
    sep = cur._MIN_SEPARATION
    for n_a, n_b in ((720, 720), (720, 719), (360, 1001)):
        for rot in (0.0, 1e-6, -1e-6, 0.5e-6):
            a = bar.horizontal_circle(0.0, n_a)
            b = bar.horizontal_circle(gap, n_b).rotated(rot)
            close = reference_min_sample_distance(a, b) <= sep
            assert cur._samples_within(a, b, sep) == close, (n_a, n_b, rot)
            assert cur._samples_within(b, a, sep) == close
            if close:
                with pytest.raises(DomainError, match="come within"):
                    cur.AsymptoticCurve([a, b])
            elif gap > 0.0:
                cur.AsymptoticCurve([a, b])


def test_separation_wraps_across_the_seam():
    # the only close pair straddles theta = 0: b's sample at 2 pi - 4e-7 and
    # a's at 0, 6.4e-7 apart; every other pair is at least 3.8e-5 apart
    a = bar.horizontal_circle(0.0, 720)
    theta = (np.arange(720) * (2.0 * math.pi / 720) - 4e-7) % (2.0 * math.pi)
    b = bar.BoundaryCurve(theta, 5e-7 + (1.0 - np.cos(theta)), closed=True)
    assert reference_min_sample_distance(a, b) <= cur._MIN_SEPARATION
    assert cur._samples_within(a, b, cur._MIN_SEPARATION)
    assert cur._samples_within(b, a, cur._MIN_SEPARATION)
    with pytest.raises(DomainError, match="come within"):
        cur.AsymptoticCurve([a, b])


def _traced_peak_mb(fn):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_catenoid_pair_build_memory():
    # measured 0.18 MB; the all-pairs checks peaked at 16.6 MB
    lower, upper = bar.catenoid_asymptotic_circles(AmbientSpace(0.4), 3.0)
    assert _traced_peak_mb(lambda: cur.AsymptoticCurve([lower, upper])) < 0.4


def test_rectangle_boundary_memory():
    # measured 4.8 MB, the stacked sides' O(k^2) candidates included; the
    # all-pairs check peaked at 66.7 MB
    amb = AmbientSpace(0.4)
    rect = bar.TallRectangleBoundary(amb, bar.min_rectangle_height(amb) + 1.0, 0.5)
    assert _traced_peak_mb(lambda: bar.rectangle_boundary(rect, 1000)) < 10.0


def test_large_circle_pair_memory():
    # measured 3.7 MB; one all-pairs temporary alone would need 3.2 GB
    a = bar.horizontal_circle(0.0, 20000)
    b = bar.horizontal_circle(1.0, 20000)
    assert _traced_peak_mb(lambda: cur.AsymptoticCurve([a, b])) < 8.0
