"""Heights and classification of asymptotic curves on the cylinder at infinity.

A curve is a finite disjoint union of simple closed sampled loops on
S^1 x R.  Its height at an angle ``p`` is the shortest bounded component
of the vertical line at ``p`` with the crossing points removed: fewer
than two transversal crossings leave only unbounded pieces and the
height is infinite.  The classifier compares heights against the two
thresholds ``sqrt(1+4 tau^2) pi`` (tall) and ``(sqrt(1+4 tau^2)-4 tau) pi``
(the nonexistence condition, vacuous once tau >= 1/sqrt(12)).

Each loop is a ``barriers.BoundaryCurve``, whose angle and height arrays
are all that this module reads; :func:`parallel_circles` and
:func:`graph_curve` build their loops from arrays, and
:func:`radial_projection` returns each projected loop as one ``(k, 3)``
array, the form the minimizer in :mod:`etau.plateau` takes.
Construction checks that every loop is simple (``barriers.is_simple``)
and that no two loops come within ``1e-6`` of each other on samples.
Both checks draw their candidate pairs from an angular window, so they
cost near-linear time and memory in the number of samples, and return
what the all-pairs tests would.

Every height is read from one event sweep over the sample angles, built
once per curve on first use.  :func:`classify` and :func:`global_height`
take the height's limits at the sweep's cell ends: the height is concave
between consecutive sample angles, so these settle both the infimum and
the set below a threshold.  :func:`vertical_line_crossings`,
:func:`height_at` and :func:`height_profile` (a grid sample for reports)
look single lines up in it.  Cells are half-open, so a line at a sample
angle reads the limit from the right, with no tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .barriers import (
    BoundaryCurve,
    _angular_window_pairs,
    _wrapped_gap,
    horizontal_circle,
    is_simple,
    min_rectangle_height,
)
from .errors import DomainError, UsageError
from .models import BOUNDARY_MARGIN, AmbientSpace

__all__ = [
    "AsymptoticCurve",
    "HeightProfile",
    "Verdict",
    "Classification",
    "tall_threshold",
    "nonexistence_threshold",
    "vertical_line_crossings",
    "height_at",
    "height_profile",
    "global_height",
    "classify",
    "radial_projection",
    "parallel_circles",
    "graph_curve",
]

_MIN_SEPARATION = 1e-6


_Loop = tuple[np.ndarray, np.ndarray, float, float, float]


def _closed_arrays(component: BoundaryCurve) -> _Loop:
    # (theta, t, theta.min(), theta.max(), winding) of one loop: unwrapped
    # angles with the closing return to the first sample appended, so segment
    # i joins index i to i+1 throughout; winding is 2 pi times the degree.
    # Each unwrapped angle is its sample's own angle plus whole turns, read
    # off the running sum of wrapped steps, so on each turn the unwrapped
    # angles keep the order of the sample angles.  The running sum alone
    # drifts by ulps around a loop: it put the vertical closing side of a
    # rectangle an ulp right of the first sample, which has the same angle,
    # and so made a hook an ulp wide with height 0.
    theta = component.theta_array()
    t = component.t_array()
    two_pi = 2.0 * math.pi
    ends = np.append(theta[1:], theta[0])
    steps = (ends - theta + math.pi) % two_pi - math.pi
    turns = np.rint((theta[0] + np.cumsum(steps) - ends) / two_pi)
    unwrapped = np.concatenate(([theta[0]], ends + two_pi * turns))
    winding = two_pi * turns[-1]
    return unwrapped, np.append(t, t[0]), unwrapped.min(), unwrapped.max(), winding


@dataclass(frozen=True)
class AsymptoticCurve:
    """Finite disjoint union of simple closed loops on S^1 x R."""

    components: tuple[BoundaryCurve, ...]
    _loops: tuple[_Loop, ...] = field(init=False, compare=False, repr=False)

    def __init__(self, components: Iterable[BoundaryCurve]) -> None:
        comps = tuple(components)
        if not comps:
            raise DomainError("curve needs at least one component")
        for c in comps:
            if not c.closed:
                raise DomainError("every component must be a closed loop")
            if not is_simple(c):
                raise DomainError("component loop self-intersects")
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                if _samples_within(comps[i], comps[j], _MIN_SEPARATION):
                    raise DomainError(
                        f"components {i} and {j} come within {_MIN_SEPARATION} "
                        "of each other on samples"
                    )
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "_loops", tuple(_closed_arrays(c) for c in comps))

    @cached_property
    def _sweep(self) -> _Sweep:
        return _sweep_table(self)

    def t_range(self) -> tuple[float, float]:
        lo = min(float(loop[1].min()) for loop in self._loops)
        hi = max(float(loop[1].max()) for loop in self._loops)
        return lo, hi


def _samples_within(a: BoundaryCurve, b: BoundaryCurve, sep: float) -> bool:
    # whether some sample of a lies within sep of some sample of b, angles
    # wrapped; only pairs whose angles are within sep can qualify, so the
    # distances are taken on the angular window's candidates alone
    ta, va = a.theta_array(), a.t_array()
    tb, vb = b.theta_array(), b.t_array()
    two_pi = 2.0 * math.pi
    for i, j in _angular_window_pairs(ta % two_pi, tb % two_pi, sep + 1e-9):
        dth = _wrapped_gap(ta[i], tb[j])
        dt = va[i] - vb[j]
        if bool((np.sqrt(dth * dth + dt * dt) <= sep).any()):
            return True
    return False


class _Sweep(NamedTuple):
    # events: the sorted distinct sample angles mod 2 pi; cell c is the arc
    # [events[c], events[c + 1]), the last wrapping past 2 pi.  In a cell each
    # segment crosses every line or none, linearly in the angle.  The
    # (segment, cell) pairs, sorted by cell and then by height at the cell's
    # midpoint, keep the segment's unwrapped ends and the lap of the cell on
    # its chart (at events[c] + 2 pi lap); cell c's are starts[c]:starts[c + 1].
    events: np.ndarray
    starts: np.ndarray
    cell: np.ndarray
    lap: np.ndarray
    theta_a: np.ndarray
    theta_b: np.ndarray
    t_a: np.ndarray
    t_b: np.ndarray


def _turns(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (whole turns, remainder in [0, 2 pi)) of each angle
    turns, keys = np.divmod(angles, 2.0 * math.pi)
    rounded_up = keys >= 2.0 * math.pi  # the remainder of a tiny negative angle
    turns[rounded_up] += 1.0
    keys[rounded_up] = 0.0
    return turns, keys


def _crossing(theta_a, theta_b, t_a, t_b, x):
    # height at the unwrapped angle x of the segment (theta_a, t_a)-(theta_b,
    # t_b), clipped to the segment: the one interpolation of the module
    da, db = theta_a - x, theta_b - x
    return t_a + np.clip(-da / (db - da), 0.0, 1.0) * (t_b - t_a)


def _sweep_table(curve: AsymptoticCurve) -> _Sweep:
    two_pi = 2.0 * math.pi
    laps, keys = _turns(np.concatenate([loop[0][:-1] for loop in curve._loops]))
    # sorted and deduplicated without np.unique, which imports numpy.ma (about 1 MB)
    events = keys[np.argsort(keys, kind="stable")]
    events = events[np.append(True, events[1:] > events[:-1])]
    k = len(events)
    # each sample's place on the unwrapped line of events, exact in integers
    place = laps.astype(np.int64) * k + np.searchsorted(events, keys)
    segs, split = [], np.cumsum([len(loop[0]) - 1 for loop in curve._loops])[:-1]
    for (theta, t, _, _, winding), p in zip(curve._loops, np.split(place, split)):
        p = np.append(p, p[0] + round(winding / two_pi) * k)
        segs.append((p[:-1], p[1:], theta[:-1], theta[1:], t[:-1], t[1:]))
    pa, pb, theta_a, theta_b, t_a, t_b = (np.concatenate(c) for c in zip(*segs))
    # a segment covers the cells between its ends; a vertical edge covers none
    counts = np.abs(pb - pa)
    seg = np.repeat(np.arange(len(counts)), counts)
    first = np.minimum(pa, pb) - (np.cumsum(counts) - counts)
    lap, cell = np.divmod(first[seg] + np.arange(len(seg)), k)
    ends = np.append(events, events[0] + two_pi)
    x0 = ends[cell] + lap * two_pi
    x1 = ends[cell + 1] + lap * two_pi
    ends_and_heights = theta_a[seg], theta_b[seg], t_a[seg], t_b[seg]
    # on a simple curve the crossings in a cell keep their order
    order = np.lexsort((_crossing(*ends_and_heights, 0.5 * (x0 + x1)), cell))
    cell = cell[order]
    starts = np.searchsorted(cell, np.arange(k + 1))
    return _Sweep(events, starts, cell, lap[order], *(a[order] for a in ends_and_heights))


def _lines(curve: AsymptoticCurve, angles: np.ndarray) -> tuple[np.ndarray, ...]:
    # (crossing heights grouped by angle and sorted, crossing count per
    # angle, height per angle) of the vertical lines at the given angles.
    # A line at a sample angle lies in the cell to its right.
    s = curve._sweep
    turns, keys = _turns(angles)
    c = np.searchsorted(s.events, keys, side="right") - 1
    turns[c < 0] -= 1.0  # below the first event: the last cell, one turn on
    c %= len(s.events)
    counts = s.starts[c + 1] - s.starts[c]
    owner = np.repeat(np.arange(len(angles)), counts)
    pair = np.repeat(s.starts[c] - (np.cumsum(counts) - counts), counts) + np.arange(len(owner))
    x = angles[owner] + 2.0 * math.pi * (s.lap[pair] - turns[owner])
    ts = _crossing(s.theta_a[pair], s.theta_b[pair], s.t_a[pair], s.t_b[pair], x)
    ts = ts[np.lexsort((ts, owner))]
    heights = np.full(len(angles), math.inf)
    same = owner[1:] == owner[:-1]
    np.minimum.at(heights, owner[1:][same], (ts[1:] - ts[:-1])[same])
    return ts, counts, heights


def vertical_line_crossings(curve: AsymptoticCurve, p: float) -> list[float]:
    """Heights at which the curve meets the vertical line at angle ``p``, sorted.

    Each crossing is read off a sampled segment by linear interpolation.
    A line at a sample angle reads the limit from the right: the side of
    an edge at constant angle, or a turn of the curve, counts only if the
    curve goes on to the right of it.
    """
    return _lines(curve, np.array([float(p)]))[0].tolist()


def height_at(curve: AsymptoticCurve, p: float) -> float:
    """Length of the shortest bounded complementary piece of the line at ``p``.

    Infinite when the line crosses the curve fewer than two times.
    """
    return float(_lines(curve, np.array([float(p)]))[2][0])


@dataclass(frozen=True)
class HeightProfile:
    """Heights and crossing counts over an angular grid.

    ``heights`` holds ``inf`` where fewer than two crossings exist.
    """

    angles: np.ndarray
    heights: np.ndarray
    crossing_counts: np.ndarray

    def footprint(self) -> np.ndarray:
        """Boolean mask of angles where the curve meets the vertical line."""
        return self.crossing_counts > 0


def height_profile(curve: AsymptoticCurve, n: int = 720) -> HeightProfile:
    """Heights and crossing counts on a uniform ``n``-point angular grid."""
    if n < 8:
        raise UsageError(f"angular grid needs at least 8 points, got {n!r}")
    angles = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    _, counts, heights = _lines(curve, angles)
    return HeightProfile(angles=angles, heights=heights, crossing_counts=counts)


def _gaps(curve: AsymptoticCurve) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool]:
    # Neighbours in a cell have linear gaps.  Returns (events, cell, left,
    # right, footprint): each gap's cell and end limits, and whether any
    # cell is crossed.
    s = curve._sweep
    ends = np.append(s.events, s.events[0] + 2.0 * math.pi)
    laps = s.lap * (2.0 * math.pi)
    left = _crossing(s.theta_a, s.theta_b, s.t_a, s.t_b, ends[s.cell] + laps)
    right = _crossing(s.theta_a, s.theta_b, s.t_a, s.t_b, ends[s.cell + 1] + laps)
    same = s.cell[1:] == s.cell[:-1]
    # rounding where two segments share a vertex can leave a gap a hair below 0
    left, right = (np.maximum(np.diff(h)[same], 0.0) for h in (left, right))
    return s.events, s.cell[1:][same], left, right, len(s.cell) > 0


def _infimum(events, cell, left, right) -> tuple[float, float, float]:
    # (infimum, the cell end it is approached at, +1 if its cell lies above
    # that angle and -1 if below); (inf, nan, 0) when no line has two crossings
    if len(cell) == 0:
        return math.inf, math.nan, 0.0
    j = int(np.argmin(np.concatenate((left, right))))
    if j < len(cell):
        return float(left[j]), float(events[cell[j]]), 1.0
    j -= len(cell)
    return float(right[j]), float(events[(cell[j] + 1) % len(events)]), -1.0


def global_height(curve: AsymptoticCurve) -> float:
    """Exact infimum of the height over S^1: a limit at a sample angle, from one side."""
    return _infimum(*_gaps(curve)[:4])[0]


class Verdict(Enum):
    TALL = "Tall"
    SHORT = "Short"
    NONEXISTENCE = "NonexistenceCondition"


def tall_threshold(amb: AmbientSpace) -> float:
    """Height every footprint angle must exceed for the curve to be tall."""
    return min_rectangle_height(amb)


def nonexistence_threshold(amb: AmbientSpace) -> float:
    """Height below which an arc of angles triggers the nonexistence verdict.

    Non-positive for tau >= 1/sqrt(12), where the verdict is unreachable.
    """
    tau = amb.tau
    return (math.sqrt(1.0 + 4.0 * tau * tau) - 4.0 * tau) * math.pi


@dataclass(frozen=True)
class Classification:
    """Classifier outcome with the heights that justified it.

    ``witness`` is None for Tall; for NonexistenceCondition the longest
    arc ``(start, end)`` below the nonexistence threshold, ``start`` in
    [0, 2 pi) and ``end`` past 2 pi if the arc crosses angle 0, or
    ``(0, 2 pi)``; for Short the angle at which the infimum of the height
    is approached, nan if no line meets the curve.  ``footprint_min_height``
    is that exact infimum, and so is ``global_min_height``, the height
    being infinite off the footprint.  ``profile``, a height sample on
    ``grid`` angles for reports, is read from the same sweep table on
    first access.
    """

    verdict: Verdict
    witness: float | tuple[float, float] | None
    footprint_min_height: float
    global_min_height: float
    tall_threshold: float
    nonexistence_threshold: float
    curve: AsymptoticCurve = field(repr=False, compare=False)
    grid: int = field(repr=False, compare=False)

    @cached_property
    def profile(self) -> HeightProfile:
        return height_profile(self.curve, self.grid)


def _longest_arc(events, cell, left, right, thr: float) -> tuple[float, float] | None:
    # Longest arc of positive length where the height is below thr, or None.
    # A gap is linear on its cell (a, b), so it is below thr on the whole
    # cell, on [a, meet), on (meet, b] or nowhere; the height, the least
    # gap, is below thr on the union of these pieces.
    two_pi = 2.0 * math.pi
    below = (left < thr) | (right < thr)
    if not below.any():
        return None
    ends = np.append(events, events[0] + two_pi)
    a, b = ends[cell], ends[cell + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        meet = a + (thr - left) / (right - left) * (b - a)
    lo = np.where(left < thr, a, meet)[below]
    hi = np.where(right < thr, b, meet)[below]
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    cover = np.maximum.accumulate(hi)
    joined = np.append(cover[-1] - two_pi >= lo[0], cover[:-1] >= lo[1:])
    if joined.all():
        return 0.0, two_pi
    # start the list at an arc's first piece; pieces moved behind it wrap by 2 pi
    shift = int(np.argmin(joined))
    lo, hi, joined = np.roll(lo, -shift), np.roll(hi, -shift), np.roll(joined, -shift)
    lo[len(lo) - shift :] += two_pi
    hi[len(hi) - shift :] += two_pi
    cover = np.maximum.accumulate(hi)
    first = np.flatnonzero(~joined)
    last = np.append(first[1:], len(lo)) - 1
    best = int(np.argmax(cover[last] - lo[first]))
    start, end = float(lo[first[best]]), float(cover[last[best]])
    if start >= two_pi:
        start, end = start - two_pi, end - two_pi
    return start, end


def classify(amb: AmbientSpace, curve: AsymptoticCurve, n: int = 720) -> Classification:
    """Tall / Short / NonexistenceCondition verdict at every angle, not a sample.

    Tall requires the exact infimum of the height over the footprint to
    clear the tall threshold; the nonexistence verdict requires an arc of
    positive length below its threshold; anything else is Short.  ``n``
    sets only the grid of ``Classification.profile``.
    """
    if n < 8:
        raise UsageError(f"angular grid needs at least 8 points, got {n!r}")
    thr_tall = tall_threshold(amb)
    thr_nx = nonexistence_threshold(amb)
    events, cell, left, right, footprint = _gaps(curve)
    low, at, _ = _infimum(events, cell, left, right)
    if footprint and low > thr_tall:
        verdict, witness = Verdict.TALL, None
    elif (arc := _longest_arc(events, cell, left, right, thr_nx)) is not None:
        verdict, witness = Verdict.NONEXISTENCE, arc
    else:
        verdict, witness = Verdict.SHORT, at
    return Classification(
        verdict=verdict,
        witness=witness,
        footprint_min_height=low,
        global_min_height=low,
        tall_threshold=thr_tall,
        nonexistence_threshold=thr_nx,
        curve=curve,
        grid=n,
    )


def radial_projection(curve: AsymptoticCurve, n: float, T: float) -> list[np.ndarray]:
    """Project each loop onto the lateral face of the finite cylinder.

    The cylinder has euclidean radius ``tanh(n)``; the curve must stay
    inside the slab ``|t| < T``.  Each loop comes out as one ``(k, 3)``
    array of rows ``(x, y, t)``, fixed boundary data for the discrete
    minimizer.
    """
    if not (n > 0.0) or not (T > 0.0):
        raise DomainError("cylinder index and slab half-height must be positive")
    lo, hi = curve.t_range()
    if lo <= -T or hi >= T:
        raise DomainError(
            f"curve t-range [{lo!r}, {hi!r}] exits the open slab (-{T!r}, {T!r})"
        )
    radius = math.tanh(n)
    if not radius * radius < 1.0 - BOUNDARY_MARGIN:
        raise DomainError(f"cylinder radius tanh({n!r}) rounds onto the unit circle")
    return [
        np.column_stack(
            (radius * np.cos(c.theta_array()), radius * np.sin(c.theta_array()), c.t_array())
        )
        for c in curve.components
    ]


def parallel_circles(heights: Sequence[float], n: int = 720) -> AsymptoticCurve:
    """Union of horizontal circles at the given strictly increasing heights."""
    hs = list(heights)
    if not hs:
        raise UsageError("need at least one circle height")
    if any(b <= a for a, b in zip(hs, hs[1:])):
        raise UsageError(f"heights must be strictly increasing, got {hs!r}")
    if n < 8:
        raise UsageError(f"need at least 8 samples per circle, got {n!r}")
    return AsymptoticCurve(horizontal_circle(h, n) for h in hs)


def graph_curve(fn: Callable[[float], float], n: int = 720) -> AsymptoticCurve:
    """Single loop ``theta |-> (theta, fn(theta))`` sampled on ``n`` angles."""
    if n < 8:
        raise UsageError(f"need at least 8 samples, got {n!r}")
    theta = np.arange(n) * (2.0 * math.pi / n)
    t = [float(fn(th)) for th in theta.tolist()]
    return AsymptoticCurve([BoundaryCurve(theta, t, closed=True)])
