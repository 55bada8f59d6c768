"""Asymptotic boundary data for barrier surfaces on the cylinder at infinity.

Every sampled curve is a :class:`BoundaryCurve`, built from and stored as
two read-only arrays: angles in ``[0, 2 pi)`` and heights.  The builders
here (circles, arcs, rectangle loops, translations and rotations) and the
readers in :mod:`etau.curves` and :mod:`etau.cli` work on these arrays as
wholes; no per-sample point type exists.

A tall rectangle is bounded at infinity by two helical-looking arcs
``gamma0``, ``gamma1`` over an angular window of width ``2 r`` around the
angle ``pi``, joined by two vertical segments of extent ``h``.  The arcs
carry the fiber shift ``-4 tau arctan(sin(theta) / (1 + cos(theta)))``
inherited from the model-change map, which the half-angle identity
collapses to ``-2 tau theta`` on ``(-pi, pi)``; the module computes with
the collapsed form only; the raw form is kept as a test oracle that
checks the identity.

``delta_for_slab`` reproduces the slab-placement bookkeeping: given a
vertical slab ``(t1, t2)`` thicker than ``pi sqrt(1 + 4 tau^2)``, any
boundary arc narrower than the returned angular width admits a tall
rectangle squeezed strictly inside the slab over that arc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .catenoid import CatenoidProfile, asymptotic_height, asymptotic_height_supremum
from .errors import DomainError, UsageError
from .models import AmbientSpace

__all__ = [
    "ANGULAR_RESOLUTION",
    "BoundaryCurve",
    "TallRectangleBoundary",
    "min_rectangle_height",
    "gamma_curves",
    "rectangle_boundary",
    "delta_for_slab",
    "place_rectangle",
    "containment_sweep",
    "catenoid_asymptotic_circles",
    "horizontal_circle",
    "is_simple",
]

ANGULAR_RESOLUTION = math.pi / 180.0


def _wrapped_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = np.abs(a - b) % (2.0 * math.pi)
    return np.minimum(d, 2.0 * math.pi - d)


@dataclass(frozen=True, eq=False)
class BoundaryCurve:
    """Sampled curve on the cylinder at infinity.

    Samples are ordered along the curve; consecutive samples must stay
    within one degree of angular separation so that downstream crossing
    detection sees every transversal passage.  A closed curve wraps from
    its last sample back to its first without a stored duplicate.

    ``BoundaryCurve(theta, t, closed)`` is the curve through the samples
    ``(theta[i], t[i])``; the inputs are copied into two read-only arrays,
    the angles normalized into ``[0, 2 pi)``.  Equality compares ``closed``
    and the arrays.
    """

    closed: bool
    _theta: np.ndarray = field(repr=False)
    _t: np.ndarray = field(repr=False)

    def __init__(self, theta, t, closed: bool) -> None:
        theta = np.array(theta, dtype=float)
        t = np.array(t, dtype=float)
        if theta.ndim != 1 or theta.shape != t.shape:
            raise UsageError(
                f"need 1-d angle and height arrays of one length, got shapes "
                f"{theta.shape} and {t.shape}"
            )
        if not (np.isfinite(theta).all() and np.isfinite(t).all()):
            raise UsageError("boundary point coordinates must be finite")
        if len(theta) < 2:
            raise DomainError("boundary curve needs at least 2 samples")
        two_pi = 2.0 * math.pi
        theta = np.remainder(theta, two_pi, out=theta)
        # the remainder of a tiny negative angle rounds up to 2 pi itself
        theta[theta == two_pi] = 0.0
        nxt = np.roll(theta, -1) if closed else theta[1:]
        wide = np.flatnonzero(
            _wrapped_gap(theta[: len(nxt)], nxt) > ANGULAR_RESOLUTION + 1e-12
        )
        if wide.size:
            i = int(wide[0])
            raise DomainError(
                "adjacent samples exceed the one-degree angular resolution "
                f"contract: {float(theta[i])!r} to {float(theta[(i + 1) % len(theta)])!r}"
            )
        theta.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "closed", bool(closed))
        object.__setattr__(self, "_theta", theta)
        object.__setattr__(self, "_t", t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BoundaryCurve):
            return NotImplemented
        return (
            self.closed == other.closed
            and np.array_equal(self._theta, other._theta)
            and np.array_equal(self._t, other._t)
        )

    def __hash__(self) -> int:
        # normalized angles hold no -0.0, so equal curves have equal angle bytes
        return hash((self.closed, self._theta.tobytes()))

    def theta_array(self) -> np.ndarray:
        """Sample angles, in order, as a read-only array."""
        return self._theta

    def t_array(self) -> np.ndarray:
        """Sample heights, in order, as a read-only array."""
        return self._t

    def translated(self, dt: float) -> "BoundaryCurve":
        return BoundaryCurve(self._theta, self._t + dt, self.closed)

    def rotated(self, alpha: float) -> "BoundaryCurve":
        return BoundaryCurve(self._theta + alpha, self._t, self.closed)


def min_rectangle_height(amb: AmbientSpace) -> float:
    """Height threshold ``pi sqrt(1 + 4 tau^2)`` below which no tall rectangle exists.

    It is twice the supremum of the catenoid asymptotic heights.
    """
    return 2.0 * asymptotic_height_supremum(amb)


@dataclass(frozen=True)
class TallRectangleBoundary:
    """Placement data for one tall-rectangle boundary.

    ``r`` is the angular half-width of the footprint, which before
    rotation is the arc ``[pi - r, pi + r]``; ``h`` the vertical extent
    of the two straight sides.
    """

    amb: AmbientSpace
    h: float
    r: float
    rotation: float = 0.0
    vertical_offset: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 < self.r < math.pi):
            raise DomainError(f"angular half-width must lie in (0, pi), got {self.r!r}")
        floor = min_rectangle_height(self.amb)
        if not (self.h > floor):
            raise DomainError(
                f"rectangle height {self.h!r} must exceed pi*sqrt(1+4 tau^2) = {floor!r}"
            )


def gamma_curves(rect: TallRectangleBoundary, n: int) -> tuple[BoundaryCurve, BoundaryCurve]:
    """The two boundary arcs, lower then upper, with placement applied.

    The lower arc is ``theta |-> (pi + theta, -2 tau theta)`` for
    ``theta in [-r, r]``; the upper one sits ``h`` above it.  Both are
    then rotated by ``rect.rotation`` and shifted by ``rect.vertical_offset``.
    The arcs descend as the angle advances because the minimal plane they
    bound is the isometric image of a half-space rectangle and the model
    change twists fibers by ``-4 tau arctan(x/(y+1))``.
    """
    if n < 2:
        raise UsageError(f"need at least 2 samples per arc, got {n!r}")
    tau = rect.amb.tau
    thetas = np.linspace(-rect.r, rect.r, n)
    lower = BoundaryCurve(
        math.pi + thetas + rect.rotation,
        -2.0 * tau * thetas + rect.vertical_offset,
        closed=False,
    )
    return lower, lower.translated(rect.h)


def rectangle_boundary(rect: TallRectangleBoundary, n: int) -> BoundaryCurve:
    """Closed simple loop: lower arc, up one side, upper arc back, down the other.

    Junction samples are not duplicated; the loop closes implicitly.
    """
    g0, g1 = gamma_curves(rect, n)
    n_side = max(2, n // 2)
    theta, lower, upper = g0.theta_array(), g0.t_array(), g1.t_array()
    right, left = np.full(n_side - 1, theta[-1]), np.full(n_side - 1, theta[0])
    up = np.linspace(lower[-1], upper[-1], n_side)[:-1]
    down = np.linspace(upper[0], lower[0], n_side)[:-1]
    loop = BoundaryCurve(
        np.concatenate((theta[:-1], right, theta[:0:-1], left)),
        np.concatenate((lower[:-1], up, upper[:0:-1], down)),
        closed=True,
    )
    if not is_simple(loop):
        raise DomainError("rectangle boundary samples self-intersect")
    return loop


def _segments(curve: BoundaryCurve) -> np.ndarray:
    # rows (theta_a, t_a, theta_b, t_b), theta_b unwrapped relative to theta_a
    theta = curve.theta_array()
    t = curve.t_array()
    if curve.closed:
        theta = np.append(theta, theta[0])
        t = np.append(t, t[0])
    db = (np.diff(theta) + math.pi) % (2.0 * math.pi) - math.pi
    return np.column_stack([theta[:-1], t[:-1], theta[:-1] + db, t[1:]])


# Candidate pairs handed to the pair predicates per batch; bounds the
# temporaries when stacked vertical sides put O(k^2) pairs in one window.
_PAIR_CHUNK = 1 << 15


def _angular_window_pairs(
    keys_a: np.ndarray, keys_b: np.ndarray, width: float, chunk: int = _PAIR_CHUNK
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Index pairs ``(i, j)`` whose keys lie within ``width`` of each other mod 2 pi.

    Keys are angles in ``[0, 2 pi)``.  ``keys_b`` is sorted once and tiled
    at ``-2 pi``, ``0`` and ``+2 pi``, so each ``keys_a[i]`` finds its window
    by two binary searches; pairs come out in batches of at most ``chunk``.
    A width of ``pi`` or more covers the whole circle and yields every pair.
    """
    na, nb = len(keys_a), len(keys_b)
    if na == 0 or nb == 0:
        return
    if width >= math.pi:
        for s in range(0, na * nb, chunk):
            flat = np.arange(s, min(s + chunk, na * nb))
            yield flat // nb, flat % nb
        return
    two_pi = 2.0 * math.pi
    order = np.argsort(keys_b, kind="stable")
    ordered = keys_b[order]
    tiled = np.concatenate((ordered - two_pi, ordered, ordered + two_pi))
    lo = np.searchsorted(tiled, keys_a - width, side="left")
    counts = np.searchsorted(tiled, keys_a + width, side="right") - lo
    ends = np.cumsum(counts)
    starts = ends - counts
    total = int(ends[-1])
    for s in range(0, total, chunk):
        flat = np.arange(s, min(s + chunk, total))
        i = np.searchsorted(ends, flat, side="right")
        yield i, order[(lo[i] + flat - starts[i]) % nb]


def _folds_back(segs: np.ndarray, closed: bool, tol: float) -> bool:
    # whether two adjacent segments turn back onto each other: directions
    # more than 90 degrees apart, with the far end of the shorter segment
    # within tol of the longer one's line, so that it rests on that segment
    ux, uy = segs[:, 2] - segs[:, 0], segs[:, 3] - segs[:, 1]
    if closed:
        vx, vy = np.concatenate((ux[1:], ux[:1])), np.concatenate((uy[1:], uy[:1]))
    else:
        ux, uy, vx, vy = ux[:-1], uy[:-1], ux[1:], uy[1:]
    back = ux * vx + uy * vy < 0.0
    if not back.any():
        return False
    ux, uy, vx, vy = ux[back], uy[back], vx[back], vy[back]
    longer = np.maximum(np.hypot(ux, uy), np.hypot(vx, vy))
    return bool((np.abs(ux * vy - uy * vx) <= tol * longer).any())


def is_simple(curve: BoundaryCurve, tol: float = 1e-12) -> bool:
    """Check the sample segments for self-intersections.

    Adjacent segments share an endpoint and are exempt from the pair
    test, unless one turns back onto the other: collinear and opposite
    (within ``tol`` of the longer one's line), they overlap beyond that
    endpoint.  This also catches the folded closed loops of 2 or 3
    samples, in which every pair of segments is adjacent.  Every other
    pair is tested after unwrapping it to a common angular chart.  Contact
    counts: a crossing passing exactly through a sample vertex, or a
    vertex resting on another segment, makes the curve non-simple.
    Collinear runs of samples that go on forward stay fine because their
    bounding boxes are separated by at least one sample step.

    Two segments whose padded bounding boxes meet have mid-angles within
    ``w = max |b_theta - a_theta| + 2 tol`` of each other (mod 2 pi), with
    the widest segment of this curve setting ``w`` and ``1e-9`` added for
    rounding.  So only the pairs of an angular window of width ``w``
    around each mid-angle are tested (every pair once ``w >= pi``), in
    batches of bounded size: stacked vertical sides put O(k^2) pairs in
    one window, and the batches keep their memory flat.  The box filter
    and the orientation products are the all-pairs test's, applied to a
    superset of the pairs it could flag, so the result equals the
    all-pairs result.
    """
    segs = _segments(curve)
    if _folds_back(segs, curve.closed, tol):
        return False
    m = len(segs)
    if m < 3:
        return True
    ax, ay, bx, by = segs[:, 0], segs[:, 1], segs[:, 2], segs[:, 3]
    mid = 0.5 * (ax + bx)
    two_pi = 2.0 * math.pi
    keys = mid % two_pi
    width = float(np.abs(bx - ax).max()) + 2.0 * abs(tol) + 1e-9
    for i, j in _angular_window_pairs(keys, keys, width):
        allowed = j > i + 1
        if curve.closed:
            allowed &= ~((i == 0) & (j == m - 1))
        i, j = i[allowed], j[allowed]
        if len(i) == 0:
            continue
        shift = np.round((mid[i] - mid[j]) / two_pi) * two_pi
        cx = ax[j] + shift
        dx = bx[j] + shift
        cy = ay[j]
        dy = by[j]
        iax, iay, ibx, iby = ax[i], ay[i], bx[i], by[i]
        boxed = (
            (np.minimum(iax, ibx) <= np.maximum(cx, dx) + tol)
            & (np.minimum(cx, dx) <= np.maximum(iax, ibx) + tol)
            & (np.minimum(iay, iby) <= np.maximum(cy, dy) + tol)
            & (np.minimum(cy, dy) <= np.maximum(iay, iby) + tol)
        )
        if not boxed.any():
            continue
        d1 = (ibx - iax) * (cy - iay) - (iby - iay) * (cx - iax)
        d2 = (ibx - iax) * (dy - iay) - (iby - iay) * (dx - iax)
        d3 = (dx - cx) * (iay - cy) - (dy - cy) * (iax - cx)
        d4 = (dx - cx) * (iby - cy) - (dy - cy) * (ibx - cx)
        # <= tol rather than < -tol so vertex-exact contact is caught;
        # collinear disjoint pairs are screened out by the bbox filter.
        contact = (d1 * d2 <= tol) & (d3 * d4 <= tol) & boxed
        if contact.any():
            return False
    return True


def delta_for_slab(amb: AmbientSpace, t1: float, t2: float) -> float:
    """Angular width under which a tall rectangle fits strictly inside the slab.

    Follows the placement bookkeeping: with ``m = pi sqrt(1 + 4 tau^2)``,
    the rectangle height is ``h = (t2 - t1 + m) / 2`` and the slack
    ``eps = (h - m) / 2``; the arcs stay within ``eps`` of their base
    heights as long as ``2 tau |theta| < eps``.
    """
    return _slab_placement(amb, t1, t2)[2]


def _slab_placement(amb: AmbientSpace, t1: float, t2: float) -> tuple[float, float, float]:
    # (h, eps, delta) of the bookkeeping documented on delta_for_slab
    floor = min_rectangle_height(amb)
    gap = t2 - t1
    if not (gap > floor):
        raise DomainError(
            f"slab thickness {gap!r} must exceed pi*sqrt(1+4 tau^2) = {floor!r}"
        )
    h = 0.5 * (gap + floor)
    eps = 0.5 * (h - floor)
    delta = math.pi if amb.tau == 0.0 else min(math.pi, eps / (2.0 * amb.tau))
    return h, eps, delta


def _shorter_arc(theta1: float, theta2: float) -> tuple[float, float]:
    """Start and width of the shorter arc between ``theta1`` and ``theta2``."""
    raw = (theta2 - theta1) % (2.0 * math.pi)
    if raw > math.pi:
        return theta2, 2.0 * math.pi - raw
    return theta1, raw


def place_rectangle(
    amb: AmbientSpace, theta1: float, theta2: float, t1: float, t2: float
) -> TallRectangleBoundary:
    """Tall rectangle over the arc from ``theta1`` to ``theta2`` inside the slab.

    The angular gap (shorter way around) must be positive and below
    ``delta_for_slab``; the returned boundary then lies in the closed arc
    and strictly between ``t1`` and ``t2``.
    """
    h, eps, delta = _slab_placement(amb, t1, t2)
    start, gap = _shorter_arc(theta1, theta2)
    if gap == 0.0:
        raise DomainError("angular gap between the arc endpoints must be positive")
    if not (gap < delta):
        raise DomainError(
            f"angular gap {gap!r} must be below delta_for_slab = {delta!r}"
        )
    return TallRectangleBoundary(
        amb=amb,
        h=h,
        r=0.5 * gap,
        rotation=start + 0.5 * gap - math.pi,
        vertical_offset=t1 + eps,
    )


def containment_sweep(
    rect: TallRectangleBoundary,
    theta1: float,
    theta2: float,
    t1: float,
    t2: float,
    n: int = 1000,
) -> bool:
    """Check on ``n`` boundary samples that the rectangle sits inside the window.

    Angles must fall in the closed arc from ``theta1`` to ``theta2``
    (shorter way around), heights strictly inside ``(t1, t2)``.
    """
    loop = rectangle_boundary(rect, max(2, n // 3))
    start, width = _shorter_arc(theta1, theta2)
    off = (loop.theta_array() - start) % (2.0 * math.pi)
    outside = (off > width + 1e-9) & (off < 2.0 * math.pi - 1e-9)
    t = loop.t_array()
    return not outside.any() and bool(((t1 < t) & (t < t2)).all())


def horizontal_circle(t: float, n: int = 720) -> BoundaryCurve:
    """Closed horizontal circle at height ``t`` with ``n`` samples."""
    if n < 3:
        raise UsageError(f"need at least 3 samples on a circle, got {n!r}")
    step = 2.0 * math.pi / n
    return BoundaryCurve(np.arange(n) * step, np.full(n, t), closed=True)


def catenoid_asymptotic_circles(
    amb: AmbientSpace, d: float, t_offset: float = 0.0, n: int = 720
) -> tuple[BoundaryCurve, BoundaryCurve]:
    """The two horizontal circles bounding the catenoid with neck parameter ``d``.

    Returned lower then upper, at heights ``t_offset -+ asymptotic_height``.
    Their vertical gap is below ``pi sqrt(1 + 4 tau^2)`` for every ``d``.
    """
    hh = asymptotic_height(CatenoidProfile(amb, d))
    return (
        horizontal_circle(t_offset - hh, n),
        horizontal_circle(t_offset + hh, n),
    )
