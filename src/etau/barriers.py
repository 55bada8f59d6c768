"""Asymptotic boundary data for barrier surfaces on the cylinder at infinity.

A tall rectangle is bounded at infinity by two helical-looking arcs
``gamma0``, ``gamma1`` over an angular window of width ``2 r`` around the
angle ``pi``, joined by two vertical segments of extent ``h``.  The arcs
carry the fiber shift ``-4 tau arctan(sin(theta) / (1 + cos(theta)))``
inherited from the model-change map, which the half-angle identity
collapses to ``-2 tau theta`` on ``(-pi, pi)``; the module computes with
the collapsed form and exposes the raw one for testing the identity.

``delta_for_slab`` reproduces the slab-placement bookkeeping: given a
vertical slab ``(t1, t2)`` thicker than ``pi sqrt(1 + 4 tau^2)``, any
boundary arc narrower than the returned angular width admits a tall
rectangle squeezed strictly inside the slab over that arc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .catenoid import CatenoidProfile, asymptotic_height, asymptotic_height_supremum
from .errors import DomainError, UsageError
from .models import AmbientSpace, BoundaryPoint

__all__ = [
    "ANGULAR_RESOLUTION",
    "BoundaryCurve",
    "TallRectangleBoundary",
    "raw_fiber_shift",
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


def _wrapped_gap(a: float, b: float) -> float:
    d = abs(a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


@dataclass(frozen=True)
class BoundaryCurve:
    """Sampled curve on the cylinder at infinity.

    Samples are ordered along the curve; consecutive samples must stay
    within one degree of angular separation so that downstream crossing
    detection sees every transversal passage.  A closed curve wraps from
    its last sample back to its first without a stored duplicate.
    """

    samples: tuple[BoundaryPoint, ...]
    closed: bool

    def __init__(self, samples: Iterable[BoundaryPoint], closed: bool) -> None:
        pts = tuple(samples)
        if len(pts) < 2:
            raise DomainError("boundary curve needs at least 2 samples")
        pairs = list(zip(pts, pts[1:]))
        if closed:
            pairs.append((pts[-1], pts[0]))
        for a, b in pairs:
            if _wrapped_gap(a.theta, b.theta) > ANGULAR_RESOLUTION + 1e-12:
                raise DomainError(
                    "adjacent samples exceed the one-degree angular resolution "
                    f"contract: {a.theta!r} to {b.theta!r}"
                )
        object.__setattr__(self, "samples", pts)
        object.__setattr__(self, "closed", bool(closed))

    def theta_array(self) -> np.ndarray:
        return np.array([p.theta for p in self.samples])

    def t_array(self) -> np.ndarray:
        return np.array([p.t for p in self.samples])

    def translated(self, dt: float) -> "BoundaryCurve":
        return BoundaryCurve(
            (BoundaryPoint(p.theta, p.t + dt) for p in self.samples), self.closed
        )

    def rotated(self, alpha: float) -> "BoundaryCurve":
        return BoundaryCurve(
            (BoundaryPoint(p.theta + alpha, p.t) for p in self.samples), self.closed
        )


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


def raw_fiber_shift(tau: float, theta: float) -> float:
    """Fiber coordinate of the arc point at parameter ``theta``, unreduced form.

    This is the vertical correction of the model-change map evaluated
    along the asymptotic boundary; by the half-angle identity it reduces
    to ``-2 tau theta`` on ``(-pi, pi)``.
    """
    return -4.0 * tau * math.atan2(math.sin(theta), 1.0 + math.cos(theta))


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
        (
            BoundaryPoint(math.pi + th + rect.rotation, -2.0 * tau * th + rect.vertical_offset)
            for th in thetas
        ),
        closed=False,
    )
    return lower, lower.translated(rect.h)


def rectangle_boundary(rect: TallRectangleBoundary, n: int) -> BoundaryCurve:
    """Closed simple loop: lower arc, up one side, upper arc back, down the other.

    Junction samples are not duplicated; the loop closes implicitly.
    """
    g0, g1 = gamma_curves(rect, n)
    n_side = max(2, n // 2)
    right_theta = g0.samples[-1].theta
    left_theta = g0.samples[0].theta
    up = np.linspace(g0.samples[-1].t, g1.samples[-1].t, n_side)
    down = np.linspace(g1.samples[0].t, g0.samples[0].t, n_side)
    pts: list[BoundaryPoint] = []
    pts.extend(g0.samples[:-1])
    pts.extend(BoundaryPoint(right_theta, t) for t in up[:-1])
    pts.extend(reversed(g1.samples[1:]))
    pts.extend(BoundaryPoint(left_theta, t) for t in down[:-1])
    loop = BoundaryCurve(pts, closed=True)
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


def is_simple(curve: BoundaryCurve, tol: float = 1e-12) -> bool:
    """Sweep over sample segments checking for self-intersections.

    Adjacent segments share an endpoint and are exempt; everything else
    is tested pairwise after unwrapping each pair to a common angular
    chart.  Contact counts: a crossing passing exactly through a sample
    vertex, or a vertex resting on another segment, makes the curve
    non-simple.  Collinear runs of samples stay fine because their
    bounding boxes are separated by at least one sample step.
    """
    segs = _segments(curve)
    m = len(segs)
    if m < 3:
        return True
    ax, ay, bx, by = segs[:, 0], segs[:, 1], segs[:, 2], segs[:, 3]
    mid = 0.5 * (ax + bx)
    two_pi = 2.0 * math.pi
    block = 512
    for start in range(0, m, block):
        stop = min(start + block, m)
        i = np.arange(start, stop)[:, None]
        j = np.arange(m)[None, :]
        allowed = j > i + 1
        if curve.closed:
            allowed &= ~((i == 0) & (j == m - 1))
        if not allowed.any():
            continue
        shift = np.round((mid[start:stop, None] - mid[None, :]) / two_pi) * two_pi
        cx = ax[None, :] + shift
        dx = bx[None, :] + shift
        cy = ay[None, :]
        dy = by[None, :]
        iax, iay = ax[start:stop, None], ay[start:stop, None]
        ibx, iby = bx[start:stop, None], by[start:stop, None]
        boxed = (
            (np.minimum(iax, ibx) <= np.maximum(cx, dx) + tol)
            & (np.minimum(cx, dx) <= np.maximum(iax, ibx) + tol)
            & (np.minimum(iay, iby) <= np.maximum(cy, dy) + tol)
            & (np.minimum(cy, dy) <= np.maximum(iay, iby) + tol)
        )
        cand = allowed & boxed
        if not cand.any():
            continue
        d1 = (ibx - iax) * (cy - iay) - (iby - iay) * (cx - iax)
        d2 = (ibx - iax) * (dy - iay) - (iby - iay) * (dx - iax)
        d3 = (dx - cx) * (iay - cy) - (dy - cy) * (iax - cx)
        d4 = (dx - cx) * (iby - cy) - (dy - cy) * (ibx - cx)
        # <= tol rather than < -tol so vertex-exact contact is caught;
        # collinear disjoint pairs are screened out by the bbox filter.
        contact = (d1 * d2 <= tol) & (d3 * d4 <= tol) & cand
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
    floor = min_rectangle_height(amb)
    gap = t2 - t1
    if not (gap > floor):
        raise DomainError(
            f"slab thickness {gap!r} must exceed pi*sqrt(1+4 tau^2) = {floor!r}"
        )
    h = 0.5 * (gap + floor)
    eps = 0.5 * (h - floor)
    if amb.tau == 0.0:
        return math.pi
    return min(math.pi, eps / (2.0 * amb.tau))


def place_rectangle(
    amb: AmbientSpace, theta1: float, theta2: float, t1: float, t2: float
) -> TallRectangleBoundary:
    """Tall rectangle over the arc from ``theta1`` to ``theta2`` inside the slab.

    The angular gap (shorter way around) must be positive and below
    ``delta_for_slab``; the returned boundary then lies in the closed arc
    and strictly between ``t1`` and ``t2``.
    """
    delta = delta_for_slab(amb, t1, t2)
    raw = (theta2 - theta1) % (2.0 * math.pi)
    if raw > math.pi:
        gap = 2.0 * math.pi - raw
        mid = theta2 + 0.5 * gap
    else:
        gap = raw
        mid = theta1 + 0.5 * gap
    if gap == 0.0:
        raise DomainError("angular gap between the arc endpoints must be positive")
    if not (gap < delta):
        raise DomainError(
            f"angular gap {gap!r} must be below delta_for_slab = {delta!r}"
        )
    floor = min_rectangle_height(amb)
    h = 0.5 * ((t2 - t1) + floor)
    eps = 0.5 * (h - floor)
    return TallRectangleBoundary(
        amb=amb,
        h=h,
        r=0.5 * gap,
        rotation=mid - math.pi,
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
    raw = (theta2 - theta1) % (2.0 * math.pi)
    if raw > math.pi:
        start, width = theta2, 2.0 * math.pi - raw
    else:
        start, width = theta1, raw
    for p in loop.samples:
        off = (p.theta - start) % (2.0 * math.pi)
        if off > width + 1e-9 and off < 2.0 * math.pi - 1e-9:
            return False
        if not (t1 < p.t < t2):
            return False
    return True


def horizontal_circle(t: float, n: int = 720) -> BoundaryCurve:
    """Closed horizontal circle at height ``t`` with ``n`` samples."""
    if n < 3:
        raise UsageError(f"need at least 3 samples on a circle, got {n!r}")
    step = 2.0 * math.pi / n
    return BoundaryCurve(
        (BoundaryPoint(k * step, t) for k in range(n)), closed=True
    )


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
