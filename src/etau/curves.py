"""Heights and classification of asymptotic curves on the cylinder at infinity.

A curve is a finite disjoint union of simple closed sampled loops on
S^1 x R.  Its height at an angle ``p`` is the shortest bounded component
of the vertical line at ``p`` with the crossing points removed: fewer
than two transversal crossings leave only unbounded pieces and the
height is infinite.  The classifier compares heights against the two
thresholds ``sqrt(1+4 tau^2) pi`` (tall) and ``(sqrt(1+4 tau^2)-4 tau) pi``
(the nonexistence condition, vacuous once tau >= 1/sqrt(12)).

Crossings are found on the sampled polylines by sign-change bracketing
of the unwrapped angle function with linear interpolation inside a
segment.  A vertical line meeting the curve tangentially (a touch or a
whole edge at constant angle) raises :class:`TangencyError`; sweep
drivers retry with a perturbed angle and flag the angle if the tangency
persists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

from .barriers import BoundaryCurve, is_simple, min_rectangle_height
from .errors import DomainError, UsageError
from .models import AmbientSpace, BoundaryPoint, CylinderPoint

__all__ = [
    "TangencyError",
    "AsymptoticCurve",
    "HeightProfile",
    "GlobalHeight",
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

_VERTEX_TOL = 1e-9
_MIN_SEPARATION = 1e-6


class TangencyError(DomainError):
    """The vertical line meets the curve without crossing it transversally."""


def _closed_arrays(component: BoundaryCurve) -> tuple[np.ndarray, np.ndarray]:
    # Unwrapped angles along the loop, with the closing return to the first
    # sample appended, so segment i joins index i to i+1 throughout.
    theta = component.theta_array()
    t = component.t_array()
    steps = np.diff(theta)
    steps = (steps + math.pi) % (2.0 * math.pi) - math.pi
    closing = (theta[0] - theta[-1] + math.pi) % (2.0 * math.pi) - math.pi
    unwrapped = np.concatenate(([theta[0]], theta[0] + np.cumsum(np.append(steps, closing))))
    return unwrapped, np.append(t, t[0])


@dataclass(frozen=True)
class AsymptoticCurve:
    """Finite disjoint union of simple closed loops on S^1 x R."""

    components: tuple[BoundaryCurve, ...]

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
                if _min_sample_distance(comps[i], comps[j]) <= _MIN_SEPARATION:
                    raise DomainError(
                        f"components {i} and {j} come within {_MIN_SEPARATION} "
                        "of each other on samples"
                    )
        object.__setattr__(self, "components", comps)

    def t_range(self) -> tuple[float, float]:
        lo = min(p.t for c in self.components for p in c.samples)
        hi = max(p.t for c in self.components for p in c.samples)
        return lo, hi


def _min_sample_distance(a: BoundaryCurve, b: BoundaryCurve) -> float:
    ta, va = a.theta_array(), a.t_array()
    tb, vb = b.theta_array(), b.t_array()
    dth = np.abs(ta[:, None] - tb[None, :]) % (2.0 * math.pi)
    dth = np.minimum(dth, 2.0 * math.pi - dth)
    dt = va[:, None] - vb[None, :]
    return float(np.sqrt(dth * dth + dt * dt).min())


def vertical_line_crossings(
    curve: AsymptoticCurve, p: float, tol: float = _VERTEX_TOL
) -> list[float]:
    """Heights at which the curve crosses the vertical line at angle ``p``.

    Crossings are transversal passages of the unwrapped angle through
    ``p`` modulo 2 pi, located by linear interpolation on the sampled
    segments and returned sorted.  Tangential contact raises
    :class:`TangencyError`.
    """
    out: list[float] = []
    for comp in curve.components:
        theta, t = _closed_arrays(comp)
        m = len(theta) - 1
        lo = math.floor((theta.min() - p) / (2.0 * math.pi)) - 1
        hi = math.ceil((theta.max() - p) / (2.0 * math.pi)) + 1
        for k in range(lo, hi + 1):
            target = p + 2.0 * math.pi * k
            if target < theta.min() - tol or target > theta.max() + tol:
                continue
            diff = theta - target
            near = np.abs(diff) <= tol
            if near[m]:
                near[m] = False  # closing point duplicates sample 0
            hit = np.flatnonzero(near[:m])
            winding = theta[m] - theta[0]  # 2 pi times the loop degree
            for i in hit:
                # neighbors in the unwrapped chart; crossing the seam needs
                # the winding offset so a circle's sample 0 sees -step behind
                prev_d = diff[i - 1] if i >= 1 else diff[m - 1] - winding
                next_d = diff[i + 1]
                if np.abs(prev_d) <= tol or np.abs(next_d) <= tol:
                    raise TangencyError(
                        f"an edge of the curve lies on the line at angle {p!r}"
                    )
                if prev_d * next_d > 0.0:
                    raise TangencyError(f"tangential touch of the line at angle {p!r}")
                out.append(float(t[i]))
            prod = diff[:m] * diff[1 : m + 1]
            crossing = np.flatnonzero(prod < 0.0)
            for i in crossing:
                if np.abs(diff[i]) <= tol or np.abs(diff[i + 1]) <= tol:
                    continue  # vertex hits already handled
                frac = -diff[i] / (diff[i + 1] - diff[i])
                out.append(float(t[i] + frac * (t[i + 1] - t[i])))
    out.sort()
    return out


def height_at(curve: AsymptoticCurve, p: float, tol: float = _VERTEX_TOL) -> float:
    """Length of the shortest bounded complementary piece of the line at ``p``.

    Infinite when the line crosses the curve fewer than two times.
    """
    ts = vertical_line_crossings(curve, p, tol)
    if len(ts) < 2:
        return math.inf
    return min(b - a for a, b in zip(ts, ts[1:]))


def _height_with_retries(
    curve: AsymptoticCurve, p: float, retries: int
) -> tuple[float, int, bool]:
    # returns (height, crossing count, flagged); perturbs p on tangency.
    q = p
    for attempt in range(retries + 1):
        try:
            ts = vertical_line_crossings(curve, q)
        except TangencyError:
            q = p + (attempt + 1) * 1.7e-7
            continue
        h = math.inf if len(ts) < 2 else min(b - a for a, b in zip(ts, ts[1:]))
        return h, len(ts), False
    return math.nan, 0, True


@dataclass(frozen=True)
class HeightProfile:
    """Heights and crossing data over an angular grid.

    ``heights`` holds ``inf`` where fewer than two crossings exist and
    ``nan`` at flagged (persistently tangential) angles.
    """

    angles: np.ndarray
    heights: np.ndarray
    crossing_counts: np.ndarray
    flagged: np.ndarray

    def footprint(self) -> np.ndarray:
        """Boolean mask of angles where the curve meets the vertical line."""
        return self.crossing_counts > 0


def height_profile(
    curve: AsymptoticCurve, n: int = 720, retries: int = 3
) -> HeightProfile:
    """Evaluate :func:`height_at` on a uniform ``n``-point angular grid."""
    if n < 8:
        raise UsageError(f"angular grid needs at least 8 points, got {n!r}")
    angles = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    heights = np.empty(n)
    counts = np.zeros(n, dtype=int)
    flags = np.zeros(n, dtype=bool)
    for i, p in enumerate(angles):
        h, c, f = _height_with_retries(curve, float(p), retries)
        heights[i] = h
        counts[i] = c
        flags[i] = f
    return HeightProfile(angles=angles, heights=heights, crossing_counts=counts, flagged=flags)


@dataclass(frozen=True)
class GlobalHeight:
    """Grid infimum of the height function with the final refinement step."""

    value: float
    grid_step: float
    flagged_near_argmin: bool

    def __float__(self) -> float:
        return self.value


def global_height(
    curve: AsymptoticCurve,
    n: int = 720,
    stable_tol: float = 1e-4,
    retries: int = 3,
) -> GlobalHeight:
    """Infimum of the height over S^1 by grid sweep plus local refinement.

    The coarse argmin neighborhood is re-sampled with the step halved
    until two successive minima agree to ``stable_tol``.
    """
    profile = height_profile(curve, n, retries)
    finite = np.isfinite(profile.heights)
    if not finite.any():
        return GlobalHeight(
            value=math.inf,
            grid_step=2.0 * math.pi / n,
            flagged_near_argmin=bool(profile.flagged.any()),
        )
    i0 = int(np.nanargmin(np.where(finite, profile.heights, np.inf)))
    center = float(profile.angles[i0])
    best = float(profile.heights[i0])
    step = 2.0 * math.pi / n
    flagged = bool(profile.flagged[max(0, i0 - 1) : i0 + 2].any())
    for _ in range(40):
        local = np.linspace(center - step, center + step, 17)
        vals = []
        for p in local:
            h, _, f = _height_with_retries(curve, float(p), retries)
            flagged = flagged or f
            vals.append(h if not math.isnan(h) else math.inf)
        j = int(np.argmin(vals))
        new_best = float(vals[j])
        new_center = float(local[j])
        step *= 0.5
        if abs(new_best - best) < stable_tol and step < 2.0 * math.pi / n / 4:
            best = min(best, new_best)
            center = new_center
            break
        best = min(best, new_best)
        center = new_center
    return GlobalHeight(value=best, grid_step=step, flagged_near_argmin=flagged)


class Verdict(Enum):
    TALL = "Tall"
    SHORT = "Short"
    NONEXISTENCE = "NonexistenceCondition"
    INDETERMINATE = "Indeterminate"


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

    ``witness`` is the offending angle for Short, the (start, end) arc
    for NonexistenceCondition, a flagged angle for Indeterminate, and
    None for Tall.  ``footprint_min_height`` is the infimum over angles
    the curve projects to; ``global_min_height`` the infimum over the
    whole grid (the two agree unless the footprint is empty, since the
    height is infinite off the footprint).  ``profile`` is the height
    sweep the verdict was read from.
    """

    verdict: Verdict
    witness: float | tuple[float, float] | None
    footprint_min_height: float
    global_min_height: float
    tall_threshold: float
    nonexistence_threshold: float
    profile: HeightProfile = field(repr=False, compare=False)


def _runs_of(mask: np.ndarray) -> list[tuple[int, int]]:
    # maximal circular runs of True, as (start, length)
    n = len(mask)
    if mask.all():
        return [(0, n)]
    if not mask.any():
        return []
    runs = []
    idx = np.flatnonzero(mask)
    start = idx[0]
    prev = idx[0]
    for i in idx[1:]:
        if i == prev + 1:
            prev = i
            continue
        runs.append((start, prev - start + 1))
        start = prev = i
    runs.append((start, prev - start + 1))
    # merge a run ending at n-1 with one starting at 0 across the seam
    if len(runs) > 1 and runs[0][0] == 0 and runs[-1][0] + runs[-1][1] == n:
        s, ln = runs.pop()
        first = runs.pop(0)
        runs.append((s, ln + first[1]))
    return runs


def classify(
    amb: AmbientSpace, curve: AsymptoticCurve, n: int = 720, retries: int = 3
) -> Classification:
    """Tall / Short / NonexistenceCondition verdict over an ``n``-angle sweep.

    Tall requires every footprint angle to clear the tall threshold;
    the nonexistence verdict requires an arc of at least two consecutive
    grid angles below its threshold.  Persistent tangency flags make the
    result Indeterminate.
    """
    profile = height_profile(curve, n, retries)
    thr_tall = tall_threshold(amb)
    thr_nx = nonexistence_threshold(amb)
    heights = profile.heights
    foot = profile.footprint()
    if profile.flagged.any():
        foot_min = global_min = (
            float(np.nanmin(heights)) if np.isfinite(heights).any() else math.inf
        )
    else:
        foot_min = float(heights[foot].min()) if foot.any() else math.inf
        global_min = float(heights.min())
    verdict, witness = _verdict(profile, foot, thr_tall, thr_nx)
    return Classification(
        verdict=verdict,
        witness=witness,
        footprint_min_height=foot_min,
        global_min_height=global_min,
        tall_threshold=thr_tall,
        nonexistence_threshold=thr_nx,
        profile=profile,
    )


def _verdict(
    profile: HeightProfile, foot: np.ndarray, thr_tall: float, thr_nx: float
) -> tuple[Verdict, float | tuple[float, float] | None]:
    # the verdict of classify and its witness, as documented on Classification
    if profile.flagged.any():
        return Verdict.INDETERMINATE, float(
            profile.angles[int(np.flatnonzero(profile.flagged)[0])]
        )
    if foot.any() and bool((profile.heights[foot] > thr_tall).all()):
        return Verdict.TALL, None
    below = foot & (profile.heights < thr_nx)
    runs = [r for r in _runs_of(below) if r[1] >= 2]
    if runs:
        start, length = max(runs, key=lambda r: r[1])
        n = len(profile.angles)
        if length >= n:
            return Verdict.NONEXISTENCE, (0.0, 2.0 * math.pi)
        step = 2.0 * math.pi / n
        a0 = float(profile.angles[start])
        return Verdict.NONEXISTENCE, (a0, a0 + (length - 1) * step)
    if foot.any():
        offender = int(np.argmin(np.where(foot, profile.heights, np.inf)))
        return Verdict.SHORT, float(profile.angles[offender])
    return Verdict.SHORT, math.nan


def radial_projection(
    curve: AsymptoticCurve, n: float, T: float
) -> list[list[CylinderPoint]]:
    """Project each loop onto the lateral face of the finite cylinder.

    The cylinder has euclidean radius ``tanh(n)``; the curve must stay
    inside the slab ``|t| < T``.  Output loops serve as fixed boundary
    data for the discrete minimizer.
    """
    if not (n > 0.0) or not (T > 0.0):
        raise DomainError("cylinder index and slab half-height must be positive")
    lo, hi = curve.t_range()
    if lo <= -T or hi >= T:
        raise DomainError(
            f"curve t-range [{lo!r}, {hi!r}] exits the open slab (-{T!r}, {T!r})"
        )
    radius = math.tanh(n)
    out = []
    for comp in curve.components:
        out.append(
            [
                CylinderPoint(radius * math.cos(p.theta), radius * math.sin(p.theta), p.t)
                for p in comp.samples
            ]
        )
    return out


def parallel_circles(heights: Sequence[float], n: int = 720) -> AsymptoticCurve:
    """Union of horizontal circles at the given strictly increasing heights."""
    hs = list(heights)
    if not hs:
        raise UsageError("need at least one circle height")
    if any(b <= a for a, b in zip(hs, hs[1:])):
        raise UsageError(f"heights must be strictly increasing, got {hs!r}")
    if n < 8:
        raise UsageError(f"need at least 8 samples per circle, got {n!r}")
    step = 2.0 * math.pi / n
    comps = [
        BoundaryCurve((BoundaryPoint(k * step, h) for k in range(n)), closed=True)
        for h in hs
    ]
    return AsymptoticCurve(comps)


def graph_curve(fn: Callable[[float], float], n: int = 720) -> AsymptoticCurve:
    """Single loop ``theta |-> (theta, fn(theta))`` sampled on ``n`` angles."""
    if n < 8:
        raise UsageError(f"need at least 8 samples, got {n!r}")
    step = 2.0 * math.pi / n
    comp = BoundaryCurve(
        (BoundaryPoint(k * step, float(fn(k * step))) for k in range(n)), closed=True
    )
    return AsymptoticCurve([comp])
