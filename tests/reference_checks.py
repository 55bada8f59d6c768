"""Plain forms of library algorithms, kept as oracles for the faster ones.

``reference_is_simple`` tests every pair of sample segments and
``reference_min_sample_distance`` builds the full matrix of wrapped
sample distances.  Both cost quadratic time and memory; the library's
``barriers.is_simple`` and ``curves._samples_within`` must return the
same booleans.  ``reference_bisect`` is the plain bisection that
``numerics.bisect_monotone`` replaced with the ITP method.
``reference_classify`` is the grid classifier that the exact event sweep
of ``curves.classify`` replaced: it reads the verdict off a height profile
on ``n`` angles, with tangency retries and an ``Indeterminate`` verdict.
"""

import math

import numpy as np

from etau import curves
from etau.barriers import BoundaryCurve, _segments


def reference_is_simple(curve: BoundaryCurve, tol: float = 1e-12, block: int = 512) -> bool:
    """Self-intersection test over all segment pairs, ``block`` rows at a time."""
    segs = _segments(curve)
    m = len(segs)
    if m < 3:
        return True
    ax, ay, bx, by = segs[:, 0], segs[:, 1], segs[:, 2], segs[:, 3]
    mid = 0.5 * (ax + bx)
    two_pi = 2.0 * math.pi
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
        contact = (d1 * d2 <= tol) & (d3 * d4 <= tol) & cand
        if contact.any():
            return False
    return True


def reference_min_sample_distance(a: BoundaryCurve, b: BoundaryCurve) -> float:
    """Smallest wrapped distance between a sample of ``a`` and one of ``b``."""
    ta, va = a.theta_array(), a.t_array()
    tb, vb = b.theta_array(), b.t_array()
    dth = np.abs(ta[:, None] - tb[None, :]) % (2.0 * math.pi)
    dth = np.minimum(dth, 2.0 * math.pi - dth)
    dt = va[:, None] - vb[None, :]
    return float(np.sqrt(dth * dth + dt * dt).min())


def reference_bisect(g, lo: float, hi: float, target: float = 0.0, tol: float = 1e-10) -> float:
    """Solve g(x) = target for monotone g on [lo, hi] by plain bisection."""
    glo = g(lo) - target
    ghi = g(hi) - target
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if glo * ghi > 0:
        raise ValueError("[%g, %g] does not bracket the target" % (lo, hi))
    increasing = ghi > 0
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        gm = g(mid) - target
        if abs(gm) <= tol or hi - lo < tol:
            return mid
        if (gm > 0) == increasing:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


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


def reference_classify(amb, curve, n: int = 720, retries: int = 3):
    """Grid verdict as ``(value, witness, footprint minimum)``.

    ``value`` is a ``curves.Verdict`` value string or ``"Indeterminate"``.
    Tall needs every footprint grid angle above the tall threshold; the
    nonexistence verdict needs two consecutive grid angles below its own.
    """
    profile = curves.height_profile(curve, n, retries)
    thr_tall = curves.tall_threshold(amb)
    thr_nx = curves.nonexistence_threshold(amb)
    heights = profile.heights
    foot = profile.footprint()
    if profile.flagged.any():
        flagged = float(profile.angles[int(np.flatnonzero(profile.flagged)[0])])
        finite = np.isfinite(heights).any()
        return "Indeterminate", flagged, float(np.nanmin(heights)) if finite else math.inf
    foot_min = float(heights[foot].min()) if foot.any() else math.inf
    if foot.any() and bool((heights[foot] > thr_tall).all()):
        return "Tall", None, foot_min
    runs = [r for r in _runs_of(foot & (heights < thr_nx)) if r[1] >= 2]
    if runs:
        start, length = max(runs, key=lambda r: r[1])
        if length >= n:
            return "NonexistenceCondition", (0.0, 2.0 * math.pi), foot_min
        a0 = float(profile.angles[start])
        return "NonexistenceCondition", (a0, a0 + (length - 1) * 2.0 * math.pi / n), foot_min
    if foot.any():
        offender = int(np.argmin(np.where(foot, heights, np.inf)))
        return "Short", float(profile.angles[offender]), foot_min
    return "Short", math.nan, foot_min
