"""Plain forms of library algorithms, kept as oracles for the faster ones.

``reference_is_simple`` tests every pair of sample segments, after a
per-pair loop over adjacent ones for folds, and
``reference_min_sample_distance`` builds the full matrix of wrapped
sample distances.  Both cost quadratic time and memory; the library's
``barriers.is_simple`` and ``curves._samples_within`` must return the
same booleans.  The per-point builders ``reference_horizontal_circle``,
``reference_translated``, ``reference_rotated``,
``reference_gamma_curves``, ``reference_rectangle_boundary``,
``reference_graph_curve`` (and the compositions
``reference_parallel_circles`` and
``reference_catenoid_asymptotic_circles``) compute each sample's angle
and height on its own in Python floats, wrap the angle into
``[0, 2 pi)`` themselves and only then hand the lists to
``BoundaryCurve``, as the library did before it built curves from
arrays; the array builders must give the same arrays bit for bit, and
``reference_containment_sweep`` the same verdicts.  ``reference_bisect`` is the plain bisection that
``numerics.bisect_monotone`` replaced with the ITP method.
``reference_crossings`` is the per-angle crossing search that the sweep
table of ``curves`` replaced: it brackets one line's crossings with a
1e-9 vertex tolerance and raises ``ReferenceTangency`` on tangential
contact.  ``reference_profile`` runs it on ``n`` grid angles and retries
a touched line at ``p + 1.7e-7 k``; ``curves.height_profile`` must give
the same bits at every angle it did not retry.  ``reference_classify``
is the grid classifier that the exact event sweep of ``curves.classify``
replaced: it reads the verdict off that profile, with an
``Indeterminate`` verdict where the retries ran out.
``reference_kernel_evaluate`` (with its ``reference_scatter``) and
``reference_vertical_graph`` are the free-vertex and vertical-graph mesh
kernels that one ``_kernels.plan`` replaced; a plan must give the same
areas, flags and gradients bit for bit.  The free kernel's gradient is
written in the plan's per-corner form: each triangle's edge and position
terms are summed per corner (corner 1 gets the first edge term plus the
position term, corner 2 the second plus it, corner 0 the position term
minus both), and each column is scattered from three terms per triangle.
Its areas, flags and t column are those of the kernel before that form,
whose arithmetic it did not change, and of ``reference_vertical_graph``.  ``reference_minimize`` is
``plateau.minimize`` before its stall test: it stops only on the
gradient norm, the iteration cap or a failed line search, so a solve
that ``minimize`` ends as ``stalled`` runs on here to one of those.  It
shortens a step that fails the Armijo test by ``reference_backtrack``,
the safeguarded quadratic step of ``plateau._backtrack``.
``reference_topology`` is the ``TriMesh`` edge check with one
``np.unique`` per edge kind, which one sort of directed edge codes
replaced; it must raise the same error or find the same boundary.
``reference_mesh_disk`` builds its rings one at a time and
``reference_two_disk_mesh`` joins two checked disk meshes into a third;
the array-built ``plateau.mesh_disk`` and ``plateau._two_disk_mesh`` must
give the same meshes bit for bit.  Both references check every mesh
through ``TriMesh`` itself, so they are also the per-mesh check that the
builders' one shared topology per shape replaced, and must raise the
same vertex errors.  ``reference_asymptotic_height`` is the
catenoid asymptotic height as an improper integral in the regular
variable ``t``, cut off by ``integrate_to_infinity`` where a tail bound
falls below half the absolute tolerance; ``catenoid.asymptotic_height``
replaced it with a proper integral in ``gd(t)`` and must agree within
both quadrature tolerances.  ``reference_apply_lift`` and
``reference_lift_jacobian`` are the lift and its Jacobian at one row
``(x, y, t)`` in per-point complex arithmetic, which the array forms
``isometries.apply_lift_array`` and ``lift_jacobian_array`` replaced,
and ``reference_metric_cylinder`` is the 3x3 cylinder metric assembled
from scalar components, as ``models.metric_cylinder`` did before it
built stacks of metrics from ``fiber_form`` arrays; the matrices must
agree bit for bit.
``reference_sampled_sup_shift`` builds its points through
``reference_sup_shift_samples``, as a complex exponential of the random
angles and with the boundary rings rebuilt on every call;
``isometries.sampled_sup_shift``, which writes cosines and sines into one
array and keeps the rings, must give the same points and the same
``(sup, z)`` bit for bit.

Three oracles state paper identities that the library no longer computes.
``reference_regularized_truncation`` is the closed form of the upper limit
in the regular variable ``t`` at the reference radius ``(3/2) log d``;
``catenoid._height_upper_limit`` must agree with it.
``reference_raw_fiber_shift`` is the unreduced fiber shift
``-4 tau arctan(sin(theta) / (1 + cos(theta)))`` of the rectangle arcs,
which the half-angle identity collapses to the ``-2 tau theta`` that
``barriers.gamma_curves`` uses.  ``reference_lower_lemma`` writes out the
disk-pair lemma: its bound ``2 pi sqrt(1 + 4 tau^2) (sqrt(d^3 - 4) -
sqrt(d))``, the constants ``c1`` and ``c2``, and the sufficient condition
``3 c1 log(d) + 2 c2 < sqrt(d)``, under which the lemma must hold for the
closed-form disk-pair area at the reference radius.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from etau import _kernels, curves, plateau
from etau._kernels.mesh_numpy import _DEGEN_REL
from etau.barriers import BoundaryCurve, _segments
from etau.catenoid import (
    CatenoidProfile,
    asymptotic_height,
    disk_area_closed_form,
    truncation_radius,
)
from etau.errors import DomainError
from etau.isometries import POSITIVE, arg_fprime, mobius_apply, mobius_derivative, t_shift
from etau.models import fiber_form
from etau.numerics import QuadratureResult, ToleranceConfig, integrate


def reference_is_simple(curve: BoundaryCurve, tol: float = 1e-12, block: int = 512) -> bool:
    """Self-intersection test over all segment pairs, ``block`` rows at a time."""
    segs = _segments(curve)
    m = len(segs)
    rows = segs.tolist()
    adjacent = [(i, i + 1) for i in range(m - 1)] + ([(m - 1, 0)] if curve.closed else [])
    for i, j in adjacent:
        # a fold: the next segment turns back onto this one
        ux, uy = rows[i][2] - rows[i][0], rows[i][3] - rows[i][1]
        vx, vy = rows[j][2] - rows[j][0], rows[j][3] - rows[j][1]
        longer = max(math.hypot(ux, uy), math.hypot(vx, vy))
        if ux * vx + uy * vy < 0.0 and abs(ux * vy - uy * vx) <= tol * longer:
            return False
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


def _angle(theta: float) -> float:
    # one sample's angle wrapped into [0, 2 pi); the remainder of a tiny
    # negative angle rounds up to 2 pi itself, which stands for 0
    theta = theta % (2.0 * math.pi)
    return 0.0 if theta == 2.0 * math.pi else theta


def _curve(samples, closed: bool) -> BoundaryCurve:
    # the curve through per-sample (theta, t) pairs, each angle wrapped here
    pts = [(_angle(th), t) for th, t in samples]
    return BoundaryCurve([th for th, _ in pts], [t for _, t in pts], closed)


def _samples(curve: BoundaryCurve) -> list[tuple[float, float]]:
    return list(zip(curve.theta_array().tolist(), curve.t_array().tolist()))


def reference_horizontal_circle(t: float, n: int = 720) -> BoundaryCurve:
    """``barriers.horizontal_circle`` built one sample at a time."""
    step = 2.0 * math.pi / n
    return _curve(((k * step, t) for k in range(n)), closed=True)


def reference_translated(curve: BoundaryCurve, dt: float) -> BoundaryCurve:
    """``BoundaryCurve.translated`` built one sample at a time."""
    return _curve(((th, t + dt) for th, t in _samples(curve)), curve.closed)


def reference_rotated(curve: BoundaryCurve, alpha: float) -> BoundaryCurve:
    """``BoundaryCurve.rotated`` built one sample at a time."""
    return _curve(((th + alpha, t) for th, t in _samples(curve)), curve.closed)


def reference_gamma_curves(rect, n: int) -> tuple[BoundaryCurve, BoundaryCurve]:
    """``barriers.gamma_curves`` built one sample at a time."""
    tau = rect.amb.tau
    lower = _curve(
        (
            (math.pi + th + rect.rotation, -2.0 * tau * th + rect.vertical_offset)
            for th in np.linspace(-rect.r, rect.r, n).tolist()
        ),
        closed=False,
    )
    return lower, reference_translated(lower, rect.h)


def reference_rectangle_boundary(rect, n: int) -> BoundaryCurve:
    """``barriers.rectangle_boundary`` joined sample by sample, without its simplicity check."""
    g0, g1 = reference_gamma_curves(rect, n)
    lower, upper = _samples(g0), _samples(g1)
    n_side = max(2, n // 2)
    right_theta = lower[-1][0]
    left_theta = lower[0][0]
    up = np.linspace(lower[-1][1], upper[-1][1], n_side)
    down = np.linspace(upper[0][1], lower[0][1], n_side)
    pts = lower[:-1]
    pts.extend((right_theta, t) for t in up[:-1])
    pts.extend(reversed(upper[1:]))
    pts.extend((left_theta, t) for t in down[:-1])
    return _curve(pts, closed=True)


def reference_containment_sweep(rect, theta1, theta2, t1, t2, n: int = 1000) -> bool:
    """``barriers.containment_sweep`` as a loop over the boundary samples."""
    loop = reference_rectangle_boundary(rect, max(2, n // 3))
    raw = (theta2 - theta1) % (2.0 * math.pi)
    if raw > math.pi:
        start, width = theta2, 2.0 * math.pi - raw
    else:
        start, width = theta1, raw
    for theta, t in _samples(loop):
        off = (theta - start) % (2.0 * math.pi)
        if off > width + 1e-9 and off < 2.0 * math.pi - 1e-9:
            return False
        if not (t1 < t < t2):
            return False
    return True


def reference_graph_curve(fn, n: int = 720):
    """``curves.graph_curve`` built one sample at a time."""
    step = 2.0 * math.pi / n
    comp = _curve(((k * step, float(fn(k * step))) for k in range(n)), closed=True)
    return curves.AsymptoticCurve([comp])


def reference_parallel_circles(heights, n: int = 720):
    """``curves.parallel_circles`` from per-sample circles."""
    return curves.AsymptoticCurve(reference_horizontal_circle(h, n) for h in heights)


def reference_catenoid_asymptotic_circles(amb, d: float, t_offset: float = 0.0, n: int = 720):
    """``barriers.catenoid_asymptotic_circles`` from per-sample circles."""
    hh = asymptotic_height(CatenoidProfile(amb, d))
    return (
        reference_horizontal_circle(t_offset - hh, n),
        reference_horizontal_circle(t_offset + hh, n),
    )


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


class ReferenceTangency(DomainError):
    """The vertical line meets the curve without crossing it transversally."""


def reference_crossings(curve, p: float, tol: float = 1e-9) -> list[float]:
    """Sorted crossing heights of the line at ``p``, rebuilt from the samples."""
    out = []
    for comp in curve.components:
        theta, t = comp.theta_array(), comp.t_array()
        # unwrapped: each sample's angle plus the whole turns of the running
        # sum of wrapped steps, closed by the first sample's angle
        steps = (np.diff(theta) + math.pi) % (2.0 * math.pi) - math.pi
        closing = (theta[0] - theta[-1] + math.pi) % (2.0 * math.pi) - math.pi
        running = theta[0] + np.cumsum(np.append(steps, closing))
        raw = np.append(theta[1:], theta[0])
        turns = np.round((running - raw) / (2.0 * math.pi))
        theta = np.concatenate(([theta[0]], raw + 2.0 * math.pi * turns))
        t = np.append(t, t[0])
        m = len(theta) - 1
        lo = math.floor((theta.min() - p) / (2.0 * math.pi)) - 1
        hi = math.ceil((theta.max() - p) / (2.0 * math.pi)) + 1
        for k in range(lo, hi + 1):
            target = p + 2.0 * math.pi * k
            if target < theta.min() - tol or target > theta.max() + tol:
                continue
            diff = theta - target
            near = np.abs(diff) <= tol
            near[m] = False
            winding = theta[m] - theta[0]
            for i in np.flatnonzero(near[:m]):
                prev_d = diff[i - 1] if i >= 1 else diff[m - 1] - winding
                next_d = diff[i + 1]
                if np.abs(prev_d) <= tol or np.abs(next_d) <= tol:
                    raise ReferenceTangency(f"an edge of the curve lies on the line at {p!r}")
                if prev_d * next_d > 0.0:
                    raise ReferenceTangency(f"tangential touch of the line at {p!r}")
                out.append(float(t[i]))
            for i in np.flatnonzero(diff[:m] * diff[1 : m + 1] < 0.0):
                if np.abs(diff[i]) <= tol or np.abs(diff[i + 1]) <= tol:
                    continue
                frac = -diff[i] / (diff[i + 1] - diff[i])
                out.append(float(t[i] + frac * (t[i + 1] - t[i])))
    return sorted(out)


def reference_profile(curve, n: int, retries: int = 3):
    """``(heights, crossing counts, retried)`` on ``n`` grid angles.

    A touched line moves to ``p + 1.7e-7 k`` for ``k = 1..retries``;
    ``retried`` marks the angles that moved, and ``heights`` is nan where
    the retries ran out.
    """
    angles = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    heights = np.full(n, math.nan)
    counts = np.zeros(n, dtype=int)
    retried = np.zeros(n, dtype=bool)
    for j, p in enumerate(angles):
        for attempt in range(retries + 1):
            try:
                ts = reference_crossings(curve, float(p) + attempt * 1.7e-7)
            except ReferenceTangency:
                retried[j] = True
                continue
            heights[j] = math.inf if len(ts) < 2 else min(b - a for a, b in zip(ts, ts[1:]))
            counts[j] = len(ts)
            break
    return heights, counts, retried


def reference_classify(amb, curve, n: int = 720, retries: int = 3):
    """Grid verdict as ``(value, witness, footprint minimum)``.

    ``value`` is a ``curves.Verdict`` value string or ``"Indeterminate"``.
    Tall needs every footprint grid angle above the tall threshold; the
    nonexistence verdict needs two consecutive grid angles below its own.
    """
    heights, counts, _ = reference_profile(curve, n, retries)
    angles = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    thr_tall = curves.tall_threshold(amb)
    thr_nx = curves.nonexistence_threshold(amb)
    foot = counts > 0
    flagged = np.isnan(heights)
    if flagged.any():
        finite = np.isfinite(heights).any()
        at = float(angles[int(np.flatnonzero(flagged)[0])])
        return "Indeterminate", at, float(np.nanmin(heights)) if finite else math.inf
    foot_min = float(heights[foot].min()) if foot.any() else math.inf
    if foot.any() and bool((heights[foot] > thr_tall).all()):
        return "Tall", None, foot_min
    runs = [r for r in _runs_of(foot & (heights < thr_nx)) if r[1] >= 2]
    if runs:
        start, length = max(runs, key=lambda r: r[1])
        if length >= n:
            return "NonexistenceCondition", (0.0, 2.0 * math.pi), foot_min
        a0 = float(angles[start])
        return "NonexistenceCondition", (a0, a0 + (length - 1) * 2.0 * math.pi / n), foot_min
    if foot.any():
        offender = int(np.argmin(np.where(foot, heights, np.inf)))
        return "Short", float(angles[offender]), foot_min
    return "Short", math.nan, foot_min


def reference_gram_areas(q11, q12, q22):
    """Areas ``0.5·sqrt(det)``, degeneracy flags and ``sqrt(det)`` (1 where degenerate)."""
    p = q11 * q22
    r = q12 * q12
    det = p - r
    scale = p + r
    degenerate = (det <= _DEGEN_REL * scale) | (scale == 0.0)
    root = np.sqrt(np.where(degenerate, 1.0, det))
    return np.where(degenerate, 0.0, 0.5 * root), degenerate, root


class ReferenceEvaluation:
    """One reference kernel evaluation; ``gradient()`` scatters ``_terms()``."""

    __slots__ = ("tri_areas", "degenerate", "_terms", "_scatter")

    def __init__(self, tri_areas, degenerate, terms, scatter) -> None:
        self.tri_areas = tri_areas
        self.degenerate = degenerate
        self._terms = terms
        self._scatter = scatter

    def gradient(self) -> np.ndarray:
        return self._scatter(*self._terms())


def reference_kernel_evaluate(tau: float, vertices: np.ndarray, triangles: np.ndarray):
    """Per-triangle areas and flags of the free-vertex kernel, keeping its
    per-corner gradient terms ``(corner1, corner2, corner0)``, each ``(m, 3)``:
    corners 1 and 2 receive the derivative of the triangle's area along
    their edge vector plus a third of its derivative along the barycenter's
    base coordinates, and corner 0 that third minus both edge terms."""
    v = np.asarray(vertices, dtype=np.float64)
    tri = np.asarray(triangles)
    # x[k], y[k], t[k]: the coordinates of every triangle's corner k
    x, y, t = np.take(v.T, tri.T, axis=1)
    e1x, e1y, e1t = x[1] - x[0], y[1] - y[0], t[1] - t[0]
    e2x, e2y, e2t = x[2] - x[0], y[2] - y[0], t[2] - t[0]
    cx = (x[0] + x[1] + x[2]) / 3.0
    cy = (y[0] + y[1] + y[2]) / 3.0

    lam, a, b = fiber_form(tau, cx, cy)
    lam2 = lam * lam
    d11 = e1x * e1x + e1y * e1y
    d12 = e1x * e2x + e1y * e2y
    d22 = e2x * e2x + e2y * e2y
    s1 = (a * e1x + b * e1y) + e1t
    s2 = (a * e2x + b * e2y) + e2t
    q11 = lam2 * d11 + s1 * s1
    q12 = lam2 * d12 + s1 * s2
    q22 = lam2 * d22 + s2 * s2
    tri_areas, degenerate, root = reference_gram_areas(q11, q12, q22)

    def terms():
        factor = np.where(degenerate, 0.0, 0.5 / root)
        u1 = s1 * q22 - s2 * q12
        u2 = s2 * q11 - s1 * q12
        fu1 = factor * u1
        fu2 = factor * u2
        # the edge terms: f·G e_i, with G e_i = (λ² e_i^xy + (A, B) s_i, s_i)
        alpha = factor * lam2
        k11, k12, k22 = alpha * q11, alpha * q12, alpha * q22
        edge1 = [k22 * e1x - k12 * e2x + a * fu1, k22 * e1y - k12 * e2y + b * fu1]
        edge2 = [k11 * e2x - k12 * e1x + a * fu2, k11 * e2y - k12 * e1y + b * fu2]
        # the position term: (f/3)(λ² K (cx, cy) + 2τλ (-wy, wx))
        dd = q22 * d11 + q11 * d22 - 2.0 * q12 * d12
        wx = e1x * u1 + e2x * u2
        wy = e1y * u1 + e2y * u2
        big_k = lam * dd + 2.0 * tau * (cy * wx - cx * wy)
        pos = [
            factor / 3.0 * (lam2 * big_k * cx - 2.0 * tau * lam * wy),
            factor / 3.0 * (lam2 * big_k * cy + 2.0 * tau * lam * wx),
        ]
        corner1 = np.array([edge1[k] + pos[k] for k in range(2)] + [fu1])
        corner2 = np.array([edge2[k] + pos[k] for k in range(2)] + [fu2])
        corner0 = np.array([pos[k] - (edge1[k] + edge2[k]) for k in range(2)] + [-(fu1 + fu2)])
        return corner1.T, corner2.T, corner0.T

    return ReferenceEvaluation(
        tri_areas,
        degenerate.astype(np.uint8),
        terms,
        functools.partial(reference_scatter, len(v), tri),
    )


def reference_scatter(n, tri, corner1, corner2, corner0) -> np.ndarray:
    """Vertex ``tri[:, 1]`` receives ``corner1``, ``tri[:, 2]`` ``corner2``
    and ``tri[:, 0]`` ``corner0``, by one ``bincount`` per column over a
    freshly built index."""
    idx = np.concatenate([tri[:, 1], tri[:, 2], tri[:, 0]])
    grad = np.empty((n, 3))
    for k in range(3):
        w = np.concatenate([corner1[:, k], corner2[:, k], corner0[:, k]])
        grad[:, k] = np.bincount(idx, w, n)
    return grad


class ReferenceVerticalGraph:
    """The vertical-graph kernel: ``q_ij = P_ij + s_i s_j`` with
    ``s_i = c_i + Δt_i``, on base parts computed once from the mesh."""

    __slots__ = ("_n", "_idx", "_i0", "_i1", "_i2", "_p11", "_p12", "_p22", "_c1", "_c2")

    def __init__(self, n, idx, p11, p12, p22, c1, c2) -> None:
        m = len(p11)
        self._n = n
        self._idx = idx
        self._i1, self._i2, self._i0 = idx[:m], idx[m : 2 * m], idx[2 * m :]
        self._p11, self._p12, self._p22 = p11, p12, p22
        self._c1, self._c2 = c1, c2

    def evaluate(self, vertices: np.ndarray) -> ReferenceEvaluation:
        t = np.asarray(vertices, dtype=np.float64)[:, 2]
        t0 = t[self._i0]
        s1 = self._c1 + (t[self._i1] - t0)
        s2 = self._c2 + (t[self._i2] - t0)
        q11 = self._p11 + s1 * s1
        q12 = self._p12 + s1 * s2
        q22 = self._p22 + s2 * s2
        tri_areas, degenerate, root = reference_gram_areas(q11, q12, q22)

        def terms():
            factor = np.where(degenerate, 0.0, 0.5 / root)
            return factor * (s1 * q22 - s2 * q12), factor * (s2 * q11 - s1 * q12)

        return ReferenceEvaluation(tri_areas, degenerate.astype(np.uint8), terms, self._scatter)

    def _scatter(self, dt1: np.ndarray, dt2: np.ndarray) -> np.ndarray:
        grad = np.zeros((self._n, 3))
        w = np.concatenate([dt1, dt2, -(dt1 + dt2)])
        grad[:, 2] = np.bincount(self._idx, w, self._n)
        return grad


def reference_vertical_graph(tau: float, vertices: np.ndarray, triangles: np.ndarray):
    """The vertical-graph kernel of a mesh, built once from its (x, y)."""
    v = np.asarray(vertices, dtype=np.float64)
    tri = np.asarray(triangles)
    p0 = v[tri[:, 0]]
    p1 = v[tri[:, 1]]
    p2 = v[tri[:, 2]]
    cx = (p0[:, 0] + p1[:, 0] + p2[:, 0]) / 3.0
    cy = (p0[:, 1] + p1[:, 1] + p2[:, 1]) / 3.0
    lam, a, b = fiber_form(tau, cx, cy)
    lam2 = lam * lam
    e1x, e1y = p1[:, 0] - p0[:, 0], p1[:, 1] - p0[:, 1]
    e2x, e2y = p2[:, 0] - p0[:, 0], p2[:, 1] - p0[:, 1]
    return ReferenceVerticalGraph(
        len(v),
        np.concatenate([tri[:, 1], tri[:, 2], tri[:, 0]]),
        lam2 * (e1x * e1x + e1y * e1y),
        lam2 * (e1x * e2x + e1y * e2y),
        lam2 * (e2x * e2x + e2y * e2y),
        a * e1x + b * e1y,
        a * e2x + b * e2y,
    )


@dataclass(frozen=True)
class ReferenceSolveReport:
    final_area: float
    area_history: tuple
    termination: str


def reference_backtrack(step, area, c_area, slope):
    """The step after an Armijo rejection: the minimizer of the quadratic
    q(0) = area, q'(0) = -slope, q(step) = c_area, clamped to [0.1, 0.5] of
    ``step``; half the step when ``c_area`` is not finite."""
    rise = c_area - area + slope * step
    if not (math.isfinite(rise) and rise > 0.0):
        return step * 0.5
    return min(max(slope * step * step / (2.0 * rise), 0.1 * step), 0.5 * step)


def reference_minimize(amb, mesh, config=None, *, vertical=False):
    """Gradient descent with backtracking that stops only on the gradient
    norm, the iteration cap or a failed line search; returns the final
    vertices and a :class:`ReferenceSolveReport`."""
    cfg = config or plateau.SolverConfig()
    v = mesh.vertices.copy()
    fixed = mesh.boundary_mask
    free = ~fixed
    evaluate = _kernels.plan(amb.tau, v, mesh.triangles, vertical=vertical).evaluate
    ev = evaluate(v)
    area = float(np.sum(ev.tri_areas))
    base_degen = int(np.sum(ev.degenerate))
    grad = ev.gradient()
    grad[fixed] = 0.0
    history = [area]
    gnorm = float(np.linalg.norm(grad))
    step = plateau._INITIAL_STEP
    termination = "iteration_cap"
    for _ in range(cfg.max_iterations):
        if gnorm < cfg.gradient_tol:
            termination = "converged"
            break
        accepted = False
        for trial in range(plateau._MAX_BACKTRACKS):
            cand = v - step * grad
            r2 = cand[free, 0] ** 2 + cand[free, 1] ** 2
            if not (r2 < 1.0 - plateau.DISK_BARRIER).all():
                step *= plateau._LINE_SEARCH_SHRINK
                continue
            ev = evaluate(cand)
            if int(np.sum(ev.degenerate)) > base_degen:
                step *= plateau._LINE_SEARCH_SHRINK
                continue
            c_area = float(np.sum(ev.tri_areas))
            if c_area <= area - plateau._ARMIJO * step * gnorm * gnorm:
                v = cand
                area = c_area
                grad = ev.gradient()
                grad[fixed] = 0.0
                gnorm = float(np.linalg.norm(grad))
                history.append(area)
                if trial == 0:
                    step = min(step * 2.0, plateau._INITIAL_STEP * 100.0)
                accepted = True
                break
            step = reference_backtrack(step, area, c_area, gnorm * gnorm)
        if not accepted:
            termination = "line_search_failed"
            break
    return v, ReferenceSolveReport(area, tuple(history), termination)


def reference_topology(triangles, n):
    """Boundary edges, edge count and derived boundary mask of a triangle
    list on ``n`` vertices, raising ``DomainError`` like ``TriMesh``."""
    t = np.asarray(triangles, dtype=np.int64)
    src = t.ravel()
    dst = t[:, [1, 2, 0]].ravel()
    bad = np.flatnonzero(src == dst)
    if bad.size:
        e = (int(src[bad[0]]), int(dst[bad[0]]))
        raise DomainError(f"degenerate edge {e!r} in triangle")
    keys, counts = np.unique(
        np.minimum(src, dst) * n + np.maximum(src, dst), return_counts=True
    )
    over = np.flatnonzero(counts > 2)
    if over.size:
        e = divmod(int(keys[over[0]]), n)
        raise DomainError(f"edge {e!r} belongs to more than two triangles")
    directed, repeats = np.unique(src * n + dst, return_counts=True)
    rep = np.flatnonzero(repeats > 1)
    if rep.size:
        e = divmod(int(directed[rep[0]]), n)
        raise DomainError(
            f"directed edge {e!r} repeats: inconsistent orientation "
            "or duplicate triangle"
        )
    lo, hi = np.divmod(keys[counts == 1], n)
    mask = np.zeros(n, dtype=bool)
    mask[lo] = True
    mask[hi] = True
    return frozenset(zip(lo.tolist(), hi.tolist())), len(keys), mask


def reference_mesh_disk(boundary, n_r, ring_fractions=None):
    """``plateau.mesh_disk`` with its rings built one at a time."""
    loop = plateau._loop_array(boundary)
    if ring_fractions is None:
        fractions = np.arange(1, n_r + 1) / n_r
    else:
        fractions = np.asarray(ring_fractions, dtype=np.float64)
    n = len(loop)
    center = loop.mean(axis=0)
    verts = [center]
    for f in fractions:
        verts.extend(center + f * (loop - center))
    vertices = np.vstack(verts)
    i = np.arange(n, dtype=np.int64)
    i2 = (i + 1) % n
    fan = np.column_stack([np.zeros_like(i), 1 + i, 1 + i2])
    base_in = 1 + n * np.arange(n_r - 1, dtype=np.int64)[:, None]
    base_out = base_in + n
    bands = np.stack(
        [
            np.stack([base_in + i, base_out + i, base_out + i2], axis=-1),
            np.stack([base_in + i, base_out + i2, base_in + i2], axis=-1),
        ],
        axis=2,
    )
    return plateau.TriMesh(vertices, np.vstack([fan, bands.reshape(-1, 3)]))


def reference_two_disk_mesh(radius, h, n_r, n_theta):
    """``plateau._two_disk_mesh`` as the union of two checked disk meshes."""
    fractions = plateau.hyperbolic_ring_fractions(2.0 * math.atanh(radius), n_r)
    top = reference_mesh_disk(plateau.circle_loop(radius, h, n_theta), n_r, fractions)
    bot = reference_mesh_disk(plateau.circle_loop(radius, -h, n_theta), n_r, fractions)
    offset = len(top.vertices)
    vertices = np.vstack([top.vertices, bot.vertices])
    tris = np.vstack([top.triangles, bot.triangles + offset])
    mask = np.concatenate([top.boundary_mask, bot.boundary_mask])
    return plateau.TriMesh(vertices, tris, mask)


def integrate_to_infinity(f, a: float, tail_bound, tol=None) -> QuadratureResult:
    """Integrate f over [a, oo) given a decreasing bound on the neglected tail.

    `tail_bound(T)` must bound |integral of f over [T, oo)| from above.  The
    truncation point is pushed out by doubling until the bound drops below
    half the absolute tolerance; the bound is then folded into the reported
    error estimate.
    """
    tols = ToleranceConfig() if tol is None else tol
    a = float(a)
    half = 0.5 * tols.abs_tol
    span = 1.0
    tail = float(tail_bound(a + span))
    while tail > half:
        span *= 2.0
        if span > 2.0**60:
            raise DomainError("tail bound does not fall below %g" % half)
        tail = float(tail_bound(a + span))
        if not math.isfinite(tail):
            raise DomainError("tail bound returned non-finite value")
    inner = integrate(f, a, a + span, ToleranceConfig(half, tols.rel_tol, tols.max_evals))
    return QuadratureResult(
        inner.value,
        inner.error_estimate + tail,
        inner.evaluations,
        inner.converged,
    )


def reference_asymptotic_height(tau: float, d: float, tol=None) -> QuadratureResult:
    """Asymptotic catenoid height as an improper integral in ``t``.

    The integrand is ``d sqrt(1 + 4 tau^2 tanh(rho / 2)^2) / sinh(rho)``
    with ``sinh(rho) = sqrt((1 + d^2) cosh(t)^2 - 1)``.
    """
    one_pd2 = 1.0 + d * d

    def f(t: float) -> float:
        c = math.cosh(t)
        s2 = one_pd2 * c * c - 1.0
        th = math.tanh(0.5 * math.asinh(math.sqrt(s2)))
        return d * math.sqrt(1.0 + 4.0 * tau * tau * th * th) / math.sqrt(s2)

    front = math.sqrt(1.0 + 4.0 * tau * tau) * d / math.sqrt(one_pd2)

    def tail(T: float) -> float:
        # integrand <= front * sech(t) / sqrt(1 - 1 / ((1+d^2) cosh(T)^2))
        # for t >= T, and the sech tail integrates to 2 arctan(e^-T) <= 2 e^-T
        c = math.cosh(T)
        margin = 1.0 - 1.0 / (one_pd2 * c * c)
        return front / math.sqrt(margin) * 2.0 * math.exp(-T)

    return integrate_to_infinity(f, 0.0, tail, tol)


def reference_apply_lift(lift, row) -> np.ndarray:
    """Apply the lifted isometry to one cylinder-model row (x, y, t)."""
    x, y, t = (float(c) for c in row)
    z = complex(x, y)
    w = mobius_apply(lift.f, z)
    a = arg_fprime(lift.f, z, lift.sector)
    if lift.orientation == POSITIVE:
        t = t - 2.0 * lift.tau * a + lift.c
    else:
        w = w.conjugate()
        t = -t + 2.0 * lift.tau * a + lift.c
    return np.array([w.real, w.imag, t])


def reference_lift_jacobian(lift, row) -> np.ndarray:
    """Analytic Jacobian of ``reference_apply_lift`` at one row (x, y, t)."""
    z = complex(float(row[0]), float(row[1]))
    fp = complex(mobius_derivative(lift.f, z))
    den = lift.f.w2 * z - lift.f.w1.conjugate()
    q = -2.0 * lift.f.w2 / den
    two_tau = 2.0 * lift.tau
    if lift.orientation == POSITIVE:
        return np.array(
            [
                [fp.real, -fp.imag, 0.0],
                [fp.imag, fp.real, 0.0],
                [-two_tau * q.imag, -two_tau * q.real, 1.0],
            ]
        )
    return np.array(
        [
            [fp.real, -fp.imag, 0.0],
            [-fp.imag, -fp.real, 0.0],
            [two_tau * q.imag, two_tau * q.real, -1.0],
        ]
    )


def reference_metric_cylinder(tau: float, x: float, y: float) -> np.ndarray:
    """Cylinder-model metric matrix at one point (x, y), from scalar components."""
    lam, a, b = fiber_form(tau, x, y)
    lam2 = lam * lam
    gxx = lam2 + a * a
    gyy = lam2 + b * b
    gxy = a * b
    return np.array([[gxx, gxy, a], [gxy, gyy, b], [a, b, 1.0]])


def reference_sup_shift_samples(n_random: int, seed: int, ring_depths, ring_samples: int):
    """Seeded uniform disk points, then one ring of radius ``1 - depth`` per depth."""
    rng = np.random.default_rng(seed)
    radii = np.sqrt(rng.uniform(0.0, 1.0, n_random))
    angles = rng.uniform(0.0, 2.0 * math.pi, n_random)
    pts = [radii * np.exp(1j * angles)]
    for depth in ring_depths:
        ang = np.linspace(0.0, 2.0 * math.pi, ring_samples, endpoint=False)
        pts.append((1.0 - depth) * np.exp(1j * ang))
    return np.concatenate(pts)


def reference_sampled_sup_shift(
    lift,
    n_random: int = 10_000,
    seed: int = 0,
    ring_depths=(1e-3, 1e-6, 1e-9),
    ring_samples: int = 2048,
):
    """Sampled sup of |t-shift| over the open disk -> (sup, argmax z)."""
    zs = reference_sup_shift_samples(n_random, seed, ring_depths, ring_samples)
    shifts = t_shift(lift, zs)
    k = int(np.argmax(np.abs(shifts)))
    return float(np.abs(shifts[k])), complex(zs[k])


def reference_regularized_truncation(d: float) -> float:
    """Value ``t`` with ``rho(t) = (3/2) log(d)``; DomainError inside the neck."""
    d3 = d * d * d
    arg = (d3 + 1.0) / (2.0 * math.sqrt(d3) * math.sqrt(d * d + 1.0))
    if arg < 1.0:
        raise DomainError(f"reference radius does not clear the neck at d = {d!r}")
    return math.acosh(arg)


def reference_raw_fiber_shift(tau: float, theta: float) -> float:
    """Fiber coordinate of the arc point at ``theta``, before the half-angle identity."""
    return -4.0 * tau * math.atan2(math.sin(theta), 1.0 + math.cos(theta))


@dataclass(frozen=True)
class ReferenceLowerLemma:
    d: float
    R: float
    area: float
    bound: float
    holds: bool
    c1: float
    c2: float
    sufficient_condition_holds: bool


def reference_lower_lemma(amb, d: float) -> ReferenceLowerLemma:
    """Disk-pair lemma at the reference radius; needs ``d^3 > 4``."""
    if d * d * d <= 4.0:
        raise DomainError(f"lower bound needs d^3 > 4, got d = {d!r}")
    t2 = 4.0 * amb.tau * amb.tau
    root = math.sqrt(1.0 + t2)
    bound = 2.0 * math.pi * root * (math.sqrt(d * d * d - 4.0) - math.sqrt(d))
    R = truncation_radius(d)
    area = 2.0 * disk_area_closed_form(amb, R)
    c1 = t2 / (1.0 + t2)
    c2 = 2.0 / root + (2.0 * t2 / (1.0 + t2)) * math.log(math.sqrt(2.0) * root / (1.0 + root))
    return ReferenceLowerLemma(
        d=d,
        R=R,
        area=area,
        bound=bound,
        holds=area > bound,
        c1=c1,
        c2=c2,
        sufficient_condition_holds=3.0 * c1 * math.log(d) + 2.0 * c2 < math.sqrt(d),
    )
