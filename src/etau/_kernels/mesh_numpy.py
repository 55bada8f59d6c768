"""Vectorized numpy kernel for discrete mesh area and its gradient.

The metric is evaluated once per triangle at the barycenter, from the
conformal factor and fiber form of :func:`etau.models.fiber_form`; the
triangle contributes ``sqrt(det Gram) / 2`` where the Gram matrix pairs
the two edge vectors from vertex 0.  The kernel never forms the metric
``G = λ² I_xy + ωωᵀ`` (``ω = (A, B, 1)``) itself: with
``s_i = A e_ix + B e_iy + e_it`` the fiber form along edge ``i`` and
``d_ij = ⟨e_i^xy, e_j^xy⟩``, the Gram entries are
``q_ij = λ² d_ij + s_i s_j``.  The gradient combines the edge terms,
``G e_i = (λ² e_i^xy + (A, B) s_i, s_i)``, with the metric's dependence
on the barycenter position (one third per vertex, in the two base
coordinates only since the metric is independent of the fiber
coordinate): ``∂q_ij = 2λ ∂λ d_ij + r_i s_j + s_i r_j`` with
``r_i = ∂A e_ix + ∂B e_iy``.

Triangles whose Gram determinant is not positive beyond roundoff are
flagged degenerate and contribute zero area and zero gradient.

The kernel runs in two stages.  :func:`evaluate` computes the areas and
flags and keeps the arrays the gradient is built from; the evaluation's
``gradient()`` finishes the gradient terms and scatters them onto the
vertices.  :func:`area_and_grad` is ``evaluate`` plus an optional
``gradient()``, so a caller that decides from the areas whether it needs
the gradient (the Plateau line search) evaluates each mesh once.

:func:`vertical_graph` computes the same discrete area for a mesh whose
vertices move only in the fiber coordinate (a vertical graph
``t = u(x, y)``).  Each barycenter then keeps its base coordinates, so
the metric and the base parts of the Gram entries are computed once per
mesh; each evaluation needs only the fiber differences along the edges,
and the gradient has only a fiber column.  Both kernels take the areas
and the degeneracy rule from the Gram entries through one helper, so a
vertical graph's areas equal :func:`evaluate`'s bit for bit.
"""

from __future__ import annotations

import functools

import numpy as np

from ..models import fiber_form

_DEGEN_REL = 1e-14


class Evaluation:
    """One kernel evaluation of a mesh, from which the gradient can be finished.

    ``tri_areas`` and ``degenerate`` (uint8 flags) are the per-triangle
    results; ``gradient()`` finishes the per-triangle gradient terms from
    the arrays the evaluation kept (for :func:`evaluate`: edge components,
    barycenters, fiber form, ``s_i``, ``d_ij``, Gram entries and
    ``sqrt(det)``) and scatters them onto the vertices, so the area terms
    are not recomputed.  Dropping the evaluation frees those arrays.
    """

    __slots__ = ("tri_areas", "degenerate", "_terms", "_scatter")

    def __init__(self, tri_areas, degenerate, terms, scatter) -> None:
        self.tri_areas = tri_areas
        self.degenerate = degenerate
        self._terms = terms
        self._scatter = scatter

    def gradient(self) -> np.ndarray:
        """Area gradient of shape ``(n, 3)``; degenerate triangles add nothing."""
        return self._scatter(*self._terms())


def area_and_grad(
    tau: float,
    vertices: np.ndarray,
    triangles: np.ndarray,
    want_grad: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Per-triangle areas, degeneracy flags, and optionally the area gradient.

    ``vertices`` is ``(n, 3)`` float64, ``triangles`` ``(m, 3)`` integer.
    Returns ``(tri_areas, degenerate, grad)`` with ``grad`` of shape
    ``(n, 3)`` or None: :func:`evaluate`, then its ``gradient()`` when
    ``want_grad`` is true.
    """
    ev = evaluate(tau, vertices, triangles)
    return ev.tri_areas, ev.degenerate, ev.gradient() if want_grad else None


def evaluate(tau: float, vertices: np.ndarray, triangles: np.ndarray) -> Evaluation:
    """Per-triangle areas and degeneracy flags, keeping what the gradient needs.

    The gradient terms are ``(edge1, edge2, pos_x, pos_y)``: the
    derivative of each triangle's area along its two edge vectors, and a
    third of its derivative along the barycenter's base coordinates.
    """
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
    tri_areas, degenerate, root = _gram_areas(q11, q12, q22)

    def terms():
        # d area / d det = 0.25 / root and d det / d e_1 = 2 (q22 G e_1 - q12 G e_2);
        # u_i is the fiber part of that bracket, and of its e_2 counterpart
        factor = np.where(degenerate, 0.0, 0.5 / root)
        u1 = s1 * q22 - s2 * q12
        u2 = s2 * q11 - s1 * q12
        edge1 = np.array(
            [lam2 * (q22 * e1x - q12 * e2x) + a * u1, lam2 * (q22 * e1y - q12 * e2y) + b * u1, u1]
        )
        edge2 = np.array(
            [lam2 * (q11 * e2x - q12 * e1x) + a * u2, lam2 * (q11 * e2y - q12 * e1y) + b * u2, u2]
        )

        # from ∂q_ij = 2λ ∂λ d_ij + r_i s_j + s_i r_j with r_i = ∂A e_ix + ∂B e_iy:
        # d det / dc = 2 (λ ∂λ dd + r_1 u1 + r_2 u2), and r_1 u1 + r_2 u2 = ∂A wx + ∂B wy
        dd = q22 * d11 + q11 * d22 - 2.0 * q12 * d12
        wx = e1x * u1 + e2x * u2
        wy = e1y * u1 + e2y * u2
        dlam_dx = lam2 * cx
        dlam_dy = lam2 * cy
        da_dx = 2.0 * tau * cy * dlam_dx
        da_dy = 2.0 * tau * (lam + cy * dlam_dy)
        db_dx = -2.0 * tau * (lam + cx * dlam_dx)
        db_dy = -2.0 * tau * cx * dlam_dy
        pos_x = lam * dlam_dx * dd + da_dx * wx + db_dx * wy
        pos_y = lam * dlam_dy * dd + da_dy * wx + db_dy * wy
        return (factor * edge1).T, (factor * edge2).T, factor * pos_x / 3.0, factor * pos_y / 3.0

    return Evaluation(
        tri_areas, degenerate.astype(np.uint8), terms, functools.partial(_scatter, len(v), tri)
    )


def _gram_areas(q11, q12, q22):
    """Triangle areas ``0.5·sqrt(det)`` from the Gram entries, and degeneracy flags.

    A triangle is degenerate when its Gram determinant is not positive
    beyond roundoff; its area is zero.  Returns ``(tri_areas, degenerate,
    root)`` with ``root = sqrt(det)``, set to 1 on degenerate triangles so
    that gradient factors built from it stay finite.
    """
    p = q11 * q22
    r = q12 * q12
    det = p - r
    scale = p + r
    degenerate = (det <= _DEGEN_REL * scale) | (scale == 0.0)
    root = np.sqrt(np.where(degenerate, 1.0, det))
    return np.where(degenerate, 0.0, 0.5 * root), degenerate, root


def _scatter(
    n: int,
    tri: np.ndarray,
    edge1: np.ndarray,
    edge2: np.ndarray,
    pos_x: np.ndarray,
    pos_y: np.ndarray,
) -> np.ndarray:
    """Sum the per-triangle gradient terms onto the ``n`` vertices.

    Vertex ``tri[:, 1]`` receives ``edge1``, ``tri[:, 2]`` receives
    ``edge2``, ``tri[:, 0]`` receives ``-(edge1 + edge2)``, and all three
    receive the position term.  One ``bincount`` per component adds the
    terms in that order, starting from zero, so each vertex sums the same
    values in the same sequence as six successive ``np.add.at`` calls.
    """
    m = len(tri)
    idx = np.concatenate(
        [tri[:, 1], tri[:, 2], tri[:, 0], tri[:, 0], tri[:, 1], tri[:, 2]]
    )
    edge0 = -(edge1 + edge2)
    grad = np.empty((n, 3))
    for k, pos in ((0, pos_x), (1, pos_y)):
        w = np.concatenate([edge1[:, k], edge2[:, k], edge0[:, k], pos, pos, pos])
        grad[:, k] = np.bincount(idx, w, n)
    # the fiber column has no position term; skipping its three +0.0 terms
    # changes nothing, since a sum that starts from +0.0 is never -0.0
    w = np.concatenate([edge1[:, 2], edge2[:, 2], edge0[:, 2]])
    grad[:, 2] = np.bincount(idx[: 3 * m], w, n)
    return grad


class VerticalGraph:
    """The discrete area of one mesh as a function of its vertices' t alone.

    Built by :func:`vertical_graph`, which fixes every vertex's (x, y).
    With ``s_i = c_i + Δt_i`` the fiber form along edge ``i``, the Gram
    entries are ``q_ij = P_ij + s_i s_j``.
    """

    __slots__ = ("_n", "_idx", "_i0", "_i1", "_i2", "_p11", "_p12", "_p22", "_c1", "_c2")

    def __init__(self, n, idx, p11, p12, p22, c1, c2) -> None:
        m = len(p11)
        self._n = n
        self._idx = idx
        self._i1, self._i2, self._i0 = idx[:m], idx[m : 2 * m], idx[2 * m :]
        self._p11, self._p12, self._p22 = p11, p12, p22
        self._c1, self._c2 = c1, c2

    def evaluate(self, vertices: np.ndarray) -> Evaluation:
        """Areas and degeneracy flags at the t column of ``vertices``.

        The x and y columns are not read: they are taken to be those the
        graph was built from.  The gradient's x and y columns are zero.
        """
        t = np.asarray(vertices, dtype=np.float64)[:, 2]
        t0 = t[self._i0]
        s1 = self._c1 + (t[self._i1] - t0)
        s2 = self._c2 + (t[self._i2] - t0)
        q11 = self._p11 + s1 * s1
        q12 = self._p12 + s1 * s2
        q22 = self._p22 + s2 * s2
        tri_areas, degenerate, root = _gram_areas(q11, q12, q22)

        def terms():
            factor = np.where(degenerate, 0.0, 0.5 / root)
            return factor * (s1 * q22 - s2 * q12), factor * (s2 * q11 - s1 * q12)

        return Evaluation(tri_areas, degenerate.astype(np.uint8), terms, self._scatter)

    def _scatter(self, dt1: np.ndarray, dt2: np.ndarray) -> np.ndarray:
        """Vertex 1 receives ``dt1``, vertex 2 ``dt2`` and vertex 0 ``-(dt1 + dt2)``."""
        grad = np.zeros((self._n, 3))
        w = np.concatenate([dt1, dt2, -(dt1 + dt2)])
        grad[:, 2] = np.bincount(self._idx, w, self._n)
        return grad


def vertical_graph(tau: float, vertices: np.ndarray, triangles: np.ndarray) -> VerticalGraph:
    """The area kernel of a mesh whose vertices move only in t, built once.

    From the fixed barycenters it keeps ``P_ij = λ²⟨e_i^xy, e_j^xy⟩`` and
    ``c_i = A e_ix + B e_iy`` per triangle, the base parts of the Gram
    entries of :func:`evaluate` for the cylinder metric
    ``G = λ² I_xy + ωωᵀ`` with ``ω = (A, B, 1)``.
    """
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
    return VerticalGraph(
        len(v),
        np.concatenate([tri[:, 1], tri[:, 2], tri[:, 0]]),
        lam2 * (e1x * e1x + e1y * e1y),
        lam2 * (e1x * e2x + e1y * e2y),
        lam2 * (e2x * e2x + e2y * e2y),
        a * e1x + b * e1y,
        a * e2x + b * e2y,
    )
