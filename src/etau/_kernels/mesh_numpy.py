"""Vectorized numpy kernel for discrete mesh area and its gradient.

The metric is evaluated once per triangle at the barycenter, from the
conformal factor and fiber form of :func:`etau.models.fiber_form`; the
triangle contributes ``sqrt(det Gram) / 2`` where the Gram matrix pairs
the two edge vectors from vertex 0.  The gradient combines the edge
terms with the metric's dependence on the barycenter position (one
third per vertex, in the two base coordinates only since the metric is
independent of the fiber coordinate).

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
and the gradient has only a fiber column.
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
    the arrays the evaluation kept (for :func:`evaluate`: edges,
    barycenters, fiber form, G·e₁, G·e₂, Gram entries) and scatters them
    onto the vertices, so the area terms are not recomputed.  Dropping
    the evaluation frees those arrays.
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
    p0 = v[tri[:, 0]]
    p1 = v[tri[:, 1]]
    p2 = v[tri[:, 2]]
    e1 = p1 - p0
    e2 = p2 - p0
    cx = (p0[:, 0] + p1[:, 0] + p2[:, 0]) / 3.0
    cy = (p0[:, 1] + p1[:, 1] + p2[:, 1]) / 3.0

    lam, a, b = fiber_form(tau, cx, cy)
    lam2 = lam * lam
    g11 = lam2 + a * a
    g12 = a * b
    g13 = a
    g22 = lam2 + b * b
    g23 = b

    def apply_g(w: np.ndarray) -> np.ndarray:
        out = np.empty_like(w)
        out[:, 0] = g11 * w[:, 0] + g12 * w[:, 1] + g13 * w[:, 2]
        out[:, 1] = g12 * w[:, 0] + g22 * w[:, 1] + g23 * w[:, 2]
        out[:, 2] = g13 * w[:, 0] + g23 * w[:, 1] + w[:, 2]
        return out

    ge1 = apply_g(e1)
    ge2 = apply_g(e2)
    q11 = np.einsum("ij,ij->i", e1, ge1)
    q12 = np.einsum("ij,ij->i", e1, ge2)
    q22 = np.einsum("ij,ij->i", e2, ge2)
    det = q11 * q22 - q12 * q12
    scale = q11 * q22 + q12 * q12
    degenerate = (det <= _DEGEN_REL * scale) | (scale == 0.0)
    det_safe = np.where(degenerate, 1.0, det)
    tri_areas = np.where(degenerate, 0.0, 0.5 * np.sqrt(det_safe))

    def terms():
        factor = np.where(degenerate, 0.0, 0.25 / np.sqrt(det_safe))
        dd_e1 = 2.0 * q22[:, None] * ge1 - 2.0 * q12[:, None] * ge2
        dd_e2 = 2.0 * q11[:, None] * ge2 - 2.0 * q12[:, None] * ge1

        # metric derivatives at the barycenter
        dlam_dx = lam2 * cx
        dlam_dy = lam2 * cy
        da_dx = 2.0 * tau * cy * dlam_dx
        da_dy = 2.0 * tau * (lam + cy * dlam_dy)
        db_dx = -2.0 * tau * (lam + cx * dlam_dx)
        db_dy = -2.0 * tau * cx * dlam_dy
        two_lam = 2.0 * lam

        def quad_form(hxx, hxy, hxt, hyy, hyt, u, w):
            # u^T H w for symmetric H with zero tt entry
            return (
                hxx * u[:, 0] * w[:, 0]
                + hyy * u[:, 1] * w[:, 1]
                + hxy * (u[:, 0] * w[:, 1] + u[:, 1] * w[:, 0])
                + hxt * (u[:, 0] * w[:, 2] + u[:, 2] * w[:, 0])
                + hyt * (u[:, 1] * w[:, 2] + u[:, 2] * w[:, 1])
            )

        def position_term(dlam, da, db):
            hxx = two_lam * dlam + 2.0 * a * da
            hxy = da * b + a * db
            hxt = da
            hyy = two_lam * dlam + 2.0 * b * db
            hyt = db
            dq11 = quad_form(hxx, hxy, hxt, hyy, hyt, e1, e1)
            dq12 = quad_form(hxx, hxy, hxt, hyy, hyt, e1, e2)
            dq22 = quad_form(hxx, hxy, hxt, hyy, hyt, e2, e2)
            return q22 * dq11 + q11 * dq22 - 2.0 * q12 * dq12

        dd_x = position_term(dlam_dx, da_dx, db_dx)
        dd_y = position_term(dlam_dy, da_dy, db_dy)

        edge1 = factor[:, None] * dd_e1
        edge2 = factor[:, None] * dd_e2
        return edge1, edge2, factor * dd_x / 3.0, factor * dd_y / 3.0

    return Evaluation(
        tri_areas, degenerate.astype(np.uint8), terms, functools.partial(_scatter, len(v), tri)
    )


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
        det = q11 * q22 - q12 * q12
        scale = q11 * q22 + q12 * q12
        degenerate = (det <= _DEGEN_REL * scale) | (scale == 0.0)
        det_safe = np.where(degenerate, 1.0, det)
        tri_areas = np.where(degenerate, 0.0, 0.5 * np.sqrt(det_safe))

        def terms():
            factor = np.where(degenerate, 0.0, 0.5 / np.sqrt(det_safe))
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
