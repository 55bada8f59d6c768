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
"""

from __future__ import annotations

import numpy as np

from ..models import fiber_form

_DEGEN_REL = 1e-14


class Evaluation:
    """One kernel evaluation of a mesh, from which the gradient can be finished.

    ``tri_areas`` and ``degenerate`` (uint8 flags) are the per-triangle
    results; ``gradient()`` scatters the area gradient onto the vertices
    from the arrays the evaluation kept (edges, barycenters, fiber form,
    G·e₁, G·e₂, Gram entries), so the area terms are not recomputed.
    Dropping the evaluation frees those arrays.
    """

    __slots__ = ("tri_areas", "degenerate", "_n", "_tri", "_terms")

    def __init__(self, tri_areas, degenerate, n, tri, terms) -> None:
        self.tri_areas = tri_areas
        self.degenerate = degenerate
        self._n = n
        self._tri = tri
        self._terms = terms

    def gradient(self) -> np.ndarray:
        """Area gradient of shape ``(n, 3)``; degenerate triangles add nothing."""
        return _scatter(self._n, self._tri, *self._terms())


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

    return Evaluation(tri_areas, degenerate.astype(np.uint8), len(v), tri, terms)


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
