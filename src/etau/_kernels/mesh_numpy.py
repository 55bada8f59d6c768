"""Vectorized numpy kernel for discrete mesh area and its gradient.

The metric is evaluated once per triangle at the barycenter, from the
conformal factor and fiber form of :func:`etau.models.fiber_form`; the
triangle contributes ``sqrt(det Gram) / 2`` where the Gram matrix pairs
the two edge vectors from vertex 0.  The kernel never forms the metric
``G = λ² I_xy + ωωᵀ`` (``ω = (A, B, 1)``) itself.  The corners' (x, y)
fix the base parts ``P_ij = λ²⟨e_i^xy, e_j^xy⟩`` and
``c_i = A e_ix + B e_iy``; with ``s_i = c_i + Δt_i`` the fiber form along
edge ``i``, the Gram entries are ``q_ij = P_ij + s_i s_j``.

One :class:`Plan` serves every evaluation of one mesh.  :func:`plan`
builds it once, with the corner index that gathers each triangle's
corners and scatters its gradient terms back onto the vertices.  A plan
has two cases, which share the Gram entries, the areas and degeneracy
rule, the t column of the gradient and the scatter:

- *free* (the default): every vertex coordinate may move.  Each
  evaluation computes the base parts from the current barycenters, and
  its gradient adds the x and y columns.  These combine the edge terms,
  ``G e_i = (λ² e_i^xy + (A, B) s_i, s_i)``, with the metric's dependence
  on the barycenter position (one third per vertex, in the two base
  coordinates only since the metric is independent of the fiber
  coordinate): ``∂q_ij = 2λ ∂λ d_ij + r_i s_j + s_i r_j`` with
  ``d_ij = ⟨e_i^xy, e_j^xy⟩`` and ``r_i = ∂A e_ix + ∂B e_iy``.  With
  ``f = 0.5 / sqrt(det)``, ``α = f λ²`` and ``k_ij = α q_ij``, the edge
  terms are ``E_1 = k22 e_1 − k12 e_2 + (A, B) f u_1`` and
  ``E_2 = k11 e_2 − k12 e_1 + (A, B) f u_2``, and the position term is
  ``(f/3)(λ² K (c_x, c_y) + 2τλ (−w_y, w_x))`` with
  ``K = λ dd + 2τ (c_y w_x − c_x w_y)`` (the derivatives of λ, A and B
  from :func:`etau.models.fiber_form` written out).
- *vertical*: the vertices move only in the fiber coordinate (a vertical
  graph ``t = u(x, y)``).  The base parts are computed once, when the plan
  is built; an evaluation reads only the t column, and the gradient's x
  and y columns are zero.

Since both cases run the same arithmetic on the same base parts, a
vertical plan's areas, flags and t-gradient equal a free plan's bit for
bit.  Triangles whose Gram determinant is not positive beyond roundoff
are flagged degenerate and contribute zero area and zero gradient.

An evaluation runs in two stages.  ``Plan.evaluate`` computes the areas
and flags and keeps the arrays the gradient is built from; the
evaluation's ``gradient()`` finishes the gradient terms and scatters them
onto the vertices, so a caller that decides from the areas whether it
needs the gradient (the Plateau line search) evaluates each mesh once.
The gradient sums each triangle's terms per corner first (corner 1 gets
``E_1`` plus the position term, corner 2 ``E_2`` plus it, corner 0 the
position term minus ``E_1 + E_2``), so each column is one ``bincount``
over three entries per triangle.  :func:`area_and_grad` is a one-shot
free plan.
"""

from __future__ import annotations

import numpy as np

from ..models import fiber_form

__all__ = ["Plan", "Evaluation", "plan", "area_and_grad"]

_DEGEN_REL = 1e-14


class Evaluation:
    """One evaluation of a plan, from which the gradient can be finished.

    ``tri_areas`` and ``degenerate`` (uint8 flags) are the per-triangle
    results; ``gradient()`` finishes the per-triangle gradient terms from
    the arrays the evaluation kept (the fiber forms ``s_i``, the Gram
    entries and ``sqrt(det)``, and for a free plan the edge components,
    barycenters, fiber form and ``d_ij``) and scatters them onto the
    vertices, so the area terms are not recomputed.  Dropping the
    evaluation frees those arrays.
    """

    __slots__ = ("tri_areas", "degenerate", "_gradient")

    def __init__(self, tri_areas, degenerate, gradient) -> None:
        self.tri_areas = tri_areas
        self.degenerate = degenerate
        self._gradient = gradient

    def gradient(self) -> np.ndarray:
        """Area gradient of shape ``(n, 3)``; degenerate triangles add nothing."""
        return self._gradient()


class Plan:
    """The area kernel of one mesh, built once by :func:`plan`."""

    __slots__ = ("_tau", "_n", "_corners", "_base")

    def __init__(self, tau, n, corners, base) -> None:
        self._tau = tau
        self._n = n
        self._corners = corners
        self._base = base

    def evaluate(self, vertices: np.ndarray) -> Evaluation:
        """Areas and degeneracy flags at ``vertices``, keeping what the gradient needs.

        A vertical plan reads only the t column: the x and y columns are
        taken to be those the plan was built from.
        """
        v = np.asarray(vertices, dtype=np.float64)
        if self._base is None:
            x, y, (t1, t2, t0) = np.take(v.T, self._corners, axis=1)
            (p11, p12, p22), (c1, c2), xy_terms = _base_parts(self._tau, x, y)
        else:
            (p11, p12, p22), (c1, c2) = self._base
            # one gather per corner: a single (3, m) take holds all three at
            # once and left the peak RSS of a vertical race solve higher
            t = v[:, 2]
            t1, t2, t0 = (t[c] for c in self._corners)
            xy_terms = None
        s1 = c1 + (t1 - t0)
        s2 = c2 + (t2 - t0)
        q11 = p11 + s1 * s1
        q12 = p12 + s1 * s2
        q22 = p22 + s2 * s2
        tri_areas, degenerate, root = _gram_areas(q11, q12, q22)

        def gradient():
            # d area / d det = 0.25 / root and d det / d e_1 = 2 (q22 G e_1 - q12 G e_2);
            # u_i is the fiber part of that bracket, and of its e_2 counterpart
            factor = np.where(degenerate, 0.0, 0.5 / root)
            u1 = s1 * q22 - s2 * q12
            u2 = s2 * q11 - s1 * q12
            fu1 = factor * u1
            fu2 = factor * u2
            grad = np.zeros((self._n, 3))
            # one column's corner 1, 2 and 0 terms at a time
            w = np.empty((3, len(root)))
            # the fiber column has no position term
            w[0], w[1] = fu1, fu2
            np.negative(np.add(fu1, fu2, out=w[2]), out=w[2])
            grad[:, 2] = self._scatter(w)
            if xy_terms is not None:
                columns = xy_terms(factor, u1, u2, fu1, fu2, q11, q12, q22)
                for k, (edge1, edge2, pos) in enumerate(columns):
                    np.add(edge1, pos, out=w[0])
                    np.add(edge2, pos, out=w[1])
                    np.subtract(pos, np.add(edge1, edge2, out=w[2]), out=w[2])
                    grad[:, k] = self._scatter(w)
            return grad

        return Evaluation(tri_areas, degenerate.astype(np.uint8), gradient)

    def _scatter(self, w) -> np.ndarray:
        """Sum one gradient column's corner terms onto the vertices.

        The rows of ``w`` hold the terms of every triangle's corner 1, 2
        and 0.  One ``bincount`` adds them in that order, starting from
        zero, so each vertex sums the same values in the same sequence as
        three successive ``np.add.at`` calls.
        """
        return np.bincount(self._corners.ravel(), w.ravel(), self._n)


def plan(
    tau: float, vertices: np.ndarray, triangles: np.ndarray, *, vertical: bool = False
) -> Plan:
    """The area kernel of a mesh, built once and evaluated at any vertices.

    ``vertices`` is ``(n, 3)`` float64, ``triangles`` ``(m, 3)`` integer.
    With ``vertical`` the vertices may move only in t: the base parts of
    the Gram entries are computed here, from the given (x, y), and kept.
    """
    v = np.asarray(vertices, dtype=np.float64)
    tri = np.asarray(triangles)
    # corners 1, 2 and 0 of every triangle: the rows an evaluation reads,
    # and the order in which the scatter adds a column's corner terms
    corners = np.stack([tri[:, 1], tri[:, 2], tri[:, 0]])
    base = None
    if vertical:
        x, y = np.take(v[:, :2].T, corners, axis=1)
        base = _base_parts(tau, x, y)[:2]
    return Plan(tau, len(v), corners, base)


def area_and_grad(
    tau: float,
    vertices: np.ndarray,
    triangles: np.ndarray,
    want_grad: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Per-triangle areas, degeneracy flags, and optionally the area gradient.

    ``vertices`` is ``(n, 3)`` float64, ``triangles`` ``(m, 3)`` integer.
    Returns ``(tri_areas, degenerate, grad)`` with ``grad`` of shape
    ``(n, 3)`` or None: a free :func:`plan`'s evaluation, then its
    ``gradient()`` when ``want_grad`` is true.
    """
    ev = plan(tau, vertices, triangles).evaluate(vertices)
    return ev.tri_areas, ev.degenerate, ev.gradient() if want_grad else None


def _base_parts(tau, x, y):
    """The parts of every triangle's Gram entries that its corners' (x, y) fix.

    ``x`` and ``y`` hold corners 1, 2 and 0 of every triangle in their
    rows.  Returns ``(P11, P12, P22)``, ``(c1, c2)`` and ``xy_terms``:
    ``xy_terms(factor, u1, u2, fu1, fu2, q11, q12, q22)`` yields the
    per-triangle edge terms ``E1``, ``E2`` and the position term of the
    gradient's x column and then of its y column, in work arrays that the
    y column overwrites.
    """
    (x1, x2, x0), (y1, y2, y0) = x, y
    e1x, e1y = x1 - x0, y1 - y0
    e2x, e2y = x2 - x0, y2 - y0
    cx = (x0 + x1 + x2) / 3.0
    cy = (y0 + y1 + y2) / 3.0
    lam, a, b = fiber_form(tau, cx, cy)
    lam2 = lam * lam
    d11 = e1x * e1x + e1y * e1y
    d12 = e1x * e2x + e1y * e2y
    d22 = e2x * e2x + e2y * e2y

    def xy_terms(factor, u1, u2, fu1, fu2, q11, q12, q22):
        # reused work arrays: with a fresh temporary per operation, each
        # call on the race annulus took about 350 minor page faults
        tmp, dd, wx, wy, big_k, edge1, edge2, pos = np.empty((8, len(factor)))
        alpha = factor * lam2
        k11 = alpha * q11
        k12 = alpha * q12
        k22 = np.multiply(alpha, q22, out=alpha)
        # from ∂q_ij = 2λ ∂λ d_ij + r_i s_j + s_i r_j with r_i = ∂A e_ix + ∂B e_iy:
        # d det / dc = 2 (λ ∂λ dd + ∂A wx + ∂B wy); with ∂λ = λ² c,
        # ∂A = 2τ (λ ∂y + cy ∂λ) and ∂B = -2τ (λ ∂x + cx ∂λ) from fiber_form,
        # that is 2 (λ² K c + 2τλ (-wy, wx)) with K = λ dd + 2τ (cy wx - cx wy)
        _lin(q22, d11, q11, d22, dd, tmp, plus=True)
        np.subtract(dd, np.multiply(np.multiply(2.0, q12, out=tmp), d12, out=tmp), out=dd)
        _lin(e1x, u1, e2x, u2, wx, tmp, plus=True)
        _lin(e1y, u1, e2y, u2, wy, tmp, plus=True)
        _lin(cy, wx, cx, wy, big_k, tmp)
        np.multiply(2.0 * tau, big_k, out=big_k)
        np.add(np.multiply(lam, dd, out=tmp), big_k, out=big_k)
        radial = np.multiply(lam2, big_k, out=big_k)
        third = np.divide(factor, 3.0, out=dd)
        turn = 2.0 * tau * lam
        columns = ((e1x, e2x, a, cx, wy, False), (e1y, e2y, b, cy, wx, True))
        for e1, e2, ab, c, w_other, plus in columns:
            # E1 = k22 e1 - k12 e2 + (A, B) f u1, E2 = k11 e2 - k12 e1 + (A, B) f u2,
            # and the position term (f/3)(λ² K c + 2τλ (-wy, wx))
            _lin(k22, e1, k12, e2, edge1, tmp)
            np.add(edge1, np.multiply(ab, fu1, out=tmp), out=edge1)
            _lin(k11, e2, k12, e1, edge2, tmp)
            np.add(edge2, np.multiply(ab, fu2, out=tmp), out=edge2)
            np.multiply(third, _lin(radial, c, turn, w_other, pos, tmp, plus=plus), out=pos)
            yield edge1, edge2, pos

    p = (lam2 * d11, lam2 * d12, lam2 * d22)
    c = (a * e1x + b * e1y, a * e2x + b * e2y)
    return p, c, xy_terms


def _lin(p, x, q, y, out, tmp, plus=False):
    """``out = p·x − q·y``, or ``p·x + q·y`` with ``plus``; ``tmp`` is scratch."""
    np.multiply(p, x, out=out)
    np.multiply(q, y, out=tmp)
    return (np.add if plus else np.subtract)(out, tmp, out=out)


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
