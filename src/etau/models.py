"""The two metric models of E(-1, tau) and the change of model between them.

Cylinder model: the solid cylinder D x R with

    ds^2 = lam^2 (dx^2 + dy^2) + (2 tau lam (y dx - x dy) + dt)^2,
    lam = 2 / (1 - x^2 - y^2).

Half-space model: {y > 0} x R with

    ds^2 = (dx^2 + dy^2) / y^2 + (-(2 tau / y) dx + dt)^2.

Both are Riemannian metrics on 3-dimensional total spaces fibering over the
hyperbolic plane; tau is the bundle curvature parameter (tau = 0 gives the
metric product H^2 x R).

A point is a row (x, y, t): every model function takes an (n, 3) array
of rows and returns (n, 3) images or (n, 3, 3) metrics and Jacobians.  A
non-finite row, or one within BOUNDARY_MARGIN of the model's boundary,
raises DomainError naming the row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, UsageError
from .numerics import ToleranceConfig

__all__ = [
    "BOUNDARY_MARGIN", "AmbientSpace", "fiber_form", "conformal_factor", "metric_cylinder",
    "metric_halfspace", "to_disk_model", "to_halfspace_model", "to_disk_jacobian",
    "pullback_metric", "PatchAreaResult", "patch_area",
]

# Points closer than this to the boundary circle / boundary plane are refused:
# the conformal factor blows up and double precision loses the geometry.
BOUNDARY_MARGIN = 1e-12


@dataclass(frozen=True)
class AmbientSpace:
    """The space E(-1, tau) with the quadrature tolerances its integrals read."""

    tau: float
    tol: ToleranceConfig = field(default_factory=ToleranceConfig)

    def __post_init__(self):
        if not math.isfinite(self.tau):
            raise UsageError("tau must be finite")
        if self.tau < 0:
            raise UsageError(
                "negative tau: conjugate by a vertical reflection instead (tau >= 0 normalization)"
            )
        if not isinstance(self.tol, ToleranceConfig):
            raise UsageError(f"tol must be a ToleranceConfig, got {self.tol!r}")


def _in_disk(v: np.ndarray) -> np.ndarray:
    return np.isfinite(v).all(axis=1) & (v[:, 0] ** 2 + v[:, 1] ** 2 < 1.0 - BOUNDARY_MARGIN)


def _in_halfspace(v: np.ndarray) -> np.ndarray:
    return np.isfinite(v).all(axis=1) & (v[:, 1] > BOUNDARY_MARGIN)


def _refuse(v: np.ndarray, ok: np.ndarray, what: str) -> None:
    """Raise DomainError naming the first row of v where ok is False."""
    if not ok.all():
        k = int(np.argmin(ok))
        raise DomainError(
            "vertex row %d = %r %s (margin %g)" % (k, v[k].tolist(), what, BOUNDARY_MARGIN)
        )


def _rows(vertices, inside, model: str) -> np.ndarray:
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 3:
        raise UsageError("vertices must have shape (n, 3), got %s" % (v.shape,))
    _refuse(v, inside(v), "is not a finite point of the " + model)
    return v


def _cylinder_rows(vertices) -> np.ndarray:
    """Checked (n, 3) float rows (x, y, t) of the cylinder model."""
    return _rows(vertices, _in_disk, "open unit disk")


def _halfspace_rows(vertices) -> np.ndarray:
    """Checked (n, 3) float rows (x, y, t) of the half-space model."""
    return _rows(vertices, _in_halfspace, "half-space y > 0")


def fiber_form(tau, x, y):
    """Conformal factor and fiber 1-form coefficients at (x, y); array friendly.

    Returns (lam, A, B) with lam = 2 / (1 - x^2 - y^2), A = 2 tau lam y and
    B = -2 tau lam x: the cylinder metric is
    lam^2 (dx^2 + dy^2) + omega (x) omega with omega = A dx + B dy + dt.
    No domain check: callers keep (x, y) inside the open unit disk.
    """
    lam = 2.0 / (1.0 - x * x - y * y)
    return lam, 2.0 * tau * lam * y, -2.0 * tau * lam * x


def conformal_factor(x: float, y: float) -> float:
    """lam(x, y) = 2 / (1 - x^2 - y^2) on the open unit disk."""
    try:
        lam = fiber_form(0.0, float(x), float(y))[0]
    except ZeroDivisionError:  # squared radius exactly 1
        lam = -1.0
    if not lam > 0.0:
        raise DomainError("conformal factor undefined at squared radius >= 1")
    return lam


def metric_cylinder(amb: AmbientSpace, vertices) -> np.ndarray:
    """Cylinder-model metrics at (n, 3) rows, shape (n, 3, 3)."""
    v = _cylinder_rows(vertices)
    lam, a, b = fiber_form(amb.tau, v[:, 0], v[:, 1])
    lam2, ab, one = lam * lam, a * b, np.ones_like(lam)
    g = np.stack([lam2 + a * a, ab, a, ab, lam2 + b * b, b, a, b, one], axis=-1)
    return g.reshape(-1, 3, 3)


def metric_halfspace(amb: AmbientSpace, vertices) -> np.ndarray:
    """Half-space-model metrics at (n, 3) rows, shape (n, 3, 3)."""
    y = _halfspace_rows(vertices)[:, 1]
    inv_y2 = 1.0 / (y * y)
    # omega = -(2 tau / y) dx + dt
    c = -2.0 * amb.tau / y
    zero, one = np.zeros_like(y), np.ones_like(y)
    g = np.stack([inv_y2 + c * c, zero, c, zero, inv_y2, zero, c, zero, one], axis=-1)
    return g.reshape(-1, 3, 3)


def to_disk_model(amb: AmbientSpace, vertices) -> np.ndarray:
    """Isometric change of model: half-space rows -> cylinder rows, shape (n, 3).

    (z, t) |-> (phi(z), t - 4 tau arctan(x / (y + 1))) with
    phi(z) = (z - i)/(z + i).  The arctan is the principal branch; its
    argument is smooth on y > 0 because y + 1 > 0 there.  The sign of the
    vertical correction is forced: pulling the disk fiber potential
    lam (y dx - x dy) back through phi gives -dx/y plus twice the
    differential of arctan(x/(y+1)), so only this sign makes the map an
    isometry for the two metrics above.  The map is partial at the margins:
    a row whose image falls within BOUNDARY_MARGIN of the unit circle
    raises DomainError naming that row.
    """
    v = _halfspace_rows(vertices)
    z = v[:, 0] + 1j * v[:, 1]
    w = (z - 1j) / (z + 1j)
    t = v[:, 2] - 4.0 * amb.tau * np.arctan2(v[:, 0], v[:, 1] + 1.0)
    out = np.stack([w.real, w.imag, t], axis=1)
    _refuse(v, _in_disk(out), "maps into the margin of the unit circle")
    return out


def to_halfspace_model(amb: AmbientSpace, vertices) -> np.ndarray:
    """Inverse change of model: cylinder rows -> half-space rows, shape (n, 3).

    Partial at the margins: a row whose image has y <= BOUNDARY_MARGIN
    raises DomainError naming that row.
    """
    v = _cylinder_rows(vertices)
    w = v[:, 0] + 1j * v[:, 1]
    z = 1j * (1.0 + w) / (1.0 - w)
    t = v[:, 2] + 4.0 * amb.tau * np.arctan2(z.real, z.imag + 1.0)
    out = np.stack([z.real, z.imag, t], axis=1)
    _refuse(v, _in_halfspace(out), "maps into the margin of the plane y = 0")
    return out


def to_disk_jacobian(amb: AmbientSpace, vertices) -> np.ndarray:
    """Analytic Jacobians of to_disk_model, shape (n, 3, 3) (rows: dx', dy', dt')."""
    v = _halfspace_rows(vertices)
    x, y = v[:, 0], v[:, 1]
    dphi = 2j / (x + 1j * y + 1j) ** 2
    k = 4.0 * amb.tau / ((y + 1.0) ** 2 + x * x)
    zero, one = np.zeros_like(x), np.ones_like(x)
    jac = [dphi.real, -dphi.imag, zero, dphi.imag, dphi.real, zero, -k * (y + 1.0), k * x, one]
    return np.stack(jac, axis=-1).reshape(-1, 3, 3)


def pullback_metric(g_image, jacobian: np.ndarray) -> np.ndarray:
    """J^T G J for 3x3 arrays G and J or stacks of them; a (..., 3, 2) J gives a Gram matrix."""
    j = np.asarray(jacobian, dtype=float)
    return np.swapaxes(j, -1, -2) @ np.asarray(g_image, dtype=float) @ j


@dataclass(frozen=True)
class PatchAreaResult:
    value: float
    degenerate_samples: int


def patch_area(
    amb: AmbientSpace,
    immersion,
    u_span: tuple[float, float],
    w_span: tuple[float, float],
    n_u: int = 64,
    n_w: int = 64,
) -> PatchAreaResult:
    """Area of a parametrized surface patch by the Gram determinant.

    `immersion(u, w)` takes two float arrays of one shape and returns the
    cylinder-model points (x, y, t) as an array of that shape plus (3,),
    for (u, w) in the closed parameter rectangle.  Cells are integrated by
    the midpoint rule with central-difference partials.  Samples where the
    differential drops rank are skipped and counted in `degenerate_samples`.
    """
    if n_u < 1 or n_w < 1:
        raise UsageError("patch_area needs at least one cell per direction")
    u0, u1 = map(float, u_span)
    w0, w1 = map(float, w_span)
    if not (u1 > u0 and w1 > w0):
        raise UsageError("parameter spans must be increasing")
    du = (u1 - u0) / n_u
    dw = (w1 - w0) / n_w
    # finite-difference step: small relative to a cell so samples stay inside
    hu = 0.25 * du
    hw = 0.25 * dw
    u, w = np.meshgrid(
        u0 + (np.arange(n_u) + 0.5) * du, w0 + (np.arange(n_w) + 0.5) * dw, indexing="ij"
    )
    probes = [(u, w), (u + hu, w), (u - hu, w), (u, w + hw), (u, w - hw)]
    pts = [np.asarray(immersion(a, b), dtype=float) for a, b in probes]
    if any(q.shape != u.shape + (3,) for q in pts):
        raise UsageError("immersion(u, w) must return an array of shape u.shape + (3,)")
    p, pu1, pu0, pw1, pw0 = _cylinder_rows(np.reshape(pts, (-1, 3))).reshape(5, -1, 3)
    fu = (pu1 - pu0) / (2.0 * hu)
    fw = (pw1 - pw0) / (2.0 * hw)
    gram = pullback_metric(metric_cylinder(amb, p), np.stack([fu, fw], axis=-1))
    e, f, gg = gram[:, 0, 0], gram[:, 0, 1], gram[:, 1, 1]
    det = e * gg - f * f
    degenerate = det <= 1e-14 * np.maximum(1.0, e * gg)
    total = np.sqrt(det[~degenerate]).sum() * du * dw
    return PatchAreaResult(float(total), int(np.count_nonzero(degenerate)))
