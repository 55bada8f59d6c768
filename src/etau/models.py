"""The two metric models of E(-1, tau) and the change of model between them.

Cylinder model: the solid cylinder D x R with

    ds^2 = lam^2 (dx^2 + dy^2) + (2 tau lam (y dx - x dy) + dt)^2,
    lam = 2 / (1 - x^2 - y^2).

Half-space model: {y > 0} x R with

    ds^2 = (dx^2 + dy^2) / y^2 + (-(2 tau / y) dx + dt)^2.

Both are Riemannian metrics on 3-dimensional total spaces fibering over the
hyperbolic plane; tau is the bundle curvature parameter (tau = 0 gives the
metric product H^2 x R).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, UsageError
from .numerics import ToleranceConfig

# Points closer than this to the boundary circle / boundary plane are refused:
# the conformal factor blows up and double precision loses the geometry.
BOUNDARY_MARGIN = 1e-12


@dataclass(frozen=True)
class AmbientSpace:
    """The space E(-1, tau) together with the tolerance configuration."""

    tau: float
    tol: ToleranceConfig = field(default_factory=ToleranceConfig)

    def __post_init__(self):
        if not math.isfinite(self.tau):
            raise UsageError("tau must be finite")
        if self.tau < 0:
            raise UsageError(
                "negative tau: conjugate by a vertical reflection instead (tau >= 0 normalization)"
            )


@dataclass(frozen=True)
class CylinderPoint:
    """Point (x, y, t) of the cylinder model, (x, y) strictly inside the unit disk."""

    x: float
    y: float
    t: float

    def __post_init__(self):
        rho2 = self.x * self.x + self.y * self.y
        if not rho2 < 1.0 - BOUNDARY_MARGIN:
            raise DomainError(
                "point at squared radius %r is outside the open unit disk (margin %g)"
                % (rho2, BOUNDARY_MARGIN)
            )

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.t], dtype=float)


@dataclass(frozen=True)
class HalfSpacePoint:
    """Point (x, y, t) of the half-space model, y > 0."""

    x: float
    y: float
    t: float

    def __post_init__(self):
        if not self.y > BOUNDARY_MARGIN:
            raise DomainError("half-space point needs y > %g, got y=%r" % (BOUNDARY_MARGIN, self.y))

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.t], dtype=float)


@dataclass(frozen=True)
class BoundaryPoint:
    """Point (theta, t) of the asymptotic boundary cylinder S^1 x R.

    theta is normalized into [0, 2 pi).
    """

    theta: float
    t: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.t)):
            raise UsageError("boundary point coordinates must be finite")
        object.__setattr__(self, "theta", self.theta % (2.0 * math.pi))


@dataclass(frozen=True)
class TangentVector:
    """Coordinate tangent vector (vx, vy, vt) at a model point."""

    base: CylinderPoint | HalfSpacePoint
    v: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.v, dtype=float)
        if arr.shape != (3,):
            raise UsageError("tangent vector must have shape (3,), got %s" % (arr.shape,))
        object.__setattr__(self, "v", arr)


class MetricTensor:
    """Symmetric positive definite 3x3 matrix attached to a base point."""

    __slots__ = ("matrix", "base")

    def __init__(self, matrix: np.ndarray, base):
        m = np.asarray(matrix, dtype=float)
        if m.shape != (3, 3):
            raise UsageError("metric must be 3x3, got %s" % (m.shape,))
        if not np.all(np.abs(m - m.T) <= 1e-14 * max(1.0, float(np.abs(m).max()))):
            raise UsageError("metric matrix is not symmetric")
        # Sylvester criterion on leading minors
        if not (m[0, 0] > 0 and np.linalg.det(m[:2, :2]) > 0 and np.linalg.det(m) > 0):
            raise UsageError("metric matrix is not positive definite")
        self.matrix = m
        self.base = base

    def __repr__(self):
        return "MetricTensor(base=%r)" % (self.base,)


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


def metric_cylinder_components(tau, x, y):
    """Raw cylinder-model metric components at (x, y); array friendly.

    Returns (gxx, gyy, gtt, gxy, gxt, gyt), built from :func:`fiber_form`.
    """
    lam, a, b = fiber_form(tau, x, y)
    lam2 = lam * lam
    gxx = lam2 + a * a
    gyy = lam2 + b * b
    gtt = np.ones_like(lam) if isinstance(lam, np.ndarray) else 1.0
    gxy = a * b
    gxt = a
    gyt = b
    return gxx, gyy, gtt, gxy, gxt, gyt


def metric_cylinder(amb: AmbientSpace, p: CylinderPoint) -> MetricTensor:
    """Metric tensor of the cylinder model at p."""
    gxx, gyy, gtt, gxy, gxt, gyt = metric_cylinder_components(amb.tau, p.x, p.y)
    m = np.array([[gxx, gxy, gxt], [gxy, gyy, gyt], [gxt, gyt, gtt]])
    return MetricTensor(m, p)


def metric_halfspace(amb: AmbientSpace, p: HalfSpacePoint) -> MetricTensor:
    """Metric tensor of the half-space model at p."""
    tau = amb.tau
    y = p.y
    inv_y2 = 1.0 / (y * y)
    # omega = -(2 tau / y) dx + dt
    c = -2.0 * tau / y
    m = np.array(
        [
            [inv_y2 + c * c, 0.0, c],
            [0.0, inv_y2, 0.0],
            [c, 0.0, 1.0],
        ]
    )
    return MetricTensor(m, p)


def inner(g: MetricTensor, u: TangentVector, v: TangentVector) -> float:
    """Inner product <u, v> under g; all three must share the base point."""
    if u.base != g.base or v.base != g.base:
        raise UsageError("inner product requires matching base points")
    return float(u.v @ g.matrix @ v.v)


def _phi(z: complex) -> complex:
    # Cayley-type map sending the upper half plane onto the unit disk, i -> 0.
    return (z - 1j) / (z + 1j)


def to_disk_model(amb: AmbientSpace, p: HalfSpacePoint) -> CylinderPoint:
    """Isometric change of model: half-space -> cylinder.

    (z, t) |-> (phi(z), t - 4 tau arctan(x / (y + 1))) with
    phi(z) = (z - i)/(z + i).  The arctan is the principal branch; its
    argument is smooth on y > 0 because y + 1 > 0 there.  The sign of the
    vertical correction is forced: pulling the disk fiber potential
    lam (y dx - x dy) back through phi gives -dx/y plus twice the
    differential of arctan(x/(y+1)), so only this sign makes the map an
    isometry for the two metrics above.
    """
    w = _phi(p.z)
    t = p.t - 4.0 * amb.tau * math.atan2(p.x, p.y + 1.0)
    return CylinderPoint(w.real, w.imag, t)


def to_halfspace_model(amb: AmbientSpace, p: CylinderPoint) -> HalfSpacePoint:
    """Inverse change of model: cylinder -> half-space."""
    w = p.z
    z = 1j * (1.0 + w) / (1.0 - w)
    if z.imag <= 0:
        raise DomainError("image point left the half-space (numerical underflow near the boundary)")
    t = p.t + 4.0 * amb.tau * math.atan2(z.real, z.imag + 1.0)
    return HalfSpacePoint(z.real, z.imag, t)


def to_disk_jacobian(amb: AmbientSpace, p: HalfSpacePoint) -> np.ndarray:
    """Analytic Jacobian of to_disk_model at p (rows: dx', dy', dt')."""
    dphi = 2j / (p.z + 1j) ** 2
    den = (p.y + 1.0) ** 2 + p.x * p.x
    dt_dx = -4.0 * amb.tau * (p.y + 1.0) / den
    dt_dy = 4.0 * amb.tau * p.x / den
    return np.array(
        [
            [dphi.real, -dphi.imag, 0.0],
            [dphi.imag, dphi.real, 0.0],
            [dt_dx, dt_dy, 1.0],
        ]
    )


def pullback_metric(g_image, jacobian: np.ndarray) -> np.ndarray:
    """Pull a metric matrix back through a map with the given Jacobian: J^T G J."""
    gm = g_image.matrix if isinstance(g_image, MetricTensor) else np.asarray(g_image, dtype=float)
    j = np.asarray(jacobian, dtype=float)
    return j.T @ gm @ j


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

    `immersion(u, w)` must return a CylinderPoint for (u, w) in the closed
    parameter rectangle.  Cells are integrated by the midpoint rule with
    central-difference partials.  Samples where the differential drops rank
    are skipped and counted in `degenerate_samples`.
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

    total = 0.0
    degenerate = 0
    for i in range(n_u):
        u = u0 + (i + 0.5) * du
        for j in range(n_w):
            w = w0 + (j + 0.5) * dw
            p = immersion(u, w)
            pu1 = immersion(u + hu, w).as_array()
            pu0 = immersion(u - hu, w).as_array()
            pw1 = immersion(u, w + hw).as_array()
            pw0 = immersion(u, w - hw).as_array()
            fu = (pu1 - pu0) / (2.0 * hu)
            fw = (pw1 - pw0) / (2.0 * hw)
            g = metric_cylinder(amb, p).matrix
            e = fu @ g @ fu
            f = fu @ g @ fw
            gg = fw @ g @ fw
            det = e * gg - f * f
            if det <= 1e-14 * max(1.0, e * gg):
                degenerate += 1
                continue
            total += math.sqrt(det) * du * dw
    return PatchAreaResult(total, degenerate)
