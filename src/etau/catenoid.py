"""Rotational catenoid family and the area comparison against disk pairs.

The minimal annuli treated here are rotationally invariant and symmetric
under a horizontal reflection, so everything reduces to a profile curve.
A catenoid with neck parameter ``d > 0`` reaches down to hyperbolic
radius ``arcsinh(d)`` and its height above the symmetry plane at radius
``s`` is an integral over the profile.  The naive integrand has an
inverse square root singularity at the neck; substituting
``sinh(rho) = sqrt((1 + d^2) cosh(t)^2 - 1)`` removes it, and every
quadrature below runs in the regular variable ``t``.

Heights are bounded: as ``s`` grows the height tends to a finite limit
``asymptotic_height(d)``, which itself increases towards
``(pi / 2) sqrt(1 + 4 tau^2)`` as ``d`` grows; twice that supremum is
the tall threshold of the barriers and the curve classifier.  Past a
radius threshold the truncated catenoid has more area than the two
totally geodesic disks spanning the same pair of circles, which is the
content of the two lemma-style bounds, each defined once at the bottom
of the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError
from .models import AmbientSpace, CylinderPoint
from .numerics import (
    QuadratureResult,
    ToleranceConfig,
    bisect_monotone,
    integrate,
    integrate_to_infinity,
)

__all__ = [
    "CatenoidProfile",
    "TruncatedCatenoid",
    "AreaComparison",
    "CrossoverResult",
    "neck_radius",
    "profile_height",
    "product_profile_height",
    "asymptotic_height",
    "asymptotic_height_supremum",
    "neck_parameter_for_height",
    "truncation_radius",
    "regularized_truncation",
    "annulus_area",
    "disk_area",
    "disk_area_closed_form",
    "check_area_upper_bound",
    "check_area_lower_bound",
    "compare_areas",
    "find_crossover",
    "connected_boundary_for_height",
    "default_crossover_grid",
    "annulus_vertex_grid",
    "sample_annulus",
]


@dataclass(frozen=True)
class CatenoidProfile:
    """Rotational catenoid with neck parameter ``d`` in a fixed ambient space."""

    ambient: AmbientSpace
    d: float

    def __post_init__(self) -> None:
        _check_neck_parameter(self.d)

    @property
    def neck(self) -> float:
        """Hyperbolic radius of the waist circle."""
        return math.asinh(self.d)


@dataclass(frozen=True)
class TruncatedCatenoid:
    """Catenoid truncated at hyperbolic radius ``R`` (both halves kept)."""

    profile: CatenoidProfile
    R: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.R) or self.R <= self.profile.neck:
            raise DomainError(
                f"truncation radius {self.R!r} must exceed the neck radius "
                f"{self.profile.neck!r}"
            )

    @property
    def half_height(self) -> float:
        """Vertical coordinate of the boundary circles above the neck plane."""
        return profile_height(self.profile, self.R)


def _check_neck_parameter(d: float) -> None:
    if not math.isfinite(d) or d <= 0.0:
        raise DomainError(f"neck parameter must be positive, got {d!r}")


def _converged_value(res: QuadratureResult, what: str) -> float:
    """The value of a quadrature result; QuadratureError if it did not converge."""
    if not res.converged:
        raise QuadratureError(
            f"{what}: quadrature stopped after {res.evaluations} evaluations "
            f"with error estimate {res.error_estimate:.3g}"
        )
    return res.value


def neck_radius(d: float) -> float:
    """Hyperbolic radius of the waist of the catenoid with parameter ``d``."""
    _check_neck_parameter(d)
    return math.asinh(d)


def _fiber_factor(tau: float, rho: float) -> float:
    th = math.tanh(0.5 * rho)
    return math.sqrt(1.0 + 4.0 * tau * tau * th * th)


def _height_integrand(tau: float, d: float):
    one_pd2 = 1.0 + d * d

    def f(t: float) -> float:
        c = math.cosh(t)
        s2 = one_pd2 * c * c - 1.0
        return d * _fiber_factor(tau, math.asinh(math.sqrt(s2))) / math.sqrt(s2)

    return f


def _height_upper_limit(d: float, s: float) -> float:
    # cosh(t) = cosh(s) / sqrt(1 + d^2); roundoff can push the ratio
    # fractionally below 1 when s sits at the neck.
    ratio = math.cosh(s) / math.sqrt(1.0 + d * d)
    if ratio <= 1.0:
        return 0.0
    return math.acosh(ratio)


def profile_height(
    profile: CatenoidProfile, s: float, tol: ToleranceConfig | None = None
) -> float:
    """Height of the upper catenoid half at hyperbolic radius ``s``.

    ``s`` must be at least the neck radius ``arcsinh(d)``; at the neck the
    height is zero.
    """
    d = profile.d
    if not math.isfinite(s):
        raise DomainError(f"radius must be finite, got {s!r}")
    if s < profile.neck - 1e-12:
        raise DomainError(
            f"radius {s!r} lies inside the neck radius {profile.neck!r}"
        )
    T = _height_upper_limit(d, s)
    if T == 0.0:
        return 0.0
    f = _height_integrand(profile.ambient.tau, d)
    res = integrate(f, 0.0, T, tol if tol is not None else profile.ambient.tol)
    return _converged_value(res, "profile height")


def product_profile_height(
    d: float, s: float, tol: ToleranceConfig | None = None
) -> float:
    """Height of the tau = 0 catenoid profile, used for comparison bounds.

    Satisfies the sandwich
    ``(d / sqrt(1 + d^2)) * w(s) <= value <= w(s)`` with
    ``w(s) = 2 arctan(tanh(s / 2))`` when evaluated at
    ``s = rho(t)``-type radii.
    """
    flat = CatenoidProfile(AmbientSpace(0.0), d)
    return profile_height(flat, s, tol)


def asymptotic_height(
    profile: CatenoidProfile, tol: ToleranceConfig | None = None
) -> float:
    """Limit of :func:`profile_height` as the radius goes to infinity."""
    d = profile.d
    tau = profile.ambient.tau
    f = _height_integrand(tau, d)
    front = math.sqrt(1.0 + 4.0 * tau * tau) * d / math.sqrt(1.0 + d * d)

    def tail(T: float) -> float:
        # integrand <= front * sech(t) / sqrt(1 - 1 / ((1+d^2) cosh(T)^2))
        # for t >= T, and the sech tail integrates to 2 arctan(e^-T) <= 2 e^-T.
        # A finite cosh(T) also keeps the integrand finite on [0, T].
        try:
            c = math.cosh(T)
        except OverflowError:
            raise DomainError(
                f"asymptotic height: truncation point {T!r} overflows cosh; "
                "the absolute tolerance is too small"
            ) from None
        margin = 1.0 - 1.0 / ((1.0 + d * d) * c * c)
        return front / math.sqrt(margin) * 2.0 * math.exp(-T)

    res = integrate_to_infinity(
        f, 0.0, tail, tol if tol is not None else profile.ambient.tol
    )
    return _converged_value(res, "asymptotic height")


def asymptotic_height_supremum(amb: AmbientSpace) -> float:
    """Least upper bound of the asymptotic heights over all neck parameters."""
    return 0.5 * math.pi * math.sqrt(1.0 + 4.0 * amb.tau * amb.tau)


def neck_parameter_for_height(
    amb: AmbientSpace, target: float, tol: float = 1e-10
) -> float:
    """Neck parameter whose asymptotic height equals ``target``.

    The asymptotic height increases strictly from 0 to the supremum
    ``(pi / 2) sqrt(1 + 4 tau^2)``, so any value strictly in between is
    attained exactly once.
    """
    sup = asymptotic_height_supremum(amb)
    if not (0.0 < target < sup):
        raise DomainError(
            f"target height {target!r} must lie strictly between 0 and the "
            f"supremum {sup!r}"
        )

    def g(d: float) -> float:
        return asymptotic_height(CatenoidProfile(amb, d))

    lo, hi = 1.0, 1.0
    while g(lo) > target:
        lo *= 0.5
        if lo < 1e-12:
            raise DomainError(f"no neck parameter above 1e-12 reaches {target!r}")
    while g(hi) < target:
        hi *= 2.0
        if hi > 1e12:
            raise DomainError(
                f"target {target!r} is too close to the supremum {sup!r}"
            )
    return bisect_monotone(g, lo, hi, target=target, tol=tol)


def truncation_radius(d: float) -> float:
    """Reference truncation radius ``(3/2) log(d)`` used in the area sweep."""
    _check_neck_parameter(d)
    return 1.5 * math.log(d)


def truncation_is_admissible(d: float) -> bool:
    """Whether the reference radius clears the neck so the truncation exists."""
    return truncation_radius(d) > math.asinh(d)


def regularized_truncation(d: float) -> float:
    """Value ``s`` with ``rho(s) = truncation_radius(d)`` in the regular variable.

    Only defined once the reference radius clears the neck (roughly
    ``d > 4.2``); below that the truncated annulus is empty.
    """
    _check_neck_parameter(d)
    d3 = d * d * d
    arg = (d3 + 1.0) / (2.0 * math.sqrt(d3) * math.sqrt(d * d + 1.0))
    if arg < 1.0:
        raise DomainError(
            f"reference radius {truncation_radius(d)!r} does not clear the neck "
            f"{math.asinh(d)!r} at d = {d!r}"
        )
    return math.acosh(arg)


def annulus_area(trunc: TruncatedCatenoid, tol: ToleranceConfig | None = None) -> float:
    """Area of the truncated catenoid (both halves) at radius ``R``."""
    d = trunc.profile.d
    tau = trunc.profile.ambient.tau
    one_pd2 = 1.0 + d * d
    T = _height_upper_limit(d, trunc.R)
    if T == 0.0:
        return 0.0

    def f(t: float) -> float:
        c = math.cosh(t)
        sh = math.sqrt(one_pd2 * c * c - 1.0)
        return sh * _fiber_factor(tau, math.asinh(sh))

    res = integrate(f, 0.0, T, tol if tol is not None else trunc.profile.ambient.tol)
    return 4.0 * math.pi * _converged_value(res, "annulus area")


def disk_area(amb: AmbientSpace, R: float, tol: ToleranceConfig | None = None) -> float:
    """Area of a totally geodesic disk of hyperbolic radius ``R``, by quadrature."""
    if not math.isfinite(R) or R < 0.0:
        raise DomainError(f"radius must be nonnegative, got {R!r}")
    if R == 0.0:
        return 0.0
    t2 = 4.0 * amb.tau * amb.tau
    a = (1.0 - t2) / (1.0 + t2)

    def f(s: float) -> float:
        c = math.cosh(s)
        return math.sinh(s) * math.sqrt((c + a) / (c + 1.0))

    res = integrate(f, 0.0, R, tol if tol is not None else amb.tol)
    return 2.0 * math.pi * math.sqrt(1.0 + t2) * _converged_value(res, "disk area")


def disk_area_closed_form(amb: AmbientSpace, R: float) -> float:
    """Closed form for :func:`disk_area`; reduces to ``2 pi (cosh R - 1)`` at tau = 0."""
    if not math.isfinite(R) or R < 0.0:
        raise DomainError(f"radius must be nonnegative, got {R!r}")
    t2 = 4.0 * amb.tau * amb.tau
    root = math.sqrt(1.0 + t2)
    a = (1.0 - t2) / (1.0 + t2)
    c = math.cosh(R)
    sa = math.sqrt(c + a)
    s1 = math.sqrt(c + 1.0)
    i0 = math.sqrt(2.0 / (1.0 + t2))
    value = (
        sa * s1
        - 2.0 / root
        - (2.0 * t2 / (1.0 + t2)) * math.log((sa + s1) / (i0 + math.sqrt(2.0)))
    )
    return 2.0 * math.pi * root * value


def _upper_bound(amb: AmbientSpace, d: float, R: float) -> float:
    """Catenoid area bound ``2 pi sqrt(1+4 tau^2) (sqrt(e^{2R} - 2 - 4d^2) + 1)``.

    Needs ``R > arcsinh(d + 1)``, which also keeps the radicand positive.
    """
    if R <= math.asinh(d + 1.0):
        raise DomainError(
            f"upper bound needs R > arcsinh(d + 1) = {math.asinh(d + 1.0)!r}, "
            f"got R = {R!r}"
        )
    radicand = math.exp(2.0 * R) - 2.0 - 4.0 * d * d
    if radicand <= 0.0:
        raise DomainError(
            f"upper bound radicand e^(2R) - 2 - 4 d^2 = {radicand!r} is not positive"
        )
    root = math.sqrt(1.0 + 4.0 * amb.tau * amb.tau)
    return 2.0 * math.pi * root * (math.sqrt(radicand) + 1.0)


def _lower_bound(amb: AmbientSpace, d: float) -> float:
    """Disk-pair area bound ``2 pi sqrt(1+4 tau^2) (sqrt(d^3 - 4) - sqrt(d))``.

    Needs ``d^3 > 4``.
    """
    if d * d * d <= 4.0:
        raise DomainError(f"lower bound needs d^3 > 4, got d = {d!r}")
    root = math.sqrt(1.0 + 4.0 * amb.tau * amb.tau)
    return 2.0 * math.pi * root * (math.sqrt(d * d * d - 4.0) - math.sqrt(d))


@dataclass(frozen=True)
class BoundCheck:
    """One lemma-style inequality evaluated at concrete parameters."""

    d: float
    R: float
    area: float
    bound: float
    holds: bool


def check_area_upper_bound(
    amb: AmbientSpace, d: float, R: float, tol: ToleranceConfig | None = None
) -> BoundCheck:
    """Catenoid area against ``2 pi sqrt(1+4 tau^2) (sqrt(e^{2R} - 2 - 4d^2) + 1)``.

    Requires ``R > arcsinh(d + 1)``, which also keeps the radicand positive.
    """
    bound = _upper_bound(amb, d, R)
    area = annulus_area(TruncatedCatenoid(CatenoidProfile(amb, d), R), tol)
    return BoundCheck(d=d, R=R, area=area, bound=bound, holds=area < bound)


@dataclass(frozen=True)
class LowerBoundCheck:
    """Disk-pair area against its lemma bound, with the explicit constants."""

    d: float
    R: float
    area: float
    bound: float
    holds: bool
    c1: float
    c2: float
    sufficient_condition_holds: bool


def check_area_lower_bound(amb: AmbientSpace, d: float) -> LowerBoundCheck:
    """Disk-pair area at ``R(d)`` against ``2 pi sqrt(1+4 tau^2)(sqrt(d^3-4) - sqrt(d))``.

    Requires ``d^3 > 4``.  Also reports the constants ``c1``, ``c2`` and
    whether the sufficient condition ``3 c1 log(d) + 2 c2 < sqrt(d)`` holds;
    the inequality itself is checked directly against the computed area.
    """
    bound = _lower_bound(amb, d)
    R = truncation_radius(d)
    area = 2.0 * disk_area_closed_form(amb, R)
    tau = amb.tau
    t2 = 4.0 * tau * tau
    root = math.sqrt(1.0 + t2)
    c1 = t2 / (1.0 + t2)
    c2 = 2.0 / root + (2.0 * t2 / (1.0 + t2)) * math.log(
        math.sqrt(2.0) * root / (1.0 + root)
    )
    sufficient = 3.0 * c1 * math.log(d) + 2.0 * c2 < math.sqrt(d)
    return LowerBoundCheck(
        d=d,
        R=R,
        area=area,
        bound=bound,
        holds=area > bound,
        c1=c1,
        c2=c2,
        sufficient_condition_holds=sufficient,
    )


@dataclass(frozen=True)
class AreaComparison:
    """Truncated catenoid versus the two disks spanning the same circles."""

    d: float
    R: float
    area_catenoid: float
    area_two_disks: float
    upper_bound: float
    lower_bound: float
    feasible: bool
    disks_win: bool

    @property
    def connected_wins(self) -> bool:
        """Whether the connected competitor (the catenoid) has smaller area."""
        return self.feasible and not self.disks_win


def compare_areas(
    amb: AmbientSpace, d: float, R: float, tol: ToleranceConfig | None = None
) -> AreaComparison:
    """Compare the truncated catenoid at ``(d, R)`` with the matching disk pair.

    Bound columns are NaN when the corresponding precondition fails.
    """
    profile = CatenoidProfile(amb, d)
    if R <= profile.neck:
        return AreaComparison(
            d=d,
            R=R,
            area_catenoid=math.nan,
            area_two_disks=2.0 * disk_area_closed_form(amb, R) if R > 0 else math.nan,
            upper_bound=math.nan,
            lower_bound=math.nan,
            feasible=False,
            disks_win=False,
        )
    cat = annulus_area(TruncatedCatenoid(profile, R), tol)
    disks = 2.0 * disk_area_closed_form(amb, R)
    try:
        upper = _upper_bound(amb, d, R)
    except DomainError:
        upper = math.nan
    try:
        lower = _lower_bound(amb, d)
    except DomainError:
        lower = math.nan
    return AreaComparison(
        d=d,
        R=R,
        area_catenoid=cat,
        area_two_disks=disks,
        upper_bound=upper,
        lower_bound=lower,
        feasible=True,
        disks_win=disks < cat,
    )


@dataclass(frozen=True)
class CrossoverResult:
    """Outcome of the sweep locating where catenoids start to beat disk pairs."""

    crossover_d: float | None
    found: bool
    monotone: bool
    rows: tuple[AreaComparison, ...]


def default_crossover_grid(n: int = 25) -> np.ndarray:
    """Logarithmic neck-parameter grid for the area sweep."""
    return np.geomspace(8.0, 1e5, n)


def find_crossover(
    amb: AmbientSpace,
    d_grid: np.ndarray | None = None,
    tol: ToleranceConfig | None = None,
) -> CrossoverResult:
    """Sweep ``d`` over a grid, comparing areas at the reference radius ``R(d)``.

    Returns the first grid point where the disk pair costs more than the
    catenoid (the connected surface wins), plus whether that stays true
    for every later feasible grid point.
    """
    grid = default_crossover_grid() if d_grid is None else np.asarray(d_grid, float)
    if grid.ndim != 1 or grid.size == 0:
        raise DomainError("neck parameter grid must be a nonempty 1-d array")
    rows = []
    for d in grid:
        d = float(d)
        rows.append(compare_areas(amb, d, truncation_radius(d), tol))
    crossover = None
    monotone = True
    for row in rows:
        if not row.feasible:
            continue
        if row.connected_wins:
            if crossover is None:
                crossover = row.d
        elif crossover is not None:
            monotone = False
    return CrossoverResult(
        crossover_d=crossover,
        found=crossover is not None,
        monotone=monotone,
        rows=tuple(rows),
    )


def connected_boundary_for_height(
    amb: AmbientSpace,
    h: float,
    d_grid: np.ndarray | None = None,
    tol: float = 1e-9,
) -> AreaComparison:
    """Boundary pair of circles at heights ``+-h`` spanned more cheaply connected.

    Finds ``(d, R)`` with ``profile_height = h`` at radius ``R`` near the
    reference radius, taking ``d`` at or beyond the sweep crossover so the
    catenoid beats the two disks.  Requires ``h`` below the height supremum.
    """
    sup = asymptotic_height_supremum(amb)
    if not (0.0 < h < sup):
        raise DomainError(
            f"half-height {h!r} must lie strictly between 0 and the supremum {sup!r}"
        )
    sweep = find_crossover(amb, d_grid)
    if not sweep.found:
        raise DomainError("no crossover point found on the sweep grid")
    d_start = sweep.crossover_d

    def height_at_reference(d: float) -> float:
        return profile_height(CatenoidProfile(amb, d), truncation_radius(d))

    if height_at_reference(d_start) >= h:
        d = d_start
    else:
        hi = d_start
        while height_at_reference(hi) < h:
            hi *= 2.0
            if hi > 1e12:
                raise DomainError(
                    f"half-height {h!r} not reached at the reference radius below "
                    f"d = 1e12; it may be too close to the supremum {sup!r}"
                )
        d = bisect_monotone(height_at_reference, d_start, hi, target=h, tol=tol)

    profile = CatenoidProfile(amb, d)

    def height(s: float) -> float:
        return profile_height(profile, s)

    upper = max(truncation_radius(d), profile.neck + 1.0)
    for _ in range(80):
        if height(upper) >= h:
            break
        upper += max(1.0, upper)
    else:
        raise DomainError(f"half-height {h!r} not bracketed at d = {d!r}")
    R = bisect_monotone(height, profile.neck, upper, target=h, tol=tol)
    return compare_areas(amb, d, R)


def annulus_vertex_grid(
    trunc: TruncatedCatenoid, n_rows: int, n_theta: int
) -> np.ndarray:
    """Vertex grid of shape ``(n_rows, n_theta, 3)`` covering the full annulus.

    Rows run from the bottom boundary circle across the neck to the top one;
    the angular direction is periodic (no duplicated seam column).  Suitable
    as a discrete minimization initializer.
    """
    if n_rows < 3 or n_theta < 3:
        raise DomainError("annulus grid needs at least 3 rows and 3 angles")
    profile = trunc.profile
    v = np.linspace(-1.0, 1.0, n_rows)
    radii = profile.neck + np.abs(v) * (trunc.R - profile.neck)
    heights = np.array(
        [math.copysign(1.0, vi) * profile_height(profile, ri) for vi, ri in zip(v, radii)]
    )
    model_r = np.tanh(0.5 * radii)
    theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    grid = np.empty((n_rows, n_theta, 3))
    grid[:, :, 0] = model_r[:, None] * np.cos(theta)[None, :]
    grid[:, :, 1] = model_r[:, None] * np.sin(theta)[None, :]
    grid[:, :, 2] = heights[:, None]
    return grid


def sample_annulus(
    trunc: TruncatedCatenoid, n_r: int, n_theta: int
) -> tuple[list[list[CylinderPoint]], list[list[CylinderPoint]]]:
    """Point grids on the upper and lower catenoid halves.

    Each half is a list of ``n_r`` rows of ``n_theta`` points; row ``i`` sits
    at hyperbolic radius interpolating the neck to ``R``.
    """
    if n_r < 2 or n_theta < 3:
        raise DomainError("sampling needs at least 2 radii and 3 angles")
    profile = trunc.profile
    radii = np.linspace(profile.neck, trunc.R, n_r)
    theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    upper: list[list[CylinderPoint]] = []
    lower: list[list[CylinderPoint]] = []
    for r in radii:
        u = profile_height(profile, float(r))
        mr = math.tanh(0.5 * float(r))
        top_row = []
        bot_row = []
        for th in theta:
            x = mr * math.cos(float(th))
            y = mr * math.sin(float(th))
            top_row.append(CylinderPoint(x, y, u))
            bot_row.append(CylinderPoint(x, y, -u))
        upper.append(top_row)
        lower.append(bot_row)
    return upper, lower
