"""Rotational catenoid family and the area comparison against disk pairs.

The minimal annuli treated here are rotationally invariant and symmetric
under a horizontal reflection, so everything reduces to a profile curve.
A catenoid with neck parameter ``d > 0`` reaches down to hyperbolic
radius ``arcsinh(d)`` and its height above the symmetry plane at radius
``s`` is an integral over the profile.  The naive integrand has an
inverse square root singularity at the neck; substituting
``sinh(rho) = sqrt((1 + d^2) cosh(t)^2 - 1)`` removes it, and the annulus
area runs in the regular variable ``t``.  The heights take one more step,
to the Gudermannian ``phi = gd(t) = arctan(sinh(t))``.  With
``r = sqrt(1 + d^2)`` the height integrand becomes

    d sqrt((1 + 4 tau^2 (r - cos(phi)) / (r + cos(phi))) / (d^2 + sin(phi)^2)),

which is algebraic in ``cos(phi)`` and ``sin(phi)`` and smooth on the
closed interval ``[0, pi / 2]``.  The height at radius ``s`` integrates it
up to ``gd(t(s))`` and the asymptotic height up to ``pi / 2``: both are
proper integrals, with no truncation point and no tail bound.  The
integrand peaks at ``phi = 0`` with a width of about ``d``, so below the
neck parameter ``_SPLIT_NECK`` both heights integrate
``[0, min(phi_max, pi / 4)]`` in ``u``, with ``tan(phi) = (d / r) sinh(u)``,
where the peak spreads over a range of order one, and only the rest in
``phi``.  Asymptotic heights are memoized per ``(tau, tol, d)``, since
each inversion and the circle pair built on its result ask for the same
heights again.

Heights are bounded: as ``s`` grows the height tends to a finite limit
``asymptotic_height(d)``, which itself increases towards
``(pi / 2) sqrt(1 + 4 tau^2)`` as ``d`` grows; twice that supremum is
the tall threshold of the barriers and the curve classifier.  Past a
radius threshold the truncated catenoid has more area than the two
totally geodesic disks spanning the same pair of circles, which is the
content of the two lemma-style bounds.  ``_upper_bound`` and
``_lower_bound`` evaluate them (NaN where a precondition fails), only
:func:`compare_areas` calls them, and the two verdicts are decided once,
by :attr:`AreaComparison.upper_holds` and
:attr:`AreaComparison.lower_holds`.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError
from .models import AmbientSpace
from .numerics import (
    EVALS_PER_PANEL,
    QuadratureResult,
    ToleranceConfig,
    bisect_monotone,
    integrate,
)

__all__ = [
    "CatenoidProfile",
    "TruncatedCatenoid",
    "AreaComparison",
    "CrossoverResult",
    "profile_height",
    "asymptotic_height",
    "asymptotic_height_supremum",
    "neck_parameter_for_height",
    "truncation_radius",
    "annulus_area",
    "disk_area",
    "disk_area_closed_form",
    "compare_areas",
    "find_crossover",
    "connected_boundary_for_height",
    "default_crossover_grid",
    "annulus_vertex_grid",
]

# Stopping tolerances of the ITP solves: the neck inversion in
# neck_parameter_for_height, and the solves for d and R in
# connected_boundary_for_height.  Every quadrature reads ``amb.tol``.
_NECK_TOL = 1e-10
_BOUNDARY_TOL = 1e-9

# Below this neck parameter the heights integrate the peak at phi = 0 in u
# (_height_quadrature).  Measured at the default tolerances over
# 0 <= tau <= 3: from d = 2.37 up (tau = 0; 2.28 at tau = 0.5, 2.06 at
# tau = 1.25) one 15-point panel meets the tolerance on [0, pi / 2], and
# it does for every d >= 2.4 and every upper limit tried, while the split
# of [0, pi / 2] runs two integrals and so never fewer than 30 evaluations.
# Below the crossover the unsplit rule takes 45 evaluations at d = 1, 105
# at 0.2 and 405 at 1e-4, against 30, 60 and 90 split.
_SPLIT_NECK = 2.4
# Asymptotic heights kept by the memo; eight inversions at one tau ask for
# about 62 distinct ones.
_HEIGHT_MEMO_SIZE = 512


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


def _height_integrand(tau: float, d: float):
    # The height integrand in phi = gd(t).  With c = cos(phi) and
    # q = d^2 + sin(phi)^2 = (r - c)(r + c), the fiber factor's
    # (r - c) / (r + c) is q / (r + c)^2, which keeps the small-d neck,
    # where r - c cancels, to full relative precision.
    d2 = d * d
    r = math.sqrt(1.0 + d2)
    t2 = 4.0 * tau * tau

    def f(phi: float) -> float:
        sn = math.sin(phi)
        q = d2 + sn * sn
        p = r + math.cos(phi)
        return d * math.sqrt((1.0 + t2 * q / (p * p)) / q)

    return f


def _peak_integrand(tau: float, d: float):
    # The height integrand after tan(phi) = k sinh(u), k = d / r.  With
    # x = k sinh(u), dphi = k cosh(u) du / (1 + x^2) and
    # q = d^2 + x^2 / (1 + x^2) = d^2 cosh(u)^2 / (1 + x^2), so 1 / sqrt(q)
    # cancels cosh(u) and leaves k sqrt(1 + 4 tau^2 q / p^2) / sqrt(1 + x^2),
    # with cos(phi) = 1 / sqrt(1 + x^2) in p = r + cos(phi).
    d2 = d * d
    r = math.sqrt(1.0 + d2)
    k = d / r
    t2 = 4.0 * tau * tau

    def g(u: float) -> float:
        x = k * math.sinh(u)
        x2 = x * x
        w = 1.0 + x2
        q = d2 + x2 / w
        p = r + 1.0 / math.sqrt(w)
        return k * math.sqrt((1.0 + t2 * q / (p * p)) / w)

    return g, k


def _height_quadrature(
    tau: float, tol: ToleranceConfig, d: float, phi_max: float
) -> QuadratureResult:
    """The height integrand integrated over ``[0, phi_max]``, ``phi_max <= pi / 2``.

    From ``d = _SPLIT_NECK`` up (and for subnormal ``d``, whose ``u`` range
    would overflow) this is one integral in ``phi``.  Below, ``[0, s]`` with
    ``s = min(phi_max, pi / 4)`` is integrated in ``u`` and ``[s, phi_max]``
    in ``phi``.  When both parts run, the ``phi`` part runs first, at half
    of both tolerances, and the peak gets the rest of the absolute target,
    ``max(abs_tol, rel_tol |phi part|)`` less the ``phi`` part's estimate,
    at half the relative one.  Either way the summed error estimate meets
    ``max(abs_tol, rel_tol |height|)``, as one integral does, and the peak
    gets what the ``phi`` part left of ``max_evals``.
    """
    if d >= _SPLIT_NECK or d < sys.float_info.min:
        return integrate(_height_integrand(tau, d), 0.0, phi_max, tol)
    g, k = _peak_integrand(tau, d)
    split = 0.25 * math.pi
    if phi_max <= split:
        return integrate(g, 0.0, math.asinh(math.tan(phi_max) / k), tol)
    # A tolerance whose half underflows stays whole; the final check below
    # still holds the sum to the one-integral target.
    half = ToleranceConfig(
        0.5 * tol.abs_tol or tol.abs_tol, 0.5 * tol.rel_tol or tol.rel_tol, tol.max_evals
    )
    rest = integrate(_height_integrand(tau, d), split, phi_max, half)
    left = tol.max_evals - rest.evaluations
    if not rest.converged or left < EVALS_PER_PANEL:
        return QuadratureResult(rest.value, rest.error_estimate, rest.evaluations, False)
    # The peak may use what the rest left of the one-integral target.
    room = max(tol.abs_tol, tol.rel_tol * rest.value) - rest.error_estimate
    peak = integrate(
        g, 0.0, math.asinh(math.tan(split) / k), ToleranceConfig(room, half.rel_tol, left)
    )
    value = peak.value + rest.value
    error = peak.error_estimate + rest.error_estimate
    return QuadratureResult(
        value,
        error,
        peak.evaluations + rest.evaluations,
        peak.converged and error <= max(tol.abs_tol, tol.rel_tol * abs(value)),
    )


def _height_upper_limit(d: float, s: float) -> float:
    # cosh(t) = cosh(s) / sqrt(1 + d^2); roundoff can push the ratio
    # fractionally below 1 when s sits at the neck.
    try:
        c = math.cosh(s)
    except OverflowError:
        raise DomainError(
            f"radius {s!r} overflows cosh; the neck parameter {d!r} is too large"
        ) from None
    ratio = c / math.sqrt(1.0 + d * d)
    if ratio <= 1.0:
        return 0.0
    return math.acosh(ratio)


def profile_height(profile: CatenoidProfile, s: float) -> float:
    """Height of the upper catenoid half at hyperbolic radius ``s``.

    ``s`` must be at least the neck radius ``arcsinh(d)``; at the neck the
    height is zero.  The height integrand runs over ``[0, gd(t(s))]``,
    split at ``min(gd(t(s)), pi / 4)`` below ``d = _SPLIT_NECK`` (see
    :func:`_height_quadrature`).
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
    amb = profile.ambient
    res = _height_quadrature(amb.tau, amb.tol, d, math.atan(math.sinh(T)))
    return _converged_value(res, "profile height")


@functools.lru_cache(maxsize=_HEIGHT_MEMO_SIZE)
def _memo_asymptotic_height(tau: float, tol: ToleranceConfig, d: float) -> float:
    # lru_cache stores only returned values, so a QuadratureError is raised
    # again on the next call with the same key.
    res = _height_quadrature(tau, tol, d, 0.5 * math.pi)
    return _converged_value(res, "asymptotic height")


def asymptotic_height(profile: CatenoidProfile) -> float:
    """Limit of :func:`profile_height` as the radius goes to infinity.

    The height integrand over ``[0, pi / 2]``, split at ``pi / 4`` below
    ``d = _SPLIT_NECK`` (see :func:`_height_quadrature`).  Values are kept
    in a bounded module memo keyed on ``(tau, tol, d)``, so a repeated
    height costs no quadrature and returns the same bits.
    """
    amb = profile.ambient
    return _memo_asymptotic_height(amb.tau, amb.tol, profile.d)


def asymptotic_height_supremum(amb: AmbientSpace) -> float:
    """Least upper bound of the asymptotic heights over all neck parameters."""
    return 0.5 * math.pi * math.sqrt(1.0 + 4.0 * amb.tau * amb.tau)


def neck_parameter_for_height(amb: AmbientSpace, target: float) -> float:
    """Neck parameter whose asymptotic height equals ``target``.

    The asymptotic height increases strictly from 0 to the supremum
    ``(pi / 2) sqrt(1 + 4 tau^2)``, so any value strictly in between is
    attained exactly once.  A bracket is grown by halving or doubling from
    ``d = 1`` and the ITP solver :func:`bisect_monotone` finishes the
    inversion to ``|h(d) - target| <= 1e-10``.  Heights are memoized for
    the call, so no ``d`` is asked of :func:`asymptotic_height` twice,
    bracket ends included; its own memo serves the heights that other calls
    at the same ``tau`` and tolerances already computed.
    """
    sup = asymptotic_height_supremum(amb)
    if not (0.0 < target < sup):
        raise DomainError(
            f"target height {target!r} must lie strictly between 0 and the "
            f"supremum {sup!r}"
        )

    @functools.lru_cache(maxsize=None)
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
    return bisect_monotone(g, lo, hi, target=target, tol=_NECK_TOL)


def truncation_radius(d: float) -> float:
    """Reference truncation radius ``(3/2) log(d)`` used in the area sweep."""
    _check_neck_parameter(d)
    return 1.5 * math.log(d)


def annulus_area(trunc: TruncatedCatenoid) -> float:
    """Area of the truncated catenoid (both halves) at radius ``R``."""
    d = trunc.profile.d
    tau = trunc.profile.ambient.tau
    r = math.sqrt(1.0 + d * d)
    t2 = 4.0 * tau * tau
    T = _height_upper_limit(d, trunc.R)
    if T == 0.0:
        return 0.0

    def f(t: float) -> float:
        # k = cosh(rho): sinh(rho) sqrt(1 + 4 tau^2 tanh(rho / 2)^2)
        k = r * math.cosh(t)
        return math.sqrt((k * k - 1.0) * (1.0 + t2 * (k - 1.0) / (k + 1.0)))

    res = integrate(f, 0.0, T, trunc.profile.ambient.tol)
    return 4.0 * math.pi * _converged_value(res, "annulus area")


def disk_area(amb: AmbientSpace, R: float) -> float:
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

    res = integrate(f, 0.0, R, amb.tol)
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

    NaN unless ``R > arcsinh(d + 1)``, which also keeps the radicand positive.
    """
    if R <= math.asinh(d + 1.0):
        return math.nan
    radicand = math.exp(2.0 * R) - 2.0 - 4.0 * d * d
    if radicand <= 0.0:
        return math.nan
    root = math.sqrt(1.0 + 4.0 * amb.tau * amb.tau)
    return 2.0 * math.pi * root * (math.sqrt(radicand) + 1.0)


def _lower_bound(amb: AmbientSpace, d: float) -> float:
    """Disk-pair area bound ``2 pi sqrt(1+4 tau^2) (sqrt(d^3 - 4) - sqrt(d))``.

    NaN unless ``d^3 > 4``.
    """
    if d * d * d <= 4.0:
        return math.nan
    root = math.sqrt(1.0 + 4.0 * amb.tau * amb.tau)
    return 2.0 * math.pi * root * (math.sqrt(d * d * d - 4.0) - math.sqrt(d))


@dataclass(frozen=True)
class AreaComparison:
    """Truncated catenoid versus the two disks spanning the same circles.

    The one place that decides the two lemma inequalities: each verdict is
    false where the row is infeasible or its bound is NaN.
    """

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

    @property
    def upper_holds(self) -> bool:
        """Whether the catenoid area lies strictly below the upper lemma bound."""
        return self.feasible and math.isfinite(self.upper_bound) and (
            self.area_catenoid < self.upper_bound
        )

    @property
    def lower_holds(self) -> bool:
        """Whether the disk-pair area lies strictly above the lower lemma bound."""
        return self.feasible and math.isfinite(self.lower_bound) and (
            self.area_two_disks > self.lower_bound
        )


def compare_areas(amb: AmbientSpace, d: float, R: float) -> AreaComparison:
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
    cat = annulus_area(TruncatedCatenoid(profile, R))
    disks = 2.0 * disk_area_closed_form(amb, R)
    return AreaComparison(
        d=d,
        R=R,
        area_catenoid=cat,
        area_two_disks=disks,
        upper_bound=_upper_bound(amb, d, R),
        lower_bound=_lower_bound(amb, d),
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


def find_crossover(amb: AmbientSpace, d_grid: np.ndarray | None = None) -> CrossoverResult:
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
        rows.append(compare_areas(amb, d, truncation_radius(d)))
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


def connected_boundary_for_height(amb: AmbientSpace, h: float) -> AreaComparison:
    """Boundary pair of circles at heights ``+-h`` spanned more cheaply connected.

    Finds ``(d, R)`` with ``profile_height = h`` at radius ``R`` near the
    reference radius, taking ``d`` at or beyond the sweep crossover so the
    catenoid beats the two disks.  Requires ``h`` below the height supremum.
    The sweep runs on :func:`default_crossover_grid`, and both solves stop
    at ``|height - h| <= 1e-9`` or once the bracket is narrower than that.
    """
    sup = asymptotic_height_supremum(amb)
    if not (0.0 < h < sup):
        raise DomainError(
            f"half-height {h!r} must lie strictly between 0 and the supremum {sup!r}"
        )
    sweep = find_crossover(amb)
    if not sweep.found:
        raise DomainError("no crossover point found on the sweep grid")
    d_start = sweep.crossover_d

    # Memoized for the call: the bracket searches and both solves share
    # points, including (d, truncation_radius(d)) at the solved d.
    @functools.lru_cache(maxsize=None)
    def height(d: float, s: float) -> float:
        return profile_height(CatenoidProfile(amb, d), s)

    def height_at_reference(d: float) -> float:
        return height(d, truncation_radius(d))

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
        d = bisect_monotone(height_at_reference, d_start, hi, target=h, tol=_BOUNDARY_TOL)

    profile = CatenoidProfile(amb, d)

    upper = max(truncation_radius(d), profile.neck + 1.0)
    for _ in range(80):
        if height(d, upper) >= h:
            break
        upper += max(1.0, upper)
    else:
        raise DomainError(f"half-height {h!r} not bracketed at d = {d!r}")
    R = bisect_monotone(
        functools.partial(height, d), profile.neck, upper, target=h, tol=_BOUNDARY_TOL
    )
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

