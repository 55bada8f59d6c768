"""Deterministic adaptive quadrature and monotone root finding.

The integrator is plain adaptive bisection driven by an embedded
Gauss(7)/Kronrod(15) pair: each interval is evaluated once with both rules,
the difference serves as the error estimate, and the interval with the worst
estimate is split next.  An estimate is never taken below the rounding floor
``50 eps h sum_k w_k |f_k|`` of the Kronrod sum (Piessens et al., QUADPACK,
Springer 1983, routine qk15): where both rules agree to the last bit on a
smooth integrand their difference reads 0, and a request for a tolerance
below double precision must still end unconverged.  At the default
tolerances the floor (about 1e-14 relative) changes nothing.  Everything is
deterministic: fixed nodes, a fixed tie-breaking order on the heap, no
randomness.  Every integral is proper; callers map an infinite range onto a
finite one before integrating.

The root finder is ITP (interpolate, truncate, project; Oliveira and
Takahashi, ACM TOMS 47(1), 2020).  It converges superlinearly on smooth
monotone functions, yet never needs more steps than bisection plus one, so
its evaluation count is bounded by the method itself rather than by an
iteration cap.  It keeps the name ``bisect_monotone`` because callers, and
tools that wrap it by name, predate the switch.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .errors import DomainError, UsageError

__all__ = [
    "EVALS_PER_PANEL",
    "ToleranceConfig",
    "QuadratureResult",
    "integrate",
    "bisect_monotone",
]

# Gauss-Kronrod 7/15 nodes and weights on [-1, 1] (positive half; symmetric).
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
# 7-point Gauss weights; nodes are _XGK[1], _XGK[3], _XGK[5], _XGK[7].
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

EVALS_PER_PANEL = 15
_ROUNDING = 50.0 * 2.220446049250313e-16  # 50 eps, the qk15 rounding factor


@dataclass(frozen=True)
class ToleranceConfig:
    """Stopping rule of :func:`integrate`.

    An integral is accepted once its error estimate is at most
    ``max(abs_tol, rel_tol * |value|)``, and abandoned unconverged when
    the next split would pass ``max_evals`` integrand evaluations (the
    first 15-point panel always runs).  Both tolerances
    must be finite and nonnegative, and not both zero; ``max_evals`` must
    be at least 1.  Anything else raises UsageError.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_evals: int = 200_000

    def __post_init__(self) -> None:
        for name in ("abs_tol", "rel_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise UsageError(f"tolerance {name} must be finite and >= 0, got {value!r}")
        if self.abs_tol == 0.0 and self.rel_tol == 0.0:
            raise UsageError("tolerances abs_tol and rel_tol must not both be 0")
        if self.max_evals < 1:
            raise UsageError(f"max_evals must be at least 1, got {self.max_evals!r}")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool


def _panel(f, a: float, b: float):
    """One Gauss-Kronrod pass over [a, b] -> (kronrod, error estimate).

    The estimate is |kronrod - gauss|, floored at the rounding error
    ``50 eps h sum_k w_k |f_k|`` of the Kronrod sum.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    if not math.isfinite(fc):
        raise DomainError("integrand returned non-finite value at x=%r" % c)
    kron = _WGK[7] * fc
    gauss = _WG[3] * fc
    resabs = _WGK[7] * abs(fc)
    for i in range(7):
        x = h * _XGK[i]
        f1 = f(c - x)
        f2 = f(c + x)
        if not (math.isfinite(f1) and math.isfinite(f2)):
            bad = c - x if not math.isfinite(f1) else c + x
            raise DomainError("integrand returned non-finite value at x=%r" % bad)
        s = f1 + f2
        kron += _WGK[i] * s
        resabs += _WGK[i] * (abs(f1) + abs(f2))
        if i % 2 == 1:
            gauss += _WG[i // 2] * s
    kron *= h
    gauss *= h
    return kron, max(abs(kron - gauss), _ROUNDING * h * resabs)


def integrate(f, a: float, b: float, tol: ToleranceConfig | None = None) -> QuadratureResult:
    """Integrate f over [a, b] adaptively under ``tol`` (default ToleranceConfig()).

    Returns a QuadratureResult; `converged` is False when the evaluation
    budget ran out before the requested tolerance was met.  Integrands
    returning NaN or infinity raise DomainError.
    """
    tols = ToleranceConfig() if tol is None else tol
    a = float(a)
    b = float(b)
    if a == b:
        return QuadratureResult(0.0, 0.0, 0, True)
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0

    value, err = _panel(f, a, b)
    evals = EVALS_PER_PANEL
    seq = 0
    # heap entries: (-err, seq, a, b, value, err); settled intervals keep
    # contributing to the running totals but are no longer split.
    heap = [(-err, seq, a, b, value, err)]
    total_value = value
    total_err = err
    scale = max(abs(a), abs(b), 1.0)

    while True:
        target = max(tols.abs_tol, tols.rel_tol * abs(total_value))
        if total_err <= target:
            return QuadratureResult(sign * total_value, total_err, evals, True)
        if not heap:
            # every interval is at the subdivision floor
            return QuadratureResult(sign * total_value, total_err, evals, False)
        if evals + 2 * EVALS_PER_PANEL > tols.max_evals:
            return QuadratureResult(sign * total_value, total_err, evals, False)
        _, _, ia, ib, ival, ierr = heapq.heappop(heap)
        mid = 0.5 * (ia + ib)
        if mid - ia < 1e-15 * scale or ib - mid < 1e-15 * scale:
            # cannot split further in double precision; keep its contribution
            if not heap:
                return QuadratureResult(sign * total_value, total_err, evals, False)
            continue
        v1, e1 = _panel(f, ia, mid)
        v2, e2 = _panel(f, mid, ib)
        evals += 2 * EVALS_PER_PANEL
        total_value += v1 + v2 - ival
        total_err += e1 + e2 - ierr
        seq += 1
        heapq.heappush(heap, (-e1, seq, ia, mid, v1, e1))
        seq += 1
        heapq.heappush(heap, (-e2, seq, mid, ib, v2, e2))


# ITP constants: truncation delta = (_ITP_K1 / (hi - lo)) (b - a)^_ITP_K2,
# and _ITP_N0 slack steps over bisection.
_ITP_K1 = 0.2
_ITP_K2 = 2.0
_ITP_N0 = 1


def bisect_monotone(g, lo: float, hi: float, target: float = 0.0, tol: float = 1e-10) -> float:
    """Solve g(x) = target for monotone g on [lo, hi] by the ITP method.

    Each step takes the regula falsi point, truncates it towards the
    midpoint by ``0.2 (b - a)^2 / (hi - lo)`` and projects it into a ball
    around the midpoint whose radius shrinks so that after step ``j`` the
    bracket is no wider than ``tol 2^(n_max - j - 1)``, with
    ``n_max = ceil(log2((hi - lo) / tol)) + 1``.  So g is evaluated at most
    ``n_max + 2`` times, the two ends included, which is the bisection count
    plus one; on smooth g the regula falsi steps usually stop far sooner.

    Stops when |g(x) - target| <= tol or the bracket width falls below tol,
    and also once the bracket cannot shrink in floating point.  Works for
    increasing and decreasing g.  Raises UsageError when [lo, hi] does not
    bracket the target.
    """
    lo = float(lo)
    hi = float(hi)
    if not lo < hi:
        raise UsageError("need lo < hi, got [%g, %g]" % (lo, hi))
    tol = float(tol)
    if not (tol > 0.0 and math.isfinite(tol)):
        raise UsageError("tolerance must be positive, got %g" % tol)
    glo = g(lo) - target
    ghi = g(hi) - target
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if glo * ghi > 0:
        raise UsageError(
            "[%g, %g] does not bracket the target: g-target = %g, %g" % (lo, hi, glo, ghi)
        )
    span = hi - lo
    # a difference of logs, since span / tol can overflow
    n_max = max(math.ceil(math.log2(span) - math.log2(tol)), 0) + _ITP_N0
    for j in range(n_max):
        width = hi - lo
        if width < tol:
            break
        mid = 0.5 * (lo + hi)
        radius = max(math.ldexp(0.5 * tol, n_max - j) - 0.5 * width, 0.0)
        delta = _ITP_K1 * (width / span) ** (_ITP_K2 - 1.0) * width
        falsi = (lo * ghi - hi * glo) / (ghi - glo)
        towards_mid = math.copysign(1.0, mid - falsi)
        trunc = falsi + towards_mid * delta if delta <= abs(mid - falsi) else mid
        x = trunc if abs(trunc - mid) <= radius else mid - towards_mid * radius
        if not lo < x < hi:
            x = mid
            if not lo < x < hi:
                break  # no float lies strictly inside the bracket
        gx = g(x) - target
        if abs(gx) <= tol:
            return x
        if (gx < 0.0) == (glo < 0.0):
            lo, glo = x, gx
        else:
            hi, ghi = x, gx
    return 0.5 * (lo + hi)
