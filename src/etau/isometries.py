"""Mobius isometries of the disk and their vertical lifts to E(-1, tau).

A positive Mobius isometry of the disk is written

    f(z) = (w1 z - conj(w2)) / (w2 z - conj(w1)),   |w1|^2 - |w2|^2 = 1,

with derivative f'(z) = -1 / (w2 z - conj(w1))^2.  Every such f lifts to
isometries of the total space,

    F(z, t) = (f(z),        t - 2 tau arg f'(z) + c),
    G(z, t) = (conj(f(z)), -t + 2 tau arg f'(z) + c),

where arg f' is a smooth branch of the argument and c is a constant.

The branch is pinned by a sector construction.  Writing o = w1/conj(w2)
(|o| > 1), one has f'(z) = -conj(w2)^2 (conj(z) - o)^2 / |w2 z - conj(w1)|^4,
and {conj(z) - o : |z| < 1} is the unit disk centered at -o, which misses the
origin.  The minimal closed sector containing that disk has half-width
beta = arcsin(1/|o|) < pi/2 about phi_c = arg(-o), so arg f' can be read off
continuously inside the sector (theta1, theta2) with

    theta_i = 2 phi_i + theta_tilde,   -conj(w2)^2 = |w2|^2 e^{i theta_tilde},

of width 4 arcsin(|f(0)|) < 2 pi.  Choosing the centered branch constant
c = tau (theta1 + theta2) makes the vertical displacement of F satisfy

    sup |pi_2(F(z, t)) - t| = tau (theta2 - theta1) = 4 tau arcsin(|f(0)|),

strictly below the sharp threshold 2 tau pi, and approaching it as
|f(0)| -> 1.

Lifts act on arrays: (n, 3) vertex rows (x, y, t) in, (n, 3) images or (n, 3, 3) Jacobians
out, and a DomainError names any bad row.  A single point is a (1, 3) array.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError
from .models import AmbientSpace, _cylinder_rows

__all__ = [
    "POSITIVE", "NEGATIVE", "MobiusIsometry", "mobius_identity", "disk_rotation",
    "hyperbolic_mobius", "mobius_apply", "mobius_derivative", "mobius_compose", "SectorBranch",
    "compute_branch_sector", "arg_fprime", "LiftedIsometry", "make_lift", "bounded_lift",
    "vertical_translation", "rotation_lift", "hyperbolic_translation", "t_shift",
    "apply_lift_array", "lift_jacobian_array", "sampled_sup_shift",
]

_NORMALIZATION_SLACK = 1e-6
_DEGENERATE_W2 = 1e-150

POSITIVE = "positive"
NEGATIVE = "negative"


@dataclass(frozen=True)
class MobiusIsometry:
    """Parameters (w1, w2) of a positive disk isometry; normalized on construction."""

    w1: complex
    w2: complex

    def __post_init__(self):
        n = abs(self.w1) ** 2 - abs(self.w2) ** 2
        # the slack scales with |w1|^2: computing cosh^2 - sinh^2 in doubles
        # cancels catastrophically for large rapidity, and normalization
        # divides the loss back out
        slack = _NORMALIZATION_SLACK * max(1.0, abs(self.w1) ** 2)
        if not (math.isfinite(n) and n > 0 and abs(n - 1.0) <= slack):
            raise UsageError(
                "|w1|^2 - |w2|^2 = %r violates the unit normalization beyond slack %g"
                % (n, slack)
            )
        s = 1.0 / math.sqrt(n)
        object.__setattr__(self, "w1", complex(self.w1) * s)
        object.__setattr__(self, "w2", complex(self.w2) * s)

    def origin_image_magnitude(self) -> float:
        """|f(0)| = |w2| / |w1|."""
        return abs(self.w2) / abs(self.w1)


def mobius_identity() -> MobiusIsometry:
    return MobiusIsometry(1j, 0j)


def disk_rotation(alpha: float) -> MobiusIsometry:
    """Rotation z -> e^{i alpha} z."""
    return MobiusIsometry(1j * cmath.exp(0.5j * alpha), 0j)


def hyperbolic_mobius(r: float) -> MobiusIsometry:
    """Translation along the real-axis geodesic: fixes +-1 and sends 0 to tanh(r)."""
    return MobiusIsometry(-1j * math.cosh(r), -1j * math.sinh(r))


def mobius_apply(m: MobiusIsometry, z):
    """Evaluate f at z (complex scalar or array)."""
    return (m.w1 * z - np.conj(m.w2)) / (m.w2 * z - np.conj(m.w1))


def mobius_derivative(m: MobiusIsometry, z):
    """f'(z) = -1 / (w2 z - conj(w1))^2; nowhere zero."""
    d = m.w2 * z - np.conj(m.w1)
    return -1.0 / (d * d)


def mobius_compose(outer: MobiusIsometry, inner: MobiusIsometry) -> MobiusIsometry:
    """Parameters of outer o inner.

    The 2x2 matrices [[w1, -conj(w2)], [w2, -conj(w1)]] have determinant -1,
    so the raw product leaves the parametrization; multiplying by i (a
    projective no-op) brings it back.
    """
    a = np.array([[outer.w1, -outer.w2.conjugate()], [outer.w2, -outer.w1.conjugate()]])
    b = np.array([[inner.w1, -inner.w2.conjugate()], [inner.w2, -inner.w1.conjugate()]])
    m = 1j * (a @ b)
    return MobiusIsometry(complex(m[0, 0]), complex(m[1, 0]))


@dataclass(frozen=True)
class SectorBranch:
    """Branch data for arg f': values lie in [theta1, theta2].

    For rotations (w2 = 0) the sector degenerates to width zero.  The private
    fields carry what is needed to evaluate the branch: the disk center -o and
    the constant theta_tilde, or the constant argument in the degenerate case.
    """

    theta1: float
    theta2: float
    o: complex | None
    theta_tilde: float
    phi_center: float

    @property
    def width(self) -> float:
        return self.theta2 - self.theta1


def compute_branch_sector(m: MobiusIsometry) -> SectorBranch:
    """Sector (theta1, theta2) of width 4 arcsin(|f(0)|) containing arg f'(D)."""
    if abs(m.w2) < _DEGENERATE_W2:
        fp = mobius_derivative(m, 0.0)
        a0 = math.atan2(fp.imag, fp.real)
        return SectorBranch(a0, a0, None, 0.0, 0.0)
    o = m.w1 / m.w2.conjugate()
    minus_w2c_sq = -(m.w2.conjugate() ** 2)
    theta_tilde = math.atan2(minus_w2c_sq.imag, minus_w2c_sq.real) % (2.0 * math.pi)
    phi_c = cmath.phase(-o)
    beta = math.asin(1.0 / abs(o))
    theta1 = 2.0 * (phi_c - beta) + theta_tilde
    theta2 = 2.0 * (phi_c + beta) + theta_tilde
    return SectorBranch(theta1, theta2, o, theta_tilde, phi_c)


def arg_fprime(m: MobiusIsometry, z, sector: SectorBranch | None = None):
    """Smooth branch of arg f'(z) taking values in [theta1, theta2].

    Accepts complex scalars or arrays; the result has the shape of z.  The
    branch is evaluated through the sector construction, so it is
    continuous on the whole open disk; no per-point principal value is taken.
    """
    if sector is None:
        sector = compute_branch_sector(m)
    if sector.o is None:
        return np.full(np.shape(z), sector.theta1)
    w = np.conj(z) - sector.o
    rotated = w * cmath.exp(-1j * sector.phi_center)
    delta = np.arctan2(np.imag(rotated), np.real(rotated))
    return sector.theta_tilde + 2.0 * (sector.phi_center + delta)


@dataclass(frozen=True)
class LiftedIsometry:
    """Vertical lift of a Mobius isometry: the F-form (positive) or G-form (negative)."""

    tau: float
    f: MobiusIsometry
    c: float
    orientation: str
    sector: SectorBranch

    def __post_init__(self):
        if self.orientation not in (POSITIVE, NEGATIVE):
            raise UsageError("orientation must be %r or %r" % (POSITIVE, NEGATIVE))


def make_lift(
    amb: AmbientSpace, m: MobiusIsometry, c: float, orientation: str = POSITIVE
) -> LiftedIsometry:
    """Lift with an explicit branch constant c."""
    return LiftedIsometry(amb.tau, m, float(c), orientation, compute_branch_sector(m))


def bounded_lift(amb: AmbientSpace, m: MobiusIsometry) -> LiftedIsometry:
    """The F-form lift whose vertical displacement is strictly below 2 tau pi.

    Uses the centered branch constant c = tau (theta1 + theta2): the
    displacement t' - t = tau (theta1 + theta2) - 2 tau arg f' then satisfies
    |t' - t| < tau (theta2 - theta1) = 4 tau arcsin(|f(0)|) < 2 tau pi.
    """
    sector = compute_branch_sector(m)
    c = amb.tau * (sector.theta1 + sector.theta2)
    return LiftedIsometry(amb.tau, m, c, POSITIVE, sector)


def vertical_translation(amb: AmbientSpace, s: float) -> LiftedIsometry:
    """(z, t) -> (z, t + s)."""
    return make_lift(amb, mobius_identity(), s, POSITIVE)


def rotation_lift(amb: AmbientSpace, alpha: float) -> LiftedIsometry:
    """Rotation about the axis that preserves every fiber coordinate."""
    m = disk_rotation(alpha)
    sector = compute_branch_sector(m)
    # arg f' is the constant theta1; c = 2 tau theta1 cancels the shift.
    return LiftedIsometry(amb.tau, m, 2.0 * amb.tau * sector.theta1, POSITIVE, sector)


def hyperbolic_translation(amb: AmbientSpace, r: float) -> LiftedIsometry:
    """Bounded lift of the real-axis hyperbolic translation by r."""
    return bounded_lift(amb, hyperbolic_mobius(r))


def t_shift(lift: LiftedIsometry, z):
    """Vertical displacement pi_2(F(z, t)) - t of a positive lift at z."""
    if lift.orientation != POSITIVE:
        raise UsageError("t_shift is defined for positive lifts only")
    return lift.c - 2.0 * lift.tau * arg_fprime(lift.f, z, lift.sector)


def apply_lift_array(lift: LiftedIsometry, vertices) -> np.ndarray:
    """Images of (n, 3) cylinder-model vertices (x, y, t) under the lift, shape (n, 3)."""
    v = _cylinder_rows(vertices)
    z = v[:, 0] + 1j * v[:, 1]
    w = mobius_apply(lift.f, z)
    if lift.orientation == POSITIVE:
        return np.stack([w.real, w.imag, v[:, 2] + t_shift(lift, z)], axis=1)
    t = 2.0 * lift.tau * arg_fprime(lift.f, z, lift.sector) + lift.c - v[:, 2]
    return np.stack([w.real, -w.imag, t], axis=1)


def lift_jacobian_array(lift: LiftedIsometry, vertices) -> np.ndarray:
    """Analytic Jacobians of the lift at (n, 3) vertices, shape (n, 3, 3).

    d(arg f') = Im(q dz) with q = f''/f' = -2 w2 / (w2 z - conj(w1)), so its x and y
    derivatives are Im q and Re q.  The negative lift negates the last two rows.
    """
    v = _cylinder_rows(vertices)
    z = v[:, 0] + 1j * v[:, 1]
    fp = mobius_derivative(lift.f, z)
    q = -2.0 * lift.f.w2 / (lift.f.w2 * z - np.conj(lift.f.w1))
    sign = 1.0 if lift.orientation == POSITIVE else -1.0
    k = -sign * 2.0 * lift.tau
    jac = np.zeros((len(v), 3, 3))
    jac[:, 0, :2] = np.stack([fp.real, -fp.imag], axis=1)
    jac[:, 1, :2] = np.stack([sign * fp.imag, sign * fp.real], axis=1)
    jac[:, 2] = np.stack([k * q.imag, k * q.real, np.full(len(v), sign)], axis=1)
    return jac


@functools.lru_cache(maxsize=8)
def _boundary_rings(ring_depths: tuple, ring_samples: int) -> np.ndarray:
    """Read-only concatenation of the circles of radius ``1 - depth``."""
    ang = np.linspace(0.0, 2.0 * math.pi, ring_samples, endpoint=False)
    radii = 1.0 - np.asarray(ring_depths, dtype=float)
    rings = (radii[:, None] * np.exp(1j * ang)).ravel()
    rings.setflags(write=False)
    return rings


def _sup_shift_samples(n_random: int, seed: int, ring_depths, ring_samples: int) -> np.ndarray:
    """The points of :func:`sampled_sup_shift`: seeded uniform ones, then the rings."""
    rings = _boundary_rings(tuple(ring_depths), ring_samples)
    rng = np.random.default_rng(seed)
    radii = np.sqrt(rng.uniform(0.0, 1.0, n_random))
    angles = rng.uniform(0.0, 2.0 * math.pi, n_random)
    zs = np.empty(n_random + rings.size, dtype=complex)
    # radii * exp(i angles), written without complex temporaries
    np.multiply(radii, np.cos(angles), out=zs.real[:n_random])
    np.multiply(radii, np.sin(angles), out=zs.imag[:n_random])
    zs[n_random:] = rings
    return zs


def sampled_sup_shift(
    lift: LiftedIsometry,
    n_random: int = 10_000,
    seed: int = 0,
    ring_depths=(1e-3, 1e-6, 1e-9),
    ring_samples: int = 2048,
):
    """Sampled sup of |t-shift| over the open disk -> (sup, argmax z).

    Combines seeded uniform samples with rings hugging the boundary, where
    the extremes of arg f' live; the rings are built once per
    ``(ring_depths, ring_samples)``.  Deterministic for fixed arguments.
    ``n_random``, ``seed`` and ``ring_samples`` must be nonnegative, every
    ring depth must lie in ``(0, 1]`` so that its ring lies in the open
    disk, and there must be at least one sample.
    """
    for name, value in (("n_random", n_random), ("seed", seed), ("ring_samples", ring_samples)):
        if value < 0:
            raise DomainError(f"{name} must be nonnegative, got {value!r}")
    for depth in ring_depths:
        if not 0.0 < depth <= 1.0:
            raise DomainError(f"ring depth must lie in (0, 1], got {depth!r}")
    zs = _sup_shift_samples(n_random, seed, ring_depths, ring_samples)
    if zs.size == 0:
        raise DomainError("the sup shift needs at least one sample point")
    shifts = t_shift(lift, zs)
    k = int(np.argmax(np.abs(shifts)))
    return float(np.abs(shifts[k])), complex(zs[k])
