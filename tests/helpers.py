"""Shared finite-difference, curve, lift and kernel-counting helpers for the test suite."""

import cmath
import functools
import math
from types import SimpleNamespace

import numpy as np

from etau import _kernels
from etau.barriers import BoundaryCurve
from etau.isometries import MobiusIsometry


def fd_jacobian(fn, p, h=1e-7):
    """Central-difference Jacobian of fn: R^3 -> R^3 around the array p."""
    p = np.asarray(p, dtype=float)
    cols = []
    for k in range(3):
        dp = np.zeros(3)
        dp[k] = h
        cols.append((fn(p + dp) - fn(p - dp)) / (2.0 * h))
    return np.stack(cols, axis=1)


def fd_mesh_gradient(area_fn, vertices, indices, h=1e-6):
    """Central-difference gradient of a mesh area functional.

    Only the rows listed in `indices` are differentiated; returns an array
    of shape (len(indices), 3).
    """
    out = np.zeros((len(indices), 3))
    for row, vi in enumerate(indices):
        for c in range(3):
            vp = vertices.copy()
            vm = vertices.copy()
            vp[vi, c] += h
            vm[vi, c] -= h
            out[row, c] = (area_fn(vp) - area_fn(vm)) / (2.0 * h)
    return out


def dense_polyline(corners, closed, step=0.008):
    """Interpolate corner-to-corner with angular steps below one degree."""
    theta, t = [], []
    loop = list(corners) + ([corners[0]] if closed else [])
    for (a0, t0), (a1, t1) in zip(loop, loop[1:]):
        n = max(2, int(abs(a1 - a0) / step) + 2)
        for k in range(n - 1):
            f = k / (n - 1)
            theta.append(a0 + f * (a1 - a0))
            t.append(t0 + f * (t1 - t0))
    if not closed:
        theta.append(corners[-1][0])
        t.append(corners[-1][1])
    return BoundaryCurve(theta, t, closed)


def same_bits(a, b):
    """Whether two curves have the same closedness and bit-identical arrays."""
    return (
        a.closed == b.closed
        and a.theta_array().tobytes() == b.theta_array().tobytes()
        and a.t_array().tobytes() == b.t_array().tobytes()
    )


class _CountedEvaluation:
    def __init__(self, ev, record):
        self._ev = ev
        self._record = record
        self.tri_areas = ev.tri_areas
        self.degenerate = ev.degenerate

    def gradient(self):
        self._record["gradients"] += 1
        return self._ev.gradient()


def record_plans(monkeypatch, wrap=None):
    """Wrap ``etau._kernels.plan`` and the ``evaluate`` of every plan it builds.

    Returns a list with one record per plan built: its ``vertical`` flag,
    the vertices of each ``evaluate`` call (``candidates``) and the count
    of ``gradient()`` calls on its evaluations (``gradients``).  When
    given, ``wrap(ev, k)`` replaces the plan's ``k``-th evaluation.
    """
    plans = []
    plan = _kernels.plan

    def recording_plan(tau, vertices, triangles, *, vertical=False):
        inner = plan(tau, vertices, triangles, vertical=vertical)
        record = {"vertical": vertical, "candidates": [], "gradients": 0}
        plans.append(record)

        def evaluate(v):
            record["candidates"].append(np.array(v))
            ev = _CountedEvaluation(inner.evaluate(v), record)
            return ev if wrap is None else wrap(ev, len(record["candidates"]) - 1)

        return SimpleNamespace(evaluate=evaluate)

    monkeypatch.setattr(_kernels, "plan", recording_plan)
    return plans


@functools.lru_cache(maxsize=1)
def criterion_01_draws():
    """The 400 lifts and 40,000 points of acceptance criterion 1, in draw order.

    For each tau in (0, 0.1, 0.5, 1) a generator seeded 101 draws 100 lifts
    (a rapidity below 2, two angles and a branch constant), each followed
    by its 100 points 0.9 sqrt(u) e^{i phi} of the disk with t = 3 N(0, 1).
    Returns (tau, MobiusIsometry, c, vertices) tuples with vertices of
    shape (100, 3).
    """
    draws = []
    for tau in (0.0, 0.1, 0.5, 1.0):
        rng = np.random.default_rng(101)
        for _ in range(100):
            r = rng.uniform(0.0, 2.0)
            a1 = rng.uniform(0.0, 2.0 * math.pi)
            a2 = rng.uniform(0.0, 2.0 * math.pi)
            m = MobiusIsometry(cmath.rect(math.cosh(r), a1), cmath.rect(math.sinh(r), a2))
            c = rng.normal()
            rows = []
            for _ in range(100):
                z = 0.9 * math.sqrt(rng.uniform(0.0, 1.0)) * cmath.exp(
                    1j * rng.uniform(0.0, 2.0 * math.pi)
                )
                rows.append((z.real, z.imag, 3.0 * rng.normal()))
            vertices = np.array(rows)
            vertices.flags.writeable = False  # the cache hands these to every caller
            draws.append((tau, m, c, vertices))
    return tuple(draws)
