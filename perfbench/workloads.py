"""The benchmark's three workloads: inputs from a seed, one op, its check.

Each workload draws the inputs of op ``k`` from ``default_rng([seed, k])``
so an op's inputs depend only on the seed and its index, runs the op
through the public API, and checks the result at the acceptance
tolerances of the test suite.  ``check`` returns ``(ok, rel_err,
detail)``; ``rel_err`` is None where the op has no area reference.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

import numpy as np

from etau import _csvio, barriers, catenoid, cli, curves, isometries, plateau
from etau.models import AmbientSpace

# Iteration cap of the smoke ops, which only exercise the plumbing.
SMOKE_ITERATIONS = 5


class DiskRefine:
    """Criterion-10 disk (R = 2, 24 x 6 mesh) refined to level 3, to 1 % accuracy."""

    name = "disk-refine"
    R = 2.0
    N_THETA = 24
    N_RINGS = 6
    JITTER = 0.03
    LEVELS = 3
    TOL = 0.01

    def __init__(self, workdir: Path, smoke: bool) -> None:
        if smoke:
            self.config = plateau.SolverConfig(
                refinement_levels=self.LEVELS, max_iterations=SMOKE_ITERATIONS
            )
        else:
            self.config = plateau.SolverConfig(refinement_levels=self.LEVELS)
        self.rho = math.tanh(0.5 * self.R)

    def inputs(self, rng: np.random.Generator) -> dict:
        tau = float(rng.choice([0.0, 0.5]))
        mesh = plateau.mesh_disk(
            plateau.circle_loop(self.rho, 0.0, self.N_THETA),
            self.N_RINGS,
            plateau.hyperbolic_ring_fractions(self.R, self.N_RINGS),
        )
        interior = ~mesh.boundary_mask
        mesh.vertices[interior, 2] += self.JITTER * rng.standard_normal(int(interior.sum()))
        return {"tau": tau, "mesh": mesh}

    def run(self, inp: dict):
        _, reports = plateau.minimize_with_refinement(
            AmbientSpace(inp["tau"]),
            inp["mesh"],
            self.config,
            plateau.circle_projector(self.rho, 0.0),
        )
        return reports

    def check(self, inp: dict, reports) -> tuple[bool, float | None, str]:
        expected = catenoid.disk_area_closed_form(AmbientSpace(inp["tau"]), self.R)
        rel = abs(reports[-1].final_area - expected) / expected
        return rel < self.TOL, rel, f"area rel error {rel:.3e} (< {self.TOL})"


class Race:
    """Connected-versus-disks race through the CLI at the default mesh."""

    name = "race"
    TAU = (0.0, 0.1)
    H = (1.0, 1.2)

    def __init__(self, workdir: Path, smoke: bool) -> None:
        self.csv = workdir / "race.csv"
        self.extra = ["--max-iterations", str(SMOKE_ITERATIONS)] if smoke else []

    def inputs(self, rng: np.random.Generator) -> dict:
        return {"tau": float(rng.uniform(*self.TAU)), "h": float(rng.uniform(*self.H))}

    def run(self, inp: dict) -> int:
        argv = ["plateau", "--height", repr(inp["h"]), "--tau", repr(inp["tau"])]
        argv += ["--output", str(self.csv)] + self.extra
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, inp: dict, rc: int) -> tuple[bool, float | None, str]:
        if rc != 0:
            return False, None, f"etau plateau exited with {rc}"
        _, _, columns, rows = _csvio.read_table(self.csv, "plateau-compare")
        row = dict(zip(columns, rows[0]))
        a_cat = float(row["analytic_annulus"])
        a_pair = 2.0 * catenoid.disk_area_closed_form(
            AmbientSpace(inp["tau"]), float(row["R"])
        )
        opt_annulus = float(row["optimized_annulus"])
        opt_disks = float(row["optimized_disks"])
        margin = opt_disks - opt_annulus
        tol = 0.02 * a_cat + 0.01 * a_pair
        rel = max(abs(opt_annulus - a_cat) / a_cat, abs(opt_disks - a_pair) / a_pair)
        ok = row["connected_wins"] == "true" and margin > tol
        return ok, rel, f"margin {margin:.2f} > tol {tol:.2f}, area rel error {rel:.3e}"


class Asymptotic:
    """Analytic side: height inversion, crossover sweep, disk area, classifier, lifts."""

    name = "asymptotic"
    TAU = (0.0, 1.2)
    N_HEIGHTS = 8
    HEIGHT_FRACTIONS = (0.05, 0.95)
    RADII = (0.5, 5.0)
    CLASSIFY_N = 360
    TALL_FACTOR = 1.001
    HEIGHT_TOL = 1e-8
    DISK_REL_TOL = 1e-9

    def __init__(self, workdir: Path, smoke: bool) -> None:
        pass

    def inputs(self, rng: np.random.Generator) -> dict:
        tau = float(rng.uniform(*self.TAU))
        sup = catenoid.asymptotic_height_supremum(AmbientSpace(tau))
        return {
            "tau": tau,
            "heights": [float(f) * sup for f in rng.uniform(*self.HEIGHT_FRACTIONS, self.N_HEIGHTS)],
            "disk_R": float(rng.uniform(*self.RADII)),
            "translation": float(rng.uniform(*self.RADII)),
            "shift_seed": int(rng.integers(2**31)),
        }

    def run(self, inp: dict) -> dict:
        amb = AmbientSpace(inp["tau"])
        necks = [catenoid.neck_parameter_for_height(amb, h) for h in inp["heights"]]
        sweep = catenoid.find_crossover(amb, catenoid.default_crossover_grid(25))
        disk_quad = catenoid.disk_area(amb, inp["disk_R"])
        disk_closed = catenoid.disk_area_closed_form(amb, inp["disk_R"])
        lower, upper = barriers.catenoid_asymptotic_circles(amb, necks[0])
        catenoid_pair = curves.classify(
            amb, curves.AsymptoticCurve([lower, upper]), n=self.CLASSIFY_N
        )
        above = self.TALL_FACTOR * curves.tall_threshold(amb)
        tall_pair = curves.classify(
            amb, curves.parallel_circles([0.0, above]), n=self.CLASSIFY_N
        )
        lift = isometries.hyperbolic_translation(amb, inp["translation"])
        shift, _ = isometries.sampled_sup_shift(lift, seed=inp["shift_seed"])
        return {
            "necks": necks,
            "sweep": sweep,
            "disk": (disk_quad, disk_closed),
            "catenoid_pair": catenoid_pair.verdict,
            "tall_pair": tall_pair.verdict,
            "shift": shift,
        }

    def check(self, inp: dict, out: dict) -> tuple[bool, float | None, str]:
        amb = AmbientSpace(inp["tau"])
        failures = []
        for h, d in zip(inp["heights"], out["necks"]):
            got = catenoid.asymptotic_height(catenoid.CatenoidProfile(amb, d))
            if not abs(got - h) <= self.HEIGHT_TOL:
                failures.append(f"height {h!r} inverted to {got!r}")
        if not (out["sweep"].found and out["sweep"].monotone):
            failures.append("crossover sweep not found or not monotone")
        quad, closed = out["disk"]
        if not abs(quad - closed) <= self.DISK_REL_TOL * closed:
            failures.append(f"disk area {quad!r} vs closed form {closed!r}")
        if out["catenoid_pair"] is curves.Verdict.TALL:
            failures.append("catenoid circle pair classified Tall")
        if out["tall_pair"] is not curves.Verdict.TALL:
            failures.append(f"pair above the tall threshold classified {out['tall_pair'].value}")
        bound = 2.0 * inp["tau"] * math.pi
        if not (out["shift"] < bound or out["shift"] == bound == 0.0):
            failures.append(f"sup shift {out['shift']!r} not below 2 tau pi = {bound!r}")
        return not failures, None, "; ".join(failures) or "all checks pass"


WORKLOADS = {cls.name: cls for cls in (DiskRefine, Race, Asymptotic)}
