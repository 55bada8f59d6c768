"""Acceptance gate: one test per shipped guarantee, with timing budgets.

Every test prints a single machine-greppable pass/fail line; tolerances
are part of the contract and must not be loosened to make a run green.
"""

import math
import time

import numpy as np
import pytest

from helpers import criterion_01_draws, fd_mesh_gradient
from reference_checks import reference_lower_lemma, reference_minimize

from etau import _csvio, _kernels, catenoid, cli, curves, plateau
from etau.isometries import (
    POSITIVE,
    apply_lift_array,
    hyperbolic_translation,
    lift_jacobian_array,
    make_lift,
    sampled_sup_shift,
)
from etau.models import (
    AmbientSpace,
    metric_cylinder,
    metric_halfspace,
    pullback_metric,
    to_disk_jacobian,
    to_disk_model,
)

TWO_PI = 2.0 * math.pi


def report(num, name, ok, detail):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


_RACES: dict = {}


def race(tau, h):
    key = (tau, h)
    if key not in _RACES:
        _RACES[key] = plateau.compare_connected_vs_disks(AmbientSpace(tau), h)
    return _RACES[key]


def uncapped(comp):
    """Neither solve of a race stopped at the iteration cap."""
    reports = (comp.annulus_report, comp.disks_report)
    return all(rep.termination != "iteration_cap" for rep in reports)


def test_criterion_01_lifted_isometries_preserve_metric():
    start = time.perf_counter()
    worst = 0.0
    for tau, m, c, v in criterion_01_draws():
        amb = AmbientSpace(tau)
        lift = make_lift(amb, m, c, POSITIVE)
        q = apply_lift_array(lift, v)
        pulled = pullback_metric(metric_cylinder(amb, q), lift_jacobian_array(lift, v))
        dev = float(np.abs(pulled - metric_cylinder(amb, v)).max())
        worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 10.0
    report(1, "lifted-isometry-pullback", ok, f"max dev {worst:.3e}, {elapsed:.1f} s < 10 s")


def test_criterion_02_model_change_is_isometry():
    start = time.perf_counter()
    worst = 0.0
    for tau in (0.0, 0.1, 0.5, 1.0):
        amb = AmbientSpace(tau)
        rng = np.random.default_rng(202)
        p = np.array(
            [
                (
                    2.0 * rng.normal(),
                    math.exp(rng.uniform(math.log(0.05), math.log(20.0))),
                    5.0 * rng.normal(),
                )
                for _ in range(50)
            ]
        )
        q = to_disk_model(amb, p)
        pulled = pullback_metric(metric_cylinder(amb, q), to_disk_jacobian(amb, p))
        worst = max(worst, float(np.abs(pulled - metric_halfspace(amb, p)).max()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 5.0
    report(2, "model-change-pullback", ok, f"max dev {worst:.3e}, {elapsed:.1f} s < 5 s")


def test_criterion_03_vertical_shift_bound_and_sharpness():
    start = time.perf_counter()
    strict_ok = True
    worst_ratio = 0.0
    sharp_ratios = []
    for tau in (0.1, 0.5, 1.0):
        amb = AmbientSpace(tau)
        bound = 2.0 * tau * math.pi
        for m in np.linspace(0.1, 0.999, 50):
            lift = hyperbolic_translation(amb, 2.0 * math.atanh(float(m)))
            sup, _ = sampled_sup_shift(lift)
            strict_ok = strict_ok and sup < bound
            worst_ratio = max(worst_ratio, sup / bound)
        sharp = hyperbolic_translation(amb, 2.0 * math.atanh(1.0 - 1e-6))
        sup, _ = sampled_sup_shift(sharp)
        sharp_ratios.append(sup / bound)
        strict_ok = strict_ok and sup < bound
    elapsed = time.perf_counter() - start
    ok = strict_ok and min(sharp_ratios) > 0.99 and elapsed < 30.0
    report(
        3,
        "lift-bound-strict-and-sharp",
        ok,
        f"worst ratio {worst_ratio:.6f}, sharp ratio min {min(sharp_ratios):.6f}, "
        f"{elapsed:.1f} s < 30 s",
    )


def test_criterion_04_asymptotic_height_monotone_with_limits():
    start = time.perf_counter()
    ok = True
    details = []
    for tau in (0.0, 0.5):
        amb = AmbientSpace(tau)
        sup = catenoid.asymptotic_height_supremum(amb)
        grid = np.geomspace(1e-3, 1e6, 40)
        heights = [
            catenoid.asymptotic_height(catenoid.CatenoidProfile(amb, float(d)))
            for d in grid
        ]
        increasing = all(b > a for a, b in zip(heights, heights[1:]))
        ok = ok and increasing and heights[0] < 1e-2 and heights[-1] > 0.999 * sup
        details.append(f"tau={tau}: h(1e-3)={heights[0]:.2e}, h(1e6)/sup={heights[-1] / sup:.6f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(4, "height-monotone-limits", ok, "; ".join(details) + f", {elapsed:.1f} s < 60 s")


def test_criterion_05_disk_area_closed_form_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    worst_rel = 0.0
    for _ in range(50):
        tau = float(rng.uniform(0.0, 1.2))
        R = float(rng.uniform(0.1, 5.0))
        amb = AmbientSpace(tau)
        quad = catenoid.disk_area(amb, R)
        closed = catenoid.disk_area_closed_form(amb, R)
        worst_rel = max(worst_rel, abs(quad - closed) / closed)
    worst_flat = 0.0
    amb0 = AmbientSpace(0.0)
    for R in np.linspace(0.1, 5.0, 20):
        target = TWO_PI * (math.cosh(float(R)) - 1.0)
        worst_flat = max(worst_flat, abs(catenoid.disk_area(amb0, float(R)) - target))
    elapsed = time.perf_counter() - start
    ok = worst_rel < 1e-9 and worst_flat < 1e-10 and elapsed < 10.0
    report(
        5,
        "disk-area-oracle",
        ok,
        f"max rel {worst_rel:.2e}, max flat dev {worst_flat:.2e}, {elapsed:.1f} s < 10 s",
    )


def test_criterion_06_lemma_sweep_with_crossover_and_gap():
    start = time.perf_counter()
    ok = True
    details = []
    grid = np.geomspace(8.0, 1e5, 25)
    for tau in (0.0, 0.1, 0.5, 1.0):
        amb = AmbientSpace(tau)
        sweep = catenoid.find_crossover(amb, grid)
        # each inequality holds for all d above an empirical threshold:
        # once it starts holding on the grid it must never fail again
        upper_from = None
        lower_from = None
        bounds_ok = True
        for comp in sweep.rows:
            if comp.feasible and math.isfinite(comp.upper_bound):
                if comp.upper_holds and upper_from is None:
                    upper_from = comp.d
                if upper_from is not None and not comp.upper_holds:
                    bounds_ok = False
            if comp.feasible and math.isfinite(comp.lower_bound):
                if comp.lower_holds and lower_from is None:
                    lower_from = comp.d
                if lower_from is not None and not comp.lower_holds:
                    bounds_ok = False
        bounds_ok = bounds_ok and upper_from is not None and lower_from is not None
        for d in grid:
            chk = reference_lower_lemma(amb, float(d))
            if chk.sufficient_condition_holds:
                bounds_ok = bounds_ok and chk.holds
        heights = [
            catenoid.profile_height(
                catenoid.CatenoidProfile(amb, float(d)), catenoid.truncation_radius(float(d))
            )
            for d in grid
        ]
        increasing = all(b > a for a, b in zip(heights, heights[1:]))
        sup = catenoid.asymptotic_height_supremum(amb)
        gap = sup - catenoid.profile_height(
            catenoid.CatenoidProfile(amb, 1e4), catenoid.truncation_radius(1e4)
        )
        # gap read relative to the supremum; the absolute gap sits just
        # above 0.02 already at tau = 0 (0.0200013) and grows with tau
        gap_ok = gap < 0.02 * sup
        ok = ok and bounds_ok and sweep.found and increasing and gap_ok
        details.append(
            f"tau={tau}: crossover d={sweep.crossover_d:.3g}, "
            f"bounds from d=({upper_from:.3g}, {lower_from:.3g}), gap/sup={gap / sup:.5f}"
        )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    report(6, "lemma-sweep", ok, "; ".join(details) + f", {elapsed:.1f} s < 300 s")


def test_criterion_07_profile_sandwich():
    start = time.perf_counter()

    def flat(d):
        return catenoid.CatenoidProfile(AmbientSpace(0.0), d)

    worst_violation = -math.inf
    for d in np.geomspace(0.05, 100.0, 20):
        d = float(d)
        front = d / math.sqrt(1.0 + d * d)
        for s in np.linspace(0.1, 5.0, 20):
            s = float(s)
            rho = math.asinh(math.sqrt((1.0 + d * d) * math.cosh(s) ** 2 - 1.0))
            val = catenoid.profile_height(flat(d), rho)
            w = 2.0 * math.atan(math.tanh(0.5 * s))
            worst_violation = max(worst_violation, front * w - val, val - w)
    # the tau-independent profile approaches pi/2 at the regularized radius
    lam = catenoid.profile_height(flat(1e4), catenoid.truncation_radius(1e4))
    gap = abs(0.5 * math.pi - lam)
    gap_ok = gap < 0.02 * (0.5 * math.pi)  # relative, matching criterion 6
    elapsed = time.perf_counter() - start
    ok = worst_violation < 1e-9 and gap_ok and elapsed < 60.0
    report(
        7,
        "profile-sandwich",
        ok,
        f"worst violation {worst_violation:.2e}, |pi/2 - lambda| {gap:.6f}, "
        f"{elapsed:.1f} s < 60 s",
    )


def test_criterion_08_classifier_properties():
    start = time.perf_counter()
    ok = True
    for tau in (0.0, 0.1, 0.5, 1.0):
        amb = AmbientSpace(tau)
        thr = curves.tall_threshold(amb)
        above = curves.classify(amb, curves.parallel_circles([0.0, thr * 1.001]), n=360)
        below = curves.classify(amb, curves.parallel_circles([0.0, thr * 0.999]), n=360)
        ok = ok and above.verdict is curves.Verdict.TALL
        ok = ok and below.verdict is not curves.Verdict.TALL
        triple = curves.classify(
            amb, curves.parallel_circles([0.0, thr * 0.999, thr * 2.0]), n=360
        )
        ok = ok and triple.verdict is not curves.Verdict.TALL
    for fn in (math.sin, lambda th: 0.0, lambda th: 0.5 + 0.3 * math.sin(3.0 * th)):
        single = curves.classify(AmbientSpace(0.5), curves.graph_curve(fn), n=360)
        ok = ok and single.verdict is curves.Verdict.TALL
    for tau in (1.0 / math.sqrt(12.0), 0.3, 0.5, 1.0):
        amb = AmbientSpace(tau)
        short = curves.classify(amb, curves.parallel_circles([0.0, 0.05]), n=360)
        ok = ok and short.verdict is not curves.Verdict.NONEXISTENCE
    stable = True
    scenarios = [
        (AmbientSpace(0.5), curves.parallel_circles([0.0, 5.0])),
        (AmbientSpace(0.5), curves.parallel_circles([0.0, 4.0])),
        (AmbientSpace(0.1), curves.parallel_circles([0.0, 1.5])),
        (AmbientSpace(0.0), curves.graph_curve(math.sin)),
    ]
    for amb, curve in scenarios:
        verdicts = {curves.classify(amb, curve, n=n).verdict for n in (720, 360, 180)}
        stable = stable and len(verdicts) == 1
    elapsed = time.perf_counter() - start
    ok = ok and stable and elapsed < 30.0
    report(8, "classifier-properties", ok, f"stable={stable}, {elapsed:.1f} s < 30 s")


def test_criterion_09_gradient_check():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(900 + seed)
        mesh = plateau.mesh_disk(plateau.circle_loop(0.7, 0.2, 7), 7)  # 50 vertices
        interior = ~mesh.boundary_mask
        mesh.vertices[interior] += 0.02 * rng.standard_normal((int(interior.sum()), 3))
        tau = float(rng.uniform(0.0, 1.0))

        def area_of(verts):
            areas, _, _ = _kernels.area_and_grad(tau, verts, mesh.triangles, False)
            return float(np.sum(areas))

        grad = _kernels.area_and_grad(tau, mesh.vertices, mesh.triangles, True)[2]
        idx = np.flatnonzero(interior)
        fd = fd_mesh_gradient(area_of, mesh.vertices, idx)
        rel = float(np.abs(grad[idx] - fd).max()) / max(1.0, float(np.abs(fd).max()))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 30.0
    report(9, "gradient-check", ok, f"worst rel {worst:.2e} on 10 meshes, {elapsed:.1f} s < 30 s")


def test_criterion_10_solver_convergence():
    start = time.perf_counter()
    details = []
    disk_ok = True
    for tau in (0.0, 0.5):
        amb = AmbientSpace(tau)
        R = 2.0
        rho = math.tanh(0.5 * R)
        base = plateau.mesh_disk(
            plateau.circle_loop(rho, 0.0, 24), 6, plateau.hyperbolic_ring_fractions(R, 6)
        )
        rng = np.random.default_rng(42)
        interior = ~base.boundary_mask
        base.vertices[interior, 2] += 0.03 * rng.standard_normal(int(interior.sum()))
        cfg = plateau.SolverConfig(refinement_levels=4)
        _, reports = plateau.minimize_with_refinement(
            amb, base, cfg, plateau.circle_projector(rho, 0.0)
        )
        expected = catenoid.disk_area_closed_form(amb, R)
        rel = abs(reports[-1].final_area - expected) / expected
        capped = sum(rep.termination == "iteration_cap" for rep in reports)
        disk_ok = disk_ok and rel < 0.01 and capped == 0
        details.append(f"flat disk tau={tau}: rel {rel:.4f}, {capped} levels capped")

    comp = race(0.0, 1.0)
    annulus_rel = abs(comp.optimized_annulus_area - comp.analytic.area_catenoid) / (
        comp.analytic.area_catenoid
    )
    pair_closed = 2.0 * catenoid.disk_area_closed_form(AmbientSpace(0.0), comp.analytic.R)
    disks_rel = abs(comp.optimized_disks_area - pair_closed) / pair_closed
    details.append(f"annulus rel {annulus_rel:.4f}, disks rel {disks_rel:.4f}")
    elapsed = time.perf_counter() - start
    ok = disk_ok and uncapped(comp) and annulus_rel < 0.02 and disks_rel < 0.01
    ok = ok and elapsed < 600.0
    report(10, "solver-convergence", ok, "; ".join(details) + f", {elapsed:.1f} s < 600 s")


def test_vertical_graph_disk_refinement_converges():
    # criterion 10's disks, solved as vertical graphs t = u(x, y)
    for tau in (0.0, 0.5):
        amb = AmbientSpace(tau)
        R = 2.0
        rho = math.tanh(0.5 * R)
        base = plateau.mesh_disk(
            plateau.circle_loop(rho, 0.0, 24), 6, plateau.hyperbolic_ring_fractions(R, 6)
        )
        rng = np.random.default_rng(42)
        interior = ~base.boundary_mask
        base.vertices[interior, 2] += 0.03 * rng.standard_normal(int(interior.sum()))
        cfg = plateau.SolverConfig(refinement_levels=4)
        project = plateau.circle_projector(rho, 0.0)
        _, reports = plateau.minimize_with_refinement(amb, base, cfg, project, vertical=True)
        assert all(rep.termination in ("converged", "stalled") for rep in reports)
        # the same refinement solved to the gradient tolerance at every level
        mesh = base
        for level in range(cfg.refinement_levels + 1):
            v, ref = reference_minimize(amb, mesh, cfg, vertical=True)
            assert ref.termination == "converged"
            if level < cfg.refinement_levels:
                mesh = plateau.subdivide(
                    plateau.TriMesh(v, mesh.triangles, mesh.boundary_mask), project
                )
        gap = abs(reports[-1].final_area - ref.final_area) / ref.final_area
        assert gap < 1e-6, f"tau={tau}: level-4 area {gap:.2e} from the converged one"
        expected = catenoid.disk_area_closed_form(amb, R)
        rel = abs(reports[-1].final_area - expected) / expected
        assert rel < 5e-4, f"tau={tau}: level-4 rel error {rel:.2e}"


def test_criterion_11_connected_minimizer_race():
    start = time.perf_counter()
    ok = True
    details = []
    for tau, h in ((0.0, 1.0), (0.1, 1.2)):
        comp = race(tau, h)
        pair_closed = 2.0 * catenoid.disk_area_closed_form(AmbientSpace(tau), comp.analytic.R)
        tol = 0.02 * comp.analytic.area_catenoid + 0.01 * pair_closed
        margin = comp.optimized_disks_area - comp.optimized_annulus_area
        ok = ok and comp.connected_wins and margin > tol and uncapped(comp)
        details.append(
            f"(tau={tau}, h={h}): margin {margin:.1f} > tol {tol:.1f}, "
            f"{comp.annulus_report.termination}/{comp.disks_report.termination}"
        )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 900.0
    report(11, "connected-race", ok, "; ".join(details) + f", {elapsed:.1f} s < 900 s")


def test_criterion_12_deterministic_outputs(tmp_path):
    start = time.perf_counter()
    curve_path = tmp_path / "curve.csv"
    ang = np.linspace(0.0, TWO_PI, 720, endpoint=False)
    _csvio.write_curve_components(
        curve_path, [(ang, np.zeros(720)), (ang, np.full(720, 5.0))]
    )
    t2 = 2.0 * math.pi * math.sqrt(2.0)
    commands = {
        "lemmas.csv": [
            "lemmas", "--tau", "0.5", "--d-start", "8", "--d-stop", "100",
            "--d-count", "4",
        ],
        "iso.csv": [
            "isometry-bound", "--tau", "0.5", "--magnitudes", "0.5,0.9",
            "--samples", "2000", "--seed", "0",
        ],
        "profile.csv": [
            "classify", "--tau", "0.5", "--curve-file", str(curve_path),
            "--grid", "120",
        ],
        "rect.csv": [
            "rectangle", "--tau", "0.5", "--t1", "0.0", "--t2", repr(t2),
            "--theta1", "1.0", "--theta2", "1.6", "--samples", "181",
        ],
        "disk.csv": [
            "plateau", "--disk", "1.0", "--mesh-theta", "48", "--mesh-rings", "12",
            "--max-iterations", "150",
        ],
        "race.csv": [
            "plateau", "--height", "1.0", "--mesh-theta", "48", "--mesh-rows", "13",
            "--mesh-rings", "12", "--max-iterations", "150",
        ],
    }
    identical = True
    for name, argv in commands.items():
        paths = []
        for attempt in ("first", "second"):
            out = tmp_path / f"{attempt}_{name}"
            rc = cli.main(argv + ["--output", str(out)])
            assert rc == 0, f"{name} run returned {rc}"
            paths.append(out)
        identical = identical and paths[0].read_bytes() == paths[1].read_bytes()
    elapsed = time.perf_counter() - start
    report(
        12,
        "deterministic-csv",
        identical,
        f"{len(commands)} pipelines byte-identical={identical}, {elapsed:.1f} s",
    )
